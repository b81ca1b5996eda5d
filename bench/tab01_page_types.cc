// Table 1: the four page types and their mappings under FaaSnap.
//
//   loading set  — non-zero, in the working set  -> loading set file
//   cold set     — non-zero, outside the WS      -> memory file
//   released set — zero (freed+sanitized), in WS -> anonymous
//   unused set   — zero, never touched           -> anonymous
//
// This bench runs the record phase for each function and prints the measured
// sizes of the four sets, validating Table 1's taxonomy and the section 4.8
// observation that the cold set is "usually more than 100 MB, mostly boot pages".

#include <cstdio>

#include "bench/bench_util.h"

namespace faasnap {
namespace bench {
namespace {

double Mb(uint64_t pages) { return static_cast<double>(PagesToBytes(pages)) / (1024.0 * 1024.0); }

void Run() {
  PrintBanner("Table 1", "page types and their mappings under FaaSnap (MB)");

  TextTable table({"function", "loading set -> ls file", "cold set -> memory file",
                   "released set -> anon", "unused set -> anon"});
  for (const FunctionSpec& spec : FunctionCatalog()) {
    Platform platform;
    const FunctionSnapshot snap =
        platform.Record(TraceGenerator(spec, platform.config().layout), MakeInputA(spec));

    const PageRangeSet ws = snap.ws_groups.AllPages();
    const PageRangeSet& nonzero = snap.memory_sanitized.nonzero;
    const PageRangeSet zero = snap.memory_sanitized.ZeroRegions();
    const uint64_t loading = ws.Intersect(nonzero).page_count();
    const uint64_t cold = nonzero.Subtract(ws).page_count();
    const uint64_t released = ws.Intersect(zero).page_count();
    const uint64_t unused = zero.Subtract(ws).page_count();
    FAASNAP_CHECK(loading + cold + released + unused == snap.guest_pages.value());
    table.AddRow({spec.name, FormatCell("%.1f", Mb(loading)), FormatCell("%.1f", Mb(cold)),
                  FormatCell("%.1f", Mb(released)), FormatCell("%.1f", Mb(unused))});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("Paper anchors: the four sets partition guest memory; the cold set is >100 MB\n"
              "(mostly boot pages); the released set is large for mmap-style functions.\n");
}

}  // namespace
}  // namespace bench
}  // namespace faasnap

int main() {
  faasnap::bench::Run();
  return 0;
}
