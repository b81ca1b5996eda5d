// Extension (paper section 7.2): snapshot storage costs.
//
// "In general, the sizes of snapshot memory files are the same as the guest
// memory size... In practice, since guest memory often contains zero pages,
// snapshot files can be saved as sparse files to reduce their sizes."
//
// Per function: the nominal 2 GiB memory file vs its sparse (non-zero-extent)
// size — for both the vanilla file and FaaSnap's sanitized file, whose freed-page
// zeroing shrinks it further — plus the working/loading set file sizes and the
// local-SSD bytes needed under section 7.2's hybrid placement (loading set only).

#include <cstdio>

#include "bench/bench_util.h"

namespace faasnap {
namespace bench {
namespace {

double Mb(uint64_t pages) { return static_cast<double>(PagesToBytes(pages)) / (1024.0 * 1024.0); }

void Run() {
  PrintBanner("Extension: snapshot storage costs (section 7.2)",
              "per-function on-disk sizes (MB); guest memory is 2048 MB nominal");

  TextTable table({"function", "sparse mem (vanilla)", "sparse mem (sanitized)",
                   "REAP ws file", "loading set file", "local bytes (hybrid)"});
  double vanilla_total = 0;
  double sanitized_total = 0;
  double hybrid_total = 0;
  for (const FunctionSpec& spec : FunctionCatalog()) {
    Platform platform;
    const FunctionSnapshot snap =
        platform.Record(TraceGenerator(spec, platform.config().layout), MakeInputA(spec));
    const double vanilla = Mb(snap.memory_vanilla.nonzero.page_count());
    const double sanitized = Mb(snap.memory_sanitized.nonzero.page_count());
    const double reap_ws = Mb(snap.reap_ws.size_pages().value());
    const double loading = Mb(snap.loading_set.total_pages.value());
    vanilla_total += vanilla;
    sanitized_total += sanitized;
    hybrid_total += loading;
    table.AddRow({spec.name, FormatCell("%.1f", vanilla), FormatCell("%.1f", sanitized),
                  FormatCell("%.1f", reap_ws), FormatCell("%.1f", loading),
                  FormatCell("%.1f", loading)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("totals for all 12 functions: vanilla sparse %.0f MB, sanitized sparse %.0f MB\n"
              "(freed-page sanitization shrinks snapshots too), hybrid local-SSD footprint\n"
              "%.0f MB — vs %.0f MB if whole sparse snapshots had to stay on local SSD.\n",
              vanilla_total, sanitized_total, hybrid_total, sanitized_total + hybrid_total);
}

}  // namespace
}  // namespace bench
}  // namespace faasnap

int main() {
  faasnap::bench::Run();
  return 0;
}
