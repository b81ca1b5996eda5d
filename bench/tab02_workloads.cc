// Table 2: the evaluation functions with their measured record-phase working
// sets for inputs A and B. The "spec" columns come from the catalog; the
// "recorded" columns run the record phase and report what host page recording
// actually captured, validating the workload models against the paper's table.

#include <cstdio>

#include "bench/bench_util.h"

namespace faasnap {
namespace bench {
namespace {

double Mb(uint64_t pages) { return static_cast<double>(PagesToBytes(pages)) / (1024.0 * 1024.0); }

void Run() {
  PrintBanner("Table 2", "functions used in the evaluation");

  TextTable table({"function", "description", "spec WS A (MB)", "spec WS B (MB)",
                   "recorded WS A (MB)", "REAP WS A (MB)", "loading set A (MB)"});
  for (const FunctionSpec& spec : FunctionCatalog()) {
    Platform platform;
    const FunctionSnapshot snap =
        platform.Record(TraceGenerator(spec, platform.config().layout), MakeInputA(spec));
    table.AddRow({spec.name, spec.description,
                  FormatCell("%.1f", Mb(spec.WorkingSetPages(spec.input_a).value())),
                  FormatCell("%.1f", Mb(spec.WorkingSetPages(spec.input_b).value())),
                  FormatCell("%.1f", Mb(snap.ws_groups.AllPages().page_count())),
                  FormatCell("%.1f", Mb(snap.reap_ws.size_pages().value())),
                  FormatCell("%.1f", Mb(snap.loading_set.total_pages.value()))});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("Paper anchors (Table 2 WS A): hello-world 11.8, read-list 526, mmap 536,\n"
              "image 20.6, json 12.7, pyaes 12.6, chameleon 22.9, matmul 113, ffmpeg 179,\n"
              "compression 15.3, recognition 230, pagerank 104 MB. Host page recording\n"
              "captures more than REAP's faulting-page set (section 4.4); the loading set\n"
              "drops zero pages (section 4.6).\n");
}

}  // namespace
}  // namespace bench
}  // namespace faasnap

int main() {
  faasnap::bench::Run();
  return 0;
}
