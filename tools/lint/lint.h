// faasnap_lint: a small project-specific static analyzer, run as a ctest.
//
// Clang-tidy and -Wthread-safety catch generic C++ hazards; this linter
// enforces the rules that are specific to this codebase and that no generic
// tool knows about:
//
//   * layering     — #include edges between src/ directories must follow the
//                    DAG in tools/lint/layers.json (e.g. sim/ never includes
//                    daemon/; common/ includes nothing).
//   * determinism  — simulation code must not reach for wall clocks or
//                    ambient randomness (std::chrono::system_clock, rand(),
//                    std::random_device, time(), ...); the sim clock and the
//                    seeded RNG are the only sanctioned sources. Files that
//                    measure the real kernel (src/native/) are allowlisted.
//   * container    — std::unordered_{map,set} are banned outside an explicit
//                    allowlist: their iteration order is
//                    implementation-defined and has twice nearly leaked into
//                    "deterministic" traces. Lookup-only uses are allowlisted.
//   * tracer-pairing — a file that opens spans (->Begin() / .Begin()) must
//                    also close them (->End() / .End()); a missing End leaves
//                    the span open forever and skews critical-path analysis.
//   * void-comment — discarding a value with `(void)expr;` requires a
//                    justifying comment on the same line. Status is
//                    [[nodiscard]], so this is the only sanctioned way to
//                    drop one — and it must say why.
//   * obs-naming   — metric and span names are lowercase dotted identifiers
//                    (`faults.batch_installs`, `disk.read`). Metric names need
//                    at least two segments (a subsystem prefix); span names may
//                    be single-segment (`invoke`). Checked at Get{Counter,
//                    Gauge,Histogram}/Begin/Instant/Complete/InternName call
//                    sites with a string literal on the same line, and at
//                    `constexpr std::string_view` definitions.
//
// v2 adds two semantic passes. The first is per-declaration; the second
// builds a symbol table over every file in one walk and then runs cross-TU:
//
//   * raw-unit     — a declaration typed u?int{32,64}_t whose identifier
//                    carries a unit suffix (_us, _ns, _ms, _bytes, _pages —
//                    including the trailing-underscore member form pool_bytes_)
//                    is banned in src/: use Duration/SimTime for times,
//                    ByteCount/PageCount for sizes (src/common/units.h). Bare
//                    names (`bytes`, `pages`, `offset`) stay raw for index
//                    arithmetic; call sites escape via .value().
//   * lock-order   — MutexLock nesting pairs are extracted per function in
//                    every TU (including one level of call indirection:
//                    calling a lock-acquiring method while holding a lock),
//                    merged into one global lock-order graph keyed by
//                    Class::member, and any cycle — including a self-edge,
//                    which is a re-acquisition deadlock for this non-reentrant
//                    Mutex — fails the lint.
//
// The analyzer is deliberately lexical (strip comments/strings, then scan
// tokens with a scope stack): it has no false-negative-free guarantee, but it
// is fast, has no compiler dependency, and every rule here is one a tokenizer
// can check reliably. See docs/static_analysis.md for the full catalog and
// the suppression mechanism.

#ifndef FAASNAP_TOOLS_LINT_LINT_H_
#define FAASNAP_TOOLS_LINT_LINT_H_

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace faasnap {
namespace lint {

struct Violation {
  std::string file;  // repo-relative path, e.g. "src/mem/page_cache.cc"
  int line = 0;      // 1-based
  std::string rule;  // "layering" | "determinism" | "container" | "tracer-pairing" |
                     // "void-comment" | "obs-naming" | "raw-unit" | "lock-order"
  std::string message;

  bool operator==(const Violation& other) const = default;
};

struct Config {
  // Directory under src/ -> directories it may include from. A directory may
  // always include itself. Directories absent from the map may include
  // nothing (and including *them* is still legal: edges are checked from the
  // includer's row).
  std::map<std::string, std::set<std::string>> layers;
  // Repo-relative path prefixes exempt from the determinism rule.
  std::vector<std::string> determinism_allow;
  // Repo-relative path prefixes exempt from the container rule.
  std::vector<std::string> container_allow;
  // Repo-relative path prefixes exempt from the tracer-pairing rule (the
  // tracer's own implementation opens and closes spans asymmetrically).
  std::vector<std::string> tracer_allow;
  // Repo-relative path prefixes exempt from the raw-unit rule (the unit types
  // themselves store raw integers).
  std::vector<std::string> raw_unit_allow;
  // Repo-relative path prefixes whose MutexLock uses do not feed the global
  // lock-order graph.
  std::vector<std::string> lock_order_allow;
};

// Cross-TU facts extracted from one file in a single scope-tracked token scan.
// These feed the project-wide symbol table consumed by LintProject().
struct FileFacts {
  std::string path;

  // One direct nesting observation: `inner` was acquired while `outer` was
  // held, inside `function` at `line`. Mutex keys are "Class::member" (or
  // "<filestem>::member" outside any class).
  struct LockEdge {
    std::string outer;
    std::string inner;
    std::string function;  // qualified name of the nesting function
    int line = 0;
  };
  std::vector<LockEdge> lock_edges;

  // Qualified method name ("Class::Method") -> mutex keys it acquires
  // directly anywhere in its body.
  std::map<std::string, std::set<std::string>> method_locks;

  // A call made while at least one lock was held. `callee` is the unqualified
  // name; `receiver_class` is the lexically enclosing class of the call site
  // (used to resolve bare calls to same-class methods). Member calls
  // (x.F() / x->F()) resolve against every class's F.
  struct HeldCall {
    std::vector<std::string> held;  // all mutex keys held at the call
    std::string callee;
    std::string enclosing_class;  // "" for free functions
    bool member_call = false;     // true for x.F() / x->F() with x != this
    int line = 0;
  };
  std::vector<HeldCall> held_calls;
};

// Parses the layers.json config (strict subset of JSON: one object holding
// string arrays and one object-of-string-arrays; keys starting with '_' are
// ignored as comments).
Result<Config> ParseConfig(std::string_view json);

// Replaces comments, string literals, and character literals with spaces,
// preserving line structure, so token scans cannot match inside them.
// Exposed for testing.
std::string StripCommentsAndStrings(std::string_view content);

// Lints a single file (all per-file rules). `path` is the repo-relative path;
// `content` its text.
std::vector<Violation> LintFile(const Config& config, std::string_view path,
                                std::string_view content);

// Extracts the cross-TU lock facts (nesting edges, per-method locks, calls
// made while holding a lock) from a single file. Honors lock_order_allow.
// Exposed for testing.
FileFacts ExtractFacts(const Config& config, std::string_view path,
                       std::string_view content);

// Cross-TU semantic pass over the whole project's facts: builds the global
// lock-order graph (direct nesting + one level of held-call indirection) and
// fails on any cycle.
std::vector<Violation> LintProject(const Config& config,
                                   const std::vector<FileFacts>& facts);

// Walks `root`/{src,bench,tools/report} recursively, linting every *.h / *.cc
// file in deterministic (sorted) path order, then runs the cross-TU passes
// over the collected facts.
Result<std::vector<Violation>> LintTree(const Config& config, const std::string& root);

}  // namespace lint
}  // namespace faasnap

#endif  // FAASNAP_TOOLS_LINT_LINT_H_
