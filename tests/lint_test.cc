// Tests for faasnap_lint: config parsing (including cycle rejection), the
// comment/string stripper, each rule against its seeded-violation fixture in
// tools/lint/testdata/, and a self-check that the real tree is clean.

#include "tools/lint/lint.h"

#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "gtest/gtest.h"

namespace faasnap {
namespace lint {
namespace {

#ifndef FAASNAP_SOURCE_DIR
#error "FAASNAP_SOURCE_DIR must be defined to locate fixtures"
#endif

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string Fixture(const std::string& name) {
  return ReadFileOrDie(std::string(FAASNAP_SOURCE_DIR) + "/tools/lint/testdata/" + name);
}

Config RealConfig() {
  auto config = ParseConfig(ReadFileOrDie(std::string(FAASNAP_SOURCE_DIR) +
                                          "/tools/lint/layers.json"));
  EXPECT_TRUE(config.ok()) << config.status().ToString();
  return *config;
}

std::map<std::string, int> CountByRule(const std::vector<Violation>& vs) {
  std::map<std::string, int> counts;
  for (const Violation& v : vs) {
    ++counts[v.rule];
  }
  return counts;
}

TEST(LintConfigTest, ParsesRealConfig) {
  const Config config = RealConfig();
  EXPECT_TRUE(config.layers.count("common"));
  EXPECT_TRUE(config.layers.at("common").empty());
  EXPECT_TRUE(config.layers.at("sim").count("common"));
  EXPECT_FALSE(config.layers.at("sim").count("daemon"));
  EXPECT_FALSE(config.determinism_allow.empty());
}

TEST(LintConfigTest, RejectsUnknownKey) {
  auto config = ParseConfig(R"({"layres": ["typo"]})");
  ASSERT_FALSE(config.ok());
  EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument);
}

TEST(LintConfigTest, RejectsCyclicLayers) {
  auto config = ParseConfig(R"({"layers": {"a": ["b"], "b": ["a"]}})");
  ASSERT_FALSE(config.ok());
  EXPECT_NE(config.status().message().find("cycle"), std::string::npos);
}

TEST(LintConfigTest, RejectsMalformedJson) {
  EXPECT_FALSE(ParseConfig(R"({"layers": )").ok());
  EXPECT_FALSE(ParseConfig(R"({} trailing)").ok());
  EXPECT_FALSE(ParseConfig(R"({"layers": {"a": ["unterminated)").ok());
}

TEST(LintStripperTest, StripsCommentsAndStringsPreservingLines) {
  const std::string stripped = StripCommentsAndStrings(
      "int a; // rand()\n\"system_clock\";\n/* time(\nnullptr) */ int b;\n");
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_EQ(stripped.find("system_clock"), std::string::npos);
  EXPECT_EQ(stripped.find("time"), std::string::npos);
  // Line structure intact: same number of newlines, code survives.
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'), 4);
  EXPECT_NE(stripped.find("int a;"), std::string::npos);
  EXPECT_NE(stripped.find("int b;"), std::string::npos);
}

TEST(LintStripperTest, DigitSeparatorIsNotACharLiteral) {
  const std::string stripped = StripCommentsAndStrings("long x = 1'000'000; rand();\n");
  // A naive stripper treats 1'000' as a char literal and eats the code after
  // it; the banned call must survive stripping.
  EXPECT_NE(stripped.find("rand"), std::string::npos);
}

TEST(LintRuleTest, LayeringFixtureFires) {
  const auto violations =
      LintFile(RealConfig(), "src/sim/bad_layering.cc", Fixture("bad_layering.cc"));
  const auto counts = CountByRule(violations);
  EXPECT_EQ(counts.at("layering"), 2);  // daemon/ and core/, not common/
  EXPECT_EQ(counts.size(), 1u);
}

TEST(LintRuleTest, DeterminismFixtureFires) {
  const auto violations =
      LintFile(RealConfig(), "src/sim/bad_determinism.cc", Fixture("bad_determinism.cc"));
  const auto counts = CountByRule(violations);
  // system_clock, random_device, rand(), time().
  EXPECT_EQ(counts.at("determinism"), 4);
}

TEST(LintRuleTest, DeterminismAllowlistExempts) {
  // The same content under an allowlisted path (src/native/) is clean.
  const auto violations =
      LintFile(RealConfig(), "src/native/bad_determinism.cc", Fixture("bad_determinism.cc"));
  EXPECT_EQ(CountByRule(violations).count("determinism"), 0u);
}

TEST(LintRuleTest, ContainerFixtureFires) {
  const auto violations =
      LintFile(RealConfig(), "src/sim/bad_container.cc", Fixture("bad_container.cc"));
  const auto counts = CountByRule(violations);
  // Two includes + two declarations.
  EXPECT_EQ(counts.at("container"), 4);
  EXPECT_EQ(counts.size(), 1u);
}

TEST(LintRuleTest, TracerFixtureFires) {
  const auto violations =
      LintFile(RealConfig(), "src/sim/bad_tracer.cc", Fixture("bad_tracer.cc"));
  const auto counts = CountByRule(violations);
  EXPECT_EQ(counts.at("tracer-pairing"), 1);
  EXPECT_EQ(counts.size(), 1u);
}

TEST(LintRuleTest, VoidFixtureFires) {
  const auto violations = LintFile(RealConfig(), "src/sim/bad_void.cc", Fixture("bad_void.cc"));
  const auto counts = CountByRule(violations);
  EXPECT_EQ(counts.at("void-comment"), 1);
  EXPECT_EQ(counts.size(), 1u);
}

TEST(LintRuleTest, ObsNamingFixtureFires) {
  const auto violations =
      LintFile(RealConfig(), "src/sim/bad_obsname.cc", Fixture("bad_obsname.cc"));
  const auto counts = CountByRule(violations);
  // hyphenated span, uppercase span, empty segment, trailing dot,
  // single-segment metric, uppercase metric, bad constexpr constant.
  EXPECT_EQ(counts.at("obs-naming"), 7);
  EXPECT_EQ(counts.size(), 1u);
}

TEST(LintRuleTest, ObsNamingSkipsNonMemberAndVariableCalls) {
  const Config config = RealConfig();
  // BeginObject/BeginTrack are not span markers; a call whose name argument
  // is a variable has no literal on the line and is skipped; declarations
  // (no '.'/'->' before the marker) are not call sites.
  const std::string content =
      "void F(W* w, T* s, unsigned n) {\n"
      "  w->BeginObject(\"Not A Name\");\n"
      "  w.BeginTrack(\"ALL CAPS TRACK\");\n"
      "  auto id = s->Begin(1, n); s->End(id);\n"
      "  SpanId Begin(SimTime t, const char* name);\n"
      "}\n";
  EXPECT_TRUE(LintFile(config, "src/sim/x.cc", content).empty());
}

TEST(LintRuleTest, CleanFixtureIsClean) {
  const auto violations = LintFile(RealConfig(), "src/sim/clean.cc", Fixture("clean.cc"));
  EXPECT_TRUE(violations.empty()) << violations.size() << " unexpected violation(s), first: "
                                  << (violations.empty() ? "" : violations[0].message);
}

TEST(LintRuleTest, CompleteCountsAsSpanClose) {
  // Begin paired with Complete (the one-shot span API) is legal.
  const Config config = RealConfig();
  const std::string content = "void F(T* s) { auto id = s->Begin(1); s->Complete(2); }\n";
  EXPECT_TRUE(LintFile(config, "src/sim/x.cc", content).empty());
}

TEST(LintRuleTest, FilesOutsideSrcGetNoLayeringRule) {
  // Tests and tools may include anything; only token rules could apply.
  const Config config = RealConfig();
  const std::string content = "#include \"src/daemon/daemon.h\"\n";
  EXPECT_TRUE(LintFile(config, "tests/integration_test.cc", content).empty());
}

// ---------------------------------------------------------------------------
// v2 semantic passes: raw-unit, lock-order.
// ---------------------------------------------------------------------------

TEST(LintRuleTest, RawUnitFixtureFires) {
  const auto violations =
      LintFile(RealConfig(), "src/sim/bad_raw_unit.cc", Fixture("bad_raw_unit.cc"));
  const auto counts = CountByRule(violations);
  // total_bytes, queue_wait_ns, window_pages, resident_pages_, elapsed_us,
  // deadline_ms — and nothing for bare/raw-suffix/float names.
  EXPECT_EQ(counts.at("raw-unit"), 6);
  EXPECT_EQ(counts.size(), 1u);
}

TEST(LintRuleTest, RawUnitSuggestsTheMatchingStrongType) {
  const auto violations =
      LintFile(RealConfig(), "src/sim/bad_raw_unit.cc", Fixture("bad_raw_unit.cc"));
  bool saw_bytes = false;
  bool saw_pages = false;
  bool saw_duration = false;
  for (const Violation& v : violations) {
    saw_bytes |= v.message.find("ByteCount") != std::string::npos;
    saw_pages |= v.message.find("PageCount") != std::string::npos;
    saw_duration |= v.message.find("Duration") != std::string::npos;
  }
  EXPECT_TRUE(saw_bytes);
  EXPECT_TRUE(saw_pages);
  EXPECT_TRUE(saw_duration);
}

TEST(LintRuleTest, RawUnitOutsideSrcIsExempt) {
  // bench/ and tools/report/ talk to raw JSON and OS counters; the ban is a
  // src/ library convention.
  const auto violations =
      LintFile(RealConfig(), "bench/bad_raw_unit.cc", Fixture("bad_raw_unit.cc"));
  EXPECT_EQ(CountByRule(violations).count("raw-unit"), 0u);
}

TEST(LintRuleTest, RawUnitAllowlistExempts) {
  // The unit types themselves (src/common/units.h) store raw integers.
  const auto violations =
      LintFile(RealConfig(), "src/common/units.h", Fixture("bad_raw_unit.cc"));
  EXPECT_EQ(CountByRule(violations).count("raw-unit"), 0u);
}

TEST(LintProjectTest, LockOrderCycleAcrossTUs) {
  const Config config = RealConfig();
  const std::vector<FileFacts> facts = {
      ExtractFacts(config, "src/sim/bad_lock_order_a.cc", Fixture("bad_lock_order_a.cc")),
      ExtractFacts(config, "src/sim/bad_lock_order_b.cc", Fixture("bad_lock_order_b.cc")),
  };
  const auto violations = LintProject(config, facts);
  const auto counts = CountByRule(violations);
  // The ABBA cycle (Ledger::mu_ <-> Pool::mu_, closed only when both TUs'
  // facts are merged) plus the same-class re-acquisition self-cycle.
  EXPECT_EQ(counts.at("lock-order"), 2);
  bool saw_abba = false;
  bool saw_self = false;
  for (const Violation& v : violations) {
    saw_abba |= v.message.find("Ledger::mu_") != std::string::npos &&
                v.message.find("Pool::mu_") != std::string::npos;
    saw_self |= v.message.find("Pool::mu_ -> Pool::mu_") != std::string::npos;
  }
  EXPECT_TRUE(saw_abba);
  EXPECT_TRUE(saw_self);
}

TEST(LintProjectTest, LockOrderNeedsBothTUsToSeeTheCycle) {
  // Either file alone is acyclic — the deadlock only exists cross-TU. (File A
  // still carries its self-cycle, so use file B, which is clean alone.)
  const Config config = RealConfig();
  const std::vector<FileFacts> facts = {
      ExtractFacts(config, "src/sim/bad_lock_order_b.cc", Fixture("bad_lock_order_b.cc")),
  };
  EXPECT_TRUE(LintProject(config, facts).empty());
}

TEST(LintProjectTest, ConsistentLockOrderIsClean) {
  const Config config = RealConfig();
  const std::vector<FileFacts> facts = {
      ExtractFacts(config, "src/sim/clean_lock_order.cc", Fixture("clean_lock_order.cc")),
  };
  EXPECT_TRUE(LintProject(config, facts).empty());
}

TEST(LintProjectTest, LockOrderAllowlistDropsFacts) {
  Config config = RealConfig();
  config.lock_order_allow.push_back("src/sim/");
  const FileFacts facts =
      ExtractFacts(config, "src/sim/bad_lock_order_a.cc", Fixture("bad_lock_order_a.cc"));
  EXPECT_TRUE(facts.lock_edges.empty());
  EXPECT_TRUE(facts.method_locks.empty());
}

TEST(LintFactsTest, ExtractsQualifiedLockKeysAndNestingEdges) {
  const Config config = RealConfig();
  const std::string content =
      "void Router::Dispatch() {\n"
      "  MutexLock lock(mu_);\n"
      "  {\n"
      "    MutexLock inner(cache_mu_);\n"
      "  }\n"
      "}\n";
  const FileFacts facts = ExtractFacts(config, "src/storage/router.cc", content);
  ASSERT_EQ(facts.lock_edges.size(), 1u);
  EXPECT_EQ(facts.lock_edges[0].outer, "Router::mu_");
  EXPECT_EQ(facts.lock_edges[0].inner, "Router::cache_mu_");
  EXPECT_EQ(facts.lock_edges[0].function, "Router::Dispatch");
  ASSERT_TRUE(facts.method_locks.count("Router::Dispatch"));
  EXPECT_EQ(facts.method_locks.at("Router::Dispatch").size(), 2u);
}

TEST(LintFactsTest, LockReleasedAtScopeExitDoesNotNest) {
  const Config config = RealConfig();
  const std::string content =
      "void Router::Dispatch() {\n"
      "  {\n"
      "    MutexLock lock(mu_);\n"
      "  }\n"
      "  MutexLock other(cache_mu_);\n"
      "}\n";
  const FileFacts facts = ExtractFacts(config, "src/storage/router.cc", content);
  EXPECT_TRUE(facts.lock_edges.empty());  // sequential, not nested
}

// The tree self-check: the real src/ must lint clean. This is the same check
// the `lint_self_check` ctest runs via the CLI; duplicating it here gives a
// precise first-failure message inside the gtest output.
TEST(LintTreeTest, RealTreeIsClean) {
  auto violations = LintTree(RealConfig(), FAASNAP_SOURCE_DIR);
  ASSERT_TRUE(violations.ok()) << violations.status().ToString();
  for (const Violation& v : *violations) {
    ADD_FAILURE() << v.file << ":" << v.line << " [" << v.rule << "] " << v.message;
  }
}

}  // namespace
}  // namespace lint
}  // namespace faasnap
