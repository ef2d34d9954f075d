// Fixture-driven tests for the saba-lint rule engine, plus the live-tree
// self-check: the repository itself must lint clean (the same gate the
// `saba_lint_check` build target and CI enforce).

#include "tools/saba_lint/lint.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/saba_lint/model.h"
#include "tools/saba_lint/project.h"

namespace saba {
namespace lint {
namespace {

std::string ReadFixture(const std::string& name) {
  const std::string path = std::string(SABA_LINT_TESTDATA_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<Finding> LintFixture(const std::string& fixture, const std::string& rel_path) {
  return LintFile(rel_path, ReadFixture(fixture));
}

int CountRule(const std::vector<Finding>& findings, const std::string& rule) {
  return static_cast<int>(std::count_if(findings.begin(), findings.end(),
                                        [&](const Finding& f) { return f.rule == rule; }));
}

bool HasFindingAt(const std::vector<Finding>& findings, const std::string& rule, int line) {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
    return f.rule == rule && f.line == line;
  });
}

TEST(SabaLintTest, R1FiresOnceAndIsSuppressible) {
  const auto findings = LintFixture("r1_randomness.cc", "src/fixture/r1.cc");
  EXPECT_EQ(CountRule(findings, "R1"), 1) << "exactly the unsuppressed mt19937 use";
  EXPECT_TRUE(HasFindingAt(findings, "R1", 5));
  EXPECT_EQ(findings.size(), 1u) << "no other rule fires on the fixture";
}

TEST(SabaLintTest, R1ExemptInsideRngImplementation) {
  const std::string content = ReadFixture("r1_randomness.cc");
  EXPECT_TRUE(LintFile("src/sim/rng.cc", content).empty());
  EXPECT_EQ(CountRule(LintFile("src/sim/rng.h", content), "R1"), 0)
      << "R1 exemption covers both rng files (the .h path additionally "
         "triggers the guard check on this guard-less fixture, which is fine)";
}

TEST(SabaLintTest, R2FiresOnClockReadsAndCallForms) {
  const auto findings = LintFixture("r2_wallclock.cc", "src/fixture/r2.cc");
  EXPECT_EQ(CountRule(findings, "R2"), 2);
  EXPECT_TRUE(HasFindingAt(findings, "R2", 6)) << "steady_clock::now()";
  EXPECT_TRUE(HasFindingAt(findings, "R2", 11)) << "std::time(nullptr)";
  EXPECT_EQ(findings.size(), 2u);
}

TEST(SabaLintTest, R2ExemptInsideWallclockHeader) {
  // wallclock.h itself may read steady_clock; the guard must then match its
  // real path, so lint a synthetic body.
  const std::string body =
      "#ifndef SRC_SIM_WALLCLOCK_H_\n#define SRC_SIM_WALLCLOCK_H_\n"
      "#include <chrono>\n"
      "inline auto Now() { return std::chrono::steady_clock::now(); }\n"
      "#endif  // SRC_SIM_WALLCLOCK_H_\n";
  EXPECT_TRUE(LintFile("src/sim/wallclock.h", body).empty());
  EXPECT_EQ(CountRule(LintFile("src/sim/other.h", body), "R2"), 1)
      << "same body elsewhere fires (guard mismatch also fires, R2 count is what matters)";
}

TEST(SabaLintTest, R3FiresOnTimingToStdoutInBenchOnly) {
  const auto findings = LintFixture("r3_bench_stdout.cc", "bench/fixture_r3.cc");
  EXPECT_EQ(CountRule(findings, "R3"), 2);
  EXPECT_TRUE(HasFindingAt(findings, "R3", 9)) << "cout << ElapsedSeconds";
  EXPECT_TRUE(HasFindingAt(findings, "R3", 13)) << "printf bypasses report helpers";
  EXPECT_EQ(findings.size(), 2u);

  // The same file outside bench/ is not subject to the stdout discipline.
  EXPECT_EQ(CountRule(LintFixture("r3_bench_stdout.cc", "src/fixture/r3.cc"), "R3"), 0);
}

TEST(SabaLintTest, R4RequiresAnnotationWithReason) {
  const auto findings = LintFixture("r4_unordered.cc", "src/fixture/r4.cc");
  EXPECT_EQ(CountRule(findings, "R4"), 2);
  EXPECT_TRUE(HasFindingAt(findings, "R4", 8)) << "unannotated unordered_map";
  EXPECT_TRUE(HasFindingAt(findings, "R4", 22)) << "empty reason is not an audit";
  EXPECT_EQ(findings.size(), 2u);
}

TEST(SabaLintTest, R5FiresOutsideKnobsAndIsSuppressible) {
  const auto findings = LintFixture("r5_getenv.cc", "src/fixture/r5.cc");
  EXPECT_EQ(CountRule(findings, "R5"), 1);
  EXPECT_TRUE(HasFindingAt(findings, "R5", 5));
  EXPECT_EQ(findings.size(), 1u);

  EXPECT_TRUE(LintFile("src/exp/knobs.cc", ReadFixture("r5_getenv.cc")).empty())
      << "knobs.cc is the one home for getenv";
}

TEST(SabaLintTest, R6ChecksGuardsAndRootedIncludes) {
  const auto findings = LintFixture("r6_includes.h", "src/fixture/r6.h");
  EXPECT_EQ(CountRule(findings, "R6"), 2);
  EXPECT_TRUE(HasFindingAt(findings, "R6", 3)) << "guard != SRC_FIXTURE_R6_H_";
  EXPECT_TRUE(HasFindingAt(findings, "R6", 6)) << "\"topology.h\" is not repo-rooted";
  EXPECT_EQ(findings.size(), 2u);
}

TEST(SabaLintTest, R7FiresOnRawThreadingPrimitives) {
  const auto findings = LintFixture("r7_threads.cc", "src/fixture/r7.cc");
  EXPECT_EQ(CountRule(findings, "R7"), 3);
  EXPECT_TRUE(HasFindingAt(findings, "R7", 9)) << "std::thread construction";
  EXPECT_TRUE(HasFindingAt(findings, "R7", 11)) << "raw std::mutex";
  EXPECT_TRUE(HasFindingAt(findings, "R7", 13)) << "std::async";
  EXPECT_EQ(findings.size(), 3u) << "line 14's unqualified `thread` variable and the "
                                    "allow(R7)-annotated mutex on line 16 stay legal";
}

TEST(SabaLintTest, R7ExemptInsideWorkerPool) {
  const std::string content = ReadFixture("r7_threads.cc");
  EXPECT_EQ(CountRule(LintFile("src/sim/worker_pool.cc", content), "R7"), 0)
      << "worker_pool is the one home for thread construction";
  EXPECT_EQ(CountRule(LintFile("src/sim/worker_pool.h", content), "R7"), 0)
      << "the .h path additionally fails the guard check on this fixture, which is fine";
}

TEST(SabaLintTest, R8FiresOnDoubleRatesInAllocationCore) {
  const auto findings = LintFixture("r8_double_rates.cc", "src/net/allocation_engine.cc");
  EXPECT_EQ(CountRule(findings, "R8"), 3);
  EXPECT_TRUE(HasFindingAt(findings, "R8", 8)) << "double rate field";
  EXPECT_TRUE(HasFindingAt(findings, "R8", 13)) << "double capacity_bps local";
  EXPECT_TRUE(HasFindingAt(findings, "R8", 15)) << "exact float == comparison";
  EXPECT_EQ(findings.size(), 3u) << "weights, integer comparisons and the allow(R8)-"
                                    "annotated goodput stay legal";
}

TEST(SabaLintTest, R8ScopedToAllocationCoreFiles) {
  const std::string content = ReadFixture("r8_double_rates.cc");
  EXPECT_EQ(CountRule(LintFile("src/net/allocator.h", content), "R8"), 3)
      << "allocator.h is in scope (the guard check also fires on this guard-less "
         "fixture, which is fine)";
  EXPECT_TRUE(LintFile("src/net/flow_simulator.cc", content).empty())
      << "fluid-boundary code may hold double rates";
  EXPECT_TRUE(LintFile("src/fixture/r8.cc", content).empty());
}

TEST(SabaLintTest, CleanFilePasses) {
  EXPECT_TRUE(LintFixture("clean.cc", "src/fixture/clean.cc").empty());
}

TEST(SabaLintTest, RuleTableNamesEveryRule) {
  const auto table = RuleTable();
  ASSERT_EQ(table.size(), 11u);
  for (int i = 0; i < 11; ++i) {
    EXPECT_EQ(table[static_cast<size_t>(i)].first, "R" + std::to_string(i + 1));
  }
}

TEST(SabaLintTest, RelativizePathFindsTopLevelMarker) {
  EXPECT_EQ(RelativizePath("/root/repo/src/sim/rng.cc"), "src/sim/rng.cc");
  EXPECT_EQ(RelativizePath("bench/bench_util.h"), "bench/bench_util.h");
  EXPECT_EQ(RelativizePath("/abs/without/marker.cc"), "/abs/without/marker.cc");
}

// ---------------------------------------------------------------------------
// Project rules (phase 2): R9–R11 over merged TU models.
// ---------------------------------------------------------------------------

// Builds the parallel (ScannedTu, TuModel) arrays CheckProjectRules consumes.
struct MiniProject {
  std::vector<ScannedTu> tus;
  std::vector<TuModel> models;

  void Add(const std::string& rel_path, const std::string& content) {
    tus.push_back(MakeScannedTu(rel_path, rel_path, content));
    models.push_back(BuildTuModel(tus.back()));
  }
  void AddFixture(const std::string& rel_path, const std::string& fixture) {
    Add(rel_path, ReadFixture(fixture));
  }
  std::vector<Finding> Check(const LayerMap* layers) const {
    return CheckProjectRules(tus, models, layers);
  }
};

// The classic "file:line: [R#] message" stream — the golden-output format.
std::string Render(const std::vector<Finding>& findings) {
  std::ostringstream out;
  PrintFindings(findings, OutputFormat::kText, 0, out);
  return out.str();
}

LayerMap TestLayers() {
  LayerMap layers;
  std::string error;
  EXPECT_TRUE(ParseLayerMap("src/sim\nsrc/net src/peer\nsrc/exp\n", &layers, &error)) << error;
  return layers;
}

TEST(SabaLintProjectTest, R9GoldenFindingsForEveryEdgeClass) {
  MiniProject project;
  project.AddFixture("src/net/r9_layering.cc", "r9_layering.cc");
  project.AddFixture("src/sim/r9_layering.h", "r9_layering.h");
  const LayerMap layers = TestLayers();
  const auto findings = project.Check(&layers);
  EXPECT_EQ(Render(findings),
            "src/net/r9_layering.cc:4: [R9] upward include \"src/exp/top.h\": src/net is below "
            "src/exp in the layer DAG and may depend only on lower layers "
            "(tools/saba_lint/layers.txt, DESIGN.md §9)\n"
            "src/net/r9_layering.cc:5: [R9] lateral include \"src/peer/widget.h\": src/net and "
            "src/peer are peer layers and may not include each other "
            "(tools/saba_lint/layers.txt, DESIGN.md §9)\n"
            "src/net/r9_layering.cc:6: [R9] layered code includes harness header "
            "\"tests/test_util.h\"; src/net is below the bench/tests/examples/tools rank in the "
            "layer DAG (tools/saba_lint/layers.txt, DESIGN.md §9)\n"
            "src/net/r9_layering.cc:7: [R9] include \"src/newdir/widget.h\" is not under any "
            "layer in tools/saba_lint/layers.txt; the map is the single source of truth for the "
            "§9 DAG — add the new directory to it at the right rank\n"
            "src/sim/r9_layering.h:5: [R9] upward include \"src/net/r9_helper.h\": src/sim is "
            "below src/net in the layer DAG and may depend only on lower layers "
            "(tools/saba_lint/layers.txt, DESIGN.md §9)\n")
      << "line 9's allow(R9)-suppressed upward include must stay silent";
}

TEST(SabaLintProjectTest, R9DetectsIncludeCyclesAcrossFiles) {
  MiniProject project;
  project.AddFixture("src/net/r9_cycle_a.h", "r9_cycle_a.h");
  project.AddFixture("src/net/r9_cycle_b.h", "r9_cycle_b.h");
  const LayerMap layers = TestLayers();
  EXPECT_EQ(Render(project.Check(&layers)),
            "src/net/r9_cycle_a.h:5: [R9] include cycle among {src/net/r9_cycle_a.h <-> "
            "src/net/r9_cycle_b.h}; the include graph must stay a DAG "
            "(tools/saba_lint/layers.txt, DESIGN.md §9)\n")
      << "one finding per cycle, anchored at the lexicographically smallest member";
}

TEST(SabaLintProjectTest, R10FlagsMutableStateOutsideSimOnly) {
  MiniProject project;
  project.AddFixture("src/core/r10_shared_state.cc", "r10_shared_state.cc");
  const auto findings = project.Check(nullptr);
  EXPECT_EQ(CountRule(findings, "R10"), 4);
  EXPECT_TRUE(HasFindingAt(findings, "R10", 5)) << "int mutable_counter";
  EXPECT_TRUE(HasFindingAt(findings, "R10", 8)) << "const char* with a mutable pointer";
  EXPECT_TRUE(HasFindingAt(findings, "R10", 15)) << "shared-state-ok() with empty reason";
  EXPECT_TRUE(HasFindingAt(findings, "R10", 18)) << "unannotated static local";
  EXPECT_EQ(findings.size(), 4u) << "const/constexpr/*-const, annotated and plain locals "
                                    "stay legal:\n"
                                 << Render(findings);

  MiniProject sim;
  sim.AddFixture("src/sim/r10_shared_state.cc", "r10_shared_state.cc");
  EXPECT_TRUE(sim.Check(nullptr).empty()) << "src/sim/ is the audited home for shared state";
}

TEST(SabaLintProjectTest, R11GoldenFindingsForRefCapturesIntoPool) {
  MiniProject project;
  project.AddFixture("src/exp/r11_pool_capture.cc", "r11_pool_capture.cc");
  const auto findings = project.Check(nullptr);
  EXPECT_EQ(Render(findings),
            "src/exp/r11_pool_capture.cc:9: [R11] by-reference capture flows into "
            "WorkerPool::Run; every captured reference is shared across worker threads, so the "
            "§7.3 confinement argument (index-owned writes) must be stated explicitly — "
            "annotate the dispatch with // saba-lint: pool-capture-ok(<reason>) or capture by "
            "value\n"
            "src/exp/r11_pool_capture.cc:16: [R11] by-reference capture flows into "
            "WorkerPool::Run (via local 'task', line 15); every captured reference is shared "
            "across worker threads, so the §7.3 confinement argument (index-owned writes) "
            "must be stated explicitly — annotate the dispatch with "
            "// saba-lint: pool-capture-ok(<reason>) or capture by value\n")
      << "capture-free, by-value, annotated-dispatch, annotated-lambda and non-pool Run() "
         "calls stay legal";
}

TEST(SabaLintProjectTest, R11ResolvesPoolTypedNamesAcrossFiles) {
  const std::string owner_h =
      "struct Owner {\n"
      "  WorkerPool* pool_member;\n"
      "};\n";
  const std::string user_cc =
      "void Use(Owner& o, int n) {\n"
      "  int acc = 0;\n"
      "  o.pool_member->Run(n, [&](size_t i) { acc += i; });\n"
      "}\n";

  MiniProject merged;
  merged.Add("src/core/owner.h", owner_h);
  merged.Add("src/core/user.cc", user_cc);
  const auto findings = merged.Check(nullptr);
  EXPECT_EQ(CountRule(findings, "R11"), 1) << Render(findings);
  EXPECT_TRUE(HasFindingAt(findings, "R11", 3))
      << "the WorkerPool-typed name is declared in owner.h, the dispatch lives in user.cc — "
         "only the merged model can connect them";

  MiniProject alone;
  alone.Add("src/core/user.cc", user_cc);
  EXPECT_TRUE(alone.Check(nullptr).empty())
      << "without owner.h the receiver is not known to be a WorkerPool";
}

TEST(SabaLintProjectTest, ParseLayerMapIsStrict) {
  LayerMap layers;
  std::string error;
  EXPECT_FALSE(ParseLayerMap("src/net\nsrc/net\n", &layers, &error));
  EXPECT_NE(error.find("duplicate layer"), std::string::npos) << error;
  EXPECT_FALSE(ParseLayerMap("# comments only\n", &layers, &error));
  EXPECT_NE(error.find("declares no layers"), std::string::npos) << error;

  ASSERT_TRUE(ParseLayerMap("src/sim\nsrc/net src/peer\nsrc/exp\n", &layers, &error)) << error;
  EXPECT_EQ(layers.RankOf("src/sim/rng.h"), 0);
  EXPECT_EQ(layers.RankOf("src/net/topology.h"), 1);
  EXPECT_EQ(layers.RankOf("src/peer/widget.h"), 1);
  EXPECT_EQ(layers.RankOf("src/exp/knobs.h"), 2);
  EXPECT_EQ(layers.RankOf("tests/helper.h"), -1) << "harness dirs are unlayered";
  EXPECT_EQ(layers.DirOf("src/peer/widget.h"), "src/peer");
}

TEST(SabaLintProjectTest, LayerGraphEdgesAreSortedAndCounted) {
  MiniProject project;
  project.AddFixture("src/net/r9_layering.cc", "r9_layering.cc");
  project.AddFixture("src/sim/r9_layering.h", "r9_layering.h");
  const LayerMap layers = TestLayers();
  const std::vector<std::string> expected = {
      "src/net -> src/exp (2)",  // Suppressed includes still count as graph edges.
      "src/net -> src/peer (1)",
      "src/net -> src/sim (1)",
      "src/sim -> src/net (1)",
  };
  EXPECT_EQ(LayerGraphEdges(project.models, layers), expected);
}

// ---------------------------------------------------------------------------
// Output formats and the tree pipeline.
// ---------------------------------------------------------------------------

TEST(SabaLintOutputTest, TextJsonAndGithubFormats) {
  const std::vector<Finding> findings = {{"src/a.cc", 3, "R9", "msg \"quoted\""}};

  std::ostringstream text;
  PrintFindings(findings, OutputFormat::kText, 1, text);
  EXPECT_EQ(text.str(), "src/a.cc:3: [R9] msg \"quoted\"\n");

  std::ostringstream json;
  PrintFindings(findings, OutputFormat::kJson, 1, json);
  EXPECT_EQ(json.str(),
            "{\n"
            "  \"tool\": \"saba_lint\",\n"
            "  \"schema\": 1,\n"
            "  \"files_scanned\": 1,\n"
            "  \"findings\": [\n"
            "    {\"file\": \"src/a.cc\", \"line\": 3, \"rule\": \"R9\", "
            "\"message\": \"msg \\\"quoted\\\"\"}\n"
            "  ],\n"
            "  \"count\": 1\n"
            "}\n");

  std::ostringstream empty_json;
  PrintFindings({}, OutputFormat::kJson, 7, empty_json);
  EXPECT_EQ(empty_json.str(),
            "{\n"
            "  \"tool\": \"saba_lint\",\n"
            "  \"schema\": 1,\n"
            "  \"files_scanned\": 7,\n"
            "  \"findings\": [],\n"
            "  \"count\": 0\n"
            "}\n");

  std::ostringstream github;
  PrintFindings({{"src/a.cc", 3, "R9", "50% done\nnext"}}, OutputFormat::kGithub, 1, github);
  EXPECT_EQ(github.str(), "::error file=src/a.cc,line=3,title=saba-lint R9::50%25 done%0Anext\n");
}

TEST(SabaLintTreeTest, JsonReportIsStableAcrossRuns) {
  const std::string root = SABA_SOURCE_DIR;
  auto render = [&] {
    const TreeLintResult result = LintTree({root + "/tools"}, TreeLintOptions{});
    std::ostringstream out;
    PrintFindings(result.findings, OutputFormat::kJson, result.files_scanned, out);
    return out.str();
  };
  const std::string first = render();
  EXPECT_EQ(first, render()) << "JSON report must be byte-identical across runs";
  EXPECT_NE(first.find("\"files_scanned\""), std::string::npos);
}

TEST(SabaLintTreeTest, MissingLayerMapIsAFindingNotASilentSkip) {
  const std::string root = SABA_SOURCE_DIR;
  TreeLintOptions options;
  options.layers_path = root + "/no/such/layers.txt";
  const TreeLintResult result = LintTree({root + "/src/sim/wallclock.h"}, options);
  ASSERT_EQ(result.findings.size(), 1u) << Render(result.findings);
  EXPECT_EQ(result.findings[0].rule, "R0");
  EXPECT_NE(result.findings[0].message.find("unreadable"), std::string::npos);
}

// The gate itself: the live tree must be clean. This is the same invocation
// as `cmake --build build --target saba_lint_check`, run as a tier-1 test so
// a violating diff fails `ctest` even if nobody runs the custom target.
TEST(SabaLintTest, LiveTreeIsClean) {
  const std::string root = SABA_SOURCE_DIR;
  std::ostringstream report;
  const auto findings = LintPaths(
      {root + "/src", root + "/bench", root + "/tests", root + "/examples", root + "/tools"},
      report);
  EXPECT_TRUE(findings.empty()) << report.str();
}

}  // namespace
}  // namespace lint
}  // namespace saba
