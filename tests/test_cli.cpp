// End-to-end smoke tests of the `t1map` driver binary: spawns the real
// executable (path injected by CMake as T1MAP_CLI_PATH), parses its JSON
// report, and asserts the paper's headline claim — the T1 configuration
// beats the plain 4-phase baseline on JJ count.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <string>

#include "io/json.hpp"

namespace t1map {
namespace {

/// Runs a command line, captures stdout, returns the exit status.
int run_command(const std::string& command, std::string& stdout_text) {
  stdout_text.clear();
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    stdout_text.append(buffer, n);
  }
  return pclose(pipe);
}

const std::string kCli = T1MAP_CLI_PATH;

TEST(Cli, JsonReportT1BeatsBaselineOnJj) {
  std::string out;
  const int status =
      run_command(kCli + " --gen adder16 --config all --json 2>/dev/null", out);
  ASSERT_EQ(status, 0) << out;

  // The JSON must parse and carry all three Table-I configurations.
  const io::Json report = io::Json::parse(out);
  EXPECT_EQ(report.at("design").as_string(), "adder16");
  const io::Json& configs = report.at("configs");
  ASSERT_TRUE(configs.contains("baseline_1phi"));
  ASSERT_TRUE(configs.contains("baseline_4phi"));
  ASSERT_TRUE(configs.contains("t1"));

  const io::Json& t1 = configs.at("t1");
  const io::Json& base4 = configs.at("baseline_4phi");
  const io::Json& base1 = configs.at("baseline_1phi");

  // Every config was proven equivalent to the source AIG by SAT.
  EXPECT_EQ(t1.at("cec").as_string(), "equivalent");
  EXPECT_EQ(base4.at("cec").as_string(), "equivalent");
  EXPECT_EQ(base1.at("cec").as_string(), "equivalent");

  // The paper's headline claim: T1 substitution reduces JJ area versus the
  // same-phase baseline, and multiphase crushes the 1-phase DFF count.
  EXPECT_LT(t1.at("jj_total").as_number(), base4.at("jj_total").as_number());
  EXPECT_LT(base4.at("dffs").as_number(), base1.at("dffs").as_number());
  EXPECT_GT(t1.at("t1_used").as_number(), 0);
}

TEST(Cli, TextReportMentionsAllConfigs) {
  std::string out;
  const int status =
      run_command(kCli + " --gen adder8 --config all 2>/dev/null", out);
  ASSERT_EQ(status, 0) << out;
  EXPECT_NE(out.find("baseline_1phi"), std::string::npos);
  EXPECT_NE(out.find("baseline_4phi"), std::string::npos);
  EXPECT_NE(out.find("\nt1 "), std::string::npos);
  EXPECT_NE(out.find("equivalent"), std::string::npos);
}

TEST(Cli, BenchModeEmitsStageTimings) {
  std::string out;
  // One small circuit, two runs, JSON to stdout; CEC on so every stage of
  // the Table-I pipeline appears.
  const int status = run_command(
      kCli + " --bench --gen adder8 --bench-runs 2 --bench-out - 2>/dev/null",
      out);
  ASSERT_EQ(status, 0) << out;

  const io::Json bench = io::Json::parse(out);
  EXPECT_EQ(bench.at("bench").as_string(), "flow");
  EXPECT_EQ(bench.at("config").as_string(), "t1");
  EXPECT_EQ(bench.at("runs").as_number(), 2);
  // The header names the host and build the timings came from.
  ASSERT_TRUE(bench.contains("nproc"));
  EXPECT_GE(bench.at("nproc").as_number(), 1);
  ASSERT_TRUE(bench.contains("compiler"));
  EXPECT_FALSE(bench.at("compiler").as_string().empty());
  ASSERT_TRUE(bench.contains("build_type"));
  EXPECT_TRUE(bench.at("build_type").is_string());
  const io::Json& circuit = bench.at("circuits").at("adder8");
  EXPECT_GT(circuit.at("stats").at("jj_total").as_number(), 0);
  const io::Json& stages = circuit.at("stages");
  for (const char* stage : {"map", "t1_detect", "stage_assign", "dff_insert",
                            "self_check", "cec", "total"}) {
    ASSERT_TRUE(stages.contains(stage)) << stage;
    const io::Json& s = stages.at(stage);
    EXPECT_GE(s.at("mean_ms").as_number(), s.at("min_ms").as_number());
    EXPECT_GE(s.at("max_ms").as_number(), s.at("mean_ms").as_number());
  }
  // `map` times its own cut enumeration; no row re-times it separately.
  EXPECT_FALSE(stages.contains("cut_enum"));
  // Stage times must be consistent: the total covers the flow plus CEC.
  EXPECT_GT(stages.at("total").at("mean_ms").as_number(), 0.0);
}

TEST(Cli, BenchSingleRunOmitsJitterFields) {
  std::string out;
  const int status = run_command(
      kCli + " --bench --gen adder8 --bench-runs 1 --no-cec --bench-out - "
             "2>/dev/null",
      out);
  ASSERT_EQ(status, 0) << out;
  const io::Json bench = io::Json::parse(out);
  EXPECT_EQ(bench.at("runs").as_number(), 1);
  const io::Json& total =
      bench.at("circuits").at("adder8").at("stages").at("total");
  // One sample has no spread: min_ms is the measurement, the mean/max
  // jitter fields would be degenerate duplicates and must be absent.
  EXPECT_GE(total.at("min_ms").as_number(), 0.0);
  EXPECT_FALSE(total.contains("mean_ms"));
  EXPECT_FALSE(total.contains("max_ms"));
}

TEST(Cli, BenchSkipChecksOmitsRowsOfPassesThatNeverRan) {
  std::string out;
  const int status = run_command(
      kCli + " --bench --gen adder8 --bench-runs 2 --skip-checks "
             "--bench-out - 2>/dev/null",
      out);
  ASSERT_EQ(status, 0) << out;
  const io::Json stages =
      io::Json::parse(out).at("circuits").at("adder8").at("stages");
  // --skip-checks drops the timing/sim and CEC passes: their rows would
  // only report 0 ms, so they are absent instead.
  EXPECT_FALSE(stages.contains("self_check"));
  EXPECT_FALSE(stages.contains("cec"));
  for (const char* stage :
       {"map", "t1_detect", "stage_assign", "dff_insert", "total"}) {
    ASSERT_TRUE(stages.contains(stage)) << stage;
    EXPECT_GE(stages.at(stage).at("min_ms").as_number(), 0.0) << stage;
  }
}

TEST(Cli, RejectsInvalidThreadAndBenchCounts) {
  std::string out;
  // Zero/negative worker or repetition counts would hang the pool or emit
  // empty statistics; the parser must reject them with flag+value+cause.
  for (const char* bad :
       {" --gen adder8 --threads 0", " --gen adder8 --threads -2",
        " --bench --bench-runs 0", " --bench --bench-runs -1"}) {
    EXPECT_NE(run_command(kCli + bad + " 2>/dev/null", out), 0) << bad;
  }
  // Bench-harness flags outside bench mode are silent no-ops otherwise;
  // reject them too.
  EXPECT_NE(
      run_command(kCli + " --gen adder8 --bench-runs 5 2>/dev/null", out), 0);
  EXPECT_NE(run_command(kCli + " --bench --bench-set nope 2>/dev/null", out),
            0);
}

TEST(Cli, BadUsageFailsWithDiagnostic) {
  std::string out;
  // No input source: exit code 2 (usage error), nothing on stdout.
  int status = run_command(kCli + " --config all 2>/dev/null", out);
  EXPECT_NE(status, 0);
  // Unknown generator: exit code 1 (contract error).
  status = run_command(kCli + " --gen no_such_gen 2>/dev/null", out);
  EXPECT_NE(status, 0);
}

// --blif is gone: --input auto-detects BLIF and reads '-' as stdin.
// Removed flags and bench sets are usage errors, not silently ignored.
TEST(Cli, BlifFlagIsAUsageError) {
  for (const char* args :
       {" --blif - < /dev/null", " --incremental-from F --gen adder8",
        " --fuzz 1 --fuzz-mutate 2", " --bench --bench-set nearduplicate",
        " --gen adder8 --passes map,t1"}) {
    std::string out;
    const int status = run_command(kCli + args + " 2>/dev/null", out);
    ASSERT_TRUE(WIFEXITED(status)) << args;
    EXPECT_EQ(WEXITSTATUS(status), 2) << args;
    EXPECT_TRUE(out.empty()) << args << ": " << out;
  }
}

TEST(Cli, FuzzSmokeRunPasses) {
  std::string out;
  const int status = run_command(
      kCli + " --fuzz 3 --fuzz-seed 7 --fuzz-nodes 30"
             " --fuzz-dir /tmp/t1map_cli_fuzz 2>/dev/null",
      out);
  ASSERT_EQ(status, 0) << out;
  EXPECT_NE(out.find("fuzz: 3 iterations"), std::string::npos) << out;
  EXPECT_NE(out.find("0 failure(s)"), std::string::npos) << out;
  // Fuzz mode is exclusive with report/bench/serve inputs.
  EXPECT_NE(run_command(kCli + " --fuzz 1 --gen adder8 2>/dev/null", out), 0);
  EXPECT_NE(run_command(kCli + " --fuzz-seed 7 2>/dev/null", out), 0);
}

TEST(Cli, AigerExportImportRoundTrip) {
  const std::string aag = "/tmp/t1map_cli_rt.aag";
  const std::string aig = "/tmp/t1map_cli_rt.aig";
  std::string out;
  // Export both formats from a generator...
  ASSERT_EQ(run_command(kCli + " --gen adder8 --export-aiger " + aag +
                            " --json 2>/dev/null",
                        out),
            0);
  ASSERT_EQ(run_command(kCli + " --gen adder8 --export-aiger " + aig +
                            " --json 2>/dev/null",
                        out),
            0);
  // ...then map each back in; the flow must prove CEC-equivalence and land
  // on the generator run's Table-I numbers.
  const io::Json direct = io::Json::parse(out);
  for (const std::string& path : {aag, aig}) {
    ASSERT_EQ(run_command(kCli + " --input " + path + " --json 2>/dev/null",
                          out),
              0)
        << path;
    const io::Json report = io::Json::parse(out);
    const io::Json& t1 = report.at("configs").at("t1");
    EXPECT_EQ(t1.at("cec").as_string(), "equivalent") << path;
    EXPECT_EQ(t1.at("jj_total").as_number(),
              direct.at("configs").at("t1").at("jj_total").as_number())
        << path;
  }
  std::remove(aag.c_str());
  std::remove(aig.c_str());
}

TEST(Cli, ListGensAndHelp) {
  std::string out;
  ASSERT_EQ(run_command(kCli + " --list-gens", out), 0);
  EXPECT_NE(out.find("adder<N>"), std::string::npos);
  ASSERT_EQ(run_command(kCli + " --help", out), 0);
  EXPECT_NE(out.find("--config"), std::string::npos);
}

}  // namespace
}  // namespace t1map
