// End-to-end tests of the `dcd` command-line tool: generate a dataset,
// run a program over it, write results, explain plans. The binary path is
// injected by CMake as DCD_CLI_PATH; DCD_FUZZ_PATH names dcd_fuzz, whose
// flag parsing is tested here too.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace dcdatalog {
namespace {

#if !defined(DCD_CLI_PATH) || !defined(DCD_FUZZ_PATH)
#error "DCD_CLI_PATH and DCD_FUZZ_PATH must be defined by the build"
#endif

struct CmdResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr merged.
};

CmdResult RunTool(const char* tool, const std::string& args) {
  const std::string cmd = std::string(tool) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  CmdResult result;
  if (pipe == nullptr) return result;
  char buf[4096];
  while (fgets(buf, sizeof(buf), pipe) != nullptr) result.output += buf;
  const int status = pclose(pipe);
  result.exit_code = WEXITSTATUS(status);
  return result;
}

CmdResult RunCli(const std::string& args) {
  return RunTool(DCD_CLI_PATH, args);
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(CliTest, UsageOnBadInvocation) {
  EXPECT_NE(RunCli("").exit_code, 0);
  EXPECT_NE(RunCli("frobnicate x y").exit_code, 0);
  EXPECT_NE(RunCli("run").exit_code, 0);
}

TEST(CliTest, GenerateRunExplainRoundTrip) {
  const std::string edges = TempPath("cli_edges.tsv");
  const std::string program = TempPath("cli_tc.dl");
  const std::string out = TempPath("cli_tc_out.tsv");

  // generate
  CmdResult gen = RunCli("generate rmat:200 " + edges + " --seed 5");
  ASSERT_EQ(gen.exit_code, 0) << gen.output;
  EXPECT_NE(gen.output.find("wrote"), std::string::npos);

  {
    std::ofstream p(program);
    p << "tc(X, Y) :- arc(X, Y).\n"
         "tc(X, Y) :- tc(X, Z), arc(Z, Y).\n";
  }

  // explain
  CmdResult explain =
      RunCli("explain " + program + " --rel arc=" + edges + ":ii");
  ASSERT_EQ(explain.exit_code, 0) << explain.output;
  EXPECT_NE(explain.output.find("physical plan"), std::string::npos);
  EXPECT_NE(explain.output.find("recursive"), std::string::npos);
  // TC is partitioned on its source X, so its delta rule derives only
  // facts of the deriving worker's partition: it is marked local.
  EXPECT_NE(explain.output.find("replicas: [0]tc@0\n"), std::string::npos)
      << explain.output;
  EXPECT_NE(explain.output.find(
                "delta rule#1 δ@0 drive=tc (replica 0) steps=1 head=tc "
                "local\n"),
            std::string::npos)
      << explain.output;

  // run with --out; arity inferred from the program (no :ii needed).
  CmdResult run = RunCli("run " + program + " --rel arc=" + edges +
                         " --out tc=" + out + " --workers 2 --mode dws "
                         "--stats");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("EvalStats"), std::string::npos);
  std::ifstream result(out);
  ASSERT_TRUE(result.good());
  std::string line;
  uint64_t rows = 0;
  while (std::getline(result, line)) ++rows;
  EXPECT_GT(rows, 0u);

  std::remove(edges.c_str());
  std::remove(program.c_str());
  std::remove(out.c_str());
}

TEST(CliTest, RunReportsParseAndDataErrors) {
  const std::string program = TempPath("cli_bad.dl");
  {
    std::ofstream p(program);
    p << "tc(X, Y) :- arc(X Y).\n";  // Missing comma.
  }
  CmdResult bad = RunCli("run " + program);
  EXPECT_NE(bad.exit_code, 0);
  EXPECT_NE(bad.output.find("ParseError"), std::string::npos);

  {
    std::ofstream p(program);
    p << "tc(X, Y) :- arc(X, Y).\n";
  }
  CmdResult missing =
      RunCli("run " + program + " --rel arc=/no/such/file.tsv:ii");
  EXPECT_NE(missing.exit_code, 0);
  EXPECT_NE(missing.output.find("NotFound"), std::string::npos);
  std::remove(program.c_str());
}

TEST(CliTest, RejectsRowsLongerThanTheSchema) {
  // A weighted edge list has three columns; loading it as arc:ii (or with
  // the arity inferred from the program) must fail rather than silently
  // drop the weights.
  const std::string edges = TempPath("cli_wedges.tsv");
  const std::string program = TempPath("cli_long.dl");
  ASSERT_EQ(
      RunCli("generate gnp:100:0.02 " + edges + " --weights 100 --seed 7")
          .exit_code,
      0);
  {
    std::ofstream p(program);
    p << "tc(X, Y) :- arc(X, Y).\n";
  }
  for (const char* spec : {":ii", ""}) {
    CmdResult r = RunCli("run " + program + " --rel arc=" + edges + spec);
    EXPECT_NE(r.exit_code, 0) << spec << ": " << r.output;
    EXPECT_NE(r.output.find("row too long at " + edges + ":1"),
              std::string::npos)
        << spec << ": " << r.output;
  }
  std::remove(edges.c_str());
  std::remove(program.c_str());
}

TEST(CliTest, RejectsMalformedNumericFlags) {
  const std::string program = TempPath("cli_flags.dl");
  {
    std::ofstream p(program);
    p << "tc(X, Y) :- arc(X, Y).\n";
  }
  // Each of these used to slip through std::atoi as 0 or a truncated
  // number; all must now fail before any evaluation starts.
  for (const char* flags :
       {"--workers abc", "--workers 2x", "--workers 0", "--workers -3",
        "--workers 999999", "--slack abc", "--slack 0", "--seed 12junk",
        "--weights -1",
        // strtol leniencies the checked parsers must not inherit: leading
        // whitespace, explicit '+', trailing whitespace.
        "--workers=\" 5\"", "--workers=+5", "--workers=\"5 \"",
        "--seed=+1", "--weights=\" 2\""}) {
    CmdResult r = RunCli("run " + program + " " + flags);
    EXPECT_NE(r.exit_code, 0) << flags << ": " << r.output;
    EXPECT_NE(r.output.find("expects"), std::string::npos)
        << flags << " did not fail loudly: " << r.output;
  }
  std::remove(program.c_str());
}

TEST(CliTest, EqualsFormFlagsWork) {
  const std::string edges = TempPath("cli_eq_edges.tsv");
  const std::string program = TempPath("cli_eq.dl");
  ASSERT_EQ(RunCli("generate gnp:100:0.02 " + edges + " --seed=3").exit_code,
            0);
  {
    std::ofstream p(program);
    p << "tc(X, Y) :- arc(X, Y).\n"
         "tc(X, Y) :- tc(X, Z), arc(Z, Y).\n";
  }
  CmdResult run = RunCli("run " + program + " --rel=arc=" + edges +
                         " --workers=2 --mode=dws");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  std::remove(edges.c_str());
  std::remove(program.c_str());
}

TEST(CliTest, TraceAndMetricsExports) {
  const std::string edges = TempPath("cli_trace_edges.tsv");
  const std::string program = TempPath("cli_trace.dl");
  const std::string trace = TempPath("cli_trace.json");
  const std::string metrics = TempPath("cli_metrics.json");
  ASSERT_EQ(RunCli("generate gnp:150:0.02 " + edges + " --seed 9").exit_code,
            0);
  {
    std::ofstream p(program);
    p << "tc(X, Y) :- arc(X, Y).\n"
         "tc(X, Y) :- tc(X, Z), arc(Z, Y).\n";
  }

  // --trace-out implies tracing; no separate enable flag needed.
  CmdResult run = RunCli("run " + program + " --rel arc=" + edges +
                         " --workers 2 --mode dws --trace-out " + trace +
                         " --metrics-out=" + metrics);
  ASSERT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("wrote trace"), std::string::npos);
  EXPECT_NE(run.output.find("wrote metrics"), std::string::npos);

  std::stringstream tbuf;
  tbuf << std::ifstream(trace).rdbuf();
  const std::string tjson = tbuf.str();
  EXPECT_NE(tjson.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(tjson.find("\"dws_decision\""), std::string::npos);
  EXPECT_NE(tjson.find("\"worker 1\""), std::string::npos);

  std::stringstream mbuf;
  mbuf << std::ifstream(metrics).rdbuf();
  const std::string mjson = mbuf.str();
  EXPECT_NE(mjson.find("\"tuples_emitted\""), std::string::npos);
  EXPECT_NE(mjson.find("\"iteration_ns\""), std::string::npos);

  // Unwritable destination fails loudly, not silently.
  CmdResult bad = RunCli("run " + program + " --rel arc=" + edges +
                         " --trace-out /no/such/dir/trace.json");
  EXPECT_NE(bad.exit_code, 0);
  EXPECT_NE(bad.output.find("trace"), std::string::npos);

  std::remove(edges.c_str());
  std::remove(program.c_str());
  std::remove(trace.c_str());
  std::remove(metrics.c_str());
}

TEST(CliTest, GeneratorKinds) {
  for (const char* kind :
       {"tree:5", "gnp:200:0.01", "social:300:4", "ntree:400"}) {
    const std::string path = TempPath("cli_gen.tsv");
    CmdResult gen =
        RunCli(std::string("generate ") + kind + " " + path + " --seed 1");
    EXPECT_EQ(gen.exit_code, 0) << kind << ": " << gen.output;
    std::remove(path.c_str());
  }
  EXPECT_NE(RunCli("generate nosuch:1 /tmp/x").exit_code, 0);
}

TEST(CliTest, GeneratorRejectsMalformedNumbers) {
  const std::string path = TempPath("cli_gen_bad.tsv");
  for (const char* kind :
       {"gnp:abc", "gnp:200:0.0x1", "gnp:1e3:0.01", "rmat:200:-4",
        "social:300:", "tree:+5", "zipf:100:10:alpha", "star:12junk"}) {
    std::remove(path.c_str());
    CmdResult gen =
        RunCli(std::string("generate ") + kind + " " + path + " --seed 1");
    EXPECT_EQ(gen.exit_code, 2) << kind << ": " << gen.output;
    EXPECT_NE(gen.output.find("bad numeric argument"), std::string::npos)
        << kind << ": " << gen.output;
    // Nothing is generated or written.
    EXPECT_FALSE(std::ifstream(path).good()) << kind;
  }
}

TEST(CliTest, FuzzerRejectsMalformedNumericFlags) {
  // `--seeds=abc` used to parse as 0 seeds: "0 runs over 0 seeds, 0
  // failures", exit 0 — a CI step with a typo passed without testing.
  for (const char* flag :
       {"--seeds=abc", "--seeds=-1", "--seeds=+3", "--seeds=1e2",
        "--start-seed=1x", "--max-vertices=ten", "--update-batches=4.5",
        "--timeout-ms=\" 5\"", "--max-iters=abc", "--chaos-seed=x",
        "--max-failures=-2"}) {
    CmdResult r = RunTool(DCD_FUZZ_PATH, flag);
    EXPECT_EQ(r.exit_code, 2) << flag << ": " << r.output;
    EXPECT_NE(r.output.find("bad value for"), std::string::npos)
        << flag << ": " << r.output;
    EXPECT_EQ(r.output.find("runs over"), std::string::npos)
        << flag << " ran anyway: " << r.output;
  }
}

}  // namespace
}  // namespace dcdatalog
