// dcd_fuzz — differential fuzzer for the DCDatalog engine.
//
// Generates seeded random recursive programs + EDB graphs
// (src/testing/program_gen.h), evaluates each under every requested
// coordination mode × worker count, and diffs the result against the
// single-threaded reference interpreter. The oracle is computed once per
// case in the parent (it is configuration-independent and dominates cost);
// each engine run executes in a forked child so crashes and hangs are
// contained and classified. Failures are shrunk to a minimal repro (drop
// rules, halve the EDB, lower workers) and written to --out-dir.
//
//   dcd_fuzz --seeds=200                        # the standard sweep
//   dcd_fuzz --seeds=50 --chaos                 # with schedule perturbation
//   dcd_fuzz --inject-bug=distributor_offbyone  # harness self-test
//   dcd_fuzz --replay=repro.dl --edges=repro.edges --modes=dws --workers=2
//
// Flags:
//   --seeds=N          cases to generate (default 100)
//   --start-seed=N     first seed (default 1)
//   --modes=a,b        subset of global,ssp,dws (default all)
//   --workers=a,b      worker counts per case (default 1,2,4)
//   --max-vertices=N   EDB size cap for the generator (default 60)
//   --update-batches=N generate a streaming-update script of up to N EDB
//                      batches per case and diff incremental maintenance
//                      after every batch against a from-scratch reference
//                      recompute (default 0: no update axis); the summary
//                      counts the batches with removals, maintained and
//                      recomputed
//   --updates-file=P   with --replay: apply this update script after the
//                      initial fixpoint, diffing after every batch
//   --timeout-ms=N     per-run wall clock before a child counts as hung
//                      (default 20000)
//   --max-iters=N      engine iteration safety valve (default 200000)
//   --chaos            install an aggressive ChaosSchedule in each child
//                      (needs a build with chaos points: Debug or
//                      -DDCDATALOG_CHAOS=ON)
//   --chaos-seed=N     base seed for chaos schedules (default 7)
//   --inject-bug=NAME  set DCD_INJECT_BUG=NAME for every child
//   --out-dir=PATH     where repros are written (default fuzz_failures)
//   --max-failures=N   stop after N failing cases (default 5)
//   --no-fork          run in-process (debuggable; no crash/hang isolation)
//   --verbose          log every run, not just failures

#include <sys/mman.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/chaos.h"
#include "common/parse.h"
#include "core/trace_export.h"
#include "graph/graph.h"
#include "testing/fuzz_runner.h"
#include "testing/minimizer.h"

namespace dcdatalog {
namespace {

using testing_gen::FuzzCase;
using testing_gen::GenOptions;
using testing_gen::OracleRows;
using testing_gen::OutcomeKind;
using testing_gen::RunConfig;
using testing_gen::RunOutcome;

/// OutcomeKind extended with the two verdicts only the parent can reach.
enum class RunResult : uint8_t {
  kAgree = 0,
  kMismatch,
  kEngineError,
  kReferenceError,
  kLoadError,
  kCrash,
  kHang,
};

const char* RunResultName(RunResult r) {
  switch (r) {
    case RunResult::kAgree:
      return "agree";
    case RunResult::kMismatch:
      return "mismatch";
    case RunResult::kEngineError:
      return "engine-error";
    case RunResult::kReferenceError:
      return "reference-error";
    case RunResult::kLoadError:
      return "load-error";
    case RunResult::kCrash:
      return "crash";
    case RunResult::kHang:
      return "hang";
  }
  return "unknown";
}

/// True when the verdict indicates an engine bug worth reporting/shrinking
/// (oracle failures and analysis-invalid candidates are not).
bool IsFailure(RunResult r) {
  return r == RunResult::kMismatch || r == RunResult::kEngineError ||
         r == RunResult::kCrash || r == RunResult::kHang;
}

// Exit-code protocol between the forked child and the parent.
constexpr int kExitAgree = 0;
constexpr int kExitMismatch = 10;
constexpr int kExitEngineError = 11;
constexpr int kExitReferenceError = 12;
constexpr int kExitLoadError = 13;

struct FuzzFlags {
  uint64_t seeds = 100;
  uint64_t start_seed = 1;
  std::vector<CoordinationMode> modes = {
      CoordinationMode::kGlobal, CoordinationMode::kSsp,
      CoordinationMode::kDws};
  std::vector<uint32_t> workers = {1, 2, 4};
  uint64_t max_vertices = 60;
  uint64_t update_batches = 0;
  uint64_t timeout_ms = 20000;
  uint64_t max_iters = 200000;
  bool chaos = false;
  uint64_t chaos_seed = 7;
  std::string inject_bug;
  std::string out_dir = "fuzz_failures";
  uint64_t max_failures = 5;
  bool no_fork = false;
  bool verbose = false;
  std::string replay_program;
  std::string replay_edges;
  std::string replay_updates;
};

int Usage() {
  std::fprintf(stderr,
               "usage: dcd_fuzz [--seeds=N] [--modes=global,ssp,dws] "
               "[--workers=1,2,4] [--chaos] [--inject-bug=NAME] ...\n"
               "see the header of tools/dcd_fuzz.cc for all flags\n");
  return 2;
}

bool ParseModes(const std::string& list, std::vector<CoordinationMode>* out) {
  out->clear();
  size_t pos = 0;
  while (pos <= list.size()) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    const std::string m = list.substr(pos, comma - pos);
    if (m == "global") {
      out->push_back(CoordinationMode::kGlobal);
    } else if (m == "ssp") {
      out->push_back(CoordinationMode::kSsp);
    } else if (m == "dws") {
      out->push_back(CoordinationMode::kDws);
    } else {
      return false;
    }
    pos = comma + 1;
  }
  return !out->empty();
}

bool ParseWorkers(const std::string& list, std::vector<uint32_t>* out) {
  out->clear();
  size_t pos = 0;
  while (pos <= list.size()) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    const std::string entry = list.substr(pos, comma - pos);
    uint32_t w = 0;
    // Checked parse: std::atoi turned "2x" into 2 and "x2" into a silent
    // rejection-by-zero; both now fail loudly with the offending entry.
    if (!ParseUint32Checked(entry.c_str(), 1, 4096, &w)) {
      std::fprintf(stderr,
                   "[dcd_fuzz] bad --workers entry '%s': expected an "
                   "integer in [1, 4096]\n",
                   entry.c_str());
      return false;
    }
    out->push_back(w);
    pos = comma + 1;
  }
  return !out->empty();
}

bool ParseFlags(int argc, char** argv, FuzzFlags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* name) -> const char* {
      const size_t n = std::strlen(name);
      if (arg.compare(0, n, name) == 0 && arg.size() > n && arg[n] == '=') {
        return arg.c_str() + n + 1;
      }
      return nullptr;
    };
    // Numeric flags: a value that is not a whole non-negative number fails
    // the command line, so a typo cannot become a run that tests nothing.
    const std::pair<const char*, uint64_t*> numeric[] = {
        {"--seeds", &flags->seeds},
        {"--start-seed", &flags->start_seed},
        {"--max-vertices", &flags->max_vertices},
        {"--update-batches", &flags->update_batches},
        {"--timeout-ms", &flags->timeout_ms},
        {"--max-iters", &flags->max_iters},
        {"--chaos-seed", &flags->chaos_seed},
        {"--max-failures", &flags->max_failures},
    };
    bool matched = false;
    for (const auto& [name, field] : numeric) {
      const char* v = value(name);
      if (v == nullptr) continue;
      if (!ParseUint64Checked(v, 0, UINT64_MAX, field)) {
        std::fprintf(stderr, "bad value for %s: '%s'\n", name, v);
        return false;
      }
      matched = true;
    }
    if (matched) continue;
    const char* v = nullptr;
    if ((v = value("--modes"))) {
      if (!ParseModes(v, &flags->modes)) return false;
    } else if ((v = value("--workers"))) {
      if (!ParseWorkers(v, &flags->workers)) return false;
    } else if ((v = value("--updates-file"))) {
      flags->replay_updates = v;
    } else if (arg == "--chaos") {
      flags->chaos = true;
    } else if ((v = value("--inject-bug"))) {
      flags->inject_bug = v;
    } else if ((v = value("--out-dir"))) {
      flags->out_dir = v;
    } else if (arg == "--no-fork") {
      flags->no_fork = true;
    } else if (arg == "--verbose") {
      flags->verbose = true;
    } else if ((v = value("--replay"))) {
      flags->replay_program = v;
    } else if ((v = value("--edges"))) {
      flags->replay_edges = v;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

/// Delete batches of the sweep's streaming-update runs. It lives in a
/// shared mapping: each forked child adds its run's counts before exiting.
struct DeleteTally {
  uint64_t maintained = 0;
  uint64_t recomputed = 0;

  void Add(const RunOutcome& outcome) {
    maintained += outcome.deletes_maintained;
    recomputed += outcome.deletes_recomputed;
  }
};

void InstallChaos(const FuzzFlags& flags, uint64_t run_index) {
  // Leaked deliberately: the schedule must outlive every engine thread.
  auto* schedule = new ChaosSchedule(ChaosConfig::Aggressive(
      flags.chaos_seed ^ (run_index * 0x9e3779b97f4a7c15ULL)));
  InstallChaosSchedule(schedule);
}

RunResult ToRunResult(OutcomeKind kind) {
  switch (kind) {
    case OutcomeKind::kAgree:
      return RunResult::kAgree;
    case OutcomeKind::kMismatch:
      return RunResult::kMismatch;
    case OutcomeKind::kEngineError:
      return RunResult::kEngineError;
    case OutcomeKind::kReferenceError:
      return RunResult::kReferenceError;
    case OutcomeKind::kLoadError:
      return RunResult::kLoadError;
  }
  return RunResult::kLoadError;
}

void ReportChildFailure(const FuzzCase& c, const RunOutcome& outcome) {
  if (outcome.kind == OutcomeKind::kAgree) return;
  std::fprintf(stderr, "[dcd_fuzz] seed %llu: %s: %s\n",
               static_cast<unsigned long long>(c.seed),
               testing_gen::OutcomeKindName(outcome.kind),
               outcome.detail.c_str());
}

/// One differential evaluation: streaming-update cases run the incremental
/// engine against per-batch reference recomputes (the oracle depends on the
/// batch stream, so it is computed inside); plain cases diff one engine run
/// against the precomputed oracle rows.
RunOutcome Evaluate(const FuzzCase& c, const RunConfig& config,
                    const OracleRows& oracle) {
  if (!c.updates.batches.empty()) {
    return testing_gen::RunIncrementalCase(c, config);
  }
  return testing_gen::RunEngineOnce(c, config, oracle);
}

/// Child-side evaluation: optionally installs a chaos schedule, runs the
/// engine against the (fork-inherited) oracle rows, adds its aggregate
/// deletes to `tally` (when given), and maps the outcome onto the
/// exit-code protocol. Never returns (uses _exit).
[[noreturn]] void ChildRun(const FuzzCase& c, const RunConfig& config,
                           const OracleRows& oracle, const FuzzFlags& flags,
                           uint64_t run_index, DeleteTally* tally) {
  if (flags.chaos) InstallChaos(flags, run_index);
  const RunOutcome outcome = Evaluate(c, config, oracle);
  ReportChildFailure(c, outcome);
  if (tally != nullptr) tally->Add(outcome);
  switch (outcome.kind) {
    case OutcomeKind::kAgree:
      _exit(kExitAgree);
    case OutcomeKind::kMismatch:
      _exit(kExitMismatch);
    case OutcomeKind::kEngineError:
      _exit(kExitEngineError);
    case OutcomeKind::kReferenceError:
      _exit(kExitReferenceError);
    case OutcomeKind::kLoadError:
      _exit(kExitLoadError);
  }
  _exit(kExitLoadError);
}

RunResult MapExitCode(int code) {
  switch (code) {
    case kExitAgree:
      return RunResult::kAgree;
    case kExitMismatch:
      return RunResult::kMismatch;
    case kExitEngineError:
      return RunResult::kEngineError;
    case kExitReferenceError:
      return RunResult::kReferenceError;
    case kExitLoadError:
      return RunResult::kLoadError;
    default:
      return RunResult::kCrash;  // Unexpected exit code ≈ aborted.
  }
}

/// Runs one engine evaluation against precomputed oracle rows, forked
/// unless --no-fork. `run_index` decorrelates chaos schedules across runs;
/// `tally`, when given, counts the run's delete batches.
RunResult RunIsolated(const FuzzCase& c, const RunConfig& config,
                      const OracleRows& oracle, const FuzzFlags& flags,
                      uint64_t run_index, DeleteTally* tally = nullptr) {
  if (flags.no_fork) {
    if (flags.chaos) InstallChaos(flags, run_index);
    const RunOutcome outcome = Evaluate(c, config, oracle);
    ReportChildFailure(c, outcome);
    if (tally != nullptr) tally->Add(outcome);
    return ToRunResult(outcome.kind);
  }

  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("[dcd_fuzz] fork");
    std::exit(2);
  }
  if (pid == 0) ChildRun(c, config, oracle, flags, run_index, tally);

  uint64_t waited_ms = 0;
  int status = 0;
  for (;;) {
    const pid_t done = waitpid(pid, &status, WNOHANG);
    if (done == pid) break;
    if (done < 0) {
      std::perror("[dcd_fuzz] waitpid");
      std::exit(2);
    }
    if (waited_ms >= flags.timeout_ms) {
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      return RunResult::kHang;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    waited_ms += 2;
  }
  if (WIFSIGNALED(status)) return RunResult::kCrash;
  if (WIFEXITED(status)) return MapExitCode(WEXITSTATUS(status));
  return RunResult::kCrash;
}

std::string ModeName(CoordinationMode mode) {
  return CoordinationModeName(mode);
}

/// The --modes spelling of `mode` (ParseModes is lowercase-only).
std::string ModeFlag(CoordinationMode mode) {
  switch (mode) {
    case CoordinationMode::kGlobal:
      return "global";
    case CoordinationMode::kSsp:
      return "ssp";
    case CoordinationMode::kDws:
      return "dws";
  }
  return "dws";
}

RunConfig MakeConfig(const FuzzFlags& flags, CoordinationMode mode,
                     uint32_t workers) {
  RunConfig config;
  config.mode = mode;
  config.num_workers = workers;
  config.max_global_iterations = flags.max_iters;
  return config;
}

size_t RuleCount(const std::string& program) {
  return static_cast<size_t>(
      std::count(program.begin(), program.end(), '\n'));
}

/// Writes <stem>.dl, <stem>.edges, and <stem>.repro.txt.
void WriteRepro(const FuzzFlags& flags, const std::string& stem,
                const FuzzCase& original, RunResult verdict,
                CoordinationMode mode, uint32_t orig_workers,
                const FuzzCase& reduced, uint32_t reduced_workers,
                uint32_t probes) {
  const std::string base = flags.out_dir + "/" + stem;
  {
    std::ofstream dl(base + ".dl");
    dl << reduced.program;
  }
  if (!reduced.updates.batches.empty()) {
    std::ofstream up(base + ".updates");
    up << SerializeUpdateScript(reduced.updates);
  }
  Status saved = SaveEdgeList(reduced.graph, base + ".edges");
  if (!saved.ok()) {
    std::fprintf(stderr, "[dcd_fuzz] cannot write %s.edges: %s\n",
                 base.c_str(), saved.ToString().c_str());
  }
  std::ofstream report(base + ".repro.txt");
  report << "# dcd_fuzz minimized failure\n"
         << "seed: " << original.seed << "\n"
         << "verdict: " << RunResultName(verdict) << "\n"
         << "mode: " << ModeName(mode) << "\n"
         << "workers: " << orig_workers << " (minimized to "
         << reduced_workers << ")\n"
         << "shrink probes: " << probes << "\n"
         << "chaos: " << (flags.chaos ? "on" : "off") << "\n"
         << "injected bug: "
         << (flags.inject_bug.empty() ? "none" : flags.inject_bug) << "\n"
         << "original: " << original.graph.num_edges() << " edges, "
         << RuleCount(original.program) << " rules, "
         << original.updates.batches.size() << " update batches\n"
         << "reduced: " << reduced.graph.num_edges() << " edges, "
         << RuleCount(reduced.program) << " rules, "
         << reduced.updates.batches.size() << " update batches\n"
         << "replay:\n"
         << "  dcd_fuzz --replay=" << base << ".dl --edges=" << base
         << ".edges --modes=" << ModeFlag(mode)
         << " --workers=" << reduced_workers
         << (reduced.updates.batches.empty()
                 ? ""
                 : " --updates-file=" + base + ".updates")
         << (flags.chaos ? " --chaos" : "")
         << (flags.inject_bug.empty()
                 ? ""
                 : " --inject-bug=" + flags.inject_bug)
         << "\n\nprogram:\n"
         << reduced.program;
}

/// Best-effort trace attachment for a failing repro: re-runs the reduced
/// case with tracing forced on in a forked child and writes
/// <stem>.trace.json next to the .dl/.edges pair. The case is a known
/// failure — it may crash, hang, or mismatch — so the run is isolated like
/// any other; a mismatch still completes and yields a full timeline, while
/// a crash/hang child simply leaves no trace file behind.
void DumpReproTrace(const FuzzFlags& flags, const std::string& stem,
                    const FuzzCase& reduced, CoordinationMode mode,
                    uint32_t workers) {
  const std::string path = flags.out_dir + "/" + stem + ".trace.json";
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("[dcd_fuzz] fork (trace dump)");
    return;
  }
  if (pid == 0) {
    EvalStats stats;
    const RunOutcome out = testing_gen::RunEngineTraced(
        reduced, MakeConfig(flags, mode, workers), &stats);
    // Only a completed run yields stats; mismatches complete (the diff is
    // the parent's verdict, not the engine's), so the common failure modes
    // all get a timeline.
    if (out.kind != OutcomeKind::kAgree) _exit(1);
    const Status w = WriteChromeTraceFile(stats, path);
    _exit(w.ok() ? 0 : 1);
  }
  uint64_t waited_ms = 0;
  int status = 0;
  for (;;) {
    const pid_t done = waitpid(pid, &status, WNOHANG);
    if (done == pid) break;
    if (done < 0) {
      std::perror("[dcd_fuzz] waitpid (trace dump)");
      return;
    }
    if (waited_ms >= flags.timeout_ms) {
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      std::fprintf(stderr, "[dcd_fuzz] trace dump timed out; no %s\n",
                   path.c_str());
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    waited_ms += 2;
  }
  if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
    std::printf("[dcd_fuzz] wrote execution trace to %s\n", path.c_str());
  } else {
    std::fprintf(stderr,
                 "[dcd_fuzz] trace dump child failed; no %s (the repro "
                 "crashes before completing)\n",
                 path.c_str());
  }
}

int RunReplay(const FuzzFlags& flags) {
  std::ifstream in(flags.replay_program);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", flags.replay_program.c_str());
    return 2;
  }
  FuzzCase c;
  c.program.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  c.outputs = testing_gen::HeadPredicates(c.program);
  if (!flags.replay_edges.empty()) {
    auto loaded = LoadEdgeList(flags.replay_edges);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n",
                   flags.replay_edges.c_str(),
                   loaded.status().ToString().c_str());
      return 2;
    }
    c.graph = std::move(loaded).value();
  }
  if (!flags.replay_updates.empty()) {
    auto script = LoadUpdateScriptFile(flags.replay_updates);
    if (!script.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n",
                   flags.replay_updates.c_str(),
                   script.status().ToString().c_str());
      return 2;
    }
    c.updates = std::move(script).value();
  }
  OracleRows oracle;
  const RunOutcome ref =
      testing_gen::ComputeOracle(c, /*max_rounds=*/100000, &oracle);
  if (ref.kind != OutcomeKind::kAgree) {
    std::fprintf(stderr, "replay oracle: %s: %s\n",
                 testing_gen::OutcomeKindName(ref.kind), ref.detail.c_str());
    return 2;
  }
  int failures = 0;
  uint64_t run_index = 0;
  for (CoordinationMode mode : flags.modes) {
    for (uint32_t workers : flags.workers) {
      const RunResult r = RunIsolated(c, MakeConfig(flags, mode, workers),
                                      oracle, flags, run_index++);
      std::printf("replay %s x%u: %s\n", ModeName(mode).c_str(), workers,
                  RunResultName(r));
      if (IsFailure(r)) ++failures;
    }
  }
  return failures > 0 ? 1 : 0;
}

int FuzzMain(int argc, char** argv) {
  FuzzFlags flags;
  if (!ParseFlags(argc, argv, &flags)) return Usage();

  if (!flags.inject_bug.empty()) {
    setenv("DCD_INJECT_BUG", flags.inject_bug.c_str(), 1);
#if !DCD_CHAOS_ENABLED
    std::fprintf(stderr,
                 "[dcd_fuzz] warning: --inject-bug needs a chaos-enabled "
                 "build (Debug or -DDCDATALOG_CHAOS=ON); this build "
                 "compiles the backdoor out\n");
#endif
  }
#if !DCD_CHAOS_ENABLED
  if (flags.chaos) {
    std::fprintf(stderr,
                 "[dcd_fuzz] warning: --chaos has no effect, this build "
                 "compiles chaos points out\n");
  }
#endif

  if (!flags.replay_program.empty()) return RunReplay(flags);

  uint64_t runs = 0;
  uint64_t failures = 0;
  uint64_t run_index = 0;
  bool out_dir_ready = false;
  void* shared = mmap(nullptr, sizeof(DeleteTally), PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (shared == MAP_FAILED) {
    std::perror("[dcd_fuzz] mmap");
    return 2;
  }
  DeleteTally* tally = new (shared) DeleteTally();
  for (uint64_t s = 0; s < flags.seeds; ++s) {
    const uint64_t seed = flags.start_seed + s;
    GenOptions gen;
    gen.seed = seed;
    gen.max_vertices = flags.max_vertices;
    gen.max_update_batches = static_cast<uint32_t>(flags.update_batches);
    const FuzzCase c = testing_gen::GenerateCase(gen);

    // The oracle runs once per case, in-process: ReferenceEvaluate is
    // simple, single-threaded, and round-capped, so it cannot hang, and a
    // crash there is an oracle bug worth dying loudly for.
    OracleRows oracle;
    const RunOutcome ref =
        testing_gen::ComputeOracle(c, /*max_rounds=*/100000, &oracle);
    if (ref.kind != OutcomeKind::kAgree) {
      std::printf("seed %llu: oracle %s: %s\n",
                  static_cast<unsigned long long>(seed),
                  testing_gen::OutcomeKindName(ref.kind), ref.detail.c_str());
      continue;
    }

    for (CoordinationMode mode : flags.modes) {
      for (uint32_t workers : flags.workers) {
        const RunConfig config = MakeConfig(flags, mode, workers);
        const RunResult r =
            RunIsolated(c, config, oracle, flags, run_index++, tally);
        ++runs;
        if (flags.verbose || IsFailure(r)) {
          std::printf("seed %llu %s x%u: %s\n",
                      static_cast<unsigned long long>(seed),
                      ModeName(mode).c_str(), workers, RunResultName(r));
        }
        if (!IsFailure(r)) continue;

        ++failures;
        if (!out_dir_ready) {
          // Best-effort; WriteRepro reports file-level errors itself.
          std::string cmd = "mkdir -p '" + flags.out_dir + "'";
          if (std::system(cmd.c_str()) != 0) {
            std::fprintf(stderr, "[dcd_fuzz] cannot create %s\n",
                         flags.out_dir.c_str());
          }
          out_dir_ready = true;
        }
        // Shrink. Each probe recomputes the candidate's oracle (the case
        // changes under shrinking) and reruns the same engine config; only
        // engine-side failures keep a candidate — a candidate whose
        // program no longer analyzes or whose oracle fails is rejected.
        auto still_fails = [&](const FuzzCase& candidate,
                               uint32_t probe_workers) {
          OracleRows probe_oracle;
          const RunOutcome probe_ref = testing_gen::ComputeOracle(
              candidate, /*max_rounds=*/100000, &probe_oracle);
          if (probe_ref.kind != OutcomeKind::kAgree) return false;
          const RunConfig probe = MakeConfig(flags, mode, probe_workers);
          return IsFailure(RunIsolated(candidate, probe, probe_oracle,
                                       flags, run_index++));
        };
        std::printf("seed %llu %s x%u: shrinking...\n",
                    static_cast<unsigned long long>(seed),
                    ModeName(mode).c_str(), workers);
        std::fflush(stdout);
        const testing_gen::MinimizeResult reduced =
            testing_gen::Minimize(c, workers, still_fails);
        const std::string stem = "seed" + std::to_string(seed) + "_" +
                                 ModeFlag(mode) + "_w" +
                                 std::to_string(workers);
        WriteRepro(flags, stem, c, r, mode, workers, reduced.reduced,
                   reduced.num_workers, reduced.probes);
        DumpReproTrace(flags, stem, reduced.reduced, mode,
                       reduced.num_workers);
        std::printf(
            "seed %llu %s x%u: minimized to %zu rules / %llu edges / %u "
            "workers (%u probes) -> %s/%s.*\n",
            static_cast<unsigned long long>(seed), ModeName(mode).c_str(),
            workers, RuleCount(reduced.reduced.program),
            static_cast<unsigned long long>(
                reduced.reduced.graph.num_edges()),
            reduced.num_workers, reduced.probes, flags.out_dir.c_str(),
            stem.c_str());
        if (failures >= flags.max_failures) {
          std::printf("dcd_fuzz: stopping after %llu failures (%llu runs)\n",
                      static_cast<unsigned long long>(failures),
                      static_cast<unsigned long long>(runs));
          return 1;
        }
      }
    }
    if (!flags.verbose && (s + 1) % 25 == 0) {
      std::printf("dcd_fuzz: %llu/%llu seeds, %llu runs, %llu failures\n",
                  static_cast<unsigned long long>(s + 1),
                  static_cast<unsigned long long>(flags.seeds),
                  static_cast<unsigned long long>(runs),
                  static_cast<unsigned long long>(failures));
      std::fflush(stdout);
    }
  }
  if (flags.update_batches > 0) {
    std::printf("dcd_fuzz: deletes: %llu maintained, %llu recomputed\n",
                static_cast<unsigned long long>(tally->maintained),
                static_cast<unsigned long long>(tally->recomputed));
  }
  std::printf("dcd_fuzz: %llu runs over %llu seeds, %llu failures\n",
              static_cast<unsigned long long>(runs),
              static_cast<unsigned long long>(flags.seeds),
              static_cast<unsigned long long>(failures));
  return failures > 0 ? 1 : 0;
}

}  // namespace
}  // namespace dcdatalog

int main(int argc, char** argv) { return dcdatalog::FuzzMain(argc, argv); }
