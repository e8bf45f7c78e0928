#ifndef DCDATALOG_TESTING_FUZZ_RUNNER_H_
#define DCDATALOG_TESTING_FUZZ_RUNNER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/options.h"
#include "core/engine.h"
#include "storage/relation.h"
#include "testing/program_gen.h"

namespace dcdatalog {
namespace testing_gen {

/// How one differential run ended.
enum class OutcomeKind : uint8_t {
  kAgree = 0,           // Engine and reference produced identical multisets.
  kMismatch,            // They disagree — the interesting case.
  kEngineError,         // Engine Run() returned a non-OK status.
  kReferenceError,      // The oracle itself failed (e.g. round limit).
  kLoadError,           // The case did not parse/analyze — generator bug.
};

const char* OutcomeKindName(OutcomeKind kind);

/// One engine configuration to diff against the reference.
struct RunConfig {
  CoordinationMode mode = CoordinationMode::kDws;
  uint32_t num_workers = 4;
  /// Safety valve forwarded to EngineOptions so a termination-detection bug
  /// surfaces as kEngineError instead of spinning forever (the fork-based
  /// driver additionally wall-clock-kills true hangs).
  uint64_t max_global_iterations = 200000;
  /// Cap forwarded to ReferenceEvaluate.
  uint64_t reference_max_rounds = 100000;
};

struct RunOutcome {
  OutcomeKind kind = OutcomeKind::kAgree;
  /// Failure detail: status message, or a per-predicate diff excerpt.
  std::string detail;
  /// Streaming-update runs: batches whose removals reached a min/max
  /// predicate, by whether the engine maintained them or recomputed.
  uint64_t agg_deletes_maintained = 0;
  uint64_t agg_deletes_recomputed = 0;
};

/// Sorted multiset of rows, one entry per output predicate.
using RowMultiset = std::vector<std::vector<uint64_t>>;
using OracleRows = std::map<std::string, RowMultiset>;

/// Rows of `rel` as a sorted multiset. Deliberately NOT a set: a
/// partition-ownership violation (the same tuple owned by two workers)
/// materializes as a duplicated row, which set-comparison would mask.
RowMultiset SortedRows(const Relation& rel);

/// Evaluates `c` with the single-threaded reference interpreter and fills
/// `*out` with one sorted multiset per output predicate. The oracle is
/// configuration-independent, so the fuzz driver computes it once per case
/// and diffs every mode × worker-count engine run against the same rows.
/// Returns kAgree on success, kLoadError / kReferenceError otherwise.
RunOutcome ComputeOracle(const FuzzCase& c, uint64_t max_rounds,
                         OracleRows* out);

/// Evaluates `c` once with the parallel engine under `config` and compares
/// every output predicate's extension against `oracle` as sorted multisets.
/// Generated programs are all-integer, so comparison is exact — no
/// floating-point tolerance is needed.
RunOutcome RunEngineOnce(const FuzzCase& c, const RunConfig& config,
                         const OracleRows& oracle);

/// Evaluates `c` once with tracing forced on and fills `*stats` with the
/// run's EvalStats (trace events, drop counts, per-worker histograms). The
/// fuzz driver uses this to attach an execution trace to failing repros;
/// result rows are not compared. Returns kAgree when the run completed,
/// kLoadError / kEngineError otherwise (*stats is untouched then).
RunOutcome RunEngineTraced(const FuzzCase& c, const RunConfig& config,
                           EvalStats* stats);

/// Convenience wrapper: ComputeOracle + RunEngineOnce in one call, for
/// tests and single-shot use.
RunOutcome RunCaseOnce(const FuzzCase& c, const RunConfig& config);

/// Streaming-update differential run: evaluates `c` with BeginIncremental,
/// then applies `c.updates` batch by batch, comparing every output
/// predicate against a from-scratch reference recompute over the
/// accumulated EDB after EVERY batch (and after the initial fixpoint).
/// Unlike RunEngineOnce the oracle rows depend on the update stream, so
/// this computes them internally instead of taking precomputed rows; the
/// oracle EDB is maintained by the same NetOutBatch/ApplyDeltasToCatalog
/// code the engine uses, so both sides see identical relation contents.
/// A mismatch's detail names the batch index it first appeared after. The
/// stamp invariant of the session's min/max SCCs and the indexes the
/// update path patches in place (DCDatalog::CheckIndexes) are checked at
/// the same points; a violation is a mismatch.
RunOutcome RunIncrementalCase(const FuzzCase& c, const RunConfig& config);

}  // namespace testing_gen
}  // namespace dcdatalog

#endif  // DCDATALOG_TESTING_FUZZ_RUNNER_H_
