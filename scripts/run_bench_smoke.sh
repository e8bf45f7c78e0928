#!/usr/bin/env bash
# Bench-smoke matrix for the two remaining ablation baselines:
#   PR 5  — flat-vs-btree merge backends (Table 4 axis)
#   PR 6  — batch-vs-tuple rule-pipeline executors
# One micro_components run feeds both JSONs. The per-PR files keep their
# historical names so existing baselines stay diffable, and both are
# additionally folded into one combined artifact. Everything else is
# measured by perfbench (perfbench/README.md).
#
# Usage:
#   scripts/run_bench_smoke.sh                    # measure, write all JSONs
#   scripts/run_bench_smoke.sh --check FILE       # fail if the flat merge
#                                                 # path regressed >20% vs
#                                                 # the baseline FILE
#   scripts/run_bench_smoke.sh --check-pr6 FILE   # fail if the batch
#                                                 # pipeline executor
#                                                 # regressed >20% vs FILE
#
# Environment:
#   BUILD_DIR=<dir>   build tree containing bench/micro_components
#                     (default: build)
#   OUT=<file>        PR 5 output path  (default: BENCH_PR5.json)
#   OUT6=<file>       PR 6 output path  (default: BENCH_PR6.json)
#   COMBINED=<file>   combined artifact (default: BENCH_SMOKE.json)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
OUT="${OUT:-BENCH_PR5.json}"
OUT6="${OUT6:-BENCH_PR6.json}"
COMBINED="${COMBINED:-BENCH_SMOKE.json}"
BASELINE=""
BASELINE6=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --check)
      BASELINE="${2:?--check needs a baseline file}"
      shift 2
      ;;
    --check-pr6)
      BASELINE6="${2:?--check-pr6 needs a baseline file}"
      shift 2
      ;;
    *)
      echo "run_bench_smoke: unknown argument $1" >&2
      exit 2
      ;;
  esac
done

BENCH="$BUILD_DIR/bench/micro_components"
if [[ ! -x "$BENCH" ]]; then
  echo "run_bench_smoke: $BENCH not built (set BUILD_DIR?)" >&2
  exit 2
fi

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

# One process, one JSON: the 1M-tuple kNone dedup merge on both backends,
# the min-merge ablation trio plus its flat twin, both rule-pipeline
# executors on the filter+probe workload, and the end-to-end TC run.
"$BENCH" \
  --benchmark_filter='BM_MergeNone(Flat|Btree)|BM_MergeMin(Indexed|IndexedNoCache|LinearScan|Flat)$|BM_Pipeline(Tuple|Batch)$|BM_EngineTcTraceOff|BM_EngineTcTupleExec' \
  --benchmark_format=json --benchmark_out="$RAW" \
  --benchmark_out_format=json >&2

python3 - "$RAW" "$OUT" "$OUT6" "$COMBINED" "$BASELINE" "$BASELINE6" <<'PY'
import json, sys

(raw_path, out_path, out6_path, combined_path, baseline_path,
 baseline6_path) = sys.argv[1:7]
with open(raw_path) as f:
    raw = json.load(f)

by_name = {}
for b in raw.get("benchmarks", []):
    # Strip the /Arg suffix: BM_MergeNoneFlat/1048576 -> BM_MergeNoneFlat.
    by_name[b["name"].split("/")[0]] = b

def mtps(name):
    b = by_name.get(name)
    return round(b["items_per_second"] / 1e6, 3) if b else None

def ms(name):
    b = by_name.get(name)
    if b is None:
        return None
    scale = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}[
        b.get("time_unit", "ns")]
    return round(b["real_time"] * scale, 3)

flat = mtps("BM_MergeNoneFlat")
btree = mtps("BM_MergeNoneBtree")
result = {
    "bench": "merge-backend ablation (PR 5)",
    "workload": "1M-tuple kNone dedup merge, 4096-tuple batches, "
                "2^20-pair universe",
    "merge_none_flat_mtps": flat,
    "merge_none_btree_mtps": btree,
    "flat_over_btree": round(flat / btree, 2) if flat and btree else None,
    "merge_min_btree_indexed_mtps": mtps("BM_MergeMinIndexed"),
    "merge_min_btree_nocache_mtps": mtps("BM_MergeMinIndexedNoCache"),
    "merge_min_btree_linear_mtps": mtps("BM_MergeMinLinearScan"),
    "merge_min_flat_mtps": mtps("BM_MergeMinFlat"),
    "end_to_end_tc_ms": ms("BM_EngineTcTraceOff"),
}
with open(out_path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
print(json.dumps(result, indent=2))

batch = mtps("BM_PipelineBatch")
tuple_ = mtps("BM_PipelineTuple")
result6 = {
    "bench": "pipeline-executor ablation (PR 6)",
    "workload": "256K driving rows through an int filter (~50% "
                "selectivity) and two hash-join probes, single-threaded; "
                "throughput in driving Mtuples/s",
    "pipeline_batch_mtps": batch,
    "pipeline_tuple_mtps": tuple_,
    "batch_over_tuple": round(batch / tuple_, 2) if batch and tuple_ else None,
    # Same-machine end-to-end TC (gnp:300:0.01, 4 workers, DWS) on each
    # executor; the batch number is the headline, the tuple number is the
    # PR 5 execution path re-measured under today's machine conditions.
    "end_to_end_tc_ms": ms("BM_EngineTcTraceOff"),
    "end_to_end_tc_tuple_ms": ms("BM_EngineTcTupleExec"),
}
with open(out6_path, "w") as f:
    json.dump(result6, f, indent=2)
    f.write("\n")
print(json.dumps(result6, indent=2))

combined = {"pr5": result, "pr6": result6}
with open(combined_path, "w") as f:
    json.dump(combined, f, indent=2)
    f.write("\n")

if baseline_path:
    with open(baseline_path) as f:
        base = json.load(f)
    base_flat = base.get("merge_none_flat_mtps")
    if base_flat and flat is not None and flat < 0.8 * base_flat:
        print(
            f"FAIL: flat merge path regressed: {flat} Mtuples/s vs "
            f"baseline {base_flat} (>20% slower)",
            file=sys.stderr,
        )
        sys.exit(1)
    print(f"check OK: flat {flat} Mtuples/s vs baseline {base_flat}")

if baseline6_path:
    with open(baseline6_path) as f:
        base6 = json.load(f)
    base_batch = base6.get("pipeline_batch_mtps")
    if base_batch and batch is not None and batch < 0.8 * base_batch:
        print(
            f"FAIL: batch pipeline executor regressed: {batch} Mtuples/s "
            f"vs baseline {base_batch} (>20% slower)",
            file=sys.stderr,
        )
        sys.exit(1)
    print(f"check OK: batch {batch} Mtuples/s vs baseline {base_batch}")
PY
