// Micro-benchmarks (google-benchmark) for the engine's building blocks:
// hash/dynamic indexes, SPSC queue, flat merge structures, and the
// recursive-table merge paths (§6.2.1 in isolation).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/trace.h"
#include "concurrent/spsc_queue.h"
#include "concurrent/termination.h"
#include "core/dcdatalog.h"
#include "datalog/analysis.h"
#include "datalog/parser.h"
#include "graph/generators.h"
#include "planner/logical_plan.h"
#include "runtime/base_index_set.h"
#include "runtime/batch_pipeline.h"
#include "runtime/distributor.h"
#include "runtime/pipeline.h"
#include "runtime/recursive_table.h"
#include "storage/dyn_index.h"
#include "storage/flat_map.h"
#include "storage/flat_set.h"
#include "storage/hash_index.h"

namespace dcdatalog {
namespace {

void BM_HashIndexProbe(benchmark::State& state) {
  Relation rel("r", Schema::Ints(2));
  Rng fill(1);
  for (int64_t i = 0; i < state.range(0); ++i) {
    rel.Append({fill.Uniform(state.range(0) / 8), static_cast<uint64_t>(i)});
  }
  HashIndex index;
  index.Build(rel, 0);
  Rng probe(2);
  uint64_t sink = 0;
  for (auto _ : state) {
    index.ForEachMatch(probe.Uniform(state.range(0) / 8),
                       [&sink](uint64_t row) {
                         sink += row;
                         return true;
                       });
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashIndexProbe)->Arg(100000)->Arg(1000000);

void BM_DynIndexInsertProbe(benchmark::State& state) {
  for (auto _ : state) {
    DynIndex index;
    Rng rng(1);
    uint64_t sink = 0;
    for (int64_t i = 0; i < state.range(0); ++i) {
      index.Insert(rng.Uniform(1024), i);
      if ((i & 7) == 0) {
        index.ForEachMatch(rng.Uniform(1024), [&sink](uint64_t r) {
          sink += r;
          return false;
        });
      }
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DynIndexInsertProbe)->Arg(100000);

void BM_SpscQueueThroughput(benchmark::State& state) {
  SpscQueue<TupleBuf> q(4096);
  TupleBuf buf{1, 2, 3};
  std::vector<TupleBuf> out;
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) {
      while (!q.TryPush(buf)) {
        out.clear();
        q.PopBatch(&out);
      }
    }
    out.clear();
    q.PopBatch(&out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_SpscQueueThroughput);

void BM_FlatSetInsert(benchmark::State& state) {
  for (auto _ : state) {
    Relation rel("r", Schema::Ints(2));
    FlatTupleSet set(&rel);
    Rng rng(1);
    for (int64_t i = 0; i < state.range(0); ++i) {
      TupleBuf buf{rng.Uniform(1 << 16), rng.Uniform(1 << 16)};
      const TupleRef tuple = buf.Ref(2);
      const uint64_t hash = tuple.Hash();
      if (set.Find(hash, tuple) == FlatTupleSet::kNotFound) {
        set.Insert(hash, rel.Append(tuple));
      }
    }
    benchmark::DoNotOptimize(set.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FlatSetInsert)->Arg(100000);

void BM_FlatGroupMapUpsert(benchmark::State& state) {
  for (auto _ : state) {
    FlatGroupMap map;
    Rng rng(1);
    for (int64_t i = 0; i < state.range(0); ++i) {
      bool inserted = false;
      uint64_t* v = map.FindOrInsert(
          U128{rng.Uniform(1 << 14), rng.Uniform(4)}, i, &inserted);
      if (!inserted) *v += 1;
    }
    benchmark::DoNotOptimize(map.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FlatGroupMapUpsert)->Arg(100000);

// --- Distribute→gather communication path --------------------------------
//
// The inter-worker path for binary tuples with 8 worker threads: the
// retired per-tuple messaging (`legacy::Distributor` below — one fixed
// 64-byte WireMsg through the ring per tuple, a string-keyed map lookup
// per Emit, an std::function sink call and two termination-detector RMWs
// per tuple, every tuple through a ring including self-partition traffic)
// versus the block-batched path (the real Distributor packing dense 2 KiB
// MsgBlocks, one OnBlockPushed per block, one AddConsumed per drain, and
// the self-loop bypass). Each worker emits its share in kCommChunk bursts
// interleaved with drains of its own inbound column, then keeps draining
// until every tuple in the system has been gathered; backpressure mirrors
// the engine (drain own inbox, yield if it was empty). Ring capacities are
// matched by memory budget — 128 KiB per ring either way — and throughput
// is wall-clock tuples/sec. The gap is mostly coherence traffic (ring
// cache lines and shared detector counters bounce per tuple vs per
// block), so the measured ratio scales with physical core count; on a
// single hardware thread only the instruction-count gap (~1.3x) remains.

constexpr uint32_t kCommWorkers = 8;
constexpr uint64_t kCommTuples = 1 << 16;  // Per worker.
constexpr uint64_t kCommChunk = 1024;      // Emits per local iteration.
constexpr uint64_t kCommTotal = kCommWorkers * kCommTuples;

namespace legacy {

/// The retired one-message-per-tuple wire format.
struct WireMsg {
  uint64_t tag = 0;
  uint64_t w[7];
};

/// The retired Distributor, kept verbatim (minus partial aggregation,
/// which this benchmark does not exercise) as the baseline: no staging,
/// one sink call per (tuple, replica), predicate state behind a
/// string-keyed std::map instead of the dense pred_id vector.
class Distributor {
 public:
  using SinkFn = std::function<void(uint32_t, const WireMsg&)>;

  Distributor(const SccPlan* scc, uint32_t num_workers, SinkFn sink)
      : scc_(scc), num_workers_(num_workers), sink_(std::move(sink)) {}

  void Emit(const HeadSpec& head, const uint64_t* wire) {
    Route(StateFor(head), wire);
  }

 private:
  struct PerPredicate {
    const HeadSpec* head = nullptr;
    std::vector<int> replica_ids;
  };

  PerPredicate& StateFor(const HeadSpec& head) {
    auto [it, inserted] = per_pred_.try_emplace(head.predicate);
    PerPredicate& pp = it->second;
    if (inserted) {
      pp.head = &head;
      pp.replica_ids = scc_->ReplicasOf(head.predicate);
    }
    return pp;
  }

  void Route(const PerPredicate& pp, const uint64_t* wire) {
    const uint32_t arity = pp.head->agg.wire_arity;
    WireMsg msg;
    std::memcpy(msg.w, wire, arity * sizeof(uint64_t));
    for (int rid : pp.replica_ids) {
      const ReplicaSpec& replica = scc_->replicas[rid];
      msg.tag = static_cast<uint64_t>(rid);
      const uint64_t key =
          replica.partition_constant ? 0 : wire[replica.partition_col];
      sink_(PartitionOf(key, num_workers_), msg);
    }
  }

  const SccPlan* scc_;
  const uint32_t num_workers_;
  SinkFn sink_;
  std::map<std::string, PerPredicate> per_pred_;
};

}  // namespace legacy

SccPlan CommScc() {
  SccPlan scc;
  scc.derived_preds.push_back("reach");
  scc.replicas.push_back(ReplicaSpec{"reach", 0, false});
  return scc;
}

HeadSpec CommHead() {
  HeadSpec head;
  head.predicate = "reach";
  head.pred_id = 0;
  head.agg.func = AggFunc::kNone;
  head.agg.group_arity = 2;
  head.agg.stored_arity = 2;
  head.agg.wire_arity = 2;
  return head;
}

void BM_DistributeGatherPerTuple(benchmark::State& state) {
  SccPlan scc = CommScc();
  HeadSpec head = CommHead();
  for (auto _ : state) {
    std::vector<std::unique_ptr<SpscQueue<legacy::WireMsg>>> grid;
    for (uint32_t i = 0; i < kCommWorkers * kCommWorkers; ++i) {
      grid.push_back(std::make_unique<SpscQueue<legacy::WireMsg>>(2048));
    }
    auto ring = [&](uint32_t from,
                    uint32_t to) -> SpscQueue<legacy::WireMsg>& {
      return *grid[from * kCommWorkers + to];
    };
    TerminationDetector det(kCommWorkers);
    std::atomic<uint64_t> gathered{0};
    auto worker = [&](uint32_t wid) {
      std::vector<legacy::WireMsg> batch;
      std::vector<TupleBuf> scratch;
      auto drain = [&]() -> uint64_t {
        batch.clear();
        for (uint32_t src = 0; src < kCommWorkers; ++src) {
          ring(src, wid).PopBatch(&batch);
        }
        for (const legacy::WireMsg& m : batch) {
          TupleBuf buf;
          std::memcpy(buf.v, m.w, sizeof(m.w));
          scratch.push_back(buf);
        }
        if (batch.empty()) return 0;
        det.AddConsumed(wid, batch.size());
        gathered.fetch_add(batch.size(), std::memory_order_relaxed);
        benchmark::DoNotOptimize(scratch.data());
        scratch.clear();
        return batch.size();
      };
      legacy::Distributor dist(
          &scc, kCommWorkers,
          [&](uint32_t dest, const legacy::WireMsg& m) {
            while (!ring(wid, dest).TryPush(m)) {
              if (drain() == 0) std::this_thread::yield();
            }
            det.AddProduced(1);  // Two detector RMWs per tuple.
            det.Activate(dest);
          });
      for (uint64_t base = 0; base < kCommTuples; base += kCommChunk) {
        for (uint64_t i = base; i < base + kCommChunk; ++i) {
          uint64_t wire[2] = {HashCombine(wid, i), i};
          dist.Emit(head, wire);
        }
        drain();
      }
      while (gathered.load(std::memory_order_relaxed) < kCommTotal) {
        if (drain() == 0) std::this_thread::yield();
      }
    };
    std::vector<std::thread> threads;
    for (uint32_t wid = 0; wid < kCommWorkers; ++wid) {
      threads.emplace_back(worker, wid);
    }
    for (auto& t : threads) t.join();
  }
  state.SetItemsProcessed(state.iterations() * kCommTotal);
}
BENCHMARK(BM_DistributeGatherPerTuple)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Per-worker state for the blocked bench: the real Distributor takes
/// {function pointer, context} sinks (its hot-path contract), so the
/// send/self-loop callbacks are static thunks over this struct rather than
/// capturing lambdas.
struct BlockedCommWorker {
  std::vector<std::unique_ptr<SpscQueue<MsgBlock>>>* grid = nullptr;
  TerminationDetector* det = nullptr;
  std::atomic<uint64_t>* gathered = nullptr;
  uint32_t wid = 0;
  std::vector<MsgBlock> batch;
  std::vector<TupleBuf> scratch;
  uint64_t self_tuples = 0;

  SpscQueue<MsgBlock>& Ring(uint32_t from, uint32_t to) {
    return *(*grid)[from * kCommWorkers + to];
  }

  uint64_t Drain() {
    batch.clear();
    for (uint32_t src = 0; src < kCommWorkers; ++src) {
      Ring(src, wid).PopBatch(&batch);
    }
    uint64_t tuples = 0;
    for (const MsgBlock& b : batch) {
      for (uint32_t t = 0; t < b.count; ++t) {
        scratch.push_back(TupleBuf::FromWords(b.Tuple(t), b.arity));
      }
      tuples += b.count;
    }
    if (tuples == 0) return 0;
    det->AddConsumed(wid, tuples);  // One RMW per drain.
    gathered->fetch_add(tuples, std::memory_order_relaxed);
    benchmark::DoNotOptimize(scratch.data());
    scratch.clear();
    return tuples;
  }

  static void Send(void* c, uint32_t dest, const MsgBlock& block) {
    auto* w = static_cast<BlockedCommWorker*>(c);
    while (!w->Ring(w->wid, dest).TryPush(block)) {
      if (w->Drain() == 0) std::this_thread::yield();
    }
    w->det->OnBlockPushed(dest, block.count);  // Two RMWs per block.
  }

  static void SelfLoop(void* c, uint32_t, const uint64_t* wire,
                       uint32_t arity) {
    // Self-loop bypass: straight into local gather scratch.
    auto* w = static_cast<BlockedCommWorker*>(c);
    w->scratch.push_back(TupleBuf::FromWords(wire, arity));
    ++w->self_tuples;
  }
};

void BM_DistributeGatherBlocked(benchmark::State& state) {
  SccPlan scc = CommScc();
  HeadSpec head = CommHead();
  for (auto _ : state) {
    std::vector<std::unique_ptr<SpscQueue<MsgBlock>>> grid;
    for (uint32_t i = 0; i < kCommWorkers * kCommWorkers; ++i) {
      grid.push_back(std::make_unique<SpscQueue<MsgBlock>>(64));
    }
    TerminationDetector det(kCommWorkers);
    std::atomic<uint64_t> gathered{0};
    auto worker = [&](uint32_t wid) {
      BlockedCommWorker w;
      w.grid = &grid;
      w.det = &det;
      w.gathered = &gathered;
      w.wid = wid;
      Distributor dist(
          &scc, kCommWorkers, wid,
          Distributor::BlockSink{&BlockedCommWorker::Send, &w},
          Distributor::SelfLoopSink{&BlockedCommWorker::SelfLoop, &w});
      for (uint64_t base = 0; base < kCommTuples; base += kCommChunk) {
        for (uint64_t i = base; i < base + kCommChunk; ++i) {
          uint64_t wire[2] = {HashCombine(wid, i), i};
          dist.EmitBatch(head, wire, 1, 2);
        }
        dist.Flush();  // Every local iteration ships partial blocks.
        benchmark::DoNotOptimize(w.scratch.data());
        w.scratch.clear();
        w.Drain();
      }
      gathered.fetch_add(w.self_tuples, std::memory_order_relaxed);
      while (gathered.load(std::memory_order_relaxed) < kCommTotal) {
        if (w.Drain() == 0) std::this_thread::yield();
      }
    };
    std::vector<std::thread> threads;
    for (uint32_t wid = 0; wid < kCommWorkers; ++wid) {
      threads.emplace_back(worker, wid);
    }
    for (auto& t : threads) t.join();
  }
  state.SetItemsProcessed(state.iterations() * kCommTotal);
}
BENCHMARK(BM_DistributeGatherBlocked)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- Trace-ring / metrics overhead ---------------------------------------
//
// The observability layer must be invisible when tracing is off. Three
// levels of proof: (1) Append behind a disabled ring is one predictable
// branch (compare *_Disabled against *_Enabled); (2) a LogHistogram::Add is
// counter-cheap, which is why the histograms stay on unconditionally; and
// (3) the engine-level pair runs the same TC evaluation with tracing off vs
// on — the off case is the configuration every benchmark and production run
// uses, and its delta against pre-trace-ring builds must stay at noise
// level (the hot loops gained only `if (!ring.enabled()) return` guards).

void BM_TraceRingAppendDisabled(benchmark::State& state) {
  TraceRing ring;  // Capacity 0: the trace-off configuration.
  TraceEvent ev;
  ev.kind = TraceEventKind::kDrain;
  for (auto _ : state) {
    ring.Append(ev);
    benchmark::DoNotOptimize(ring);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceRingAppendDisabled);

void BM_TraceRingAppendEnabled(benchmark::State& state) {
  TraceRing ring(1 << 14);
  TraceEvent ev;
  ev.kind = TraceEventKind::kIteration;
  ev.start_ns = 1;
  ev.end_ns = 2;
  for (auto _ : state) {
    ring.Append(ev);
    benchmark::DoNotOptimize(ring);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceRingAppendEnabled);

void BM_LogHistogramAdd(benchmark::State& state) {
  LogHistogram h;
  uint64_t v = 12345;
  for (auto _ : state) {
    h.Add(v);
    v = v * 2862933555777941757ULL + 3037000493ULL;  // Cheap LCG step.
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogHistogramAdd);

void EngineTraceBench(benchmark::State& state, bool trace) {
  EngineOptions opts;
  opts.num_workers = 4;
  opts.coordination = CoordinationMode::kDws;
  opts.enable_trace = trace;
  const Graph g = GenerateGnp(300, 0.01, 17);
  for (auto _ : state) {
    DCDatalog db(opts);
    db.AddGraph(g, "arc");
    if (!db.LoadProgramText("tc(X, Y) :- arc(X, Y).\n"
                            "tc(X, Y) :- tc(X, Z), arc(Z, Y).\n")
             .ok()) {
      state.SkipWithError("program load failed");
      return;
    }
    auto stats = db.Run();
    if (!stats.ok()) {
      state.SkipWithError("engine run failed");
      return;
    }
    benchmark::DoNotOptimize(stats.value().tuples_routed);
  }
}

void BM_EngineTcTraceOff(benchmark::State& state) {
  EngineTraceBench(state, false);
}
BENCHMARK(BM_EngineTcTraceOff)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_EngineTcTraceOn(benchmark::State& state) {
  EngineTraceBench(state, true);
}
BENCHMARK(BM_EngineTcTraceOn)->Unit(benchmark::kMillisecond)->UseRealTime();

// --- Incremental maintenance ---------------------------------------------
//
// The incremental-vs-recompute comparison: a single fresh-endpoint edge
// insert into a large precomputed TC fixpoint, maintained through the
// retained semi-naive loop, against recomputing that fixpoint from scratch.
// Same graph, same options. Not gated here: perfbench's tc-updates
// `insert_ms` is the bound on the insert path.

const Graph& IncrementalBenchGraph() {
  static const Graph g = GenerateGnp(1000, 0.003, 17);
  return g;
}

EngineOptions IncrementalBenchOpts() {
  EngineOptions opts;
  opts.num_workers = 4;
  opts.coordination = CoordinationMode::kDws;
  return opts;
}

constexpr char kIncrementalTcProgram[] =
    "tc(X, Y) :- arc(X, Y).\n"
    "tc(X, Y) :- tc(X, Z), arc(Z, Y).\n";

/// Session setup (initial fixpoint) runs outside the timed region; each
/// iteration streams one insert whose source vertex is globally fresh, so
/// every batch derives a genuinely new (small) set of tc facts instead of
/// hitting the duplicate-netting fast path.
void BM_EngineTcIncrementalInsert(benchmark::State& state) {
  DCDatalog db(IncrementalBenchOpts());
  db.AddGraph(IncrementalBenchGraph(), "arc");
  if (!db.LoadProgramText(kIncrementalTcProgram).ok() ||
      !db.BeginIncremental().ok()) {
    state.SkipWithError("incremental session setup failed");
    return;
  }
  uint64_t fresh = 5000000;
  for (auto _ : state) {
    ResolvedUpdateBatch batch;
    ResolvedUpdateOp op;
    op.is_insert = true;
    op.relation = "arc";
    op.row = {fresh++, fresh % 1000};
    batch.ops.push_back(std::move(op));
    auto stats = db.ApplyUpdates(batch);
    if (!stats.ok()) {
      state.SkipWithError("ApplyUpdates failed");
      return;
    }
    benchmark::DoNotOptimize(stats.value().delta_tuples_in);
  }
}
BENCHMARK(BM_EngineTcIncrementalInsert)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The from-scratch baseline the insert is compared against: one full
/// fixpoint over the same graph per iteration.
void BM_EngineTcScratchRecompute(benchmark::State& state) {
  for (auto _ : state) {
    DCDatalog db(IncrementalBenchOpts());
    db.AddGraph(IncrementalBenchGraph(), "arc");
    if (!db.LoadProgramText(kIncrementalTcProgram).ok()) {
      state.SkipWithError("program load failed");
      return;
    }
    auto stats = db.Run();
    if (!stats.ok()) {
      state.SkipWithError("engine run failed");
      return;
    }
    benchmark::DoNotOptimize(stats.value().tuples_routed);
  }
}
BENCHMARK(BM_EngineTcScratchRecompute)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- Rule-pipeline executors ----------------------------------------------
//
// The batch runner against RunPipelineForTuple (the per-tuple form the
// delete path's proof search runs) on a representative filter + probe
// rule, isolated from coordination and merging: 256K driving rows through
// an int filter (~50% selectivity) and two hash-join probes (the shared key
// variable X triggers the paper's hash-join heuristic), emissions counted
// through each executor's non-allocating sink. Single-threaded on purpose —
// the executors differ in per-lane instruction count and probe cache
// behaviour, not in parallel structure. Throughput is driving tuples/sec.

constexpr uint32_t kPipeSrcRows = 1u << 18;
constexpr uint32_t kPipeKeySpace = 1u << 19;  // Filter keeps X < 2^18: ~50%.

/// Planner-compiled filter+probe rule plus everything needed to run it,
/// built once and shared by both executor benchmarks.
struct PipelineBenchSetup {
  Catalog catalog;
  StringDict dict;
  Program program;
  PhysicalPlan plan;
  const PhysicalRule* rule = nullptr;
  std::unique_ptr<BaseIndexSet> indexes;
  std::vector<std::unique_ptr<RecursiveTable>> no_replicas;
  std::vector<uint64_t> regs;
  PipelineContext ctx;

  bool Init() {
    Rng rng(1);
    auto* src = catalog.Put(Relation("src", Schema::Ints(1)));
    for (uint32_t i = 0; i < kPipeSrcRows; ++i) {
      src->Append({rng.Uniform(kPipeKeySpace)});
    }
    auto* edge = catalog.Put(Relation("edge", Schema::Ints(2)));
    for (uint32_t i = 0; i < (1u << 20); ++i) {  // ~2 matches per key.
      edge->Append({rng.Uniform(kPipeKeySpace), i});
    }
    auto* edge2 = catalog.Put(Relation("edge2", Schema::Ints(2)));
    for (uint32_t i = 0; i < (1u << 19); ++i) {  // ~1 match per key.
      edge2->Append({rng.Uniform(kPipeKeySpace), i});
    }
    auto parsed = ParseProgram(
        "out(X, Y, Z) :- src(X), X < 262144, edge(X, Y), edge2(X, Z).\n",
        &dict);
    if (!parsed.ok()) return false;
    program = std::move(parsed).value();
    auto analysis = ProgramAnalysis::Analyze(program, catalog);
    if (!analysis.ok()) return false;
    auto logical = BuildLogicalPlans(program, analysis.value());
    if (!logical.ok()) return false;
    auto physical =
        BuildPhysicalPlan(program, analysis.value(), logical.value());
    if (!physical.ok()) return false;
    plan = std::move(physical).value();
    for (const SccPlan& scc : plan.sccs) {
      if (!scc.base_rules.empty()) rule = &scc.base_rules[0];
    }
    if (rule == nullptr || rule->driving_relation != "src") return false;
    indexes = std::make_unique<BaseIndexSet>(plan.base_indexes);
    for (size_t i = 0; i < plan.base_indexes.size(); ++i) {
      if (!indexes->EnsureBuilt(static_cast<int>(i), catalog).ok()) {
        return false;
      }
    }
    ctx.catalog = &catalog;
    ctx.base_indexes = indexes.get();
    ctx.replicas = &no_replicas;
    regs.assign(rule->num_regs, 0);
    ctx.regs = regs.data();
    PreparePipeline(*rule, &ctx);
    return true;
  }

  /// Leaky singleton: built on first use, shared by both executor
  /// benchmarks; nullptr when setup failed.
  static PipelineBenchSetup* Get() {
    static PipelineBenchSetup* setup = [] {
      auto* s = new PipelineBenchSetup();
      if (!s->Init()) {
        delete s;
        return static_cast<PipelineBenchSetup*>(nullptr);
      }
      return s;
    }();
    return setup;
  }
};

/// Counting sink shared by both executors; the tuple side pays the
/// BuildWireTuple a per-derivation sink does.
struct PipelineCountSink {
  const PhysicalRule* rule = nullptr;
  uint64_t count = 0;
  uint64_t checksum = 0;

  static void Batch(void* c, const HeadSpec& head, const uint64_t* wires,
                    uint32_t n, uint32_t wire_arity) {
    (void)head;
    auto* s = static_cast<PipelineCountSink*>(c);
    s->count += n;
    for (uint32_t i = 0; i < n; ++i) {
      s->checksum ^= wires[static_cast<size_t>(i) * wire_arity];
    }
  }

  static void Tuple(void* c, const uint64_t* regs) {
    auto* s = static_cast<PipelineCountSink*>(c);
    uint64_t wire[kMaxWireWords];
    BuildWireTuple(s->rule->head, regs, wire);
    ++s->count;
    s->checksum ^= wire[0];
  }
};

void BM_PipelineTuple(benchmark::State& state) {
  PipelineBenchSetup* setup = PipelineBenchSetup::Get();
  if (setup == nullptr) {
    state.SkipWithError("pipeline bench setup failed");
    return;
  }
  const Relation* src = setup->catalog.Find("src");
  for (auto _ : state) {
    PipelineCountSink sink;
    sink.rule = setup->rule;
    const EmitSink emit{&PipelineCountSink::Tuple, &sink};
    for (uint64_t r = 0; r < src->size(); ++r) {
      RunPipelineForTuple(*setup->rule, setup->ctx, src->Row(r), emit);
    }
    benchmark::DoNotOptimize(sink.checksum);
  }
  state.SetItemsProcessed(state.iterations() * kPipeSrcRows);
}
BENCHMARK(BM_PipelineTuple)->Unit(benchmark::kMillisecond);

void BM_PipelineBatch(benchmark::State& state) {
  PipelineBenchSetup* setup = PipelineBenchSetup::Get();
  if (setup == nullptr) {
    state.SkipWithError("pipeline bench setup failed");
    return;
  }
  const Relation* src = setup->catalog.Find("src");
  BatchPipelineRunner runner;
  for (auto _ : state) {
    PipelineCountSink sink;
    runner.Begin(*setup->rule, &setup->ctx,
                 BatchEmitSink{&PipelineCountSink::Batch, &sink});
    for (uint64_t r = 0; r < src->size(); ++r) {
      runner.Push(src->Row(r));
    }
    runner.Finish();
    benchmark::DoNotOptimize(sink.checksum);
  }
  state.SetItemsProcessed(state.iterations() * kPipeSrcRows);
}
BENCHMARK(BM_PipelineBatch)->Unit(benchmark::kMillisecond);

AggSpec MinSpec() {
  AggSpec s;
  s.func = AggFunc::kMin;
  s.group_arity = 1;
  s.stored_arity = 2;
  s.wire_arity = 2;
  s.value_type = ColumnType::kInt;
  return s;
}

// A min-aggregate merge: 64 batches of 1024 wires over 2^14 groups, each
// merged through the group index.
void BM_MergeMin(benchmark::State& state) {
  const EngineOptions options;
  Rng rng(1);
  std::vector<std::vector<TupleBuf>> batches;
  for (int b = 0; b < 64; ++b) {
    std::vector<TupleBuf> batch;
    for (int i = 0; i < 1024; ++i) {
      batch.push_back({rng.Uniform(1 << 14), rng.Uniform(1 << 20)});
    }
    batches.push_back(std::move(batch));
  }
  for (auto _ : state) {
    RecursiveTable table("r", Schema::Ints(2), MinSpec(), 0, false, options);
    for (const auto& batch : batches) table.MergeBatch(batch);
    benchmark::DoNotOptimize(table.rows().size());
  }
  state.SetItemsProcessed(state.iterations() * 64 * 1024);
}
BENCHMARK(BM_MergeMin);

AggSpec NoneSpec() {
  AggSpec s;
  s.func = AggFunc::kNone;
  s.group_arity = 2;
  s.stored_arity = 2;
  s.wire_arity = 2;
  s.value_type = ColumnType::kInt;
  return s;
}

// A 1M-tuple kNone dedup merge. Tuples are drawn from a 2^20-pair
// universe, so ~37% of arrivals are duplicates — every wire exercises both
// the probe and (often) the insert path. Batches are engine-sized (4096)
// so the merge's prefetch pipeline runs at its real depth.
void BM_MergeNoneFlat(benchmark::State& state) {
  const EngineOptions options;
  Rng rng(1);
  const int64_t total = state.range(0);
  const int64_t kBatch = 4096;
  std::vector<std::vector<TupleBuf>> batches;
  for (int64_t done = 0; done < total; done += kBatch) {
    std::vector<TupleBuf> batch;
    const int64_t n = std::min(kBatch, total - done);
    for (int64_t i = 0; i < n; ++i) {
      batch.push_back({rng.Uniform(1 << 10), rng.Uniform(1 << 10)});
    }
    batches.push_back(std::move(batch));
  }
  for (auto _ : state) {
    RecursiveTable table("r", Schema::Ints(2), NoneSpec(), 0, false, options);
    for (const auto& batch : batches) table.MergeBatch(batch);
    benchmark::DoNotOptimize(table.rows().size());
  }
  state.SetItemsProcessed(state.iterations() * total);
}
BENCHMARK(BM_MergeNoneFlat)->Arg(1 << 20)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dcdatalog

BENCHMARK_MAIN();
