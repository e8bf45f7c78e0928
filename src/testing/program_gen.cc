#include "testing/program_gen.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"
#include "common/random.h"
#include "datalog/analysis.h"
#include "datalog/parser.h"
#include "graph/generators.h"
#include "storage/catalog.h"

namespace dcdatalog {
namespace testing_gen {
namespace {

/// What a generated predicate looks like to later blocks.
struct PredShape {
  std::string name;
  uint32_t arity = 0;
  /// For a (key, aggregated-value) pair, its function: "min", "max" or
  /// "count". Empty for a plain predicate.
  std::string func;
};

/// Builds one program's rules. Each Emit* appends rule lines and registers
/// the new predicate(s); sources are drawn from the EDB (`arc`/`warc`) and
/// previously generated predicates, so stratification holds by
/// construction and every program terminates (see GenerateCase contract).
class ProgramBuilder {
 public:
  ProgramBuilder(Rng* rng, const GenOptions& opts, uint64_t num_vertices)
      : rng_(rng), opts_(opts), n_(std::max<uint64_t>(num_vertices, 1)) {}

  std::string Build() {
    const uint32_t blocks =
        1 + static_cast<uint32_t>(
                rng_->Uniform(std::max<uint32_t>(opts_.max_blocks, 1)));
    for (uint32_t b = 0; b < blocks; ++b) EmitBlock();
    std::ostringstream os;
    for (const std::string& line : lines_) os << line << "\n";
    return os.str();
  }

  std::vector<std::string> outputs() const {
    std::vector<std::string> out;
    for (const PredShape& p : derived_) out.push_back(p.name);
    return out;
  }

 private:
  std::string NextName() { return "p" + std::to_string(++name_counter_); }

  uint64_t VertexConst() { return rng_->Uniform(n_); }

  /// A binary relation usable in rule bodies: the EDB arc or any earlier
  /// plain binary derived predicate.
  std::string PickBinarySource() {
    std::vector<std::string> candidates = {"arc"};
    for (const PredShape& p : derived_) {
      if (p.func.empty() && p.arity == 2) candidates.push_back(p.name);
    }
    // Bias toward arc so recursion usually closes over the raw graph.
    if (rng_->Chance(0.6)) return "arc";
    return candidates[rng_->Uniform(candidates.size())];
  }

  void Register(std::string name, uint32_t arity, std::string func = "") {
    derived_.push_back(PredShape{std::move(name), arity, std::move(func)});
  }

  void EmitBlock() {
    // Family weights; re-draw when a family's preconditions fail.
    for (int attempt = 0; attempt < 8; ++attempt) {
      const double d = rng_->NextDouble();
      if (d < 0.25) {
        EmitTcLike();
        return;
      }
      if (d < 0.40 && opts_.allow_aggregates) {
        EmitCcLike();
        return;
      }
      if (d < 0.58 && opts_.allow_aggregates) {
        EmitMinDist();
        return;
      }
      if (d < 0.68) {
        EmitReachLike();
        return;
      }
      if (d < 0.76 && opts_.allow_aggregates) {
        EmitCount();
        return;
      }
      if (d < 0.92 && !derived_.empty()) {
        EmitFilterJoin();
        return;
      }
      if (opts_.allow_mutual) {
        EmitMutual();
        return;
      }
    }
    EmitTcLike();  // Always applicable.
  }

  /// Transitive-closure-shaped plain recursion: randomized argument order,
  /// optional constant filter, optional extra base/recursive rules, and
  /// (when allowed) the non-linear two-recursive-goal form.
  void EmitTcLike() {
    const std::string name = NextName();
    const std::string src = PickBinarySource();
    if (rng_->Chance(0.3)) {
      lines_.push_back(name + "(X, Y) :- " + src + "(Y, X).");
    } else if (rng_->Chance(0.3)) {
      lines_.push_back(name + "(X, Y) :- " + src + "(X, Y), X <= " +
                       std::to_string(VertexConst()) + ".");
    } else {
      lines_.push_back(name + "(X, Y) :- " + src + "(X, Y).");
    }
    if (rng_->Chance(0.25)) {
      lines_.push_back(name + "(X, Y) :- " + src + "(Y, X).");
    }
    if (opts_.allow_nonlinear && rng_->Chance(0.3)) {
      lines_.push_back(name + "(X, Y) :- " + name + "(X, Z), " + name +
                       "(Z, Y).");
    } else if (rng_->Chance(0.5)) {
      lines_.push_back(name + "(X, Y) :- " + name + "(X, Z), " + src +
                       "(Z, Y).");
    } else {
      lines_.push_back(name + "(X, Y) :- " + src + "(X, Z), " + name +
                       "(Z, Y).");
    }
    if (rng_->Chance(0.2)) {
      lines_.push_back(name + "(X, Y) :- " + name + "(X, Z), " + src +
                       "(Y, Z).");
    }
    Register(name, 2);
  }

  /// Unary reachability from a constant seed vertex.
  void EmitReachLike() {
    const std::string name = NextName();
    const std::string src = PickBinarySource();
    lines_.push_back(name + "(X) :- X = " + std::to_string(VertexConst()) +
                     ".");
    if (rng_->Chance(0.3)) {
      lines_.push_back(name + "(X) :- " + src + "(X, _), X <= " +
                       std::to_string(VertexConst()) + ".");
    }
    lines_.push_back(name + "(Y) :- " + name + "(X), " + src + "(X, Y).");
    Register(name, 1);
  }

  /// Shortest-distance-shaped min recursion with arithmetic on the value.
  /// Safe because increments are non-negative and min only accepts
  /// improvements, so the fixpoint exists despite cycles.
  void EmitMinDist() {
    const std::string name = NextName();
    const bool weighted = rng_->Chance(0.5);
    lines_.push_back(name + "(V, min<C>) :- V = " +
                     std::to_string(VertexConst()) + ", C = 0.");
    if (rng_->Chance(0.25)) {
      lines_.push_back(name + "(V, min<C>) :- V = " +
                       std::to_string(VertexConst()) + ", C = " +
                       std::to_string(rng_->Uniform(5)) + ".");
    }
    std::string rec;
    if (weighted) {
      rec = name + "(W, min<C>) :- " + name +
            "(V, C1), warc(V, W, C2), C = C1 + C2";
    } else {
      rec = name + "(W, min<C>) :- " + name + "(V, C1), " +
            PickBinarySource() + "(V, W), C = C1 + 1";
    }
    if (rng_->Chance(0.3)) {
      rec += ", C1 <= " + std::to_string(rng_->UniformRange(
                              1, static_cast<int64_t>(4 * n_)));
    }
    lines_.push_back(rec + ".");
    Register(name, 2, "min");
  }

  /// Connected-components-shaped label propagation: min or max over a
  /// finite value domain, no arithmetic — terminates either way.
  void EmitCcLike() {
    const std::string name = NextName();
    const std::string func = rng_->Chance(0.5) ? "min" : "max";
    const std::string src = PickBinarySource();
    lines_.push_back(name + "(Y, " + func + "<Y>) :- " + src + "(Y, _).");
    if (rng_->Chance(0.7)) {
      lines_.push_back(name + "(Y, " + func + "<Y>) :- " + src + "(_, Y).");
    }
    lines_.push_back(name + "(Y, " + func + "<Z>) :- " + name + "(X, Z), " +
                     src + "(X, Y).");
    if (rng_->Chance(0.5)) {
      lines_.push_back(name + "(Y, " + func + "<Z>) :- " + name +
                       "(X, Z), " + src + "(Y, X).");
    }
    Register(name, 2, func);
  }

  /// Distinct-contributor count over one or two sources; the two-rule form
  /// derives the same contributor along different paths, stressing the
  /// contributor-dedup index.
  void EmitCount() {
    const std::string name = NextName();
    const std::string src = PickBinarySource();
    lines_.push_back(name + "(X, count<Y>) :- " + src + "(X, Y).");
    if (rng_->Chance(0.4)) {
      lines_.push_back(name + "(X, count<Y>) :- " + PickBinarySource() +
                       "(Y, X).");
    }
    Register(name, 2, "count");
  }

  /// Non-recursive consumer of earlier strata: projection + comparison,
  /// joins, constant probes, readers of aggregate values, and (when
  /// allowed) stratified negation.
  void EmitFilterJoin() {
    const std::string name = NextName();
    std::vector<const PredShape*> binaries;
    std::vector<const PredShape*> aggs;
    for (const PredShape& p : derived_) {
      if (!p.func.empty()) {
        aggs.push_back(&p);
      } else if (p.arity == 2) {
        binaries.push_back(&p);
      }
    }
    if (!aggs.empty() && rng_->Chance(0.6)) {
      EmitAggregateReader(name, *aggs[rng_->Uniform(aggs.size())]);
      return;
    }
    const std::string q =
        binaries.empty() ? "arc"
                         : binaries[rng_->Uniform(binaries.size())]->name;
    if (opts_.allow_negation && rng_->Chance(0.3)) {
      // q and r must differ for the negation to prune anything, but the
      // degenerate q == r case (always-empty result) is legal and worth
      // covering too.
      const std::string r =
          rng_->Chance(0.7) ? "arc"
                            : binaries.empty()
                                  ? "arc"
                                  : binaries[rng_->Uniform(binaries.size())]
                                        ->name;
      lines_.push_back(name + "(X, Y) :- " + q + "(X, Y), !" + r +
                       "(Y, X).");
      Register(name, 2);
      return;
    }
    const double d = rng_->NextDouble();
    if (d < 0.35) {
      lines_.push_back(name + "(X, Y) :- " + q + "(X, Y), X >= " +
                       std::to_string(VertexConst()) + ".");
      Register(name, 2);
    } else if (d < 0.7) {
      const std::string r =
          binaries.empty() ? "arc"
                           : binaries[rng_->Uniform(binaries.size())]->name;
      lines_.push_back(name + "(X, Z) :- " + q + "(X, Y), " + r +
                       "(Y, Z).");
      Register(name, 2);
    } else {
      lines_.push_back(name + "(Y) :- " + q + "(" +
                       std::to_string(VertexConst()) + ", Y).");
      Register(name, 1);
    }
  }

  /// One reader of aggregate `a`'s value, on either side of the insert
  /// gate (see InsertRecomputePreds): roll-ups with a's own min/max
  /// function take a's inserts incrementally; a value filter, a plain
  /// copy, or a roll-up of a count make every insert recompute.
  void EmitAggregateReader(const std::string& name, const PredShape& a) {
    const std::string func = a.func == "count" ? "min" : a.func;
    const double d = rng_->NextDouble();
    if (d < 0.2) {
      lines_.push_back(name + "(X) :- " + a.name + "(X, C), C <= " +
                       std::to_string(rng_->UniformRange(
                           0, static_cast<int64_t>(4 * n_))) +
                       ".");
      Register(name, 1);
    } else if (d < 0.5) {
      lines_.push_back(name + "(X, " + func + "<C>) :- " + a.name +
                       "(X, C).");
      Register(name, 2, func);
    } else if (d < 0.8) {
      lines_.push_back(name + "(Y, " + func + "<C>) :- " + a.name +
                       "(X, C), " + PickBinarySource() + "(X, Y).");
      Register(name, 2, func);
    } else {
      lines_.push_back(name + "(X, C) :- " + a.name + "(X, C).");
      Register(name, 2);
    }
  }

  /// Mutual recursion: odd/even-length path predicates over one source.
  void EmitMutual() {
    const std::string a = NextName();
    const std::string b = NextName();
    const std::string src = PickBinarySource();
    lines_.push_back(a + "(X, Y) :- " + src + "(X, Y).");
    lines_.push_back(b + "(X, Y) :- " + a + "(X, Z), " + src + "(Z, Y).");
    lines_.push_back(a + "(X, Y) :- " + b + "(X, Z), " + src + "(Z, Y).");
    Register(a, 2);
    Register(b, 2);
  }

  Rng* rng_;
  const GenOptions& opts_;
  const uint64_t n_;  // Vertex-domain size for constants.
  uint32_t name_counter_ = 0;
  std::vector<PredShape> derived_;
  std::vector<std::string> lines_;
};

Graph GenerateEdb(Rng* rng, uint64_t max_vertices) {
  const uint64_t cap = std::max<uint64_t>(max_vertices, 8);
  Graph g;
  const double d = rng->NextDouble();
  if (d < 0.05) {
    // Empty or near-empty EDB: the fixpoint must still converge cleanly.
    g = Graph(4 + rng->Uniform(4));
  } else if (d < 0.12) {
    // Self-loop-heavy graph (generators canonicalize self loops away, so
    // build it by hand).
    const uint64_t n = 4 + rng->Uniform(cap / 2);
    for (uint64_t v = 0; v < n; ++v) {
      if (rng->Chance(0.7)) g.AddEdge(v, v);
      if (rng->Chance(0.4)) g.AddEdge(v, rng->Uniform(n));
    }
  } else if (d < 0.35) {
    g = GenerateRmat(16 + rng->Uniform(cap / 2), rng->Next(),
                     2 + rng->Uniform(3));
  } else if (d < 0.55) {
    // Heights 2..3 with 2..6 children stay comfortably under ~200 vertices;
    // taller trees blow past max_vertices exponentially.
    g = GenerateRandomTree(2 + static_cast<uint32_t>(rng->Uniform(2)),
                           rng->Next());
  } else if (d < 0.67) {
    // Chain plus random shortcuts: long dependency paths → many rounds.
    const uint64_t n = 8 + rng->Uniform(cap);
    for (uint64_t v = 0; v + 1 < n; ++v) g.AddEdge(v, v + 1);
    for (uint64_t i = 0; i < n / 4; ++i) {
      g.AddEdge(rng->Uniform(n), rng->Uniform(n));
    }
  } else if (d < 0.74) {
    // Star/hub: all join work for the hub lands on one partition, so one
    // worker stays busy while the rest park and re-check termination with
    // ring traffic still in flight — the schedule the detector's
    // flag-before-count rule must survive. Small enough that the oracle's
    // closure stays cheap (closure is ~spokes² over the sinks).
    g = GenerateStarHub(8 + rng->Uniform(cap / 4), rng->Next());
  } else if (d < 0.8) {
    // Zipf out-degrees: several hot partitions of different sizes, so
    // workers reach their local fixpoints at staggered times and the
    // termination protocol runs under uneven, not just one-hub, skew.
    const uint64_t n = 16 + rng->Uniform(cap / 2);
    g = GenerateZipfDegree(n, 0.8 + 0.8 * rng->NextDouble(),
                           2 + rng->Uniform(n / 3), rng->Next());
  } else {
    // Mean degree stays below ~5 so the naive oracle's quadratic joins
    // over (closures of) this graph remain cheap.
    g = GenerateGnp(16 + rng->Uniform(std::min<uint64_t>(cap, 48)),
                    0.03 + 0.05 * rng->NextDouble(), rng->Next());
  }
  AssignRandomWeights(&g, 16, rng->Next());
  return g;
}

/// Generates a streaming-update script over arc/warc. Op mix by design:
/// fresh-edge inserts (sometimes introducing new vertices), duplicate
/// inserts of live rows (set-semantics no-ops), deletes of live rows,
/// deletes of rows that never existed, and insert-then-delete of the same
/// row within one batch (nets to nothing). Live rows are tracked per
/// relation so delete-existing ops usually hit — "usually" is enough, a
/// stale pick just degrades into the delete-absent case.
UpdateScript GenerateUpdates(Rng* rng, const Graph& g,
                             const GenOptions& opts) {
  UpdateScript script;
  const uint64_t n = std::max<uint64_t>(g.num_vertices(), 4);
  std::vector<std::vector<uint64_t>> live_arc;
  std::vector<std::vector<uint64_t>> live_warc;
  for (const Edge& e : g.edges()) {
    live_arc.push_back({e.src, e.dst});
    live_warc.push_back({e.src, e.dst, static_cast<uint64_t>(e.weight)});
  }
  auto to_op = [](bool insert, const std::string& rel,
                  const std::vector<uint64_t>& row) {
    UpdateOp op;
    op.is_insert = insert;
    op.relation = rel;
    for (uint64_t v : row) op.values.push_back(std::to_string(v));
    return op;
  };
  const uint32_t batches =
      1 + static_cast<uint32_t>(
              rng->Uniform(std::max<uint32_t>(opts.max_update_batches, 1)));
  for (uint32_t b = 0; b < batches; ++b) {
    UpdateBatch batch;
    // May draw 0 ops: empty batches are a case worth streaming.
    const uint32_t ops = static_cast<uint32_t>(
        rng->Uniform(std::max<uint32_t>(opts.max_update_ops, 1) + 1));
    for (uint32_t o = 0; o < ops; ++o) {
      const bool warc = rng->Chance(0.3);
      const std::string rel = warc ? "warc" : "arc";
      auto& live = warc ? live_warc : live_arc;
      auto fresh_row = [&]() {
        std::vector<uint64_t> row = {rng->Uniform(n + 4),
                                     rng->Uniform(n + 4)};
        if (warc) row.push_back(1 + rng->Uniform(16));
        return row;
      };
      const double d = rng->NextDouble();
      if (d < 0.35) {
        std::vector<uint64_t> row = fresh_row();
        batch.ops.push_back(to_op(true, rel, row));
        live.push_back(std::move(row));
      } else if (d < 0.5 && !live.empty()) {
        batch.ops.push_back(
            to_op(true, rel, live[rng->Uniform(live.size())]));
      } else if (d < 0.75 && !live.empty()) {
        const size_t i = rng->Uniform(live.size());
        batch.ops.push_back(to_op(false, rel, live[i]));
        live.erase(live.begin() + static_cast<ptrdiff_t>(i));
      } else if (d < 0.9) {
        // Vertices past n+100 never occur in the EDB or earlier inserts.
        std::vector<uint64_t> row = {n + 100 + rng->Uniform(50),
                                     n + 100 + rng->Uniform(50)};
        if (warc) row.push_back(1 + rng->Uniform(16));
        batch.ops.push_back(to_op(false, rel, row));
      } else {
        const std::vector<uint64_t> row = fresh_row();
        batch.ops.push_back(to_op(true, rel, row));
        batch.ops.push_back(to_op(false, rel, row));
      }
    }
    script.batches.push_back(std::move(batch));
  }
  return script;
}

/// Parses and analyzes `program` against the case's own EDB.
bool Validates(const FuzzCase& c) {
  StringDict dict;
  auto parsed = ParseProgram(c.program, &dict);
  if (!parsed.ok()) return false;
  Catalog catalog;
  catalog.Put(c.graph.ToArcRelation("arc"));
  catalog.Put(c.graph.ToWeightedArcRelation("warc"));
  return ProgramAnalysis::Analyze(parsed.value(), catalog).ok();
}

}  // namespace

Status FuzzCase::Load(DCDatalog* db) const {
  db->AddGraph(graph, "arc");
  db->AddGraph(graph, "warc", /*weighted=*/true);
  return db->LoadProgramText(program);
}

std::string FuzzCase::ToString() const {
  std::ostringstream os;
  os << "FuzzCase{seed=" << seed << ", vertices=" << graph.num_vertices()
     << ", edges=" << graph.num_edges() << ", outputs=[";
  for (size_t i = 0; i < outputs.size(); ++i) {
    os << (i > 0 ? ", " : "") << outputs[i];
  }
  os << "]}\n" << program;
  if (!updates.batches.empty()) {
    os << "updates (" << updates.batches.size() << " batches):\n"
       << SerializeUpdateScript(updates);
  }
  return os.str();
}

FuzzCase GenerateCase(const GenOptions& options) {
  // Sub-seeded attempts: the templates are valid by construction, but if a
  // combination ever slips past them, fall back deterministically rather
  // than failing the harness.
  for (uint64_t attempt = 0; attempt < 5; ++attempt) {
    Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + attempt + 1);
    FuzzCase c;
    c.seed = options.seed;
    c.graph = GenerateEdb(&rng, options.max_vertices);
    ProgramBuilder builder(&rng, options,
                           std::max<uint64_t>(c.graph.num_vertices(), 8));
    c.program = builder.Build();
    c.outputs = builder.outputs();
    if (Validates(c)) {
      if (options.max_update_batches > 0) {
        c.updates = GenerateUpdates(&rng, c.graph, options);
      }
      return c;
    }
    DCD_LOG(Warning) << "generated program failed analysis (seed "
                     << options.seed << ", attempt " << attempt
                     << "); retrying";
  }
  FuzzCase c;
  c.seed = options.seed;
  Rng rng(options.seed);
  c.graph = GenerateGnp(24, 0.08, rng.Next());
  AssignRandomWeights(&c.graph, 16, rng.Next());
  c.program =
      "p1(X, Y) :- arc(X, Y).\n"
      "p1(X, Y) :- p1(X, Z), arc(Z, Y).\n";
  c.outputs = {"p1"};
  if (options.max_update_batches > 0) {
    c.updates = GenerateUpdates(&rng, c.graph, options);
  }
  DCD_CHECK(Validates(c));
  return c;
}

}  // namespace testing_gen
}  // namespace dcdatalog
