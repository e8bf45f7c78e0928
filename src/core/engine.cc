#include "core/engine.h"

#include <cmath>
#include <sstream>

#include "common/timer.h"
#include "core/scc_executor.h"
#include "datalog/analysis.h"
#include "planner/logical_plan.h"
#include "runtime/base_index_set.h"

namespace dcdatalog {

std::vector<std::pair<const char*, double>> EvalStats::Counters() const {
  return {
      {"seconds", seconds},
      {"num_sccs", static_cast<double>(num_sccs)},
      {"total_local_iterations", static_cast<double>(total_local_iterations)},
      {"max_local_iterations", static_cast<double>(max_local_iterations)},
      {"tuples_routed", static_cast<double>(tuples_routed)},
      {"tuples_folded", static_cast<double>(tuples_folded)},
      {"tuples_emitted", static_cast<double>(tuples_emitted)},
      {"blocks_sent", static_cast<double>(blocks_sent)},
      {"self_loop_tuples", static_cast<double>(self_loop_tuples)},
      {"merges", static_cast<double>(merges)},
      {"accepts", static_cast<double>(accepts)},
      {"cache_hits", static_cast<double>(cache_hits)},
      {"merge_probe_cmps", static_cast<double>(merge_probe_cmps)},
      {"pipeline_batches", static_cast<double>(pipeline_batches)},
      {"pipeline_rows_selected", static_cast<double>(pipeline_rows_selected)},
      {"idle_wait_seconds", idle_wait_seconds},
      {"trace_dropped", static_cast<double>(trace_dropped)},
      {"update_batches", static_cast<double>(update_batches)},
      {"update_recomputes", static_cast<double>(update_recomputes)},
      {"delta_tuples_in", static_cast<double>(delta_tuples_in)},
      {"rederived_tuples", static_cast<double>(rederived_tuples)},
      {"update_rows_scanned", static_cast<double>(update_rows_scanned)},
      {"morsels_published", static_cast<double>(morsels_published)},
      {"morsels_stolen", static_cast<double>(morsels_stolen)},
      {"tuples_stolen", static_cast<double>(tuples_stolen)},
  };
}

std::string EvalStats::ToString() const {
  std::ostringstream os;
  os << "EvalStats{";
  bool first = true;
  for (const auto& [name, value] : Counters()) {
    if (!first) os << ", ";
    first = false;
    os << name << "=";
    // Integral counters print exactly; default stream precision would
    // render large counts in lossy scientific notation (7.38615e+06).
    if (value == std::floor(value) && std::abs(value) < 1e15) {
      os << static_cast<int64_t>(value);
    } else {
      os << value;
    }
  }
  os << "}";
  return os.str();
}

Result<EvalStats> Engine::Run(const Program& program) {
  // A from-scratch run makes any retained incremental state (replicas,
  // base indexes, watermarks) stale: the run replaces catalog relations the
  // watermarks and indexes describe. Tear the session down deterministically
  // up front — the alternative is stale-but-reachable state that a later
  // ApplyUpdates would happily read.
  EndIncremental();
  DCD_ASSIGN_OR_RETURN(ProgramAnalysis analysis,
                       ProgramAnalysis::Analyze(program, *catalog_));
  DCD_ASSIGN_OR_RETURN(std::vector<LogicalRulePlan> logical,
                       BuildLogicalPlans(program, analysis));
  DCD_ASSIGN_OR_RETURN(PhysicalPlan plan,
                       BuildPhysicalPlan(program, analysis, logical));
  return RunPlan(plan);
}

Result<EvalStats> Engine::RunPlan(const PhysicalPlan& plan) {
  EndIncremental();  // Same invalidation contract as Run().
  WallTimer timer;
  EvalStats stats;
  BaseIndexSet base_indexes(plan.base_indexes);

  for (const SccPlan& scc : plan.sccs) {
    // Build indexes this SCC probes; inputs from earlier SCCs are
    // materialized by now.
    for (const auto* rules : {&scc.base_rules, &scc.delta_rules}) {
      for (const PhysicalRule& rule : *rules) {
        for (const Step& step : rule.steps) {
          if (step.base_index_id < 0) continue;
          DCD_RETURN_IF_ERROR(
              base_indexes.EnsureBuilt(step.base_index_id, *catalog_));
        }
      }
    }

    SccExecutor executor(plan, scc, catalog_, &base_indexes, options_,
                         static_cast<uint32_t>(stats.num_sccs));
    DCD_RETURN_IF_ERROR(executor.Run(&stats));
    ++stats.num_sccs;
  }
  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

}  // namespace dcdatalog
