#include "core/pipeline.hpp"

#include <exception>
#include <new>
#include <string>
#include <utility>

#include "analysis/tests.hpp"
#include "csp2/csp2.hpp"
#include "flow/oracle.hpp"
#include "support/assert.hpp"
#include "support/error.hpp"

namespace mgrts::core {

namespace {

// ------------------------------------------------------------- stage 1
// Exact one-sided analytical tests.  Decides without producing a witness:
// the density test's fluid argument proves existence (via flow
// integrality), it does not construct the schedule.  When the flow oracle
// runs next anyway (`necessary_only`), feasible answers are deferred to it
// so every feasible short-circuit still carries a validated schedule.
StageResult analysis_stage(const rt::TaskSet& ts, const rt::Platform& platform,
                           bool necessary_only) {
  const analysis::TestResult result =
      analysis::quick_decide(ts, platform.processors());
  StageResult out;
  out.verdict = canonical_verdict(result.verdict);
  if (out.verdict == Verdict::kFeasible && necessary_only) {
    out.verdict = Verdict::kUnknown;
    out.detail = std::string(result.test) +
                 " holds; deferring to the flow oracle for a witness";
    return out;
  }
  if (out.decisive()) {
    out.decided_by = std::string("analysis:") + result.test;
  }
  out.detail = result.detail;
  return out;
}

// ------------------------------------------------------------- stage 2
// Exact polynomial feasibility via max-flow.  Produces a canonical witness
// schedule for feasible instances; memory pressure downgrades to kUnknown
// (the backend gets its chance) instead of aborting the solve.
StageResult flow_oracle_stage(const rt::TaskSet& ts,
                              const rt::Platform& platform) {
  StageResult out;
  try {
    flow::OracleResult oracle = flow::decide_feasibility(ts, platform);
    out.verdict = canonical_verdict(oracle.verdict);
    out.schedule = std::move(oracle.schedule);
    out.detail = "max-flow " + std::to_string(oracle.flow) + " of demand " +
                 std::to_string(oracle.demand);
  } catch (const ResourceError& e) {
    // The job table blew its memory budget (or an injected fault shadowed
    // that guard).  The analysis stage defers feasible answers to us
    // (necessary-only mode), so re-derive the sufficient density proof
    // here — sound, witness-less, and far better than regressing an
    // already-provable instance to full search.
    const bool injected = dynamic_cast<const FaultInjectedError*>(&e);
    const analysis::TestResult density =
        analysis::density_test(ts, platform.processors());
    if (density.verdict == analysis::TestVerdict::kFeasible) {
      out.verdict = Verdict::kFeasible;
      out.decided_by = "analysis:density";
      out.detail = std::string("flow oracle skipped (") + e.what() +
                   "); density proof stands";
    } else {
      out.verdict = Verdict::kUnknown;
      out.cause =
          injected ? FailureCause::kFaultInjected : FailureCause::kMemory;
      out.detail = std::string("flow oracle skipped: ") + e.what();
    }
  }
  return out;
}

// ------------------------------------------------------------- stage 3
// Node-budgeted dedicated-CSP2 probe with this repo's slack/demand pruning
// extensions enabled (bench_ablation_csp2_rules quantifies them): many
// instances that time out under the paper-faithful rules become instant
// infeasibility proofs here.  Budget exhaustion is kUnknown — the backend
// still owns the instance.
StageResult csp2_presolve_stage(const rt::TaskSet& ts,
                                const rt::Platform& platform,
                                std::int64_t max_nodes,
                                const support::Deadline& deadline) {
  csp2::Options options;
  options.value_order = csp2::ValueOrder::kDMinusC;
  options.slack_prune = true;
  options.tight_demand_prune = true;
  options.max_nodes = max_nodes;
  options.deadline = deadline;
  csp2::Result result = csp2::solve(ts, platform, options);

  StageResult out;
  out.nodes = result.stats.nodes;
  out.failures = result.stats.failures;
  const Verdict verdict = canonical_verdict(result.status);
  if (verdict == Verdict::kFeasible) {
    out.verdict = verdict;
    out.schedule = std::move(result.schedule);
  } else if (verdict == Verdict::kInfeasible && result.search_complete) {
    out.verdict = verdict;
  } else {
    // Budget exhausted, or an incomplete infeasibility claim
    // (heterogeneous idle-rule caveat): proves nothing.
    out.verdict = Verdict::kUnknown;
    out.detail = std::string("presolve probe ") +
                 csp2::to_string(result.status) + " after " +
                 std::to_string(result.stats.nodes) + " nodes";
  }
  return out;
}

}  // namespace

std::optional<StageResult> contain(Boundary boundary, std::string_view name,
                                   const std::function<void()>& step) {
  StageResult out;
  out.verdict = Verdict::kUnknown;
  out.complete = boundary != Boundary::kSolve;
  const auto fail = [&](FailureCause cause, const char* what,
                        const char* message) {
    out.cause = cause;
    out.detail = std::string(name) + what + message;
  };
  try {
    step();
    return std::nullopt;
  } catch (const ValidationError& e) {
    if (boundary == Boundary::kBackend) throw;
    fail(FailureCause::kInternalError, " threw: ", e.what());
  } catch (const FaultInjectedError& e) {
    // Caught before ResourceError, which it subclasses so un-instrumented
    // guards degrade it the same way.
    fail(FailureCause::kFaultInjected, " faulted: ", e.what());
  } catch (const ResourceError& e) {
    fail(FailureCause::kMemory, " hit a resource limit: ", e.what());
  } catch (const std::bad_alloc&) {
    fail(FailureCause::kMemory, " ran out of memory", "");
  } catch (const std::exception& e) {
    fail(FailureCause::kInternalError, " threw: ", e.what());
  }
  // A memory wall hit by the search method is Table IV's "-".
  if (boundary == Boundary::kBackend && out.cause == FailureCause::kMemory) {
    out.verdict = Verdict::kMemoryLimit;
  }
  return out;
}

StageResult run_step(Boundary boundary, const char* name,
                     const std::function<StageResult()>& step,
                     std::vector<StageTiming>& stages) {
  support::Stopwatch watch;
  StageResult result;
  if (auto failed = contain(boundary, name, [&] { result = step(); })) {
    result = std::move(*failed);
  }
  stages.push_back(StageTiming{name, result.verdict, watch.seconds()});
  return result;
}

PipelineOutcome run_presolve(const rt::TaskSet& ts,
                             const rt::Platform& platform,
                             const PipelineOptions& options,
                             const support::Deadline& deadline) {
  MGRTS_EXPECTS(ts.is_constrained());
  PipelineOutcome out;
  const auto stage = [&](const char* name, bool enabled, auto&& body) {
    if (!enabled || out.result.decisive() || deadline.expired()) return;
    StageResult result = run_step(Boundary::kStage, name, body, out.stages);
    if (!result.decisive()) return;
    out.decided_by = result.decided_by.empty() ? name : result.decided_by;
    out.result = std::move(result);
  };
  const bool identical = platform.is_identical();
  stage("analysis", options.analysis && identical, [&] {
    return analysis_stage(ts, platform, options.flow_oracle);
  });
  stage("flow-oracle", options.flow_oracle && identical,
        [&] { return flow_oracle_stage(ts, platform); });
  stage("csp2-presolve", options.csp2_presolve, [&] {
    return csp2_presolve_stage(ts, platform, options.presolve_max_nodes,
                               deadline);
  });
  return out;
}

}  // namespace mgrts::core
