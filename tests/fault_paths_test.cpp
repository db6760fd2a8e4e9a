// Direct coverage of the ResourceError guard paths and their graceful
// degradation through the pipeline (DESIGN.md §12): every guard must
// surface as a sound kUnknown/kMemoryLimit report with FailureCause
// provenance, never as an exception to the caller.
#include <gtest/gtest.h>

#include <cstdint>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/solve.hpp"
#include "rt/jobs.hpp"
#include "rt/schedule.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "testing.hpp"

namespace mgrts {
namespace {

// RAII disarm so a failing assertion cannot leak an armed injector into
// the rest of the suite.
struct InjectorGuard {
  explicit InjectorGuard(const support::FaultPlan& plan) {
    support::FaultInjector::arm(plan);
  }
  ~InjectorGuard() { support::FaultInjector::disarm(); }
};

support::FaultPlan always(support::FaultSite site) {
  support::FaultPlan plan;
  plan.seed = 1;
  plan.rate = 1.0;
  plan.sites = support::FaultPlan::mask(site);
  return plan;
}

// ------------------------------------------------- raw guard behavior

TEST(FaultPaths, JobTableSlotBudgetThrowsResourceError) {
  const rt::TaskSet ts = testing::example1();
  EXPECT_NO_THROW(rt::JobTable{ts});
  EXPECT_THROW(rt::JobTable(ts, /*max_total_slots=*/1), ResourceError);
}

TEST(FaultPaths, ScheduleTableGuardThrowsResourceError) {
  EXPECT_NO_THROW(rt::Schedule(12, 2));
  // T*m past the 2^31-cell guard must refuse to materialize.
  EXPECT_THROW(rt::Schedule(std::int64_t{1} << 40, 4), ResourceError);
}

// -------------------------------- degradation through solve_instance

TEST(FaultPaths, InjectedJobTableFaultDegradesFlowOracleBackend) {
  InjectorGuard guard(always(support::FaultSite::kJobTable));

  core::SolveConfig config;
  config.method = core::Method::kFlowOracle;
  config.pipeline = core::PipelineOptions::none();
  const core::SolveReport report = core::solve_instance(
      testing::example1(), testing::example1_platform(), config);

  EXPECT_EQ(report.verdict, core::Verdict::kUnknown);
  EXPECT_EQ(report.cause, core::FailureCause::kFaultInjected);
  EXPECT_FALSE(report.detail.empty());
  EXPECT_GE(
      support::FaultInjector::active()->fired(support::FaultSite::kJobTable),
      1);
}

TEST(FaultPaths, InjectedScheduleTableFaultDegradesFlowOracleBackend) {
  InjectorGuard guard(always(support::FaultSite::kScheduleTable));

  // example1 is feasible, so the oracle builds a witness Schedule — the
  // guarded allocation the injected fault shadows.
  core::SolveConfig config;
  config.method = core::Method::kFlowOracle;
  config.pipeline = core::PipelineOptions::none();
  const core::SolveReport report = core::solve_instance(
      testing::example1(), testing::example1_platform(), config);

  EXPECT_EQ(report.verdict, core::Verdict::kUnknown);
  EXPECT_EQ(report.cause, core::FailureCause::kFaultInjected);
  EXPECT_GE(support::FaultInjector::active()->fired(
                support::FaultSite::kScheduleTable),
            1);
}

TEST(FaultPaths, FlowOracleStageFallsBackWhenJobTableFaults) {
  InjectorGuard guard(always(support::FaultSite::kJobTable));

  // Through the full pipeline the flow-oracle *stage* absorbs the fault:
  // either the density fallback still proves feasibility or the stage
  // hands kUnknown to the backend — the solve itself must stay decisive
  // here because the CSP2 backend needs no job table.
  core::SolveConfig config;
  config.method = core::Method::kCsp2Dedicated;
  config.pipeline = core::PipelineOptions::full();
  const core::SolveReport report = core::solve_instance(
      testing::example1(), testing::example1_platform(), config);

  EXPECT_EQ(report.verdict, core::Verdict::kFeasible);
  EXPECT_EQ(report.cause, core::FailureCause::kNone);
}

TEST(FaultPaths, NaturalVariableBudgetReportsMemoryCause) {
  core::SolveConfig config;
  config.method = core::Method::kCsp1Generic;
  config.pipeline = core::PipelineOptions::none();
  config.limits.max_variables = 1;  // Choco-OOM stand-in
  const core::SolveReport report = core::solve_instance(
      testing::example1(), testing::example1_platform(), config);

  EXPECT_EQ(report.verdict, core::Verdict::kMemoryLimit);
  EXPECT_EQ(report.cause, core::FailureCause::kMemory);
}

TEST(FaultPaths, InjectedVariableBudgetFaultCarriesInjectedCause) {
  InjectorGuard guard(always(support::FaultSite::kCspVarBudget));

  // Same guard as above, tripped by the injector instead of the budget:
  // the cause must say so (kFaultInjected, not kMemory) while the
  // degradation path stays identical — contained, no exception.
  core::SolveConfig config;
  config.method = core::Method::kCsp1Generic;
  config.pipeline = core::PipelineOptions::none();
  const core::SolveReport report = core::solve_instance(
      testing::example1(), testing::example1_platform(), config);

  EXPECT_EQ(report.verdict, core::Verdict::kUnknown);
  EXPECT_EQ(report.cause, core::FailureCause::kFaultInjected);
  EXPECT_GE(support::FaultInjector::active()->fired(
                support::FaultSite::kCspVarBudget),
            1);
}

// ------------------------------------------------ the containment funnel
//
// The one exception -> (verdict, cause) mapping, pinned per boundary as a
// table (DESIGN.md §12): each exception kind thrown through each of the
// three boundaries.

enum class Thrown {
  kFaultInjected,
  kResource,
  kBadAlloc,
  kRuntime,
  kValidation,
};

const char* to_string(Thrown thrown) {
  switch (thrown) {
    case Thrown::kFaultInjected: return "FaultInjectedError";
    case Thrown::kResource: return "ResourceError";
    case Thrown::kBadAlloc: return "std::bad_alloc";
    case Thrown::kRuntime: return "std::runtime_error";
    case Thrown::kValidation: return "ValidationError";
  }
  return "?";
}

[[noreturn]] void throw_one(Thrown thrown) {
  switch (thrown) {
    case Thrown::kFaultInjected: throw FaultInjectedError("injected");
    case Thrown::kResource: throw ResourceError("over budget");
    case Thrown::kBadAlloc: throw std::bad_alloc();
    case Thrown::kRuntime: throw std::runtime_error("bug");
    case Thrown::kValidation: throw ValidationError("malformed");
  }
  throw std::logic_error("unknown Thrown value");
}

struct FunnelRow {
  core::Boundary boundary;
  Thrown thrown;
  core::Verdict verdict;
  bool complete;
  core::FailureCause cause;
  bool rethrown;
};

TEST(ContainmentFunnel, EveryBoundaryMapsEveryExceptionByTheTable) {
  using core::Boundary;
  using core::FailureCause;
  using core::Verdict;
  const FunnelRow rows[] = {
      {Boundary::kStage, Thrown::kFaultInjected, Verdict::kUnknown, true,
       FailureCause::kFaultInjected, false},
      {Boundary::kStage, Thrown::kResource, Verdict::kUnknown, true,
       FailureCause::kMemory, false},
      {Boundary::kStage, Thrown::kBadAlloc, Verdict::kUnknown, true,
       FailureCause::kMemory, false},
      {Boundary::kStage, Thrown::kRuntime, Verdict::kUnknown, true,
       FailureCause::kInternalError, false},
      {Boundary::kStage, Thrown::kValidation, Verdict::kUnknown, true,
       FailureCause::kInternalError, false},

      {Boundary::kBackend, Thrown::kFaultInjected, Verdict::kUnknown, true,
       FailureCause::kFaultInjected, false},
      {Boundary::kBackend, Thrown::kResource, Verdict::kMemoryLimit, true,
       FailureCause::kMemory, false},
      {Boundary::kBackend, Thrown::kBadAlloc, Verdict::kMemoryLimit, true,
       FailureCause::kMemory, false},
      {Boundary::kBackend, Thrown::kRuntime, Verdict::kUnknown, true,
       FailureCause::kInternalError, false},
      {Boundary::kBackend, Thrown::kValidation, Verdict::kUnknown, true,
       FailureCause::kNone, true},

      {Boundary::kSolve, Thrown::kFaultInjected, Verdict::kUnknown, false,
       FailureCause::kFaultInjected, false},
      {Boundary::kSolve, Thrown::kResource, Verdict::kUnknown, false,
       FailureCause::kMemory, false},
      {Boundary::kSolve, Thrown::kBadAlloc, Verdict::kUnknown, false,
       FailureCause::kMemory, false},
      {Boundary::kSolve, Thrown::kRuntime, Verdict::kUnknown, false,
       FailureCause::kInternalError, false},
      {Boundary::kSolve, Thrown::kValidation, Verdict::kUnknown, false,
       FailureCause::kInternalError, false},
  };
  for (const FunnelRow& row : rows) {
    SCOPED_TRACE(std::string("boundary ") +
                 std::to_string(static_cast<int>(row.boundary)) + ", " +
                 to_string(row.thrown));
    // Through the timed step the stages and the backend run behind.
    std::vector<core::StageTiming> stages;
    bool rethrown = false;
    core::StageResult result;
    try {
      result = core::run_step(
          row.boundary, "probe",
          [&]() -> core::StageResult { throw_one(row.thrown); }, stages);
    } catch (const ValidationError&) {
      rethrown = true;
    }
    EXPECT_EQ(rethrown, row.rethrown);
    if (rethrown) continue;
    EXPECT_EQ(result.verdict, row.verdict);
    EXPECT_EQ(result.complete, row.complete);
    EXPECT_EQ(result.cause, row.cause);
    EXPECT_EQ(result.detail.rfind("probe ", 0), 0u) << result.detail;
    ASSERT_EQ(stages.size(), 1u);
    EXPECT_EQ(stages[0].stage, "probe");
    EXPECT_EQ(stages[0].verdict, row.verdict);
  }
}

TEST(ContainmentFunnel, SolveContainedCapturesWhatSolveInstanceThrows) {
  // The flow oracle refuses a heterogeneous platform with a ValidationError
  // that the backend boundary lets through: solve_instance throws, and
  // solve_contained turns it into an incomplete kUnknown report without
  // provenance.
  const rt::TaskSet ts = rt::TaskSet::from_params({{0, 2, 2, 2}});
  const rt::Platform platform = rt::Platform::heterogeneous({{2}});
  core::SolveConfig config;
  config.method = core::Method::kFlowOracle;
  EXPECT_THROW((void)core::solve_instance(ts, platform, config),
               ValidationError);

  const core::SolveReport report =
      core::solve_contained(ts, platform, config);
  EXPECT_EQ(report.verdict, core::Verdict::kUnknown);
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.cause, core::FailureCause::kInternalError);
  EXPECT_TRUE(report.decided_by.empty());
  EXPECT_TRUE(report.stage_times.empty());
  EXPECT_FALSE(report.detail.empty());
  EXPECT_GE(report.seconds, 0.0);

  // A solve that returns is passed through with its provenance.
  config.method = core::Method::kCsp2Dedicated;
  const core::SolveReport solved =
      core::solve_contained(ts, platform, config);
  EXPECT_EQ(solved.verdict, core::Verdict::kFeasible);
  EXPECT_EQ(solved.decided_by, "backend:CSP2(dedicated)");
}

}  // namespace
}  // namespace mgrts
