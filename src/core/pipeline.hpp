// The staged solve pipeline: presolve stages in front of a search backend.
//
// Every solve in this repo — single instance, batch, portfolio race — runs
// `run_presolve` (cheap, sound stages, allowed to answer "unknown") and,
// when no stage decides, exactly one backend (the requested search method,
// core/solve.cpp's `run_method`, which has the final word).  Each step is
// timed and contained by `run_step`, so provenance records which stage or
// backend decided (`decided_by`) and per-step wall times, and harness
// records and benches can report how much work presolve absorbs.
//
// Stage contracts (see DESIGN.md §8):
//   * sound — a decisive result (feasible, or infeasible with
//     `complete == true`) must be a proof; "cannot tell" is kUnknown;
//   * gated — run_presolve skips a stage on instance shapes it cannot
//     judge (analysis and flow on heterogeneous platforms) so the
//     pipeline composes over every workload without special-casing;
//   * bounded — stages respect the shared deadline and their node budget;
//     a stage must never be the reason a solve misses its wall budget;
//   * non-throwing for resource pressure — a stage that would exceed a
//     memory budget reports kUnknown and lets the backend decide.
//
// Built-in stage line-up (each individually toggled by PipelineOptions):
//   1. "analysis"      — the exact one-sided bound tests (analysis/tests);
//   2. "flow-oracle"   — exact polynomial decision, identical platforms;
//   3. "csp2-presolve" — a node-budgeted slack/demand-pruned CSP2 probe
//                        (the bench_ablation_csp2_rules extensions promoted
//                        to a first-class stage).
#pragma once

#include <cstdint>
#include <functional>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/verdict.hpp"
#include "csp/options.hpp"
#include "rt/platform.hpp"
#include "rt/schedule.hpp"
#include "rt/task_set.hpp"
#include "support/deadline.hpp"

namespace mgrts::core {

/// Which presolve stages run in front of the backend, and their budgets.
struct PipelineOptions {
  /// Exact one-sided analytical tests (utilization, window fit, forced
  /// demand, density).  Near-free; on by default.
  bool analysis = true;
  /// Exact polynomial max-flow decision on identical platforms.  On by
  /// default: it short-circuits search entirely where it applies.
  bool flow_oracle = true;
  /// Node-budgeted dedicated-CSP2 probe with the slack/demand prunes on.
  /// Off by default (redundant in front of a CSP2 backend with the same
  /// prunes); the portfolio and pipeline line-ups enable it.
  bool csp2_presolve = false;
  /// Node budget for the csp2-presolve probe.
  std::int64_t presolve_max_nodes = 20'000;

  /// No presolve at all: the paper-faithful configuration (the §VII
  /// line-ups filter only by r > 1, which the harness applies separately).
  [[nodiscard]] static PipelineOptions none() {
    PipelineOptions options;
    options.analysis = false;
    options.flow_oracle = false;
    options.csp2_presolve = false;
    return options;
  }
  /// Every stage on — the full presolve chain.
  [[nodiscard]] static PipelineOptions full() {
    PipelineOptions options;
    options.csp2_presolve = true;
    return options;
  }
};

/// Nogood-learning statistics of a generic-engine backend run (zeros when
/// the method does not record nogoods).  Mirrors csp::SolveStats' nogood
/// counters so provenance reports and the bench ledger can track learning
/// quality without reaching into the engine.  Every member is a counter
/// listed in kNogoodCounters below; consumers (the shard codec, merges,
/// record comparison) iterate that table instead of naming fields.
struct NogoodStats {
  std::int64_t recorded = 0;     ///< nogoods stored (incl. root units)
  std::int64_t imported = 0;     ///< adopted from a shared pool
  std::int64_t exported = 0;     ///< published to a shared pool
  std::int64_t replay_hits = 0;  ///< unit removals + clause conflicts
  /// Literal totals over recorded nogoods: raw decision-set length vs the
  /// length stored after conflict-analysis shrinking.
  std::int64_t lits_before = 0;
  std::int64_t lits_after = 0;
  /// 1-UIP differential (NogoodLearn::kUip1 backends): per analyzed
  /// conflict, the 1-UIP clause length vs the decision-set clause for the
  /// same conflict (never longer — the walk guarantees it per conflict).
  std::int64_t lits_uip = 0;
  std::int64_t lits_ds = 0;
  /// On-the-fly subsumptions (a recording replaced or was absorbed by its
  /// predecessor) and replay-hit block-LBD refreshes.
  std::int64_t subsumed = 0;
  std::int64_t lbd_refreshed = 0;
  /// Non-chronological backjumps taken (csp::SearchOptions::backjump), the
  /// total decision levels they skipped beyond the chronological single
  /// level, and the literals removed by recursive self-subsumption
  /// minimization (DESIGN.md §15).
  std::int64_t backjumps = 0;
  std::int64_t backjump_levels_saved = 0;
  std::int64_t lits_minimized = 0;

  /// Average recorded length over average decision-set length; 1.0 when
  /// nothing was recorded (or shrinking is off and nothing was dropped).
  [[nodiscard]] double shrink_ratio() const noexcept {
    return lits_before > 0 ? static_cast<double>(lits_after) /
                                 static_cast<double>(lits_before)
                           : 1.0;
  }

  /// Average 1-UIP clause length over the decision-set clause length for
  /// the same conflicts; <= 1.0 by construction, 1.0 when 1-UIP learning
  /// did not run.  The gated uip_clause_len_ratio ledger metric.
  [[nodiscard]] double uip_len_ratio() const noexcept {
    return lits_ds > 0 ? static_cast<double>(lits_uip) /
                             static_cast<double>(lits_ds)
                       : 1.0;
  }

  /// Counter-wise sum (aggregating runs).
  NogoodStats& operator+=(const NogoodStats& other) noexcept;

  bool operator==(const NogoodStats&) const = default;
};

/// Every NogoodStats counter, in the order the shard codec's "ng" line
/// carries them (DESIGN.md §16).  A new counter is a member plus an entry
/// here; the static_assert refuses a member without one.
inline constexpr std::int64_t NogoodStats::*kNogoodCounters[] = {
    &NogoodStats::recorded,      &NogoodStats::imported,
    &NogoodStats::exported,      &NogoodStats::replay_hits,
    &NogoodStats::lits_before,   &NogoodStats::lits_after,
    &NogoodStats::lits_uip,      &NogoodStats::lits_ds,
    &NogoodStats::subsumed,      &NogoodStats::lbd_refreshed,
    &NogoodStats::backjumps,     &NogoodStats::backjump_levels_saved,
    &NogoodStats::lits_minimized};
static_assert(sizeof(NogoodStats) ==
                  std::size(kNogoodCounters) * sizeof(std::int64_t),
              "every NogoodStats member needs a kNogoodCounters entry");

inline NogoodStats& NogoodStats::operator+=(const NogoodStats& other) noexcept {
  for (const auto counter : kNogoodCounters) this->*counter += other.*counter;
  return *this;
}

/// Per-propagator-class observability row of a generic-engine backend run:
/// advisor wake-ups, actual sweeps, the domain changes those sweeps
/// produced, and — only when the backend ran with
/// csp::SearchOptions::prop_profile — wall time inside the sweeps.  The
/// engine's own row type, passed through unchanged.
using PropagatorStats = csp::PropagatorProfile;

/// What a stage (or backend) found.  Stages leave `verdict` at kUnknown to
/// pass the instance on; backends report whatever their search produced.
struct StageResult {
  Verdict verdict = Verdict::kUnknown;
  /// Whether a kInfeasible verdict is an exhaustive proof.
  bool complete = true;
  /// Why a non-decisive verdict happened (kNone for decisive answers and
  /// plain presolve hand-offs).
  FailureCause cause = FailureCause::kNone;
  std::optional<rt::Schedule> schedule;  ///< witness, when one exists
  /// Refined provenance label (e.g. "analysis:utilization"); empty means
  /// "use the stage's name".
  std::string decided_by;
  std::string detail;
  std::int64_t nodes = 0;
  std::int64_t failures = 0;
  NogoodStats nogoods;  ///< generic-engine backends only; zeros elsewhere
  /// Per-propagator wake/run/prune rows, sorted by class name
  /// (generic-engine backends only; empty elsewhere).
  std::vector<PropagatorStats> propagators;

  [[nodiscard]] bool decisive() const noexcept {
    return core::decisive(verdict, complete);
  }
};

/// One line of pipeline provenance: stage (or backend) name, its verdict,
/// and its wall time.
struct StageTiming {
  std::string stage;
  Verdict verdict = Verdict::kUnknown;
  double seconds = 0.0;
};

struct PipelineOutcome {
  StageResult result;
  /// Who produced `result`: a stage name ("analysis:utilization",
  /// "flow-oracle", "csp2-presolve") or "backend:<method>".
  std::string decided_by;
  std::vector<StageTiming> stages;  ///< execution order, timed
};

/// The three places an exception is contained (DESIGN.md §12).
enum class Boundary {
  kStage,    ///< a presolve stage: kUnknown hand-off, the next step runs
  kBackend,  ///< the search method: memory walls read kMemoryLimit
  kSolve,    ///< a whole solve (solve_contained): kUnknown, incomplete
};

/// The containment funnel, the one exception -> (verdict, cause, detail)
/// mapping.  Runs `step`; returns nullopt when it returns normally, else
/// the non-decisive result that replaces it:
///   FaultInjectedError          -> kUnknown     + kFaultInjected
///   ResourceError, bad_alloc    -> kUnknown     + kMemory
///                                  (kMemoryLimit at kBackend)
///   any other std::exception    -> kUnknown     + kInternalError
/// ValidationError is rethrown at kBackend (a malformed request is the
/// caller's bug, not a degradation) and is an internal error elsewhere.
/// `complete` is false at kSolve only.  `name` prefixes the detail.
[[nodiscard]] std::optional<StageResult> contain(
    Boundary boundary, std::string_view name,
    const std::function<void()>& step);

/// One timed pipeline step: `step` behind the funnel at `boundary`, its
/// {name, verdict, wall time} appended to `stages`.
[[nodiscard]] StageResult run_step(Boundary boundary, const char* name,
                                   const std::function<StageResult()>& step,
                                   std::vector<StageTiming>& stages);

/// The presolve stages `options` selects, in order — analysis (necessary-
/// only when the flow oracle follows, so every feasible short-circuit
/// carries a witness), flow-oracle, csp2-presolve — stopping at the first
/// decisive result.  Analysis and flow run on identical platforms only; an
/// expired deadline skips every remaining stage.  `ts` must have
/// constrained deadlines (callers clone-expand first).
[[nodiscard]] PipelineOutcome run_presolve(const rt::TaskSet& ts,
                                           const rt::Platform& platform,
                                           const PipelineOptions& options,
                                           const support::Deadline& deadline);

}  // namespace mgrts::core
