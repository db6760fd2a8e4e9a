// Shard executor: runs one serve::ShardRequest to completion on the local
// machine, producing exactly the records the in-process harness would
// (DESIGN.md §16).
//
// This is the single implementation both sides of the distributed layer
// share: serve::Server runs it behind the wire, and the coordinator runs
// it in-process for local fallback (a shard no worker could complete) and
// for the workerless single-box path the determinism tests compare
// against.  Determinism by construction: the instance comes from
// gen::generate_indexed, the per-run seeds from exp::reseed_for_index, and
// the record projection from exp::record_from_report — the same three
// functions exp::run_batch uses.
//
// Each generator index runs through core::solve_batch (workers=1, the
// request's max_attempts), so the retry/quarantine containment contract is
// inherited wholesale rather than reimplemented: a crash-type failure is
// retried with wider budgets, an exhausted job is quarantined with its
// FailureCause on the record, and no index is ever lost.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "core/solve.hpp"
#include "exp/harness.hpp"
#include "serve/shard.hpp"
#include "support/deadline.hpp"

namespace mgrts::dist {

/// Progress surface of a running shard, sampled by the worker's beat
/// sender: `heartbeat` ticks at every solver deadline poll, `completed`
/// after every finished index.  Their sum is the wire's ShardBeat::beat —
/// monotone while the executor makes any progress at all.
struct ShardProgress {
  std::shared_ptr<std::atomic<std::uint64_t>> heartbeat =
      std::make_shared<std::atomic<std::uint64_t>>(0);
  std::atomic<std::int64_t> completed{0};

  [[nodiscard]] std::uint64_t beat() const noexcept {
    return heartbeat->load(std::memory_order_relaxed) +
           static_cast<std::uint64_t>(
               completed.load(std::memory_order_relaxed));
  }
};

struct ShardExecution {
  /// One record per requested index, in request order.  Shorter than the
  /// request only when the cancel token fired mid-shard.
  std::vector<exp::InstanceRecord> rows;
  core::BatchHealth health;
};

/// Called after each index completes, in request order.  A sink that
/// throws aborts the shard (the worker uses this when the coordinator's
/// connection dies: no reader, no point finishing).
using RowSink = std::function<void(const exp::InstanceRecord&)>;

/// Runs the shard.  Throws ValidationError for an unknown spec name
/// (refuse, don't guess — the coordinator validates names before
/// dispatching, so this only fires for version-skewed peers).  A cancelled
/// token stops the shard at the next index boundary; in-flight solves see
/// it at their next deadline poll.
[[nodiscard]] ShardExecution execute_shard(const serve::ShardRequest& request,
                                           const support::CancelToken& cancel,
                                           ShardProgress* progress = nullptr,
                                           const RowSink& sink = nullptr);

}  // namespace mgrts::dist
