// Shared plumbing of the fixed-work benchmark: the workload interface,
// exact-count and timing helpers, the in-memory span tracer, and the
// machine descriptor.  See ../README.md for what is measured and why.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/solve.hpp"
#include "dist/worker.hpp"
#include "exp/harness.hpp"
#include "gen/generator.hpp"
#include "rt/platform.hpp"
#include "rt/task_set.hpp"

namespace fixedbench {

using namespace mgrts;

/// Thrown when a run stops being fixed work (a wall-clock deadline ended a
/// timed solve, or the fault injector is armed).  The run then reports no
/// numbers at all.
class InvalidRun : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start);
/// Process user+sys CPU seconds (every thread, daemons included).
[[nodiscard]] double process_cpu_s();
/// Process peak resident set, MiB.
[[nodiscard]] double peak_rss_mb();

/// Quantile by linear interpolation (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// Throws InvalidRun when the process-wide fault injector is armed.
void require_fault_injector_disarmed(const char* when);

/// The machine a result came from (ROADMAP 1(d)).
struct Descriptor {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  int fault_injection = 0;
  double loadavg_1m = 0.0;
};
[[nodiscard]] Descriptor describe_machine();
[[nodiscard]] std::string to_json(const Descriptor& descriptor);

// ------------------------------------------------------------- tracing

/// One span: a layer boundary crossed by one request (or batch item).
struct Span {
  std::string name;
  double start_s = 0.0;  ///< since the tracer's origin
  double end_s = 0.0;
  std::int32_t parent = -1;
  std::int64_t request = -1;
};

/// In-memory span recorder, written out once when the run ends.
/// Single-threaded: the traced replay runs on one thread.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Opens a span and returns its id.
  std::int32_t open(std::string name, std::int32_t parent,
                    std::int64_t request);
  void close(std::int32_t id);
  /// Records a span with known bounds (children synthesized from a
  /// library report's own stage timings).
  std::int32_t add(std::string name, double start_s, double end_s,
                   std::int32_t parent, std::int64_t request);
  [[nodiscard]] double now_s() const { return seconds_since(origin_); }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Total duration and self time (duration minus child coverage) per
  /// span name.
  struct LayerTime {
    double total_s = 0.0;
    double self_s = 0.0;
    std::int64_t count = 0;
  };
  [[nodiscard]] std::map<std::string, LayerTime> layer_times() const;
  /// Writes one JSON object per span.  Returns false on I/O failure.
  bool write_jsonl(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name, std::int32_t parent = -1,
        std::int64_t request = -1)
      : tracer_(tracer),
        id_(tracer.open(std::move(name), parent, request)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::int32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

// ------------------------------------------------------------ workloads

/// A metric value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Exact per-pass counts (overruns, nodes, hits, ...): a fixed-work pass
/// must reproduce them bit for bit.
using Counts = std::map<std::string, std::int64_t>;

/// One fixed-work pass.
struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> latency_ms;  ///< per op (run, request or row)
  Counts counts;
  std::int64_t ops = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< first few, for stderr

  void fail(std::string what) {
    ++failed;
    if (failures.size() < 5) failures.push_back(std::move(what));
  }
};

/// An instance of the workload's input set, with its exact truth where an
/// oracle applies.
struct Item {
  std::uint64_t index = 0;  ///< generator-stream index
  rt::TaskSet tasks;
  rt::Platform platform = rt::Platform::identical(1);
  /// 1 feasible, 0 infeasible, -1 unknown: the flow oracle on identical
  /// platforms, else the decisive verdict of an untimed reference solve
  /// where the workload runs one.
  int truth = -1;
};

struct Sizes {
  double scale = 1.0;  ///< < 1 shrinks every input set (self-test)
  [[nodiscard]] std::int64_t of(std::int64_t full) const;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs and truth, runs probes, starts daemons, warms up.
  /// Repeatable: each call rebuilds from scratch.
  virtual void setup() = 0;
  /// One fixed-work pass; `tracer` (optional) gets one span per op.
  virtual PassResult pass(Tracer* tracer) = 0;
  /// Checks that need an untimed reference run (after the timed phase).
  virtual void final_check(PassResult& /*result*/) {}
  /// The inputs the traced layer sweep replays, and the workload's
  /// batch line-up for the harness probe.
  [[nodiscard]] virtual const std::vector<Item>& items() const = 0;
  [[nodiscard]] virtual std::vector<exp::SolverSpec> lineup() const = 0;
  /// Stops daemons.
  virtual void teardown() {}
};

struct WorkloadContext {
  std::uint64_t seed = 0;
  Sizes sizes;
  unsigned threads = 1;       ///< busy-thread budget (<= nproc)
  std::string scratch_dir;    ///< sockets and traces, inside the checkout
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const std::string& name, const WorkloadContext& context);
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Table-I generator options of §VII-C: n=10, m=5, Tmax=7, D-first.
[[nodiscard]] gen::GeneratorOptions table1_generator();
/// flow::decide_feasibility truth for an identical-platform item.
[[nodiscard]] int flow_truth(const rt::TaskSet& tasks,
                             const rt::Platform& platform);
/// Analytical stages ("analysis:<test>") prove feasibility without building
/// a witness; every other feasible verdict must carry a validated one.
[[nodiscard]] bool witness_exempt(const std::string& decided_by);
/// Checks one batch run against the item's truth; returns an empty string
/// when correct, else what is wrong.  Throws InvalidRun on kDeadline.
[[nodiscard]] std::string check_run(const exp::RunRecord& run, int truth);

/// In-process shard workers on AF_UNIX sockets under `dir`, stopped and
/// their socket files removed on destruction.
class LocalWorkers {
 public:
  LocalWorkers(const std::string& dir, const std::string& tag, int count);
  ~LocalWorkers();
  LocalWorkers(const LocalWorkers&) = delete;
  LocalWorkers& operator=(const LocalWorkers&) = delete;
  [[nodiscard]] const std::vector<std::string>& sockets() const {
    return sockets_;
  }

 private:
  std::vector<std::unique_ptr<dist::WorkerServer>> workers_;
  std::vector<std::string> sockets_;
};

/// The fleet line-up: "pipeline" is decided by the exact oracle before any
/// search on identical platforms, and "presolve-probe-noflow" is
/// node-bounded by construction (500-node presolve, 1-node backend), so
/// fleets run with the specs' own budgets.
[[nodiscard]] std::vector<std::string> fleet_spec_names();
inline constexpr int kFleetWorkers = 2;

/// Node caps (fixed work).
inline constexpr std::int64_t kCsp2Cap = 5'000;
inline constexpr std::int64_t kGenericCap = 500;
inline constexpr std::int64_t kCsp1Cap = 10;

/// The traced layer sweep: every per-layer metric over `items`.
[[nodiscard]] Metrics layer_sweep(const Workload& workload,
                                  const WorkloadContext& context,
                                  Tracer& tracer);

}  // namespace fixedbench
