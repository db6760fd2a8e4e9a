// The four fixed-work workloads.  Every solve is bounded by a node cap (or
// decided by an exact oracle before any search), never by a wall budget, so
// verdicts, overruns, nodes, hits and rows are exact counts and only time
// varies between runs of one build.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <latch>
#include <numeric>
#include <set>
#include <thread>
#include <unistd.h>

#include "bench.hpp"
#include "core/canonical.hpp"
#include "core/instance_io.hpp"
#include "exp/sharded.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace fixedbench {

namespace {

/// Generator indices at and above this are held out of every timed input
/// set; warm-up passes draw from them so they cannot touch timed state.
constexpr std::uint64_t kHeldOut = 1'000'000'000;

/// residue-generic probes this many Table-I draws and keeps the first
/// kResidueKept undecided ones (about half the stream survives the probe).
constexpr std::int64_t kResidueStream = 600;
constexpr std::int64_t kResidueKept = 200;

Item make_item(const gen::GeneratorOptions& generator, std::uint64_t seed,
               std::uint64_t index) {
  gen::Instance inst = gen::generate_indexed(generator, seed, index);
  Item item;
  item.index = index;
  item.platform = rt::Platform::identical(inst.processors);
  item.truth = flow_truth(inst.tasks, item.platform);
  item.tasks = std::move(inst.tasks);
  return item;
}

std::vector<Item> make_items(const gen::GeneratorOptions& generator,
                             std::uint64_t seed,
                             const std::vector<std::uint64_t>& indices,
                             unsigned threads) {
  std::vector<Item> items(indices.size());
  support::parallel_for_index(indices.size(), threads, [&](std::size_t k) {
    items[k] = make_item(generator, seed, indices[k]);
  });
  return items;
}

std::vector<std::uint64_t> iota_indices(std::int64_t count,
                                        std::uint64_t first = 0) {
  std::vector<std::uint64_t> indices(static_cast<std::size_t>(count));
  std::iota(indices.begin(), indices.end(), first);
  return indices;
}

/// Checks a batch against the items' truth and fills the exact counts.
void account_batch(const exp::BatchResult& batch,
                   const std::vector<Item>& items, PassResult& result) {
  if (batch.instances.size() != items.size()) {
    result.fail("batch returned " + std::to_string(batch.instances.size()) +
                " of " + std::to_string(items.size()) + " instances");
  }
  std::int64_t& overruns = result.counts["overruns"];
  std::int64_t& decided = result.counts["decided"];
  std::int64_t& nodes = result.counts["nodes"];
  for (std::size_t k = 0; k < batch.instances.size(); ++k) {
    const exp::InstanceRecord& inst = batch.instances[k];
    const bool aligned = k < items.size() && inst.index == items[k].index;
    if (!aligned) result.fail("row " + std::to_string(k) + " misaligned");
    if (inst.runs.size() != batch.labels.size()) {
      result.fail("row " + std::to_string(k) + " has missing runs");
    }
    for (std::size_t s = 0; s < inst.runs.size(); ++s) {
      const exp::RunRecord& run = inst.runs[s];
      ++result.ops;
      result.latency_ms.push_back(run.seconds * 1e3);
      nodes += run.nodes;
      if (run.overrun()) {
        ++overruns;
        ++result.counts["overruns." + batch.labels[s]];
      } else {
        ++decided;
      }
      const std::string wrong = check_run(run, aligned ? items[k].truth : -1);
      if (!wrong.empty()) {
        result.fail(batch.labels[s] + " on index " +
                    std::to_string(inst.index) + ": " + wrong);
      }
    }
  }
}

template <typename Fn>
PassResult timed(Fn&& body) {
  require_fault_injector_disarmed("before a timed pass");
  PassResult result;
  const double cpu0 = process_cpu_s();
  const auto start = Clock::now();
  body(result);
  result.wall_s = seconds_since(start);
  result.cpu_s = process_cpu_s() - cpu0;
  require_fault_injector_disarmed("after a timed pass");
  return result;
}

// ------------------------------------------------------- batch workloads

/// table1-capped and residue-generic: exp::run_batch over a node-capped
/// line-up.  They differ only in their instance set and line-up.
class BatchWorkload : public Workload {
 public:
  explicit BatchWorkload(const WorkloadContext& context) : context_(context) {}

  PassResult pass(Tracer* tracer) override {
    return timed([&](PassResult& result) {
      exp::BatchResult batch;
      {
        const std::int32_t span =
            tracer ? tracer->open("exp.run_batch", -1, -1) : -1;
        batch = exp::run_batch(options_, specs_);
        if (tracer) tracer->close(span);
      }
      account_batch(batch, items_, result);
      if (batch.health.failures != 0) {
        result.fail("batch contained failures: " + batch.health.first_error);
      }
    });
  }

  const std::vector<Item>& items() const override { return items_; }
  std::vector<exp::SolverSpec> lineup() const override { return specs_; }

 protected:
  /// Warm-up: the same line-up over held-out draws.
  void warm_up(std::int64_t count) {
    exp::BatchOptions warm = options_;
    warm.indices = iota_indices(count, kHeldOut);
    (void)exp::run_batch(warm, specs_);
  }

  WorkloadContext context_;
  exp::BatchOptions options_;
  std::vector<exp::SolverSpec> specs_;
  std::vector<Item> items_;
};

/// The paper's Table-I stream through the five paper-faithful CSP2 value
/// orders plus production pipeline-CSP2: almost all of its work is the
/// dedicated CSP2 search, so the overrun count is the paper's quantity.
class Table1Workload final : public BatchWorkload {
 public:
  using BatchWorkload::BatchWorkload;

  void setup() override {
    options_ = exp::BatchOptions{};
    options_.generator = table1_generator();
    options_.seed = context_.seed;
    options_.workers = context_.threads;
    options_.indices = iota_indices(context_.sizes.of(1'000));
    items_ = make_items(options_.generator, options_.seed, options_.indices,
                        context_.threads);
    specs_.clear();
    for (const char* name :
         {"csp2-input", "csp2-rm", "csp2-dm", "csp2-tmc", "csp2-dmc",
          "pipeline"}) {
      exp::SolverSpec spec = *exp::spec_from_name(name, -1);
      spec.config.max_nodes = kCsp2Cap;
      specs_.push_back(std::move(spec));
    }
    warm_up(context_.sizes.of(300));
  }
};

/// The presolve-probe-noflow residue of the Table-I stream, solved by the
/// generic engine (csp2g-learn) and CSP1 under node caps: the csp engine
/// and the encodings do the work, csp2 and flow are absent.
class ResidueWorkload final : public BatchWorkload {
 public:
  using BatchWorkload::BatchWorkload;

  void setup() override {
    exp::BatchOptions stream;
    stream.generator = table1_generator();
    stream.seed = context_.seed;
    stream.workers = context_.threads;
    stream.indices = iota_indices(context_.sizes.of(kResidueStream));
    const exp::ResidueSpec residue =
        exp::residue_spec(stream, *exp::spec_from_name(
                                      "presolve-probe-noflow", -1));
    if (residue.indices().empty()) {
      // run_batch reads empty indices as "the whole stream".
      throw std::runtime_error("the presolve probe left no residue");
    }
    options_ = residue.batch;
    if (options_.indices.size() > static_cast<std::size_t>(
                                      context_.sizes.of(kResidueKept))) {
      options_.indices.resize(context_.sizes.of(kResidueKept));
    }
    items_ = make_items(options_.generator, options_.seed, options_.indices,
                        context_.threads);
    specs_.clear();
    exp::SolverSpec learn = *exp::spec_from_name("csp2g-learn", -1);
    learn.config.max_nodes = kGenericCap;
    specs_.push_back(std::move(learn));
    exp::SolverSpec csp1 = *exp::spec_from_name("csp1", -1);
    csp1.config.max_nodes = kCsp1Cap;
    specs_.push_back(std::move(csp1));
    warm_up(context_.sizes.of(60));
  }
};

// ------------------------------------------------------------ serving

/// One request of a client's stream and what its answer must be.
struct Request {
  serve::Message message;
  std::int32_t instance = -1;  ///< index into items(); -1 malformed
  std::string error_kind;      ///< expected tag for malformed requests
};

/// Two closed-loop clients over AF_UNIX against an in-process
/// serve::Server.  Each client owns a disjoint instance set (no two
/// instances share a canonical key), so hits and misses are exact counts.
class ServeWorkload final : public Workload {
 public:
  static constexpr int kClients = 2;
  static constexpr int kAsks = 4;             ///< each instance asked 4x
  static constexpr int kMalformedEvery = 25;  ///< one in 25 is malformed

  explicit ServeWorkload(const WorkloadContext& context)
      : context_(context),
        socket_path_(context.scratch_dir + "/serve-" +
                     std::to_string(::getpid()) + ".sock") {}

  void setup() override {
    items_.clear();
    client_items_.assign(kClients, {});
    streams_.assign(kClients, {});
    const gen::GeneratorOptions generator = table1_generator();
    const std::int64_t per_client = context_.sizes.of(1'500);
    // Draw with some slack in parallel; duplicates are dropped below.
    std::vector<Item> drawn = make_items(
        generator, context_.seed,
        iota_indices(kClients * per_client * 11 / 10 + 16), context_.threads);
    std::set<std::string> keys;
    auto next = drawn.begin();
    for (int c = 0; c < kClients; ++c) {
      for (std::int64_t k = 0; k < per_client; ++next) {
        if (next == drawn.end()) {
          throw std::runtime_error("too many duplicate instances drawn");
        }
        Item& item = *next;
        // Half identical-platform (the flow oracle decides them), half on
        // a uniform-speed platform (presolve plus node-capped CSP2 search;
        // their reference is solved below).
        if (item.index % 2 == 1) {
          item.platform = rt::Platform::uniform({2, 2, 1, 1, 1});
          item.truth = -1;
        }
        // Keep canonical keys unique so no answer depends on which client
        // asked first.
        if (!keys.insert(core::canonical_key(item.tasks, item.platform))
                 .second) {
          continue;
        }
        client_items_[c].push_back(static_cast<std::int32_t>(items_.size()));
        items_.push_back(std::move(item));
        ++k;
      }
      streams_[c] = build_stream(c);
    }
    solve_references();
    // Daemon start, plus a warm-up on held-out draws; this server (and its
    // cache) is discarded, so the timed passes start cold and exact.
    serve::Server server(server_options());
    server.start();
    {
      serve::Client client(socket_path_);
      for (std::uint64_t k = 0; k < static_cast<std::uint64_t>(
                                        context_.sizes.of(60));
           ++k) {
        const Item warm = make_item(generator, context_.seed, kHeldOut + k);
        (void)client.request(
            solve_message(warm.tasks, warm.platform, "warm"));
      }
    }
    server.stop();
    std::filesystem::remove(socket_path_);
  }

  PassResult pass(Tracer* tracer) override {
    serve::Server server(server_options());
    server.start();
    std::vector<std::unique_ptr<serve::Client>> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.push_back(std::make_unique<serve::Client>(socket_path_));
    }
    std::vector<std::vector<serve::SolveResult>> answers(kClients);
    std::vector<std::vector<double>> latencies(kClients);
    std::vector<std::vector<std::pair<double, double>>> bounds(kClients);
    std::vector<std::string> transport_errors(kClients);
    std::latch go(kClients + 1);

    PassResult result = timed([&](PassResult&) {
      std::vector<std::thread> threads;
      for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
          const std::vector<Request>& stream = streams_[c];
          answers[c].reserve(stream.size());
          latencies[c].reserve(stream.size());
          go.arrive_and_wait();
          try {
            for (const Request& request : stream) {
              const auto start = Clock::now();
              const serve::Message reply =
                  clients[c]->request(request.message);
              latencies[c].push_back(seconds_since(start) * 1e3);
              if (tracer) {
                const double end = tracer->now_s();
                bounds[c].emplace_back(end - latencies[c].back() * 1e-3, end);
              }
              answers[c].push_back(serve::parse_solve_response(reply));
            }
          } catch (const std::exception& e) {
            transport_errors[c] = e.what();
          }
        });
      }
      go.arrive_and_wait();
      for (std::thread& thread : threads) thread.join();
    });
    clients.clear();
    server.stop();
    std::filesystem::remove(socket_path_);

    for (int c = 0; c < kClients; ++c) {
      if (!transport_errors[c].empty()) {
        result.fail("client " + std::to_string(c) + ": " +
                    transport_errors[c]);
      }
      if (tracer) {
        for (std::size_t k = 0; k < bounds[c].size(); ++k) {
          tracer->add("serve.request", bounds[c][k].first,
                      bounds[c][k].second, -1,
                      static_cast<std::int64_t>(c) * 1'000'000 +
                          static_cast<std::int64_t>(k));
        }
      }
      result.latency_ms.insert(result.latency_ms.end(), latencies[c].begin(),
                               latencies[c].end());
      account_client(c, answers[c], result);
    }
    return result;
  }

  /// Reference solves that broke a witness rule fail the run.
  void final_check(PassResult& result) override {
    for (const std::string& what : reference_failures_) result.fail(what);
  }

  const std::vector<Item>& items() const override { return items_; }
  std::vector<exp::SolverSpec> lineup() const override {
    exp::SolverSpec spec = *exp::spec_from_name("pipeline", -1);
    spec.config.max_nodes = kCsp2Cap;
    return {spec};
  }

 private:
  /// Untimed reference for the uniform-platform items, where no exact
  /// oracle applies: the daemon's own solve configuration run in-process
  /// on the item as drawn.  Its feasible verdicts must carry a valid
  /// witness, and its decisive verdict becomes the item's truth.
  void solve_references() {
    core::SolveConfig config;
    config.method = serve::ServiceOptions{}.method;
    config.time_limit_ms = 30'000;
    config.max_nodes = kCsp2Cap;
    std::vector<std::string> wrong(items_.size());
    std::atomic<bool> deadline{false};
    support::parallel_for_index(items_.size(), context_.threads,
                                [&](std::size_t k) {
      Item& item = items_[k];
      if (item.platform.is_identical()) return;
      const core::SolveReport report =
          core::solve_instance(item.tasks, item.platform, config);
      if (report.cause == core::FailureCause::kDeadline) deadline = true;
      if (!core::decisive(report.verdict, report.complete)) return;
      const bool feasible = report.verdict == core::Verdict::kFeasible;
      if (feasible && !report.witness_valid &&
          !witness_exempt(report.decided_by)) {
        wrong[k] = "reference feasible verdict on index " +
                   std::to_string(item.index) + " without a valid witness";
      }
      item.truth = feasible ? 1 : 0;
    });
    if (deadline) {
      throw InvalidRun("a reference solve ended on a wall-clock deadline");
    }
    reference_failures_.clear();
    for (const std::string& what : wrong) {
      if (!what.empty()) reference_failures_.push_back(what);
    }
  }

  serve::ServerOptions server_options() const {
    serve::ServerOptions options;
    options.socket_path = socket_path_;
    options.workers = kClients;
    return options;
  }

  /// A solve request: node cap binds, the wall budget is the daemon's
  /// ceiling and must never be what ends a solve.
  static serve::Message solve_message(const rt::TaskSet& tasks,
                                      const rt::Platform& platform,
                                      const std::string& id) {
    serve::Message message;
    message.kind = "solve";
    message.set("id", id);
    message.set("timeout-ms", std::int64_t{30'000});
    message.set("max-nodes", kCsp2Cap);
    message.body = core::write_instance_string(tasks, platform);
    return message;
  }

  std::vector<Request> build_stream(int client) const {
    support::Rng rng(context_.seed * 7919 + static_cast<std::uint64_t>(client));
    std::vector<Request> stream;
    const std::vector<std::int32_t>& mine = client_items_[client];
    const char* kinds[] = {"parse", "validation", "protocol"};
    int malformed = 0;
    for (int ask = 0; ask < kAsks; ++ask) {
      for (const std::int32_t id : mine) {
        if (stream.size() % kMalformedEvery == kMalformedEvery - 1) {
          stream.push_back(malformed_request(kinds[malformed++ % 3]));
        }
        const Item& item = items_[static_cast<std::size_t>(id)];
        std::vector<rt::Task> tasks = item.tasks.tasks();
        if (ask > 0) rng.shuffle(tasks);  // repeats arrive permuted
        Request request;
        request.instance = id;
        request.message =
            solve_message(rt::TaskSet(std::move(tasks)), item.platform,
                          std::to_string(stream.size()));
        stream.push_back(std::move(request));
      }
    }
    return stream;
  }

  static Request malformed_request(const std::string& kind) {
    serve::Message message;
    message.kind = "solve";
    message.set("timeout-ms", std::int64_t{30'000});
    if (kind == "parse") {
      message.body = "tasks two\n";
    } else if (kind == "validation") {
      message.body = "tasks 1\n0 1 5 4\nprocessors 1\n";  // D > T
    } else {
      message.set("method", "no-such-method");
      message.body = "tasks 1\n0 1 2 2\nprocessors 1\n";
    }
    Request request;
    request.message = std::move(message);
    request.error_kind = kind;
    return request;
  }

  void account_client(int client,
                      const std::vector<serve::SolveResult>& answers,
                      PassResult& result) const {
    const std::vector<Request>& stream = streams_[client];
    if (answers.size() != stream.size()) {
      result.fail("client " + std::to_string(client) + " got " +
                  std::to_string(answers.size()) + " of " +
                  std::to_string(stream.size()) + " answers");
    }
    // The answer that filled the cache for each instance: a permuted
    // repeat may decide what the first ask left at the node cap.
    std::map<std::int32_t, const serve::SolveResult*> filled;
    for (std::size_t k = 0; k < answers.size(); ++k) {
      const Request& request = stream[k];
      const serve::SolveResult& answer = answers[k];
      ++result.ops;
      if (request.instance < 0) {
        ++result.counts["errors." + request.error_kind];
        if (answer.ok || answer.error_kind != request.error_kind) {
          result.fail("malformed request answered '" +
                      (answer.ok ? std::string("ok") : answer.error_kind) +
                      "', expected '" + request.error_kind + "'");
        }
        continue;
      }
      if (!answer.ok) {
        result.fail("solve refused: " + answer.error_kind + " " +
                    answer.detail);
        continue;
      }
      if (answer.cause == core::FailureCause::kDeadline ||
          answer.cause == core::FailureCause::kCancelled) {
        throw InvalidRun(std::string("a timed request ended on ") +
                         core::to_string(answer.cause));
      }
      if (answer.cause != core::FailureCause::kNone &&
          answer.cause != core::FailureCause::kNodeBudget) {
        result.fail(std::string("solve degraded: ") +
                    core::to_string(answer.cause));
      }
      const bool decisive = core::decisive(answer.verdict, answer.complete);
      ++result.counts[answer.cache_hit ? "cache_hits" : "cache_misses"];
      if (decisive) ++result.counts["decisive"];
      if (answer.verdict == core::Verdict::kNodeLimit) {
        ++result.counts["overruns"];
      }
      if (!answer.cache_hit) result.counts["nodes"] += answer.nodes;
      const Item& item = items_[static_cast<std::size_t>(request.instance)];
      if (decisive && item.truth >= 0) {
        const bool identical = item.platform.is_identical();
        ++result.counts[identical ? "checked.flow" : "checked.reference"];
        if ((answer.verdict == core::Verdict::kFeasible) != (item.truth == 1)) {
          result.fail(std::string("verdict disagrees with the ") +
                      (identical ? "flow oracle" : "reference solve"));
        }
      }
      const auto seen = filled.find(request.instance);
      if (answer.cache_hit) {
        if (seen == filled.end()) {
          result.fail("cache hit before any decisive answer");
        } else if (answer.verdict != seen->second->verdict ||
                   answer.complete != seen->second->complete) {
          result.fail("cache hit differs from the answer that filled it");
        }
      } else if (decisive && seen == filled.end()) {
        filled.emplace(request.instance, &answer);
      }
    }
  }

  WorkloadContext context_;
  std::string socket_path_;
  std::vector<Item> items_;
  std::vector<std::vector<std::int32_t>> client_items_;
  std::vector<std::vector<Request>> streams_;
  std::vector<std::string> reference_failures_;
};

// -------------------------------------------------------------- fleet

/// Two in-process dist::WorkerServers sharding a large Table-I stream
/// through exp::run_batch_sharded: shard codec, dist coordination and the
/// merge, with a near-zero search share.
class FleetWorkload final : public Workload {
 public:
  explicit FleetWorkload(const WorkloadContext& context) : context_(context) {}

  void setup() override {
    teardown();
    options_ = exp::BatchOptions{};
    options_.generator = table1_generator();
    options_.seed = context_.seed;
    options_.indices = iota_indices(context_.sizes.of(8'000));
    items_ = make_items(options_.generator, options_.seed, options_.indices,
                        context_.threads);
    workers_ = std::make_unique<LocalWorkers>(context_.scratch_dir, "worker",
                                              kFleetWorkers);
    fleet_ = dist::FleetOptions{};
    fleet_.workers = workers_->sockets();
    fleet_.shards = 2 * kFleetWorkers;
    // An undeliverable shard must fail the pass, not run in-process: the
    // workload times the shard codec, dispatch and merge.
    fleet_.local_fallback = false;
    exp::BatchOptions warm = options_;
    warm.indices = iota_indices(context_.sizes.of(2'000), kHeldOut);
    (void)exp::run_batch_sharded(warm, fleet_spec_names(), -1, fleet_);
  }

  PassResult pass(Tracer* tracer) override {
    dist::FleetStats stats;
    exp::BatchResult batch;
    PassResult result = timed([&](PassResult& timed_result) {
      const std::int32_t span =
          tracer ? tracer->open("exp.run_batch_sharded", -1, -1) : -1;
      try {
        batch = exp::run_batch_sharded(options_, fleet_spec_names(), -1,
                                       fleet_, &stats);
      } catch (const std::exception& e) {
        timed_result.fail(std::string("fleet refused the batch: ") + e.what());
      }
      if (tracer) tracer->close(span);
    });
    account_batch(batch, items_, result);
    result.counts["rows"] = static_cast<std::int64_t>(batch.instances.size());
    result.counts["shards"] = stats.shards;
    // A healthy in-process fleet delivers every shard on its first dispatch.
    for (const auto& [what, count] :
         {std::pair<const char*, std::int64_t>{"redispatched shards",
                                               stats.redispatched},
          {"stall culls", stats.stall_culls},
          {"transport failures", stats.transport_failures},
          {"local fallbacks", stats.local_fallbacks},
          {"duplicate rows", stats.duplicate_rows}}) {
      if (count != 0) result.fail(std::to_string(count) + " " + what);
    }
    last_ = std::move(batch);
    return result;
  }

  /// Fleet rows must be record-identical to the workerless run of the same
  /// shards (seconds aside, which are wall-shaped).
  void final_check(PassResult& result) override {
    dist::FleetOptions local;
    local.shards = fleet_.shards;
    const exp::BatchResult reference =
        exp::run_batch_sharded(options_, fleet_spec_names(), -1, local);
    if (reference.instances.size() != last_.instances.size()) {
      result.fail("fleet and workerless row counts differ");
      return;
    }
    for (std::size_t k = 0; k < reference.instances.size(); ++k) {
      const exp::InstanceRecord& a = last_.instances[k];
      const exp::InstanceRecord& b = reference.instances[k];
      bool same = a.index == b.index && a.runs.size() == b.runs.size() &&
                  a.hyperperiod == b.hyperperiod && a.ratio == b.ratio &&
                  a.exceeds_capacity == b.exceeds_capacity;
      for (std::size_t s = 0; same && s < a.runs.size(); ++s) {
        const exp::RunRecord& x = a.runs[s];
        const exp::RunRecord& y = b.runs[s];
        same = x.verdict == y.verdict && x.complete == y.complete &&
               x.nodes == y.nodes && x.decided_by == y.decided_by &&
               x.failure_cause == y.failure_cause &&
               x.witness_ok == y.witness_ok;
      }
      ++result.ops;
      if (!same) {
        result.fail("fleet row " + std::to_string(a.index) +
                    " differs from the workerless run");
      }
    }
  }

  void teardown() override {
    workers_.reset();
    fleet_.workers.clear();
  }

  const std::vector<Item>& items() const override { return items_; }
  std::vector<exp::SolverSpec> lineup() const override {
    std::vector<exp::SolverSpec> specs;
    for (const std::string& name : fleet_spec_names()) {
      specs.push_back(*exp::spec_from_name(name, -1));
    }
    return specs;
  }

 private:
  WorkloadContext context_;
  exp::BatchOptions options_;
  dist::FleetOptions fleet_;
  std::unique_ptr<LocalWorkers> workers_;
  std::vector<Item> items_;
  exp::BatchResult last_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "table1-capped", "residue-generic", "serve-repeat", "fleet-shard2"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadContext& context) {
  if (name == "table1-capped") return std::make_unique<Table1Workload>(context);
  if (name == "residue-generic") {
    return std::make_unique<ResidueWorkload>(context);
  }
  if (name == "serve-repeat") return std::make_unique<ServeWorkload>(context);
  if (name == "fleet-shard2") return std::make_unique<FleetWorkload>(context);
  return nullptr;
}

}  // namespace fixedbench
