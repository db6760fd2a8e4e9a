// The traced layer sweep: replays a sample of the workload's own inputs
// through each layer's public entry points, one span per call, and derives
// the per-layer metrics from the spans and the library's own counters.
// Spans live in the benchmark's files only; the library is not touched.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <unistd.h>

#include "bench.hpp"
#include "core/canonical.hpp"
#include "core/instance_io.hpp"
#include "csp2/csp2.hpp"
#include "dist/shard_exec.hpp"
#include "encodings/csp1.hpp"
#include "encodings/csp2_generic.hpp"
#include "exp/sharded.hpp"
#include "flow/oracle.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/shard.hpp"
#include "serve/wire.hpp"
#include "support/rng.hpp"

namespace fixedbench {

namespace {

/// Sample sizes per layer, bounded so a traced run stays well inside its
/// time limit whatever the workload.
constexpr std::size_t kCheapSample = 400;
constexpr std::size_t kSearchSample = 120;
constexpr std::size_t kGenericSample = 40;
constexpr std::size_t kCsp1Sample = 10;

/// The CSP2 value orders of Table I, with their metric suffixes.
const std::pair<csp2::ValueOrder, const char*> kOrders[] = {
    {csp2::ValueOrder::kInput, "input"},
    {csp2::ValueOrder::kRateMonotonic, "rm"},
    {csp2::ValueOrder::kDeadlineMonotonic, "dm"},
    {csp2::ValueOrder::kTMinusC, "tmc"},
    {csp2::ValueOrder::kDMinusC, "dmc"},
};

const char* const kStages[] = {"analysis", "flow-oracle", "csp2-presolve",
                               "backend"};
/// Propagator names the library reports; time under any other name is
/// summed into csp.prop_s.other (and named on stderr), never dropped.
const char* const kPropagators[] = {
    "all-different-except", "all-different-matching", "count-eq",
    "weighted-count-eq",    "symmetry-chain",         "nogood-store",
    "at-most-one"};

/// Presolve stage of a StageTiming / decided_by label ("analysis:util" ->
/// "analysis"); anything else is the backend, which stage_times names by
/// its method ("CSP2(dedicated)") and decided_by as "backend:<method>".
std::string stage_of(const std::string& label) {
  const std::string head = label.substr(0, label.find(':'));
  for (const char* stage : {"analysis", "flow-oracle", "csp2-presolve"}) {
    if (head == stage) return head;
  }
  return "backend";
}

std::size_t sample(const std::vector<Item>& items, std::size_t cap) {
  return std::min(items.size(), cap);
}

class Sweep {
 public:
  Sweep(const Workload& workload, const WorkloadContext& context,
        Tracer& tracer)
      : workload_(workload), context_(context), tracer_(tracer),
        items_(workload.items()) {}

  Metrics run() {
    generation();
    io_and_keys();
    flow_oracle();
    encodings();
    csp2_search();
    generic_engine();
    pipeline();
    shard_codec();
    service();
    harness();
    fleet();
    return std::move(metrics_);
  }

 private:
  void set(const std::string& name, double value, const char* unit) {
    metrics_[name] = Metric{value, unit};
  }
  double mean_us(const std::string& span) const {
    const auto layers = tracer_.layer_times();
    const auto it = layers.find(span);
    if (it == layers.end() || it->second.count == 0) return 0.0;
    return it->second.total_s * 1e6 / static_cast<double>(it->second.count);
  }

  void generation() {
    const std::size_t n = sample(items_, kCheapSample);
    const gen::GeneratorOptions generator = table1_generator();
    const Scope layer(tracer_, "layer.gen");
    const double start = tracer_.now_s();
    for (std::size_t k = 0; k < n; ++k) {
      const Scope span(tracer_, "gen.generate_indexed", layer.id(),
                       static_cast<std::int64_t>(items_[k].index));
      (void)gen::generate_indexed(generator, context_.seed, items_[k].index);
    }
    const double elapsed = tracer_.now_s() - start;
    set("gen.instances_per_s",
        elapsed > 0 ? static_cast<double>(n) / elapsed : 0.0, "1/s");
  }

  void io_and_keys() {
    const std::size_t n = sample(items_, kCheapSample);
    const Scope layer(tracer_, "layer.io");
    serve::VerdictCache cache;
    std::vector<std::string> keys;
    for (std::size_t k = 0; k < n; ++k) {
      const auto request = static_cast<std::int64_t>(k);
      const Item& item = items_[k];
      const Scope root(tracer_, "serve.request", layer.id(), request);
      serve::Message message;
      message.kind = "solve";
      message.set("max-nodes", kCsp2Cap);
      message.body = core::write_instance_string(item.tasks, item.platform);
      std::string payload;
      {
        const Scope span(tracer_, "serve.wire", root.id(), request);
        payload = serve::format_message(message);
        message = serve::parse_message(payload);
      }
      core::InstanceFile parsed;
      {
        const Scope span(tracer_, "core.parse", root.id(), request);
        parsed = core::read_instance_string(message.body);
      }
      {
        const Scope span(tracer_, "core.canonical_key", root.id(), request);
        keys.push_back(core::canonical_key(parsed.tasks, parsed.platform));
      }
      if (item.truth >= 0) {
        cache.insert(keys.back(),
                     item.truth == 1 ? core::Verdict::kFeasible
                                     : core::Verdict::kInfeasible,
                     true,
                     item.platform.is_identical() ? "flow-oracle"
                                                  : "reference");
      }
    }
    for (std::size_t k = 0; k < keys.size(); ++k) {
      const Scope span(tracer_, "serve.cache_lookup", layer.id(),
                       static_cast<std::int64_t>(k));
      (void)cache.lookup(keys[k]);
    }
    set("serve.wire_us", mean_us("serve.wire"), "us");
    set("core.parse_us", mean_us("core.parse"), "us");
    set("core.canonical_key_us", mean_us("core.canonical_key"), "us");
    set("serve.cache_lookup_us", mean_us("serve.cache_lookup"), "us");
  }

  void flow_oracle() {
    const Scope layer(tracer_, "layer.flow");
    for (std::size_t k = 0; k < sample(items_, kCheapSample); ++k) {
      const Item& item = items_[k];
      const rt::Platform platform =
          rt::Platform::identical(item.platform.processors());
      const Scope span(tracer_, "flow.decide_feasibility", layer.id(),
                       static_cast<std::int64_t>(item.index));
      (void)flow::decide_feasibility(item.tasks, platform);
    }
    set("flow.oracle_us", mean_us("flow.decide_feasibility"), "us");
  }

  void encodings() {
    const Scope layer(tracer_, "layer.encodings");
    for (std::size_t k = 0; k < sample(items_, kGenericSample); ++k) {
      const Item& item = items_[k];
      const auto request = static_cast<std::int64_t>(item.index);
      {
        const Scope span(tracer_, "encodings.build_csp1", layer.id(), request);
        (void)enc::build_csp1(item.tasks, item.platform);
      }
      {
        const Scope span(tracer_, "encodings.build_csp2_generic", layer.id(),
                         request);
        (void)enc::build_csp2_generic(item.tasks, item.platform);
      }
    }
    set("encodings.csp1_build_ms", mean_us("encodings.build_csp1") * 1e-3,
        "ms");
    set("encodings.csp2g_build_ms",
        mean_us("encodings.build_csp2_generic") * 1e-3, "ms");
  }

  void csp2_search() {
    const Scope layer(tracer_, "layer.csp2");
    std::int64_t nodes = 0;
    double seconds = 0.0;
    for (const auto& [order, suffix] : kOrders) {
      std::int64_t overruns = 0;
      for (std::size_t k = 0; k < sample(items_, kSearchSample); ++k) {
        const Item& item = items_[k];
        csp2::Options options;
        options.value_order = order;
        options.slack_prune = false;  // paper-faithful, as in Table I
        options.tight_demand_prune = false;
        options.max_nodes = kCsp2Cap;
        const Scope span(tracer_, std::string("csp2.solve.") + suffix,
                         layer.id(), static_cast<std::int64_t>(item.index));
        const csp2::Result result =
            csp2::solve(item.tasks, item.platform, options);
        nodes += result.stats.nodes;
        seconds += result.stats.seconds;
        if (result.status == csp2::Status::kNodeLimit) ++overruns;
        if (result.status == csp2::Status::kTimeout) {
          throw InvalidRun("a csp2 probe ended on a wall-clock deadline");
        }
      }
      set(std::string("csp2.overruns.") + suffix,
          static_cast<double>(overruns), "count");
    }
    set("csp2.nodes", static_cast<double>(nodes), "count");
    set("csp2.ns_per_node",
        nodes > 0 ? seconds * 1e9 / static_cast<double>(nodes) : 0.0, "ns");
  }

  void generic_engine() {
    const Scope layer(tracer_, "layer.csp");
    std::int64_t nodes = 0, failures = 0, runs = 0, prunes = 0;
    double seconds = 0.0;
    core::NogoodStats learned;
    std::map<std::string, double> prop_s;
    const auto solve = [&](const char* spec_name, std::int64_t cap,
                           std::size_t count) {
      exp::SolverSpec spec = *exp::spec_from_name(spec_name, -1);
      spec.config.max_nodes = cap;
      spec.config.generic.prop_profile = true;
      for (std::size_t k = 0; k < sample(items_, count); ++k) {
        const Item& item = items_[k];
        core::SolveConfig config = spec.config;
        exp::reseed_for_index(config, item.index);
        const Scope span(tracer_, std::string("csp.") + spec_name, layer.id(),
                         static_cast<std::int64_t>(item.index));
        const core::SolveReport report =
            core::solve_instance(item.tasks, item.platform, config);
        if (report.cause == core::FailureCause::kDeadline) {
          throw InvalidRun("a csp probe ended on a wall-clock deadline");
        }
        nodes += report.nodes;
        failures += report.failures;
        seconds += report.seconds;
        const core::NogoodStats& g = report.nogoods;
        learned.recorded += g.recorded;
        learned.replay_hits += g.replay_hits;
        learned.backjumps += g.backjumps;
        learned.lits_uip += g.lits_uip;
        learned.lits_ds += g.lits_ds;
        for (const core::PropagatorStats& row : report.propagators) {
          runs += row.runs;
          prunes += row.prunes;
          prop_s[row.name] += row.seconds;
        }
      }
    };
    solve("csp2g-learn", kGenericCap, kGenericSample);
    solve("csp1", kCsp1Cap, kCsp1Sample);
    set("csp.nodes", static_cast<double>(nodes), "count");
    set("csp.ns_per_node",
        nodes > 0 ? seconds * 1e9 / static_cast<double>(nodes) : 0.0, "ns");
    set("csp.failures", static_cast<double>(failures), "count");
    set("csp.prop_runs", static_cast<double>(runs), "count");
    set("csp.prunes_per_run",
        runs > 0 ? static_cast<double>(prunes) / static_cast<double>(runs)
                 : 0.0,
        "ratio");
    double other_s = 0.0;
    for (const auto& [name, seconds] : prop_s) {
      if (std::find_if(std::begin(kPropagators), std::end(kPropagators),
                       [&](const char* known) { return name == known; }) ==
          std::end(kPropagators)) {
        std::fprintf(stderr,
                     "fixedbench: propagator '%s' is not listed; its time is "
                     "reported under csp.prop_s.other\n",
                     name.c_str());
        other_s += seconds;
      }
    }
    for (const char* name : kPropagators) {
      set(std::string("csp.prop_s.") + name, prop_s[name], "s");
    }
    set("csp.prop_s.other", other_s, "s");
    set("csp.nogoods_recorded", static_cast<double>(learned.recorded),
        "count");
    set("csp.replay_hits", static_cast<double>(learned.replay_hits), "count");
    set("csp.backjumps", static_cast<double>(learned.backjumps), "count");
    set("csp.uip_len_ratio", learned.uip_len_ratio(), "ratio");
  }

  /// core::solve_instance under the production pipeline, with and without
  /// the flow oracle (the no-flow run models the heterogeneous regime and
  /// is what reaches csp2-presolve and the backend on identical inputs).
  void pipeline() {
    const Scope layer(tracer_, "layer.core");
    std::map<std::string, double> stage_s;
    std::map<std::string, std::int64_t> decided_by;
    records_.clear();
    exp::SolverSpec full = *exp::spec_from_name("pipeline", -1);
    full.config.max_nodes = kCsp2Cap;
    exp::SolverSpec noflow = full;
    noflow.config.pipeline.flow_oracle = false;
    for (std::size_t k = 0; k < sample(items_, kSearchSample); ++k) {
      const Item& item = items_[k];
      exp::InstanceRecord record;
      record.index = item.index;
      record.tasks = item.tasks.size();
      record.processors = item.platform.processors();
      record.hyperperiod = item.tasks.hyperperiod();
      for (const exp::SolverSpec* spec : {&full, &noflow}) {
        const auto request = static_cast<std::int64_t>(item.index);
        const Scope span(tracer_, "core.solve_instance", layer.id(), request);
        const double start = tracer_.now_s();
        core::SolveReport report =
            core::solve_instance(item.tasks, item.platform, spec->config);
        if (report.cause == core::FailureCause::kDeadline) {
          throw InvalidRun("a pipeline probe ended on a wall-clock deadline");
        }
        double at = start;
        for (const core::StageTiming& stage : report.stage_times) {
          const std::string name = stage_of(stage.stage);
          stage_s[name] += stage.seconds;
          tracer_.add("core.stage." + name, at, at + stage.seconds, span.id(),
                      request);
          at += stage.seconds;
        }
        const bool decisive = core::decisive(report.verdict, report.complete);
        ++decided_by[decisive ? stage_of(report.decided_by) : "undecided"];
        record.runs.push_back(exp::record_from_report(std::move(report)));
      }
      records_.push_back(std::move(record));
    }
    for (const char* stage : kStages) {
      set(std::string("core.stage_s.") + stage, stage_s[stage], "s");
    }
    for (const char* stage :
         {"analysis", "flow-oracle", "csp2-presolve", "backend",
          "undecided"}) {
      set(std::string("core.decided_by.") + stage,
          static_cast<double>(decided_by[stage]), "count");
    }
  }

  void shard_codec() {
    const Scope layer(tracer_, "layer.shard_codec");
    double bytes = 0.0;
    for (std::size_t k = 0; k < records_.size(); ++k) {
      const auto request = static_cast<std::int64_t>(records_[k].index);
      std::string payload;
      {
        const Scope span(tracer_, "serve.shard_row_encode", layer.id(),
                         request);
        payload = serve::format_message(
            serve::encode_shard_row(serve::ShardRow{"trace", records_[k]}));
      }
      bytes += static_cast<double>(payload.size());
      const Scope span(tracer_, "serve.shard_row_decode", layer.id(), request);
      (void)serve::parse_shard_row(serve::parse_message(payload));
    }
    set("serve.shard_row_encode_us", mean_us("serve.shard_row_encode"), "us");
    set("serve.shard_row_decode_us", mean_us("serve.shard_row_decode"), "us");
    set("serve.shard_row_bytes",
        records_.empty() ? 0.0
                         : bytes / static_cast<double>(records_.size()),
        "bytes");
  }

  /// In-process Service::handle replay (each input asked twice, the repeat
  /// permuted, so the second is a hit when the first was decisive), then
  /// the socket round trip of a ping for the transport share.
  void service() {
    const Scope layer(tracer_, "layer.serve");
    serve::Service service;
    support::Rng rng(context_.seed);
    const std::size_t n = sample(items_, kSearchSample);
    for (int ask = 0; ask < 2; ++ask) {
      for (std::size_t k = 0; k < n; ++k) {
        const Item& item = items_[k];
        std::vector<rt::Task> tasks = item.tasks.tasks();
        if (ask > 0) rng.shuffle(tasks);
        serve::Message message;
        message.kind = "solve";
        message.set("timeout-ms", std::int64_t{30'000});
        message.set("max-nodes", kCsp2Cap);
        message.body = core::write_instance_string(
            rt::TaskSet(std::move(tasks)), item.platform);
        const std::string payload = serve::format_message(message);
        const double start = tracer_.now_s();
        const serve::SolveResult answer = serve::parse_solve_response(
            serve::parse_message(service.handle(payload)));
        tracer_.add(answer.cache_hit ? "serve.handle.hit" : "serve.handle.miss",
                    start, tracer_.now_s(), layer.id(),
                    static_cast<std::int64_t>(k));
        if (answer.cause == core::FailureCause::kDeadline) {
          throw InvalidRun("a replayed request ended on a deadline");
        }
      }
    }
    set("serve.handle_us.hit", mean_us("serve.handle.hit"), "us");
    set("serve.handle_us.miss", mean_us("serve.handle.miss"), "us");
    set("serve.cache_hit_ratio", service.cache_stats().hit_ratio(), "ratio");

    serve::ServerOptions options;
    options.socket_path = context_.scratch_dir + "/trace-" +
                          std::to_string(::getpid()) + ".sock";
    options.workers = 1;
    serve::Server server(options);
    server.start();
    {
      serve::Client client(options.socket_path);
      for (int k = 0; k < 200; ++k) {
        const Scope span(tracer_, "serve.ping", layer.id(), k);
        (void)client.ping();
      }
    }
    server.stop();
    std::filesystem::remove(options.socket_path);
    set("serve.transport_us", mean_us("serve.ping"), "us");
  }

  /// exp::run_batch over the sample with the workload's own line-up.
  void harness() {
    const Scope layer(tracer_, "layer.exp");
    exp::BatchOptions options;
    options.generator = table1_generator();
    options.seed = context_.seed;
    options.workers = context_.threads;
    for (std::size_t k = 0; k < sample(items_, kGenericSample); ++k) {
      options.indices.push_back(items_[k].index);
    }
    const double start = tracer_.now_s();
    const exp::BatchResult batch = exp::run_batch(options, workload_.lineup());
    const double wall = tracer_.now_s() - start;
    double busy = 0.0;
    for (const exp::InstanceRecord& inst : batch.instances) {
      for (const exp::RunRecord& run : inst.runs) busy += run.seconds;
    }
    const double workers = static_cast<double>(context_.threads);
    set("exp.pool_efficiency", wall > 0 ? busy / (wall * workers) : 0.0,
        "ratio");
    set("exp.straggler_s", std::max(0.0, wall - busy / workers), "s");
  }

  /// Workerless execute_shard per planned shard, then the same shards over
  /// a two-worker in-process fleet.
  void fleet() {
    const Scope layer(tracer_, "layer.dist");
    const std::vector<std::string> specs = fleet_spec_names();
    exp::BatchOptions options;
    options.generator = table1_generator();
    options.seed = context_.seed;
    for (std::size_t k = 0; k < sample(items_, kCheapSample); ++k) {
      options.indices.push_back(items_[k].index);
    }
    const auto plan = dist::plan_shards(options.indices, 2 * kFleetWorkers);
    std::vector<double> shard_s;
    for (std::size_t s = 0; s < plan.size(); ++s) {
      serve::ShardRequest request;
      request.shard_id = "trace-" + std::to_string(s);
      request.generator = options.generator;
      request.seed = options.seed;
      request.specs = specs;
      request.indices = plan[s];
      const Scope span(tracer_, "dist.execute_shard", layer.id(),
                       static_cast<std::int64_t>(s));
      const double start = tracer_.now_s();
      (void)dist::execute_shard(request, support::CancelToken{});
      shard_s.push_back(tracer_.now_s() - start);
    }
    double total = 0.0, slowest = 0.0;
    for (const double s : shard_s) {
      total += s;
      slowest = std::max(slowest, s);
    }
    const double mean = shard_s.empty() ? 0.0 : total / shard_s.size();

    const LocalWorkers workers(context_.scratch_dir, "trace-worker",
                               kFleetWorkers);
    dist::FleetOptions fleet;
    fleet.shards = static_cast<std::int32_t>(plan.size());
    fleet.workers = workers.sockets();
    fleet.local_fallback = false;  // transport_s must time the fleet
    dist::FleetStats stats;
    const double start = tracer_.now_s();
    {
      const Scope span(tracer_, "dist.run_fleet", layer.id(), -1);
      (void)exp::run_batch_sharded(options, specs, -1, fleet, &stats);
    }
    const double fleet_wall = tracer_.now_s() - start;
    // The slowest worker carries at least half the executor time and at
    // least the largest shard.
    const double slowest_worker = std::max(slowest, total / kFleetWorkers);
    set("dist.executor_s", total, "s");
    set("dist.transport_s", std::max(0.0, fleet_wall - slowest_worker), "s");
    set("dist.shard_imbalance", mean > 0 ? slowest / mean : 0.0, "ratio");
    set("dist.redispatched", stats.redispatched, "count");
    set("dist.stall_culls", stats.stall_culls, "count");
    set("dist.duplicate_rows", static_cast<double>(stats.duplicate_rows),
        "count");
  }

  const Workload& workload_;
  const WorkloadContext& context_;
  Tracer& tracer_;
  const std::vector<Item>& items_;
  std::vector<exp::InstanceRecord> records_;
  Metrics metrics_;
};

}  // namespace

Metrics layer_sweep(const Workload& workload, const WorkloadContext& context,
                    Tracer& tracer) {
  return Sweep(workload, context, tracer).run();
}

}  // namespace fixedbench
