// Ablation C: the §VII-A parameter-sampling order.  The paper notes that
// drawing (C, D, T) in different orders induces different instance
// distributions — C->D->T favours large periods, T->D->C short WCETs — and
// picks the intermediate D-first scheme.  This bench reports the induced
// parameter statistics, utilization-ratio distribution, and how they shift
// solver outcomes (CSP2+(D-C)).
#include <cstdio>

#include "bench_common.hpp"
#include "exp/tables.hpp"
#include "support/table.hpp"

int main() {
  using namespace mgrts;

  const exp::BenchEnv env = exp::bench_env(/*instances=*/150,
                                           /*limit_ms=*/200);

  bench::print_banner("Ablation: generator parameter order (§VII-A)", env,
                      bench::paper_workload_small());

  support::TextTable stats({"order", "mean C", "mean D", "mean T", "mean r",
                            "r>1", "solved", "unsat", "overrun"});
  stats.set_title("distribution and outcome per sampling order");

  core::BatchHealth last_health;  // aggregated across the three orders
  for (const gen::ParamOrder order :
       {gen::ParamOrder::kDFirst, gen::ParamOrder::kCdt,
        gen::ParamOrder::kTdc}) {
    exp::BatchOptions options;
    options.generator = bench::paper_workload_small();
    options.generator.order = order;
    options.instances = env.instances;
    options.seed = env.seed;
    options.workers = env.workers;

    const std::vector<exp::SolverSpec> specs = {
        exp::csp2_spec(csp2::ValueOrder::kDMinusC, env.time_limit_ms)};
    const exp::BatchResult batch = exp::run_batch(options, specs);
    last_health.merge(batch.health);

    // Regenerate the stream for parameter statistics (cheap and identical
    // by construction).
    double sum_c = 0;
    double sum_d = 0;
    double sum_t = 0;
    double sum_r = 0;
    std::int64_t over = 0;
    std::int64_t tasks_seen = 0;
    for (std::int64_t k = 0; k < env.instances; ++k) {
      const auto inst = gen::generate_indexed(
          options.generator, options.seed, static_cast<std::uint64_t>(k));
      for (rt::TaskId i = 0; i < inst.tasks.size(); ++i) {
        sum_c += static_cast<double>(inst.tasks[i].wcet());
        sum_d += static_cast<double>(inst.tasks[i].deadline());
        sum_t += static_cast<double>(inst.tasks[i].period());
        ++tasks_seen;
      }
      sum_r += inst.tasks.utilization_ratio(inst.processors);
      over += inst.tasks.exceeds_capacity(inst.processors) ? 1 : 0;
    }

    std::int64_t solved = 0;
    std::int64_t unsat = 0;
    std::int64_t overruns = 0;
    for (const auto& inst : batch.instances) {
      solved += inst.runs[0].found_schedule() ? 1 : 0;
      unsat += inst.runs[0].proved_infeasible() ? 1 : 0;
      overruns += inst.runs[0].overrun() ? 1 : 0;
    }

    const auto tcount = static_cast<double>(tasks_seen);
    const auto icount = static_cast<double>(env.instances);
    stats.add_row({gen::to_string(order),
                   support::TextTable::num(sum_c / tcount, 2),
                   support::TextTable::num(sum_d / tcount, 2),
                   support::TextTable::num(sum_t / tcount, 2),
                   support::TextTable::num(sum_r / icount, 2),
                   support::TextTable::num(over),
                   support::TextTable::num(solved),
                   support::TextTable::num(unsat),
                   support::TextTable::num(overruns)});
  }
  std::printf("%s\n", stats.to_string().c_str());
  std::printf("%s\n", exp::health_summary(last_health).c_str());
  std::printf(
      "expected: C->D->T yields the largest periods (and highest r, many "
      "r>1 rejects); T->D->C the smallest WCETs (easiest instances); the "
      "paper's D-first sits between them.\n");
  return 0;
}
