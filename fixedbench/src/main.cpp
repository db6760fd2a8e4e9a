// Fixed-work benchmark: the main program.
//
//   fixedbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--scale <x>] [--scratch-dir <dir>]
//
// Untraced (--trace 0): set up several times (median is setup_s), then run
// fixed-work passes until --seconds have elapsed (at least kMinPasses) and
// report medians over passes.  Traced (--trace 1): one untraced pass, one
// traced pass (its wall against the untraced one is the tracing overhead),
// then the per-layer sweep.  The last stdout line is the result object.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>

#include "bench.hpp"

namespace fixedbench {
namespace {

constexpr int kSetupRepeats = 3;
constexpr int kMinPasses = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 20090911;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  std::string scratch_dir = ".bench_build/fixedbench-run";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "fixedbench: %s\nusage: fixedbench --workload <name> --seed "
               "<n> --seconds <s> --trace <0|1> [--scale <x>] "
               "[--scratch-dir <dir>]\nworkloads:",
               why);
  for (const std::string& name : workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int k = 1; k < argc; ++k) {
    const std::string flag = argv[k];
    if (k + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++k];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
    } else if (flag == "--scale") {
      args.scale = std::strtod(value.c_str(), &end);
    } else if (flag == "--scratch-dir") {
      args.scratch_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      usage(("malformed value for " + flag).c_str());
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0) || !(args.scale > 0)) {
    usage("--seconds and --scale must be positive");
  }
  return args;
}

std::string counts_text(const Counts& counts) {
  std::string out;
  for (const auto& [name, value] : counts) {
    out += " " + name + "=" + std::to_string(value);
  }
  return out;
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

void report_failures(const PassResult& pass) {
  for (const std::string& what : pass.failures) {
    std::fprintf(stderr, "fixedbench: FAILED: %s\n", what.c_str());
  }
}

int run(const Args& args) {
  const Descriptor machine = describe_machine();
  std::printf("{\"descriptor\": %s}\n", to_json(machine).c_str());
  std::filesystem::create_directories(args.scratch_dir);

  WorkloadContext context;
  context.seed = args.seed;
  context.sizes.scale = args.scale;
  context.threads = machine.nproc;
  context.scratch_dir = args.scratch_dir;
  const std::unique_ptr<Workload> workload =
      make_workload(args.workload, context);
  if (!workload) usage(("unknown workload " + args.workload).c_str());
  require_fault_injector_disarmed("at start");

  std::vector<double> setups;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const auto start = Clock::now();
    workload->setup();
    setups.push_back(seconds_since(start));
  }
  std::printf("setup: %zu inputs, median %.3f s of %d\n",
              workload->items().size(), median(setups), kSetupRepeats);

  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  Metrics metrics;

  if (!args.trace) {
    std::vector<PassResult> passes;
    const auto start = Clock::now();
    while (static_cast<int>(passes.size()) < kMinPasses ||
           seconds_since(start) < args.seconds) {
      passes.push_back(workload->pass(nullptr));
      const PassResult& pass = passes.back();
      std::printf("pass %zu: wall %.4f s, cpu %.4f s, p50 %.4f ms, p99 %.4f "
                  "ms,%s\n",
                  passes.size(), pass.wall_s, pass.cpu_s,
                  quantile(pass.latency_ms, 0.50),
                  quantile(pass.latency_ms, 0.99),
                  counts_text(pass.counts).c_str());
    }
    workload->final_check(passes.back());
    std::vector<double> wall, cpu, p50, p99;
    for (const PassResult& pass : passes) {
      attempted += pass.ops;
      failed += pass.failed;
      report_failures(pass);
      wall.push_back(pass.wall_s);
      cpu.push_back(pass.cpu_s);
      p50.push_back(quantile(pass.latency_ms, 0.50));
      p99.push_back(quantile(pass.latency_ms, 0.99));
      if (pass.counts != passes.front().counts) {
        ++failed;
        std::fprintf(stderr,
                     "fixedbench: FAILED: exact counts moved between passes\n");
      }
    }
    const Counts& counts = passes.front().counts;
    const auto overruns = counts.find("overruns");
    metrics["setup_s"] = {median(setups), "s"};
    metrics["wall_s"] = {median(wall), "s"};
    metrics["cpu_s"] = {median(cpu), "s"};
    metrics["overruns"] = {
        overruns == counts.end() ? 0.0 : static_cast<double>(overruns->second),
        "count"};
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    metrics["p50_ms"] = {median(p50), "ms"};
    metrics["p99_ms"] = {median(p99), "ms"};
    std::printf("%zu passes, %zu ops per pass\n", passes.size(),
                passes.front().latency_ms.size());
  } else {
    const PassResult untraced = workload->pass(nullptr);
    Tracer tracer;
    PassResult traced = workload->pass(&tracer);
    workload->final_check(traced);
    for (const PassResult* pass : {&untraced, &std::as_const(traced)}) {
      attempted += pass->ops;
      failed += pass->failed;
      report_failures(*pass);
    }
    if (traced.counts != untraced.counts) {
      ++failed;
      std::fprintf(stderr,
                   "fixedbench: FAILED: tracing moved the exact counts\n");
    }
    const auto sweep_start = Clock::now();
    metrics = layer_sweep(*workload, context, tracer);
    const double sweep_s = seconds_since(sweep_start);
    metrics["trace.untraced_wall_s"] = {untraced.wall_s, "s"};
    metrics["trace.traced_wall_s"] = {traced.wall_s, "s"};
    metrics["trace.overhead_ratio"] = {traced.wall_s / untraced.wall_s,
                                       "ratio"};
    metrics["trace.sweep_s"] = {sweep_s, "s"};
    metrics["trace.spans"] = {static_cast<double>(tracer.spans().size()),
                              "count"};
    const std::string path = args.scratch_dir + "/" + args.workload +
                             "-seed" + std::to_string(args.seed) +
                             ".trace.jsonl";
    if (!tracer.write_jsonl(path)) {
      std::fprintf(stderr, "fixedbench: cannot write %s\n", path.c_str());
      ++failed;
    }
    std::printf("spans written to %s\nself time per span name:\n",
                path.c_str());
    for (const auto& [name, layer] : tracer.layer_times()) {
      std::printf("  %-32s %8lld spans  total %10.6f s  self %10.6f s\n",
                  name.c_str(), static_cast<long long>(layer.count),
                  layer.total_s, layer.self_s);
    }
  }
  workload->teardown();
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace fixedbench

int main(int argc, char** argv) {
  const fixedbench::Args args = fixedbench::parse_args(argc, argv);
  try {
    return fixedbench::run(args);
  } catch (const fixedbench::InvalidRun& e) {
    std::fprintf(stderr, "fixedbench: INVALID RUN (not fixed work): %s\n",
                 e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fixedbench: error: %s\n", e.what());
    return 1;
  }
}
