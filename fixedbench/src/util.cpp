#include <sys/resource.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "flow/oracle.hpp"
#include "support/fault.hpp"

namespace fixedbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto to_s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return to_s(usage.ru_utime) + to_s(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

void require_fault_injector_disarmed(const char* when) {
  if (support::FaultInjector::active() != nullptr) {
    throw InvalidRun(std::string("fault injector armed ") + when);
  }
}

std::int64_t Sizes::of(std::int64_t full) const {
  return std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::llround(static_cast<double>(full) *
                                                scale)));
}

gen::GeneratorOptions table1_generator() {
  gen::GeneratorOptions options;
  options.tasks = 10;
  options.processors = 5;
  options.rule = gen::ProcessorRule::kFixed;
  options.t_max = 7;
  options.order = gen::ParamOrder::kDFirst;
  return options;
}

int flow_truth(const rt::TaskSet& tasks, const rt::Platform& platform) {
  if (!platform.is_identical()) return -1;
  return flow::is_feasible(tasks, platform) ? 1 : 0;
}

bool witness_exempt(const std::string& decided_by) {
  return decided_by.rfind("analysis:", 0) == 0;
}

std::string check_run(const exp::RunRecord& run, int truth) {
  if (run.failure_cause == core::FailureCause::kDeadline) {
    throw InvalidRun("a timed run ended on a wall-clock deadline");
  }
  if (run.failure_cause == core::FailureCause::kInternalError ||
      run.failure_cause == core::FailureCause::kFaultInjected ||
      run.failure_cause == core::FailureCause::kMemory) {
    return std::string("run crashed: ") + core::to_string(run.failure_cause);
  }
  if (run.overrun()) return {};
  if (run.found_schedule()) {
    if (!witness_exempt(run.decided_by) && !run.witness_ok) {
      return "feasible verdict without a valid witness";
    }
    if (truth == 0) return "feasible verdict on an infeasible instance";
  } else if (run.proved_infeasible() && truth == 1) {
    return "infeasibility proof on a feasible instance";
  }
  return {};
}

LocalWorkers::LocalWorkers(const std::string& dir, const std::string& tag,
                           int count) {
  for (int w = 0; w < count; ++w) {
    dist::WorkerOptions options;
    options.socket_path = dir + "/" + tag + "-" + std::to_string(::getpid()) +
                          "-" + std::to_string(w) + ".sock";
    workers_.push_back(std::make_unique<dist::WorkerServer>(options));
    workers_.back()->start();
    sockets_.push_back(options.socket_path);
  }
}

LocalWorkers::~LocalWorkers() {
  for (auto& worker : workers_) worker->stop();
  for (const std::string& path : sockets_) {
    std::error_code ignored;
    std::filesystem::remove(path, ignored);
  }
}

std::vector<std::string> fleet_spec_names() {
  return {"pipeline", "presolve-probe-noflow"};
}

// ---------------------------------------------------------------- tracer

std::int32_t Tracer::open(std::string name, std::int32_t parent,
                          std::int64_t request) {
  const double now = now_s();
  return add(std::move(name), now, now, parent, request);
}

void Tracer::close(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_s = now_s();
}

std::int32_t Tracer::add(std::string name, double start_s, double end_s,
                         std::int32_t parent, std::int64_t request) {
  spans_.push_back(Span{std::move(name), start_s, end_s, parent, request});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::map<std::string, Tracer::LayerTime> Tracer::layer_times() const {
  std::vector<double> child_cover(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_cover[static_cast<std::size_t>(span.parent)] +=
          span.end_s - span.start_s;
    }
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const double duration = spans_[k].end_s - spans_[k].start_s;
    LayerTime& layer = out[spans_[k].name];
    layer.total_s += duration;
    layer.self_s += std::max(0.0, duration - child_cover[k]);
    ++layer.count;
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  char line[512];
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const Span& span = spans_[k];
    std::snprintf(line, sizeof line,
                  "{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,"
                  "\"end_s\":%.9f,\"parent\":%d,\"request\":%lld}\n",
                  k, span.name.c_str(), span.start_s, span.end_s, span.parent,
                  static_cast<long long>(span.request));
    out << line;
  }
  return static_cast<bool>(out);
}

// ------------------------------------------------------------ descriptor

Descriptor describe_machine() {
  Descriptor d;
  d.nproc = std::max(1u, std::thread::hardware_concurrency());
  {
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
      if (line.rfind("model name", 0) == 0) {
        const auto colon = line.find(':');
        if (colon != std::string::npos) {
          d.cpu_model = line.substr(colon + 1);
          d.cpu_model.erase(0, d.cpu_model.find_first_not_of(' '));
        }
        break;
      }
    }
  }
  {
    std::ifstream loadavg("/proc/loadavg");
    loadavg >> d.loadavg_1m;
  }
  d.compiler = FIXEDBENCH_COMPILER;
  d.build_type = FIXEDBENCH_BUILD_TYPE;
  d.fault_injection = MGRTS_FAULT_INJECTION;
  return d;
}

std::string to_json(const Descriptor& d) {
  const auto quote = [](const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out + "\"";
  };
  std::ostringstream out;
  out << "{\"nproc\": " << d.nproc << ", \"cpu_model\": " << quote(d.cpu_model)
      << ", \"compiler\": " << quote(d.compiler)
      << ", \"build_type\": " << quote(d.build_type)
      << ", \"MGRTS_FAULT_INJECTION\": " << d.fault_injection
      << ", \"loadavg_1m\": " << d.loadavg_1m << "}";
  return out.str();
}

}  // namespace fixedbench
