// mgrts_coordd — the shard coordinator of the distributed batch layer
// (DESIGN.md §16).
//
// Partitions a generator batch into index-list shards, dispatches them to
// mgrts_serverd daemons over the serve wire, culls/re-dispatches
// stragglers by heartbeat, and merges the streamed rows into one batch
// result — record-identical to a single-box run by construction.
//
// --verify-local is the CI smoke's teeth: after the fleet run, the same
// batch runs in-process through the identical shard executor and every
// per-index record is compared field by field.  Any mismatch exits
// non-zero.  Wall-clock budgets make timeout boundaries timing-sensitive
// (true of any budgeted run); pass --max-nodes with a generous
// --time-limit-ms for a fully deterministic comparison, exactly like the
// determinism tests do.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "dist/coord.hpp"
#include "exp/sharded.hpp"
#include "support/deadline.hpp"

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s --workers SOCK[,SOCK...] [options]\n"
      "\n"
      "  --workers LIST        comma-separated worker socket paths\n"
      "                        (empty/omitted = run in-process, single-box)\n"
      "  --specs LIST          solver line-up, registry names (default\n"
      "                        csp2-dmc; see exp::known_spec_names)\n"
      "  --instances N         generator-stream length (default 32)\n"
      "  --seed S              stream seed (default 20090911)\n"
      "  --tasks N             tasks per instance (default 10)\n"
      "  --processors M        processors (default 5)\n"
      "  --tmax T              Tmax (default 7)\n"
      "  --time-limit-ms MS    per-run wall budget (default 1000)\n"
      "  --max-nodes N         per-run node budget (-1 = spec default)\n"
      "  --max-attempts N      worker-side retry attempts (default 1)\n"
      "  --shards N            shard count (0 = two per worker)\n"
      "  --stall-ms MS         straggler cull threshold (default 5000)\n"
      "  --verify-local        re-run in-process and compare records;\n"
      "                        exit 1 on any mismatch\n",
      argv0);
}

std::int64_t parse_int(const char* flag, const char* text) {
  try {
    std::size_t used = 0;
    const std::int64_t value = std::stoll(text, &used);
    if (used != std::strlen(text)) throw std::invalid_argument("trailing");
    return value;
  } catch (const std::exception&) {
    std::fprintf(stderr, "mgrts_coordd: %s expects an integer, got '%s'\n",
                 flag, text);
    std::exit(2);
  }
}

std::vector<std::string> split_list(const std::string& list) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = list.find(',', pos);
    const std::string item =
        list.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? list.size() + 1 : comma + 1;
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Budget-insensitive run comparison: the semantic fields always, the
/// deterministic search counters unless a wall-clock expiry is involved
/// (a kDeadline boundary is timing-shaped even on one box).
bool runs_match(const mgrts::exp::RunRecord& a, const mgrts::exp::RunRecord& b,
                std::string* why) {
  const auto fail = [&](const std::string& reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  if (a.verdict != b.verdict) return fail("verdict");
  if (a.complete != b.complete) return fail("complete");
  if (a.witness_ok != b.witness_ok) return fail("witness_ok");
  if (a.failure_cause != b.failure_cause) return fail("failure_cause");
  if (a.decided_by != b.decided_by) return fail("decided_by");
  const bool wall_shaped =
      a.failure_cause == mgrts::core::FailureCause::kDeadline ||
      a.failure_cause == mgrts::core::FailureCause::kCancelled ||
      a.verdict == mgrts::core::Verdict::kTimeout;
  if (!wall_shaped) {
    if (a.nodes != b.nodes) return fail("nodes");
    if (a.nogoods.recorded != b.nogoods.recorded ||
        a.nogoods.replay_hits != b.nogoods.replay_hits ||
        a.nogoods.lits_after != b.nogoods.lits_after) {
      return fail("nogood stats");
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  mgrts::exp::BatchOptions batch;
  batch.instances = 32;
  batch.seed = 20090911;
  mgrts::dist::FleetOptions fleet;
  std::vector<std::string> specs = {"csp2-dmc"};
  std::int64_t time_limit_ms = 1'000;
  bool verify_local = false;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "mgrts_coordd: %s needs a value\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--help" || flag == "-h") {
      usage(argv[0]);
      return 0;
    } else if (flag == "--workers") {
      fleet.workers = split_list(value());
    } else if (flag == "--specs") {
      specs = split_list(value());
    } else if (flag == "--instances") {
      batch.instances = parse_int("--instances", value());
    } else if (flag == "--seed") {
      batch.seed = static_cast<std::uint64_t>(parse_int("--seed", value()));
    } else if (flag == "--tasks") {
      batch.generator.tasks =
          static_cast<std::int32_t>(parse_int("--tasks", value()));
    } else if (flag == "--processors") {
      batch.generator.processors =
          static_cast<std::int32_t>(parse_int("--processors", value()));
    } else if (flag == "--tmax") {
      batch.generator.t_max = parse_int("--tmax", value());
    } else if (flag == "--time-limit-ms") {
      time_limit_ms = parse_int("--time-limit-ms", value());
    } else if (flag == "--max-nodes") {
      fleet.max_nodes = parse_int("--max-nodes", value());
    } else if (flag == "--max-attempts") {
      fleet.max_attempts = static_cast<std::int32_t>(
          std::max<std::int64_t>(1, parse_int("--max-attempts", value())));
    } else if (flag == "--shards") {
      fleet.shards =
          static_cast<std::int32_t>(parse_int("--shards", value()));
    } else if (flag == "--stall-ms") {
      fleet.stall_ms = parse_int("--stall-ms", value());
    } else if (flag == "--verify-local") {
      verify_local = true;
    } else {
      std::fprintf(stderr, "mgrts_coordd: unknown flag '%s'\n", flag.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  try {
    mgrts::dist::FleetStats stats;
    mgrts::support::Stopwatch watch;
    const mgrts::exp::BatchResult fleet_result = mgrts::exp::run_batch_sharded(
        batch, specs, time_limit_ms, fleet, &stats);
    const double fleet_seconds = watch.seconds();

    for (std::size_t s = 0; s < fleet_result.labels.size(); ++s) {
      std::int64_t feasible = 0, infeasible = 0, overruns = 0;
      for (const auto& inst : fleet_result.instances) {
        const auto& run = inst.runs[s];
        if (run.found_schedule()) ++feasible;
        else if (run.proved_infeasible()) ++infeasible;
        else ++overruns;
      }
      std::printf("%-16s feasible %lld  infeasible %lld  overrun %lld\n",
                  fleet_result.labels[s].c_str(),
                  static_cast<long long>(feasible),
                  static_cast<long long>(infeasible),
                  static_cast<long long>(overruns));
    }
    std::printf(
        "fleet: %d workers, %d shards, %.2fs wall; redispatched %d "
        "(stalls %d, transport %d), duplicates %lld, local fallbacks %d\n",
        static_cast<int>(fleet.workers.size()), stats.shards, fleet_seconds,
        stats.redispatched, stats.stall_culls, stats.transport_failures,
        static_cast<long long>(stats.duplicate_rows), stats.local_fallbacks);

    if (stats.duplicate_rows != 0) {
      std::fprintf(stderr,
                   "mgrts_coordd: exactly-once merge violated (%lld "
                   "duplicate rows)\n",
                   static_cast<long long>(stats.duplicate_rows));
      return 1;
    }

    if (verify_local) {
      // Same run-shaping options (max_nodes above all), no workers: the
      // reference run must budget each solve exactly like the fleet did,
      // or hard instances legitimately diverge.
      mgrts::dist::FleetOptions local_fleet = fleet;
      local_fleet.workers.clear();
      const mgrts::exp::BatchResult local = mgrts::exp::run_batch_sharded(
          batch, specs, time_limit_ms, local_fleet, nullptr);
      if (local.instances.size() != fleet_result.instances.size()) {
        std::fprintf(stderr, "mgrts_coordd: verify-local: instance count "
                             "mismatch\n");
        return 1;
      }
      std::int64_t mismatches = 0;
      for (std::size_t k = 0; k < local.instances.size(); ++k) {
        const auto& a = fleet_result.instances[k];
        const auto& b = local.instances[k];
        if (a.index != b.index || a.runs.size() != b.runs.size()) {
          std::fprintf(stderr,
                       "mgrts_coordd: verify-local: row %zu shape mismatch\n",
                       k);
          ++mismatches;
          continue;
        }
        for (std::size_t s = 0; s < a.runs.size(); ++s) {
          std::string why;
          if (!runs_match(a.runs[s], b.runs[s], &why)) {
            std::fprintf(stderr,
                         "mgrts_coordd: verify-local: index %llu spec %s: "
                         "%s differs\n",
                         static_cast<unsigned long long>(a.index),
                         fleet_result.labels[s].c_str(), why.c_str());
            ++mismatches;
          }
        }
      }
      if (mismatches != 0) {
        std::fprintf(stderr,
                     "mgrts_coordd: verify-local FAILED (%lld mismatches)\n",
                     static_cast<long long>(mismatches));
        return 1;
      }
      std::printf("verify-local: fleet records match the single-box run\n");
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mgrts_coordd: fatal: %s\n", e.what());
    return 1;
  }
}
