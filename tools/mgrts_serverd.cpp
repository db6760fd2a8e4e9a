// mgrts_serverd — the resident schedulability solver daemon (DESIGN.md §13)
// and the shard worker of the distributed batch layer (DESIGN.md §16).
//
// Serves solve/shard/health/ping/shutdown requests on an AF_UNIX socket.
// The --fault-* flags arm the deterministic process-wide FaultInjector
// before serving starts, which is how the CI chaos smokes prove the
// containment story end-to-end: with faults firing inside the solver,
// every solve still gets a tagged response, a stalled shard is culled and
// re-dispatched by the coordinator, and the process exits cleanly on
// "shutdown".
#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/server.hpp"
#include "support/fault.hpp"

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "\n"
      "Serves solve, shard (mgrts_coordd's fleet batches), health, ping\n"
      "and shutdown requests.\n"
      "\n"
      "  --socket PATH            AF_UNIX socket path (default "
      "/tmp/mgrts.sock)\n"
      "  --workers N              connection-handler threads (default 2)\n"
      "  --default-timeout-ms MS  budget for requests without timeout-ms\n"
      "  --max-timeout-ms MS      hard ceiling on any request budget\n"
      "  --cache-capacity N       verdict-cache entries; 0 disables\n"
      "  --watchdog-stall-ms MS   cull wedged handlers after MS; 0 off\n"
      "\n"
      "chaos (deterministic fault injection, for the CI smoke):\n"
      "  --fault-seed S           arm the injector with this seed\n"
      "  --fault-rate R           per-evaluation firing probability [0,1]\n"
      "  --fault-sites LIST       comma list: flow-network,job-table,\n"
      "                           schedule-table,csp-var-budget,deadline,\n"
      "                           propagator,stall (kCancel is sticky and\n"
      "                           not servable; it is rejected here)\n"
      "  --fault-max N            total fault cap (-1 unlimited)\n"
      "  --fault-stall-cap-ms MS  upper bound on one injected stall\n",
      argv0);
}

std::int64_t parse_int(const char* flag, const char* text) {
  try {
    std::size_t used = 0;
    const std::int64_t value = std::stoll(text, &used);
    if (used != std::strlen(text)) throw std::invalid_argument("trailing");
    return value;
  } catch (const std::exception&) {
    std::fprintf(stderr, "mgrts_serverd: %s expects an integer, got '%s'\n",
                 flag, text);
    std::exit(2);
  }
}

unsigned parse_sites(const std::string& list) {
  using mgrts::support::FaultSite;
  unsigned mask = 0;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = list.find(',', pos);
    const std::string name =
        list.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? list.size() + 1 : comma + 1;
    if (name.empty()) continue;
    bool found = false;
    for (int s = 0; s < mgrts::support::kFaultSiteCount; ++s) {
      const auto site = static_cast<FaultSite>(s);
      if (name == mgrts::support::to_string(site)) {
        if (site == FaultSite::kCancel) {
          // A fired kCancel is sticky on its target token; in a resident
          // daemon it would degrade every later request sharing the plan's
          // target.  The chaos soak covers kCancel in-process instead.
          std::fprintf(stderr,
                       "mgrts_serverd: fault site 'cancel' is not servable "
                       "in a resident daemon\n");
          std::exit(2);
        }
        mask |= mgrts::support::FaultPlan::mask(site);
        found = true;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr, "mgrts_serverd: unknown fault site '%s'\n",
                   name.c_str());
      std::exit(2);
    }
  }
  return mask;
}

}  // namespace

int main(int argc, char** argv) {
  mgrts::serve::ServerOptions options;
  mgrts::support::FaultPlan plan;
  bool arm = false;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "mgrts_serverd: %s needs a value\n",
                     flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--help" || flag == "-h") {
      usage(argv[0]);
      return 0;
    } else if (flag == "--socket") {
      options.socket_path = value();
    } else if (flag == "--workers") {
      options.workers = static_cast<std::size_t>(
          std::max<std::int64_t>(1, parse_int("--workers", value())));
    } else if (flag == "--default-timeout-ms") {
      options.service.default_timeout_ms =
          parse_int("--default-timeout-ms", value());
    } else if (flag == "--max-timeout-ms") {
      options.service.max_timeout_ms = parse_int("--max-timeout-ms", value());
    } else if (flag == "--cache-capacity") {
      options.service.cache.capacity = static_cast<std::size_t>(
          std::max<std::int64_t>(0, parse_int("--cache-capacity", value())));
    } else if (flag == "--watchdog-stall-ms") {
      options.watchdog_stall_ms = parse_int("--watchdog-stall-ms", value());
    } else if (flag == "--fault-seed") {
      plan.seed = static_cast<std::uint64_t>(parse_int("--fault-seed", value()));
      arm = true;
    } else if (flag == "--fault-rate") {
      plan.rate = std::atof(value());
      arm = true;
    } else if (flag == "--fault-sites") {
      plan.sites = parse_sites(value());
      arm = true;
    } else if (flag == "--fault-max") {
      plan.max_faults = parse_int("--fault-max", value());
    } else if (flag == "--fault-stall-cap-ms") {
      plan.stall_cap_ms = parse_int("--fault-stall-cap-ms", value());
    } else {
      std::fprintf(stderr, "mgrts_serverd: unknown flag '%s'\n", flag.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  // A client that vanishes mid-reply must be a SocketError on the handler
  // thread, not a process kill (write_all uses MSG_NOSIGNAL, but belt and
  // braces for any libc path that raises SIGPIPE anyway).
  std::signal(SIGPIPE, SIG_IGN);

  if (arm) {
    if (plan.sites == 0 || plan.rate <= 0.0) {
      std::fprintf(stderr,
                   "mgrts_serverd: --fault-seed/--fault-rate/--fault-sites "
                   "must be given together\n");
      return 2;
    }
    mgrts::support::FaultInjector::arm(plan);
    std::printf("mgrts_serverd: fault injector armed (seed=%llu rate=%g "
                "sites=0x%x)\n",
                static_cast<unsigned long long>(plan.seed), plan.rate,
                plan.sites);
  }

  try {
    mgrts::serve::Server server(options);
    std::printf("mgrts_serverd: serving on %s (%zu workers)\n",
                server.socket_path().c_str(), options.workers);
    std::fflush(stdout);
    server.run();
    const auto counters = server.service().counters();
    std::printf(
        "mgrts_serverd: shutdown after %lld requests (%lld solved, %lld "
        "degraded, %lld errors, %lld cache hits, %lld culled; %lld shards, "
        "%lld rows, %lld aborted, %lld refused)\n",
        static_cast<long long>(counters.requests),
        static_cast<long long>(counters.solved),
        static_cast<long long>(counters.degraded),
        static_cast<long long>(counters.parse_errors +
                               counters.validation_errors +
                               counters.protocol_errors +
                               counters.internal_errors),
        static_cast<long long>(counters.cache_hits),
        static_cast<long long>(server.watchdog_culled()),
        static_cast<long long>(counters.shards),
        static_cast<long long>(counters.rows),
        static_cast<long long>(counters.aborted),
        static_cast<long long>(counters.refused));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mgrts_serverd: fatal: %s\n", e.what());
    return 1;
  }
}
