// Former names of the fleet worker daemon.  serve::Server serves "shard"
// requests itself (DESIGN.md §16), so a shard worker is just a solve
// daemon.  These aliases remain only because the fixed-work benchmark
// (fixedbench/src/bench.hpp, util.cpp), the existing dist suites, the
// quickstart and bench_micro name these types and must compile unchanged.
#pragma once

#include "serve/server.hpp"

namespace mgrts::dist {

using WorkerOptions = serve::ServerOptions;
using WorkerServer = serve::Server;

}  // namespace mgrts::dist
