// The resident solver daemon's socket front-end: an AF_UNIX accept loop
// fanning connections out over a support::ThreadPool.  It is the one daemon
// of both the serving layer and the distributed batch layer: "solve",
// "ping", "health" and "shutdown" go through the in-process Service
// (serve/service.hpp), and "shard" requests (serve/shard.hpp) stream their
// rows back from dist::execute_shard on the connection's handler thread.
//
// Containment at this layer (DESIGN.md §13):
//   * each connection handler converts frame/transport failures into tagged
//     "error" responses where a response is still possible, and otherwise
//     just drops the connection — the process never dies with a client;
//   * every in-flight request runs behind a per-request CancelToken linked
//     to the server-wide stop token, so stop() and shutdown requests abort
//     work cooperatively instead of abandoning threads;
//   * a PR6-style heartbeat watchdog walks the in-flight solve registry
//     and culls handlers whose solver heartbeat stands still for
//     `watchdog_stall_ms` — a wedged (or kStall-fault-injected) solve
//     degrades to a kTimeout/kCancelled response instead of pinning a
//     worker forever.  Shards are not registered: the coordinator culls
//     stalled shards from their beat stream (DESIGN.md §16).
//
// Shard streaming: a beat-sender thread samples the executor's progress
// every `beat_interval_ms` and interleaves "shard-beat" frames with the
// "shard-row" stream (writes are mutex-serialized per connection).  When a
// write fails (the coordinator culled us, or died), the shard's cancel
// token fires, the in-flight solve aborts at its next deadline poll, and
// the handler drops the connection — the coordinator's re-dispatch owns
// the indices from then on.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/service.hpp"
#include "support/socket.hpp"
#include "support/thread_pool.hpp"

namespace mgrts::serve {

struct ServerOptions {
  /// Filesystem path of the AF_UNIX socket; a stale file is replaced.
  std::string socket_path = "/tmp/mgrts.sock";
  /// Connection-handler fan-out (also the max concurrent connections; the
  /// listen backlog queues the rest).  Each handler that has run a solve
  /// or shard keeps its own malloc arena, so a fleet worker (one
  /// coordinator connection per batch) stays at two.
  std::size_t workers = 2;
  /// Cull threshold for the stall watchdog; 0 disables it.
  std::int64_t watchdog_stall_ms = 5'000;
  /// Per-read timeout on idle connections — a poll point for the stop
  /// flag, not a client deadline (the loop continues on timeout).
  std::int64_t poll_interval_ms = 200;
  /// Cadence of "shard-beat" frames while a shard runs.
  std::int64_t beat_interval_ms = 100;
  ServiceOptions service;
};

class Server {
 public:
  /// Binds the socket immediately (throws support::SocketError on failure);
  /// serving starts with run() or start().
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Accept loop; blocks until stop() or an accepted "shutdown" request,
  /// then drains in-flight handlers and returns.
  void run();

  /// Runs the accept loop on a background thread (tests, the quickstart
  /// and in-process fleets; the daemon binary calls run() directly).
  void start();

  /// Requests a graceful stop: stop accepting, cancel in-flight requests
  /// via their linked tokens, join.  Idempotent.
  void stop();

  [[nodiscard]] Service& service() noexcept { return service_; }
  [[nodiscard]] const std::string& socket_path() const noexcept {
    return options_.socket_path;
  }
  /// Handlers the watchdog culled for a stalled heartbeat.
  [[nodiscard]] std::int64_t watchdog_culled() const noexcept {
    return watchdog_culled_.load(std::memory_order_relaxed);
  }

 private:
  /// One in-flight solve visible to the watchdog.
  struct RequestSlot {
    std::shared_ptr<std::atomic<std::uint64_t>> heartbeat;
    support::CancelToken token;
    std::uint64_t last_beat = 0;
    std::chrono::steady_clock::time_point last_change;
    bool culled = false;
  };

  void handle_connection(support::Fd connection);
  /// Streams one shard request's rows, beats and trailer on `connection`;
  /// returns false when the connection is no longer usable.
  bool handle_shard(const support::Fd& connection, const std::string& payload);
  void watchdog_loop();
  /// Sets stopping_, wakes the watchdog and the accept loop, and cancels
  /// the stop token.
  void begin_stop();

  ServerOptions options_;
  Service service_;
  support::Fd listener_;
  support::CancelToken stop_token_ = support::CancelToken::make();
  std::mutex stop_mutex_;  // guards stopping_ writes, for stop_cv_ waiters
  std::condition_variable stop_cv_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::int64_t> watchdog_culled_{0};

  std::mutex slots_mutex_;
  std::vector<std::shared_ptr<RequestSlot>> slots_;

  std::unique_ptr<support::ThreadPool> pool_;
  std::thread watchdog_;
  std::thread accept_thread_;  // start() only
};

}  // namespace mgrts::serve
