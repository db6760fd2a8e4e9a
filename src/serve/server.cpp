#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "dist/shard_exec.hpp"
#include "serve/shard.hpp"
#include "serve/wire.hpp"
#include "support/error.hpp"

namespace mgrts::serve {

namespace {

/// True when the payload's kind line reads "shard".  Read without parsing
/// so a solve payload is parsed once, inside the Service.
bool is_shard_request(const std::string& payload) {
  static const std::string kShardLine = std::string(kProtoTag) + " shard\n";
  return payload.starts_with(kShardLine);
}

/// Sends one response frame; false when the peer is gone.
bool send_message(const support::Fd& connection, const Message& message) {
  try {
    send_frame(connection, format_message(message));
    return true;
  } catch (const support::SocketError&) {
    return false;
  }
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      service_(options_.service),
      listener_(support::listen_unix(options_.socket_path)),
      pool_(std::make_unique<support::ThreadPool>(
          std::max<std::size_t>(options_.workers, 1))) {
  if (options_.watchdog_stall_ms > 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

Server::~Server() {
  stop();
  std::remove(options_.socket_path.c_str());
}

void Server::run() {
  while (!stopping_.load(std::memory_order_relaxed) &&
         !service_.shutdown_requested()) {
    support::Fd connection =
        support::accept_unix(listener_, options_.poll_interval_ms);
    if (!connection.valid()) continue;  // timeout: poll the flags again
    auto shared = std::make_shared<support::Fd>(std::move(connection));
    pool_->submit([this, shared] { handle_connection(std::move(*shared)); });
  }
  // Graceful drain: no new connections, in-flight requests cancelled
  // cooperatively, handlers notice stopping_ at their next poll.
  begin_stop();
  pool_->wait_idle();
}

void Server::start() {
  accept_thread_ = std::thread([this] { run(); });
}

void Server::stop() {
  begin_stop();
  if (accept_thread_.joinable() &&
      accept_thread_.get_id() != std::this_thread::get_id()) {
    accept_thread_.join();
  }
  if (watchdog_.joinable() &&
      watchdog_.get_id() != std::this_thread::get_id()) {
    watchdog_.join();
  }
  pool_->wait_idle();
}

void Server::begin_stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stopping_.store(true, std::memory_order_relaxed);
  }
  stop_cv_.notify_all();
  stop_token_.cancel();
  // Wakes the accept loop's poll now instead of after poll_interval_ms; the
  // refused accept that follows reads as a miss and run() sees stopping_.
  listener_.shutdown();
}

void Server::handle_connection(support::Fd connection) {
  while (!stopping_.load(std::memory_order_relaxed)) {
    bool readable = false;
    try {
      readable = support::wait_readable(connection, options_.poll_interval_ms);
    } catch (const support::SocketError&) {
      return;
    }
    if (!readable) continue;  // idle: poll the stop flag

    std::string payload;
    try {
      // Once bytes are pending, a whole frame should follow promptly; the
      // bounded per-chunk timeout keeps a byte-dribbling peer from pinning
      // this worker past the watchdog's reach.
      if (!recv_frame(connection, payload, 10'000)) return;  // clean EOF
    } catch (const ProtocolError& e) {
      // Oversized/corrupt length: answer, then close — after a framing
      // error the stream offset is unreliable.
      (void)send_message(connection, make_error("protocol", e.what()));
      return;
    } catch (const support::SocketError&) {
      return;  // transport failure or mid-frame EOF: nothing to answer
    }

    if (is_shard_request(payload)) {
      if (!handle_shard(connection, payload)) return;
      continue;
    }

    auto slot = std::make_shared<RequestSlot>();
    slot->heartbeat = std::make_shared<std::atomic<std::uint64_t>>(0);
    slot->token = support::CancelToken::linked(stop_token_);
    slot->last_change = std::chrono::steady_clock::now();
    {
      std::lock_guard<std::mutex> lock(slots_mutex_);
      slots_.push_back(slot);
    }
    const std::string response =
        service_.handle(payload, RequestContext{slot->token, slot->heartbeat});
    {
      std::lock_guard<std::mutex> lock(slots_mutex_);
      slots_.erase(std::remove(slots_.begin(), slots_.end(), slot),
                   slots_.end());
    }

    try {
      send_frame(connection, response);
    } catch (const support::SocketError&) {
      return;  // peer vanished mid-answer; the solve result is simply lost
    }
    if (service_.shutdown_requested()) {
      begin_stop();  // "bye" sent: wake the accept loop, close our end
      return;
    }
  }
}

bool Server::handle_shard(const support::Fd& connection,
                          const std::string& payload) {
  ShardRequest request;
  try {
    request = parse_shard_request(parse_message(payload));
  } catch (const ProtocolError& e) {
    // Framing was intact, only the payload was malformed: answer and keep
    // the connection, as the Service does for a malformed solve.
    service_.count_shard(ShardEvent::kRefused);
    return send_message(connection, make_error("protocol", e.what()));
  }
  service_.count_shard(ShardEvent::kAccepted);

  dist::ShardProgress progress;
  const support::CancelToken cancel = support::CancelToken::linked(stop_token_);

  // All frames of one shard leave through this gate: row stream and beat
  // stream interleave on one connection, and the first failed write flips
  // the shard to aborted — the coordinator is gone, so the cancel token
  // stops the executor at its next poll instead of finishing unread work.
  std::mutex write_mutex;
  std::atomic<bool> write_failed{false};
  const auto send = [&](const Message& message) -> bool {
    std::lock_guard<std::mutex> lock(write_mutex);
    if (write_failed.load(std::memory_order_relaxed)) return false;
    try {
      send_frame(connection, format_message(message));
      return true;
    } catch (const std::exception&) {
      write_failed.store(true, std::memory_order_relaxed);
      cancel.cancel();
      return false;
    }
  };

  // The beater waits on `done_cv`, so the shard's end wakes it at once and
  // the trailer never waits out a beat interval.
  std::mutex done_mutex;
  std::condition_variable done_cv;
  bool done = false;
  std::thread beater([&] {
    const auto interval = std::chrono::milliseconds(
        std::max<std::int64_t>(options_.beat_interval_ms, 1));
    std::unique_lock<std::mutex> lock(done_mutex);
    while (!done_cv.wait_for(lock, interval, [&] { return done; })) {
      ShardBeat beat;
      beat.shard_id = request.shard_id;
      beat.beat = progress.beat();
      beat.done = progress.completed.load(std::memory_order_relaxed);
      beat.total = static_cast<std::int64_t>(request.indices.size());
      if (!send(encode_shard_beat(beat))) break;
    }
  });

  std::string refusal_kind;
  std::string refusal_text;
  dist::ShardExecution result;
  try {
    result = dist::execute_shard(request, cancel, &progress,
                                 [&](const exp::InstanceRecord& record) {
      ShardRow row;
      row.shard_id = request.shard_id;
      row.record = record;
      if (!send(encode_shard_row(row))) {
        throw support::SocketError("coordinator connection lost mid-shard");
      }
      service_.count_shard(ShardEvent::kRow);
    });
  } catch (const ValidationError& e) {
    refusal_kind = "validation";
    refusal_text = e.what();
  } catch (const support::SocketError&) {
    // Row write failed; fall through to the aborted path below.
  } catch (const std::exception& e) {
    refusal_kind = "internal";
    refusal_text = e.what();
  }

  {
    std::lock_guard<std::mutex> lock(done_mutex);
    done = true;
  }
  done_cv.notify_one();
  beater.join();

  if (write_failed.load(std::memory_order_relaxed)) {
    service_.count_shard(ShardEvent::kAborted);
    return false;
  }
  if (!refusal_kind.empty()) {
    service_.count_shard(ShardEvent::kRefused);
    return send(make_error(refusal_kind, refusal_text));
  }

  // The trailer carries the row count even for a cancelled shard (rows <
  // indices): the coordinator cross-checks and re-dispatches the shortfall
  // as a whole-shard retry.
  ShardDone trailer;
  trailer.shard_id = request.shard_id;
  trailer.rows = static_cast<std::int64_t>(result.rows.size());
  trailer.health = result.health;
  if (!send(encode_shard_done(trailer))) {
    service_.count_shard(ShardEvent::kAborted);
    return false;
  }
  return true;
}

void Server::watchdog_loop() {
  const std::int64_t stall_ms = options_.watchdog_stall_ms;
  const auto interval = std::chrono::milliseconds(
      std::clamp<std::int64_t>(stall_ms / 4, 5, 250));
  std::unique_lock<std::mutex> stop_lock(stop_mutex_);
  while (!stop_cv_.wait_for(stop_lock, interval, [this] {
    return stopping_.load(std::memory_order_relaxed);
  })) {
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(slots_mutex_);
    for (const auto& slot : slots_) {
      if (slot->culled) continue;
      const std::uint64_t beat =
          slot->heartbeat->load(std::memory_order_relaxed);
      if (beat != slot->last_beat) {
        slot->last_beat = beat;
        slot->last_change = now;
        continue;
      }
      // Only a request that has started polling (beat > 0) can stall; one
      // still parsing or queueing has no heartbeat to judge.
      if (beat > 0 &&
          now - slot->last_change >= std::chrono::milliseconds(stall_ms)) {
        slot->token.cancel();
        slot->culled = true;
        watchdog_culled_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

}  // namespace mgrts::serve
