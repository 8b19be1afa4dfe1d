/// \file server.hpp
/// \brief radiocast_serve's daemon core: a socket front end on SweepRunner.
///
/// The paper's schemes amortize one expensive labeling over arbitrarily many
/// executions — an economy a batch CLI keeps discarding at process exit.
/// `Server` holds the `SweepRunner` (and its `PlanCache` / `PlanStore`)
/// alive behind a Unix or loopback-TCP socket and serves batched
/// `ExperimentSpec` requests over it, so every client, and every restart
/// with a plan store attached, starts from the warm regime.
///
/// Wire protocol (u32 little-endian length-prefixed JSON frames, see
/// runtime/wire.hpp for the framing and the spec/result encodings):
///
///   -> {"v":2,"type":"batch","id":7,"specs":[<spec>...]}
///   <- {"v":2,"type":"result","id":7,"index":0,"result":<result>}   (per
///      spec, in spec order, streamed as soon as the batch finishes)
///   <- {"v":2,"type":"done","id":7,"count":N,"stats":<cache stats>}
///
///   A batch may opt into the compact binary result encoding with
///   "encoding":"binary" (absent or "json" = JSON results above):
///   <- {"v":2,"type":"results","id":7,"count":N,"encoding":"binary"}
///   <- one RAW frame whose payload is radiocast-resbin/1 (wire.hpp): the
///      N per-spec records, in spec order
///   <- the usual done frame
///
///   -> {"v":2,"type":"ping"}            <- {"v":2,"type":"pong"}
///   -> {"v":2,"type":"stats"}           <- {"v":2,"type":"stats",
///      "server":{connections, batches, specs_run, errors, graphs},
///      "cache":{<cache stats>, bytes, plans, compiled}, "store":{...}}
///      ("store" only with a store attached; `bytes` is the plan cache's
///      resident footprint)
///   -> {"v":2,"type":"compact","max_bytes":N}
///                                       <- {"v":2,"type":"compacted",
///      "records_evicted":K,"records":R,"bytes":B}   (plan-store GC)
///   -> {"v":2,"type":"shutdown"}        <- {"v":2,"type":"bye"}  (the
///      owner's `wait()` then stops accepting and drains)
///
/// Any malformed frame, unknown type, undecodable spec, unregistered
/// scheme, or contract violation while running answers
/// {"v":2,"type":"error","id":...,"code":"...","error":"..."} — `code` is
/// stable and machine-readable (bad_json / bad_version / bad_request /
/// bad_spec / run_failed / no_store); the connection stays usable; only
/// framing-level poison (oversized frame) closes it.
///
/// Concurrency: one accept thread plus one thread per connection.  Each
/// connection thread decodes its batch, runs it on the shared `SweepRunner`
/// (whose pool the batches of every connection fill together), and writes
/// the whole response with one send.  A connection handles its frames one
/// at a time, so its responses arrive in the order it sent its batches, and
/// a failing batch fails only itself.  Only the owning thread stops the
/// server (`wait()`, `stop()`, the destructor); a shutdown frame or a
/// signal merely requests it, so no thread ever joins or destroys what
/// another is still using.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/sweep.hpp"
#include "support/json.hpp"

namespace radiocast::serve {

struct ServerOptions {
  /// Unix-domain socket path; non-empty selects the Unix listener.
  std::string unix_path;
  /// Loopback TCP port; used when `unix_path` is empty (0 = ephemeral,
  /// read the bound port back with `tcp_port()`).
  std::uint16_t tcp_port = 0;
  /// Frames larger than this poison the connection (decode bombs).
  std::size_t max_frame_bytes = 1 << 26;
};

struct ServerStats {
  std::uint64_t connections = 0;
  std::uint64_t batches = 0;
  std::uint64_t specs_run = 0;
  std::uint64_t errors = 0;  ///< error frames sent
};

class Server {
 public:
  /// The runner (graphs, cache, attached store) outlives the server.
  Server(runtime::SweepRunner& runner, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket and starts the accept thread.  Violates a
  /// precondition when the address cannot be bound.
  void start();

  /// Stops accepting, closes every live connection, and joins all threads
  /// (a batch already running finishes first).  Idempotent; also invoked by
  /// the destructor.  Owning thread only: never from a connection thread.
  void stop();

  /// Asks the owner's `wait()` to stop the server.  Async-signal-safe: an
  /// atomic flag plus one write() to a self-pipe.
  void request_stop() noexcept;

  /// Blocks until a stop is requested (a shutdown frame, `request_stop`,
  /// or `stop()` on another thread), then stops the server on the calling
  /// thread.  Returns at once when the server is not running.  The daemon
  /// main calls this after start().
  void wait();

  bool running() const;
  /// The bound TCP port (valid after start() on a TCP listener).
  std::uint16_t tcp_port() const noexcept { return bound_port_; }
  const std::string& unix_path() const noexcept { return options_.unix_path; }
  ServerStats stats() const;

 private:
  /// One live connection.  Only its own thread writes to it, so frames
  /// never interleave.
  struct Conn {
    int fd = -1;
  };

  void accept_loop();
  void serve_connection(const std::shared_ptr<Conn>& conn);
  /// Handles one decoded request frame; returns false when the connection
  /// asked the whole server to shut down.
  bool handle(const std::shared_ptr<Conn>& conn,
              const support::Json& request);
  void handle_batch(const std::shared_ptr<Conn>& conn,
                    const support::Json& request);
  void handle_compact(const std::shared_ptr<Conn>& conn,
                      const support::Json& request);
  /// Sends one completed batch back in a single write: result frames (JSON
  /// or the binary announce + raw resbin frame) then the done frame.
  void send_batch_results(const std::shared_ptr<Conn>& conn,
                          const support::Json& id, bool binary,
                          const runtime::BatchResults& batch);
  void send_json(const std::shared_ptr<Conn>& conn,
                 const support::Json& message);
  void send_error(const std::shared_ptr<Conn>& conn, const support::Json& id,
                  const char* code, const std::string& error);
  void count_error();

  runtime::SweepRunner& runner_;
  ServerOptions options_;

  mutable std::mutex mu_;  ///< guards everything below
  ServerStats stats_;
  bool running_ = false;
  bool stopping_ = false;
  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::vector<std::shared_ptr<Conn>> conns_;

  /// Serializes stop() bodies: a second caller returns only once the
  /// first has joined everything.
  std::mutex stop_mu_;
  std::atomic<bool> stop_requested_{false};
  /// Self-pipe waking `wait()`; the write end is non-blocking.
  int wake_fds_[2] = {-1, -1};
};

}  // namespace radiocast::serve
