#include "serve/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "runtime/scheme.hpp"
#include "runtime/wire.hpp"
#include "support/contracts.hpp"

namespace radiocast::serve {

namespace {

using support::Json;

Json make_frame(const char* type) {
  Json j(Json::Object{});
  j.set("v", Json(runtime::wire::kWireVersion));
  j.set("type", Json(std::string(type)));
  return j;
}

Json cache_stats_json(const runtime::PlanCacheStats& s) {
  Json j(Json::Object{});
  j.set("plan_hits", Json(s.plan_hits));
  j.set("plan_misses", Json(s.plan_misses));
  j.set("plan_store_hits", Json(s.plan_store_hits));
  j.set("plan_evictions", Json(s.plan_evictions));
  j.set("compiled_hits", Json(s.compiled_hits));
  j.set("compiled_misses", Json(s.compiled_misses));
  j.set("compiled_store_hits", Json(s.compiled_store_hits));
  j.set("compiled_evictions", Json(s.compiled_evictions));
  return j;
}

/// write() until done; false on a broken pipe / closed peer.
bool write_all(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Server::Server(runtime::SweepRunner& runner, ServerOptions options)
    : runner_(runner), options_(std::move(options)) {
  RC_EXPECTS_MSG(::pipe2(wake_fds_, O_CLOEXEC | O_NONBLOCK) == 0,
                 "pipe2() failed");
}

Server::~Server() {
  stop();
  ::close(wake_fds_[0]);
  ::close(wake_fds_[1]);
}

void Server::request_stop() noexcept {
  stop_requested_.store(true);
  const char byte = 1;
  // A full pipe already holds a wake-up; nothing else can fail usefully.
  [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &byte, 1);
}

void Server::start() {
  RC_EXPECTS_MSG(!running(), "server already started");
  int fd = -1;
  if (!options_.unix_path.empty()) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    RC_EXPECTS_MSG(fd >= 0, "socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    RC_EXPECTS_MSG(options_.unix_path.size() < sizeof(addr.sun_path),
                   "unix socket path too long: " + options_.unix_path);
    std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(options_.unix_path.c_str());  // stale socket from a past run
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      RC_EXPECTS_MSG(false, "bind failed on " + options_.unix_path);
    }
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    RC_EXPECTS_MSG(fd >= 0, "socket() failed");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options_.tcp_port);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      RC_EXPECTS_MSG(false, "bind failed on loopback port " +
                                std::to_string(options_.tcp_port));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
    bound_port_ = ntohs(bound.sin_port);
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    RC_EXPECTS_MSG(false, "listen failed");
  }
  // Drop wake-ups left over from an earlier run of this server.
  char drained[64];
  while (::read(wake_fds_[0], drained, sizeof(drained)) > 0) {
  }
  stop_requested_.store(false);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    listen_fd_ = fd;
    running_ = true;
    stopping_ = false;
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::stop() {
  const std::lock_guard<std::mutex> serial(stop_mu_);
  request_stop();  // wakes a wait() blocked on another thread
  std::thread accept_thread;
  std::vector<std::thread> workers;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!running_ && accept_thread_.joinable() == false &&
        workers_.empty()) {
      return;
    }
    stopping_ = true;
    if (listen_fd_ >= 0) {
      ::shutdown(listen_fd_, SHUT_RDWR);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    for (const auto& conn : conns_) ::shutdown(conn->fd, SHUT_RDWR);
    accept_thread = std::move(accept_thread_);
    workers = std::move(workers_);
  }
  if (accept_thread.joinable()) accept_thread.join();
  // A connection thread mid-batch finishes it first; its response write
  // fails on the shut-down socket, which is fine.
  for (std::thread& w : workers) {
    if (w.joinable()) w.join();
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& conn : conns_) ::close(conn->fd);
    conns_.clear();
    running_ = false;
  }
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
}

void Server::wait() {
  while (!stop_requested_.load() && running()) {
    pollfd wake{wake_fds_[0], POLLIN, 0};
    if (::poll(&wake, 1, -1) < 0 && errno != EINTR) break;
  }
  stop();
}

bool Server::running() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

ServerStats Server::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void Server::accept_loop() {
  while (true) {
    int listen_fd = -1;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
      listen_fd = listen_fd_;
    }
    if (listen_fd < 0) return;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed by stop()
    }
    // Request/response framing over loopback: Nagle + delayed ACK adds tens
    // of milliseconds per exchange; disable it.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    ++stats_.connections;
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conns_.push_back(conn);
    workers_.emplace_back([this, conn] { serve_connection(conn); });
  }
}

void Server::serve_connection(const std::shared_ptr<Conn>& conn) {
  runtime::wire::FrameReader frames(options_.max_frame_bytes);
  char buf[64 * 1024];
  bool open = true;
  while (open) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    frames.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    if (frames.bad()) break;  // oversized frame: unrecoverable framing
    while (open) {
      const auto payload = frames.next();
      if (!payload) break;
      const auto parsed = support::parse_json(*payload);
      if (!parsed.ok) {
        send_error(conn, Json(), "bad_json", "bad JSON: " + parsed.error);
        continue;
      }
      open = handle(conn, parsed.value);
    }
  }
  ::shutdown(conn->fd, SHUT_RDWR);
  // The fd itself is closed by stop() (it stays in conns_ so shutdown can
  // interrupt a blocked recv); nothing else to release here.  A shutdown
  // request only asks: the owner's wait() stops the server and joins this
  // thread.
  if (!open) request_stop();
}

bool Server::handle(const std::shared_ptr<Conn>& conn, const Json& request) {
  const Json& id = request.get("id");
  const std::uint64_t version = request.get("v").as_uint(1);
  if (version > runtime::wire::kWireVersion) {
    send_error(conn, id, "bad_version",
               "wire version " + std::to_string(version) + " not supported");
    return true;
  }
  const std::string& type = request.get("type").as_string();
  if (type == "batch") {
    handle_batch(conn, request);
    return true;
  }
  if (type == "ping") {
    Json pong = make_frame("pong");
    if (!id.is_null()) pong.set("id", id);
    send_json(conn, pong);
    return true;
  }
  if (type == "stats") {
    Json out = make_frame("stats");
    if (!id.is_null()) out.set("id", id);
    const ServerStats s = stats();
    Json server_json(Json::Object{});
    server_json.set("connections", Json(s.connections));
    server_json.set("batches", Json(s.batches));
    server_json.set("specs_run", Json(s.specs_run));
    server_json.set("errors", Json(s.errors));
    server_json.set("graphs", Json(std::uint64_t{runner_.graph_count()}));
    out.set("server", std::move(server_json));
    // The cache's resident size, beside the traffic counters the done
    // frames carry: how much memory the daemon's plans hold.
    Json cache_json = cache_stats_json(runner_.cache_stats());
    const runtime::PlanCache& cache = runner_.cache();
    cache_json.set("bytes", Json(std::uint64_t{cache.bytes()}));
    cache_json.set("plans", Json(std::uint64_t{cache.plan_count()}));
    cache_json.set("compiled", Json(std::uint64_t{cache.compiled_count()}));
    out.set("cache", std::move(cache_json));
    if (const runtime::PlanStore* store = runner_.store()) {
      const auto st = store->stats();
      Json store_json(Json::Object{});
      store_json.set("dir", Json(store->directory()));
      store_json.set("reads", Json(st.reads));
      store_json.set("read_hits", Json(st.read_hits));
      store_json.set("rejected", Json(st.rejected));
      store_json.set("writes", Json(st.writes));
      store_json.set("orphans_swept", Json(st.orphans_swept));
      store_json.set("records_evicted", Json(st.records_evicted));
      store_json.set("records", Json(std::uint64_t{store->entry_count()}));
      store_json.set("bytes", Json(std::uint64_t{store->total_bytes()}));
      out.set("store", std::move(store_json));
    }
    send_json(conn, out);
    return true;
  }
  if (type == "compact") {
    handle_compact(conn, request);
    return true;
  }
  if (type == "shutdown") {
    Json bye = make_frame("bye");
    if (!id.is_null()) bye.set("id", id);
    send_json(conn, bye);
    return false;
  }
  send_error(conn, id, "bad_request",
             "unknown request type: \"" + type + "\"");
  return true;
}

void Server::handle_batch(const std::shared_ptr<Conn>& conn,
                          const Json& request) {
  const Json id = request.get("id");
  const Json& specs_json = request.get("specs");
  if (specs_json.kind() != Json::Kind::kArray) {
    send_error(conn, id, "bad_request", "batch needs a \"specs\" array");
    return;
  }
  const Json& encoding = request.get("encoding");
  bool binary = false;
  if (!encoding.is_null()) {
    if (encoding.as_string() == "binary") {
      binary = true;
    } else if (encoding.as_string() != "json") {
      send_error(conn, id, "bad_request",
                 "unknown result encoding: \"" + encoding.as_string() + "\"");
      return;
    }
  }
  // Decode and validate the whole batch before running any of it: a batch
  // either runs completely or is rejected with the first offending index.
  // Scheme names are checked here too, so an unregistered scheme is a
  // decode-time `bad_spec` rather than a `run_failed`.
  std::vector<runtime::ExperimentSpec> specs;
  specs.reserve(specs_json.as_array().size());
  for (std::size_t i = 0; i < specs_json.as_array().size(); ++i) {
    auto decoded = runtime::wire::spec_from_json(specs_json.as_array()[i]);
    if (!decoded.ok) {
      send_error(conn, id, "bad_spec",
                 "spec " + std::to_string(i) + ": " + decoded.error);
      return;
    }
    if (runtime::SchemeRegistry::instance().find(decoded.value.scheme) ==
        nullptr) {
      send_error(conn, id, "bad_spec",
                 "spec " + std::to_string(i) + ": unregistered scheme \"" +
                     decoded.value.scheme + "\"");
      return;
    }
    specs.push_back(std::move(decoded.value));
  }

  std::vector<runtime::BatchResults> sliced;
  try {
    sliced = runner_.run_merged({&specs});
  } catch (const ContractViolation& violation) {
    // Unresolvable graph ref, out-of-range source... the batch is rejected,
    // the connection and server stay up.  The frame carries the violation
    // without its source location.
    send_error(conn, id, "run_failed", violation.text());
    return;
  }
  send_batch_results(conn, id, binary, sliced[0]);
}

void Server::handle_compact(const std::shared_ptr<Conn>& conn,
                            const Json& request) {
  const Json& id = request.get("id");
  runtime::PlanStore* store = runner_.store();
  if (store == nullptr) {
    send_error(conn, id, "no_store",
               "no plan store attached; start with --store");
    return;
  }
  const std::uint64_t max_bytes = request.get("max_bytes").as_uint(0);
  const std::size_t evicted =
      store->compact(static_cast<std::size_t>(max_bytes));
  Json out = make_frame("compacted");
  if (!id.is_null()) out.set("id", id);
  out.set("records_evicted", Json(std::uint64_t{evicted}));
  out.set("records", Json(std::uint64_t{store->entry_count()}));
  out.set("bytes", Json(std::uint64_t{store->total_bytes()}));
  send_json(conn, out);
}

void Server::send_batch_results(const std::shared_ptr<Conn>& conn,
                                const Json& id, bool binary,
                                const runtime::BatchResults& batch) {
  const std::vector<runtime::SchemeResult>& results = batch.results;
  // Every frame of the response goes into one buffer and out with one
  // write, so the frames stay adjacent on the wire.
  std::string out;
  if (binary) {
    std::vector<runtime::wire::BinaryResult> records;
    records.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      records.push_back(
          runtime::wire::binary_result(results[i], batch.spec_wall_ns[i]));
    }
    Json announce = make_frame("results");
    if (!id.is_null()) announce.set("id", id);
    announce.set("count", Json(std::uint64_t{results.size()}));
    announce.set("encoding", Json("binary"));
    out += runtime::wire::frame(announce.dump());
    out += runtime::wire::frame(runtime::wire::encode_results_binary(records));
  } else {
    for (std::size_t i = 0; i < results.size(); ++i) {
      Json frame = make_frame("result");
      if (!id.is_null()) frame.set("id", id);
      frame.set("index", Json(std::uint64_t{i}));
      frame.set("result", runtime::wire::to_json(results[i]));
      out += runtime::wire::frame(frame.dump());
    }
  }
  Json done = make_frame("done");
  if (!id.is_null()) done.set("id", id);
  done.set("count", Json(std::uint64_t{results.size()}));
  done.set("stats", cache_stats_json(runner_.cache_stats()));
  out += runtime::wire::frame(done.dump());
  // Count the batch before the done frame goes out: the done frame is the
  // client's synchronization point, so counters it can observe afterwards
  // (the stats frame, Server::stats()) must already include this batch.
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.batches;
    stats_.specs_run += results.size();
  }
  write_all(conn->fd, out);
}

void Server::send_json(const std::shared_ptr<Conn>& conn,
                       const Json& message) {
  write_all(conn->fd, runtime::wire::frame(message.dump()));
}

void Server::send_error(const std::shared_ptr<Conn>& conn, const Json& id,
                        const char* code, const std::string& error) {
  Json frame = make_frame("error");
  if (!id.is_null()) frame.set("id", id);
  frame.set("code", Json(std::string(code)));
  frame.set("error", Json(error));
  send_json(conn, frame);
  count_error();
}

void Server::count_error() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++stats_.errors;
}

}  // namespace radiocast::serve
