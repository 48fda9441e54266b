// Socket front-end of the scheduler service: a single-threaded poll()
// reactor multiplexing any number of client sessions onto one
// ServiceCore (DESIGN.md section 14.2).
//
// Listens on a Unix-domain socket, a TCP endpoint, or both. Each session
// gets independent in/out buffers; requests are dispatched in arrival
// order per session (the protocol is strictly request/response per
// connection). A self-pipe makes stop() safe from signal handlers and
// other threads. When configured, a wall-clock timer writes periodic
// crash-recovery snapshots — snapshotting is read-only, so the timer
// cannot perturb the virtual-time decision sequence.
//
// Batched admission (batch_max > 1, DESIGN.md section 17.4): instead of
// dispatching each complete line inline from service_input, the reactor
// frames lines into per-session pending queues, then once per poll round
// collects up to batch_max of them in (session, line) order, parses them
// and hands the parsed requests to ServiceCore::handle_batch in one
// serial entry. Responses are routed back in slot order, so each session's
// reply stream is byte-identical to the batch_max == 1 oracle; leftover
// pending lines force a zero-timeout poll so they drain on the next
// round. batch_max == 1 keeps the legacy inline-dispatch path unchanged.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "svc/service.hpp"
#include "util/annotations.hpp"
#include "util/expected.hpp"
#include "util/sync.hpp"

namespace gts::svc {

struct ServerOptions {
  /// Unix-domain socket path; empty = no UDS listener. A stale file at
  /// the path is removed before binding.
  std::string unix_socket;
  /// TCP bind address; port 0 picks an ephemeral port (see Server::port),
  /// empty host = no TCP listener.
  std::string tcp_host;
  int tcp_port = 0;
  /// Periodic snapshot: every `snapshot_every_s` wall seconds to
  /// `snapshot_path` (both must be set; 0 disables).
  std::string snapshot_path;
  double snapshot_every_s = 0.0;
  /// Requests dispatched per reactor round; 1 = legacy inline dispatch
  /// (the oracle the batched path is held byte-identical to).
  int batch_max = 1;
  /// Prometheus scrape endpoint: a tiny HTTP/1.0 GET-only listener
  /// serving ServiceCore::prometheus_text() on the same poll() reactor
  /// (DESIGN.md section 18.2). Port 0 picks an ephemeral port (see
  /// Server::prom_port); -1 disables the listener.
  int prom_port = -1;
  std::string prom_host = "127.0.0.1";
};

class Server {
 public:
  Server(ServiceCore& core, ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the configured listeners and the self-pipe. At least one
  /// listener must be configured.
  util::Status start();

  /// Runs the reactor until stop() is called or a client issues the
  /// `shutdown` verb (pending replies are flushed first).
  util::Status run();

  /// Requests run() to return. Async-signal-safe (one write to the
  /// self-pipe); callable from any thread.
  void stop();

  /// Bound TCP port (after start); -1 without a TCP listener. Lets tests
  /// bind port 0 and discover the ephemeral port.
  int port() const noexcept { return tcp_port_; }

  /// Bound Prometheus scrape port (after start); -1 when disabled.
  int prom_port() const noexcept { return prom_port_; }

  /// Number of currently connected sessions (diagnostics/tests). Read
  /// from the owning thread between run() rounds; exempt from the
  /// reactor-confinement analysis for that reason.
  std::size_t session_count() const noexcept GTS_NO_THREAD_SAFETY_ANALYSIS {
    return sessions_.size();
  }

 private:
  struct Session {
    int fd = -1;
    std::string in;
    std::string out;
    /// Accepted on the Prometheus listener: input is parsed as one HTTP
    /// GET request instead of JSONL frames; the reply closes the session.
    bool http = false;
    /// Set after an unrecoverable framing error: flush `out`, then close.
    bool close_after_flush = false;
    /// Batched mode only: complete lines framed but not yet dispatched.
    std::vector<std::string> pending;
    /// Batched mode only: encoded oversize-line failure to emit after
    /// `pending` drains (serial emits it after the lines framed before
    /// the flood; the batch path must preserve that reply order). While
    /// set, further input from the session is discarded.
    std::string pending_error;
  };

  util::Status listen_unix(const std::string& path);
  util::Status listen_tcp(const std::string& host, int port);
  util::Status listen_prom(const std::string& host, int port);
  void accept_clients(int listener_fd, bool http) GTS_REQUIRES(reactor_);
  /// Reads available bytes and dispatches complete lines; returns false
  /// when the session should be dropped.
  bool service_input(Session& session) GTS_REQUIRES(reactor_);
  /// HTTP sessions (the Prometheus listener): buffers until the header
  /// terminator, answers one GET with the exposition, then closes.
  bool service_http_input(Session& session) GTS_REQUIRES(reactor_);
  /// Flushes buffered output; returns false when the session should be
  /// dropped.
  bool service_output(Session& session) GTS_REQUIRES(reactor_);
  void close_session(Session& session) GTS_REQUIRES(reactor_);
  void write_periodic_snapshot() GTS_REQUIRES(reactor_);
  /// Batched mode: collects up to batch_max pending lines in (session,
  /// line) order, parses them, dispatches the valid ones through
  /// ServiceCore::handle_batch, and appends every reply in slot order. A parse error answers id 0, drops the
  /// session's remaining pending lines, and closes after flush — the
  /// same semantics as the inline path.
  void dispatch_pending() GTS_REQUIRES(reactor_);
  bool has_pending() const GTS_REQUIRES(reactor_);

  ServiceCore& core_;
  ServerOptions options_;
  std::vector<int> listeners_;
  /// Prometheus HTTP listener fd; -1 while disabled. Kept out of
  /// `listeners_` so accepts can tag their sessions as HTTP.
  int prom_listener_ = -1;
  int tcp_port_ = -1;
  int prom_port_ = -1;
  int wake_pipe_[2] = {-1, -1};
  /// Confines the live session table and the stop flag to the reactor
  /// loop: run() enters the role, every helper requires it, and stop()
  /// stays off it by design (it only writes the self-pipe). See
  /// DESIGN.md section 16.2.
  mutable util::SerialCapability reactor_;
  std::vector<std::unique_ptr<Session>> sessions_ GTS_GUARDED_BY(reactor_);
  bool started_ = false;
  bool stop_requested_ GTS_GUARDED_BY(reactor_) = false;
};

}  // namespace gts::svc
