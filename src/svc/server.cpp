#include "svc/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <utility>

#include "obs/metrics.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace gts::svc {

namespace {

util::Status set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return util::Error{util::fmt("fcntl(O_NONBLOCK): {}",
                                 std::string(std::strerror(errno)))};
  }
  return util::Status::ok();
}

util::Error socket_error(const char* what) {
  return util::Error{util::fmt("{}: {}", what,
                               std::string(std::strerror(errno)))};
}

/// Binds + listens a nonblocking TCP socket; writes the actually bound
/// port (port 0 = ephemeral) to *bound_port. Shared by the protocol and
/// Prometheus listeners.
util::Expected<int> bind_tcp_listener(const std::string& host, int port,
                                      int* bound_port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return util::Error{util::fmt("invalid TCP bind address '{}'", host)};
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return socket_error("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const util::Error error = socket_error("bind");
    ::close(fd);
    return error.with_context(util::fmt("{}:{}", host, port));
  }
  if (::listen(fd, 64) < 0) {
    const util::Error error = socket_error("listen");
    ::close(fd);
    return error;
  }
  if (auto status = set_nonblocking(fd); !status) {
    ::close(fd);
    return status.error();
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
      0) {
    *bound_port = static_cast<int>(ntohs(bound.sin_port));
  }
  return fd;
}

}  // namespace

Server::Server(ServiceCore& core, ServerOptions options)
    : core_(core), options_(std::move(options)) {}

Server::~Server() {
  // Destruction implies exclusive ownership; entering the reactor role
  // here keeps the confinement analysis sound without special-casing.
  util::SerialGuard guard(reactor_);
  for (const auto& session : sessions_) {
    if (session->fd >= 0) ::close(session->fd);
  }
  for (const int fd : listeners_) ::close(fd);
  if (prom_listener_ >= 0) ::close(prom_listener_);
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
  if (!options_.unix_socket.empty() && started_) {
    ::unlink(options_.unix_socket.c_str());
  }
}

util::Status Server::listen_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return util::Error{util::fmt("unix socket path too long: {}", path)};
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return socket_error("socket(AF_UNIX)");
  ::unlink(path.c_str());  // stale socket from a crashed daemon
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const util::Error error = socket_error("bind");
    ::close(fd);
    return error.with_context(path);
  }
  if (::listen(fd, 64) < 0) {
    const util::Error error = socket_error("listen");
    ::close(fd);
    return error.with_context(path);
  }
  if (auto status = set_nonblocking(fd); !status) {
    ::close(fd);
    return status;
  }
  listeners_.push_back(fd);
  return util::Status::ok();
}

util::Status Server::listen_tcp(const std::string& host, int port) {
  auto fd = bind_tcp_listener(host, port, &tcp_port_);
  if (!fd) return fd.error();
  listeners_.push_back(*fd);
  return util::Status::ok();
}

util::Status Server::listen_prom(const std::string& host, int port) {
  auto fd = bind_tcp_listener(host, port, &prom_port_);
  if (!fd) return fd.error().with_context("prometheus listener");
  prom_listener_ = *fd;
  return util::Status::ok();
}

util::Status Server::start() {
  if (options_.unix_socket.empty() && options_.tcp_host.empty()) {
    return util::Error{"server needs a unix socket path or a TCP endpoint"};
  }
  if (::pipe(wake_pipe_) < 0) return socket_error("pipe");
  for (const int end : {wake_pipe_[0], wake_pipe_[1]}) {
    if (auto status = set_nonblocking(end); !status) return status;
  }
  if (!options_.unix_socket.empty()) {
    if (auto status = listen_unix(options_.unix_socket); !status) {
      return status;
    }
  }
  if (!options_.tcp_host.empty()) {
    if (auto status = listen_tcp(options_.tcp_host, options_.tcp_port);
        !status) {
      return status;
    }
  }
  if (options_.prom_port >= 0) {
    const std::string host =
        options_.prom_host.empty() ? "127.0.0.1" : options_.prom_host;
    if (auto status = listen_prom(host, options_.prom_port); !status) {
      return status;
    }
  }
  started_ = true;
  return util::Status::ok();
}

void Server::stop() {
  // Async-signal-safe wake-up; run() drains the pipe and exits.
  const char byte = 's';
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

void Server::accept_clients(int listener_fd, bool http) {
  while (true) {
    const int fd = ::accept(listener_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        GTS_LOG_WARN("svc", "accept failed: ", std::strerror(errno));
      }
      return;
    }
    if (auto status = set_nonblocking(fd); !status) {
      ::close(fd);
      continue;
    }
    auto session = std::make_unique<Session>();
    session->fd = fd;
    session->http = http;
    sessions_.push_back(std::move(session));
    GTS_METRIC_GAUGE_SET("svc.active_sessions",
                         static_cast<double>(sessions_.size()));
  }
}

bool Server::service_http_input(Session& session) {
  char buffer[4096];
  while (true) {
    const ssize_t n = ::recv(session.fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      session.in.append(buffer, static_cast<std::size_t>(n));
      if (session.in.size() > kMaxLineBytes) return false;  // header flood
      continue;
    }
    if (n == 0) return false;  // peer closed
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }
  // One request per connection (HTTP/1.0 semantics): wait for the full
  // header, answer, then flush-and-close.
  if (session.in.find("\r\n\r\n") == std::string::npos &&
      session.in.find("\n\n") == std::string::npos) {
    return true;  // header incomplete; keep reading
  }
  std::string request_line = session.in.substr(0, session.in.find('\n'));
  while (!request_line.empty() &&
         (request_line.back() == '\r' || request_line.back() == ' ')) {
    request_line.pop_back();
  }
  const std::size_t method_end = request_line.find(' ');
  const std::string method = request_line.substr(0, method_end);
  std::string target = "/";
  if (method_end != std::string::npos) {
    const std::size_t target_end = request_line.find(' ', method_end + 1);
    target = request_line.substr(
        method_end + 1,
        target_end == std::string::npos ? std::string::npos
                                        : target_end - method_end - 1);
  }
  std::string status_line;
  std::string body;
  if (method != "GET") {
    status_line = "HTTP/1.0 405 Method Not Allowed";
    body = "GET only\n";
  } else if (target == "/metrics" || target == "/") {
    status_line = "HTTP/1.0 200 OK";
    body = core_.prometheus_text();
  } else {
    status_line = "HTTP/1.0 404 Not Found";
    body = "try /metrics\n";
  }
  session.out = util::fmt(
      "{}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
      "Content-Length: {}\r\nConnection: close\r\n\r\n",
      status_line, body.size());
  session.out += body;
  session.close_after_flush = true;
  session.in.clear();
  return true;
}

bool Server::service_input(Session& session) {
  if (session.http) return service_http_input(session);
  char buffer[4096];
  while (true) {
    const ssize_t n = ::recv(session.fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      session.in.append(buffer, static_cast<std::size_t>(n));
      if (session.in.size() > kMaxLineBytes &&
          session.in.find('\n') == std::string::npos) {
        // Unframeable flood: answer once, then drop the connection.
        session.out += encode(Response::failure(
            0, ErrorCode::kParse,
            util::fmt("request line exceeds {} bytes", kMaxLineBytes)));
        session.close_after_flush = true;
        session.in.clear();
        return true;
      }
      continue;
    }
    if (n == 0) return false;  // peer closed
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }
  std::size_t start = 0;
  while (!session.close_after_flush) {
    const std::size_t newline = session.in.find('\n', start);
    if (newline == std::string::npos) break;
    const std::string_view line(session.in.data() + start, newline - start);
    if (!line.empty()) {
      const Response response = core_.handle_line(line);
      session.out += encode(response);
      if (!response.ok && response.code == ErrorCode::kParse) {
        // Framing is unrecoverable after a malformed line.
        session.close_after_flush = true;
      }
    }
    start = newline + 1;
  }
  session.in.erase(0, start);
  return true;
}

bool Server::service_output(Session& session) {
  while (!session.out.empty()) {
    const ssize_t n = ::send(session.fd, session.out.data(),
                             session.out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      session.out.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;
  }
  return !session.close_after_flush;
}

void Server::close_session(Session& session) {
  if (session.fd >= 0) ::close(session.fd);
  session.fd = -1;
}

void Server::write_periodic_snapshot() {
  if (auto status = core_.save_snapshot(options_.snapshot_path); !status) {
    GTS_LOG_WARN("svc", "periodic snapshot failed: ", status.error().message);
  } else {
    GTS_METRIC_COUNT("svc.snapshots", 1);
  }
}

util::Status Server::run() {
  util::SerialGuard guard(reactor_);
  if (!started_) return util::Error{"run() before start()"};
  using Clock = std::chrono::steady_clock;
  const bool periodic =
      options_.snapshot_every_s > 0.0 && !options_.snapshot_path.empty();
  const auto snapshot_interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(
          periodic ? options_.snapshot_every_s : 0.0));
  auto next_snapshot = Clock::now() + snapshot_interval;

  std::vector<pollfd> fds;
  while (true) {
    // Exit once shutdown was requested and every reply has been flushed.
    if (stop_requested_ || core_.shutdown_requested()) {
      bool pending_output = false;
      for (const auto& session : sessions_) {
        if (!session->out.empty()) pending_output = true;
      }
      if (stop_requested_ || !pending_output) break;
    }

    fds.clear();
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    for (const int listener : listeners_) {
      // Stop accepting new sessions while shutting down.
      if (!core_.shutdown_requested()) fds.push_back({listener, POLLIN, 0});
    }
    if (prom_listener_ >= 0 && !core_.shutdown_requested()) {
      fds.push_back({prom_listener_, POLLIN, 0});
    }
    const std::size_t first_session = fds.size();
    for (const auto& session : sessions_) {
      short events = POLLIN;
      if (!session->out.empty()) events |= POLLOUT;
      fds.push_back({session->fd, events, 0});
    }

    int timeout_ms = -1;
    if (periodic) {
      const auto remaining = std::chrono::duration_cast<
          std::chrono::milliseconds>(next_snapshot - Clock::now());
      timeout_ms = static_cast<int>(std::max<long long>(0, remaining.count()));
    }
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return socket_error("poll");
    }
    if (periodic && Clock::now() >= next_snapshot) {
      write_periodic_snapshot();
      next_snapshot += snapshot_interval;
    }
    if (ready == 0) continue;

    if ((fds[0].revents & POLLIN) != 0) {
      char drain[64];
      while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
      }
      stop_requested_ = true;
    }
    for (std::size_t i = 1; i < first_session; ++i) {
      if ((fds[i].revents & POLLIN) != 0) {
        accept_clients(fds[i].fd, fds[i].fd == prom_listener_);
      }
    }
    // Service sessions; drop the ones that closed or errored. Sessions
    // past `polled_sessions` were accepted after the pollfd array was
    // built — they have no revents entry and simply wait for the next
    // poll round.
    const std::size_t polled_sessions = fds.size() - first_session;
    std::vector<std::unique_ptr<Session>> alive;
    alive.reserve(sessions_.size());
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      Session& session = *sessions_[i];
      bool keep = true;
      if (i < polled_sessions) {
        const short revents = fds[first_session + i].revents;
        if ((revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
            (revents & POLLIN) == 0) {
          keep = false;
        }
        if (keep && (revents & POLLIN) != 0) keep = service_input(session);
        // Always try to flush after handling input (replies are ready now).
        if (keep && !session.out.empty()) keep = service_output(session);
        if (keep && session.out.empty() && session.close_after_flush) {
          keep = false;
        }
      }
      if (keep) {
        alive.push_back(std::move(sessions_[i]));
      } else {
        close_session(session);
      }
    }
    sessions_ = std::move(alive);
    GTS_METRIC_GAUGE_SET("svc.active_sessions",
                         static_cast<double>(sessions_.size()));
  }

  for (const auto& session : sessions_) close_session(*session);
  sessions_.clear();
  GTS_METRIC_GAUGE_SET("svc.active_sessions", 0.0);
  return util::Status::ok();
}

}  // namespace gts::svc
