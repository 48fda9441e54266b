// Pipelined admission (DESIGN.md §17.3): a client may write a burst of
// request lines in one send, and the daemon dispatches each line inline
// as it is framed. The reply stream of such a burst — including
// backpressure refusals and bursts that cross poll rounds — is held
// byte-identical to the same requests answered one at a time by
// ServiceCore::handle() on a fresh core, and a truncated line
// mid-burst is answered with a parse failure on id 0 before the session
// closes and drops the rest of the burst.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "jobgraph/manifest.hpp"
#include "perf/model.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "topo/builders.hpp"
#include "util/strings.hpp"

namespace gts::svc {
namespace {

jobgraph::JobRequest dl_job(int id, double arrival, int num_gpus) {
  return jobgraph::JobRequest::make_dl(id, arrival,
                                       jobgraph::NeuralNet::kAlexNet, 4,
                                       num_gpus, 0.4, 200);
}

Request make_request(long long id, std::string verb,
                     json::Value params = {}) {
  Request request;
  request.id = id;
  request.verb = std::move(verb);
  request.params = std::move(params);
  return request;
}

Request submit_request(long long request_id, const jobgraph::JobRequest& job) {
  json::Value params;
  params.set("job", jobgraph::to_manifest(job));
  return make_request(request_id, "submit", std::move(params));
}

Request advance_all(long long request_id) {
  json::Value params;
  params.set("all", true);
  return make_request(request_id, "advance", std::move(params));
}

/// Raw pipelined session: connect, write every line in ONE send, then
/// read reply lines until `expected_replies` arrived or the daemon closed
/// the connection. Client can't do this — it keeps one outstanding
/// request — and pipelining is what must keep replies in order.
std::vector<std::string> pipelined_session(const std::string& socket_path,
                                           const std::string& bytes,
                                           int expected_replies) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    ::close(fd);
    return {};
  }
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return {};
    }
    sent += static_cast<size_t>(n);
  }
  std::string in;
  std::vector<std::string> lines;
  char buffer[4096];
  while (static_cast<int>(lines.size()) < expected_replies) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;  // daemon closed (parse-error sessions end early)
    in.append(buffer, static_cast<size_t>(n));
    size_t start = 0, newline;
    while ((newline = in.find('\n', start)) != std::string::npos) {
      lines.push_back(in.substr(start, newline - start));
      start = newline + 1;
    }
    in.erase(0, start);
  }
  ::close(fd);
  return lines;
}

class ServicePipelineTest : public ::testing::Test {
 protected:
  ServicePipelineTest()
      : topology_(topo::builders::cluster(
            2, topo::builders::MachineShape::kPower8Minsky)),
        model_(perf::CalibrationParams::paper_minsky()) {}

  ServiceOptions options(int max_queue) const {
    ServiceOptions options;
    options.config.max_queue = max_queue;
    options.config.retry_after_ms = 25.0;
    return options;
  }

  /// The requests answered one at a time by handle() on a fresh core.
  std::vector<std::string> one_at_a_time(const std::vector<Request>& script,
                                         int max_queue) const {
    ServiceCore core(topology_, model_, options(max_queue));
    std::vector<std::string> replies;
    replies.reserve(script.size());
    for (const Request& request : script) {
      std::string line = encode(core.handle(request));
      line.pop_back();  // encode() ends the line with '\n'
      replies.push_back(std::move(line));
    }
    return replies;
  }

  /// `bytes` written in one send to a fresh daemon.
  std::vector<std::string> pipelined(const std::string& bytes,
                                     int expected_replies,
                                     int max_queue) const {
    ServiceCore core(topology_, model_, options(max_queue));
    const std::string socket_path = util::fmt(
        "./svc_pipeline_{}_{}.sock", static_cast<int>(::getpid()),
        expected_replies);
    ServerOptions server_options;
    server_options.unix_socket = socket_path;
    Server server(core, server_options);
    if (!server.start()) return {};
    std::thread server_thread([&server] { (void)server.run(); });
    const std::vector<std::string> replies =
        pipelined_session(socket_path, bytes, expected_replies);
    server.stop();
    server_thread.join();
    return replies;
  }

  topo::TopologyGraph topology_;
  perf::DlWorkloadModel model_;
};

// A pipelined burst — larger than one read, with backpressure refusals
// in the middle — is answered exactly as the same requests one at a time:
// max_queue 4 with 10 submits before any time advances admits the first
// four and bounces the rest; an advance frees the queue and the
// re-submits land.
TEST_F(ServicePipelineTest, PipelinedBurstMatchesOneAtATimeIncludingBackpressure) {
  std::vector<Request> script;
  for (int id = 1; id <= 10; ++id) {
    script.push_back(submit_request(id, dl_job(id, 0.5 * id, 1)));
  }
  script.push_back(advance_all(40));
  for (int id = 5; id <= 10; ++id) {
    script.push_back(submit_request(40 + id, dl_job(id, 0.5 * id, 1)));
  }
  script.push_back(advance_all(80));
  script.push_back(make_request(81, "list"));

  const std::vector<std::string> oracle =
      one_at_a_time(script, /*max_queue=*/4);
  ASSERT_NE(oracle[4].find("backpressure"), std::string::npos);

  std::string bytes;
  for (const Request& request : script) bytes += encode(request);
  const int count = static_cast<int>(script.size());
  EXPECT_EQ(pipelined(bytes, count, /*max_queue=*/4), oracle);
}

// A truncated line mid-burst: the replies before it match the
// one-at-a-time oracle, the failure addresses id 0, and the session
// closes with the rest of the burst dropped.
TEST_F(ServicePipelineTest, MidPipelineParseErrorClosesSession) {
  const std::vector<Request> valid = {submit_request(1, dl_job(1, 1.0, 1)),
                                      submit_request(2, dl_job(2, 2.0, 1))};
  std::string bytes;
  for (const Request& request : valid) bytes += encode(request);
  bytes += "{\"v\":1,\"id\":3,\"verb\":\"submit\",";  // truncated JSON
  bytes += "\n";
  bytes += encode(submit_request(4, dl_job(4, 4.0, 1)));  // must be dropped

  // Ask for more replies than can come; EOF ends the read.
  const std::vector<std::string> replies =
      pipelined(bytes, /*expected_replies=*/10, /*max_queue=*/64);
  ASSERT_EQ(replies.size(), 3u);
  const std::vector<std::string> oracle = one_at_a_time(valid, 64);
  EXPECT_EQ(replies[0], oracle[0]);
  EXPECT_EQ(replies[1], oracle[1]);
  const auto failure = parse_response(replies[2] + "\n");
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->id, 0);
  EXPECT_EQ(failure->code, ErrorCode::kParse);
}

}  // namespace
}  // namespace gts::svc
