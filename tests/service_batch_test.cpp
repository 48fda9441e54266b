// Batched admission (DESIGN.md §17.4): draining up to batch_max queued
// requests into one ServiceCore entry — and, at the Server layer,
// framing lines before parsing and dispatching them — must be invisible
// on the wire. ServiceCore::handle_batch is held byte-identical to N
// sequential handle() calls (including backpressure), the batched Server
// reply stream is held byte-identical to the batch_max == 1 oracle
// (including mid-pipeline parse errors), a concurrent multi-client
// stress run lands the same final cluster state as an unbatched single
// client, and a snapshot taken between batches restores into a core that
// finishes the remaining batches identically. The multi-client test is a
// TSan target (reactor + client threads).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "jobgraph/manifest.hpp"
#include "perf/model.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "topo/builders.hpp"
#include "util/strings.hpp"

namespace gts::svc {
namespace {

jobgraph::JobRequest dl_job(int id, double arrival, int num_gpus,
                            long long iterations = 200) {
  return jobgraph::JobRequest::make_dl(id, arrival,
                                       jobgraph::NeuralNet::kAlexNet, 4,
                                       num_gpus, 0.4, iterations);
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

/// Raw pipelined session: connect, write every line in ONE send, then
/// read reply lines until `expected_replies` arrived or the daemon closed
/// the connection. Client can't do this — it is strictly one outstanding
/// request — and pipelining is exactly what batching must keep ordered.
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

class ServiceBatchTest : public ::testing::Test {
 protected:
  ServiceBatchTest()
      : topology_(topo::builders::cluster(
            2, topo::builders::MachineShape::kPower8Minsky)),
        model_(perf::CalibrationParams::paper_minsky()) {}

  ServiceCore make_core(int max_queue = 64) {
    ServiceOptions options;
    options.config.max_queue = max_queue;
    options.config.retry_after_ms = 25.0;
    return ServiceCore(topology_, model_, options);
  }

  topo::TopologyGraph topology_;
  perf::DlWorkloadModel model_;
};

// --- core layer -------------------------------------------------------------

// handle_batch(requests) answers exactly like N sequential handle()
// calls — same placements, same backpressure refusals at the same
// positions, byte-for-byte on the encoded responses.
TEST_F(ServiceBatchTest, HandleBatchMatchesOneAtATimeIncludingBackpressure) {
  // max_queue 4 with 10 submits before any time advances: the first four
  // are admitted, the rest bounce with backpressure, then an advance
  // frees the queue and the re-submits land.
  std::vector<Request> script;
  for (int id = 1; id <= 10; ++id) {
    script.push_back(submit_request(id, dl_job(id, 0.5 * id, 1)));
  }
  {
    json::Value params;
    params.set("all", true);
    script.push_back(make_request(40, "advance", std::move(params)));
  }
  for (int id = 5; id <= 10; ++id) {
    script.push_back(submit_request(40 + id, dl_job(id, 0.5 * id, 1)));
  }
  {
    json::Value params;
    params.set("all", true);
    script.push_back(make_request(80, "advance", std::move(params)));
  }
  script.push_back(make_request(81, "list"));

  ServiceCore serial = make_core(/*max_queue=*/4);
  std::vector<std::string> oracle;
  oracle.reserve(script.size());
  for (const Request& request : script) {
    oracle.push_back(encode(serial.handle(request)));
  }
  ASSERT_NE(oracle[4].find("backpressure"), std::string::npos);

  ServiceCore batched = make_core(/*max_queue=*/4);
  const std::vector<Response> responses = batched.handle_batch(script);
  ASSERT_EQ(responses.size(), script.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(encode(responses[i]), oracle[i]) << "request " << i;
  }

  // And batching in smaller chunks is the same thing again.
  ServiceCore chunked = make_core(/*max_queue=*/4);
  std::vector<std::string> chunked_replies;
  for (size_t start = 0; start < script.size(); start += 3) {
    const std::vector<Request> chunk(
        script.begin() + static_cast<std::ptrdiff_t>(start),
        script.begin() + static_cast<std::ptrdiff_t>(
                             std::min(start + 3, script.size())));
    for (const Response& response : chunked.handle_batch(chunk)) {
      chunked_replies.push_back(encode(response));
    }
  }
  EXPECT_EQ(chunked_replies, oracle);
}

// --- server layer -----------------------------------------------------------

std::vector<std::string> run_server_session(
    const topo::TopologyGraph& topology, const perf::DlWorkloadModel& model,
    int batch_max, const std::string& bytes, int expected_replies) {
  ServiceOptions service_options;
  service_options.config.max_queue = 64;
  ServiceCore core(topology, model, service_options);
  const std::string socket_path =
      util::fmt("./svc_batch_{}_{}.sock", static_cast<int>(::getpid()),
                batch_max);
  ServerOptions server_options;
  server_options.unix_socket = socket_path;
  server_options.batch_max = batch_max;
  Server server(core, server_options);
  if (!server.start()) return {};
  std::thread server_thread([&server] { (void)server.run(); });
  const std::vector<std::string> replies =
      pipelined_session(socket_path, bytes, expected_replies);
  server.stop();
  server_thread.join();
  return replies;
}

// A pipelined burst of valid requests produces the same reply stream from
// a batched server (batch_max 4) as from the inline oracle —
// including when the burst is larger than one batch, so leftovers cross
// poll rounds.
TEST_F(ServiceBatchTest, BatchedServerReplyStreamMatchesInlineOracle) {
  std::string bytes;
  int count = 0;
  for (int id = 1; id <= 12; ++id) {
    bytes += encode(submit_request(id, dl_job(id, 1.0 * id, 1)));
    ++count;
  }
  json::Value advance_params;
  advance_params.set("all", true);
  bytes += encode(make_request(50, "advance", std::move(advance_params)));
  bytes += encode(make_request(51, "list"));
  count += 2;

  const std::vector<std::string> oracle = run_server_session(
      topology_, model_, /*batch_max=*/1, bytes, count);
  ASSERT_EQ(static_cast<int>(oracle.size()), count);
  const std::vector<std::string> batched =
      run_server_session(topology_, model_, /*batch_max=*/4, bytes, count);
  EXPECT_EQ(batched, oracle);
}

// A malformed line mid-pipeline: replies up to and including the parse
// failure match the oracle byte-for-byte, the failure addresses id 0,
// and the session closes with the remaining pipelined lines dropped —
// identical semantics in both modes.
TEST_F(ServiceBatchTest, MidPipelineParseErrorClosesIdenticallyWhenBatched) {
  std::string bytes;
  bytes += encode(submit_request(1, dl_job(1, 1.0, 1)));
  bytes += encode(submit_request(2, dl_job(2, 2.0, 1)));
  bytes += "{\"v\":1,\"id\":3,\"verb\":\"submit\",";  // truncated JSON
  bytes += "\n";
  bytes += encode(submit_request(4, dl_job(4, 4.0, 1)));  // must be dropped

  // Ask for more replies than can come; EOF ends the read.
  const std::vector<std::string> oracle = run_server_session(
      topology_, model_, /*batch_max=*/1, bytes, 10);
  ASSERT_EQ(oracle.size(), 3u);
  EXPECT_NE(oracle[2].find("\"parse\""), std::string::npos);
  EXPECT_NE(oracle[2].find("\"id\":0"), std::string::npos);
  const std::vector<std::string> batched =
      run_server_session(topology_, model_, /*batch_max=*/4, bytes, 10);
  EXPECT_EQ(batched, oracle);
}

// --- concurrency ------------------------------------------------------------

// Four clients hammer a batched daemon concurrently; once everything is
// submitted and drained, the terminal state (finished set) matches an
// unbatched single-client run of the same jobs. Arrival times are part
// of the manifests and the driver queues by arrival, so placements are
// independent of submission interleaving. TSan runs this to hold the
// reactor confinement honest.
TEST_F(ServiceBatchTest, ConcurrentClientsOnBatchedServerMatchSerialRun) {
  constexpr int kClients = 4;
  constexpr int kJobsPerClient = 5;
  constexpr int kJobs = kClients * kJobsPerClient;

  const auto finished_ids = [&](Server& server,
                                const std::string& socket_path,
                                auto&& submit_all) -> std::vector<long long> {
    const bool started = static_cast<bool>(server.start());
    EXPECT_TRUE(started) << "server start failed";
    if (!started) return {};
    std::thread server_thread([&server] { (void)server.run(); });
    submit_all(socket_path);
    auto control = Client::connect_unix(socket_path);
    EXPECT_TRUE(control.has_value());
    std::vector<long long> ids;
    if (control.has_value()) {
      const auto drained = control->call("drain");
      EXPECT_TRUE(drained.has_value() && drained->ok);
      const auto listing = control->call("list");
      EXPECT_TRUE(listing.has_value() && listing->ok);
      if (listing.has_value() && listing->ok) {
        for (const json::Value& id :
             listing->result.at("finished").as_array()) {
          ids.push_back(id.as_int());
        }
      }
    }
    server.stop();
    server_thread.join();
    return ids;
  };

  // Oracle: one client, unbatched server, jobs in id order.
  ServiceOptions service_options;
  service_options.config.max_queue = 64;
  ServiceCore serial_core(topology_, model_, service_options);
  const std::string serial_socket =
      util::fmt("./svc_batch_serial_{}.sock", static_cast<int>(::getpid()));
  ServerOptions serial_options;
  serial_options.unix_socket = serial_socket;
  Server serial_server(serial_core, serial_options);
  std::vector<long long> oracle =
      finished_ids(serial_server, serial_socket,
                   [&](const std::string& path) {
                     auto client = Client::connect_unix(path);
                     ASSERT_TRUE(client.has_value());
                     for (int id = 1; id <= kJobs; ++id) {
                       json::Value params;
                       params.set("job", jobgraph::to_manifest(
                                             dl_job(id, 1.0 * id, 1, 150)));
                       const auto response = client->call("submit", params);
                       ASSERT_TRUE(response.has_value());
                       EXPECT_TRUE(response->ok) << "job " << id;
                     }
                   });
  ASSERT_EQ(oracle.size(), static_cast<size_t>(kJobs));

  // Batched daemon, concurrent clients, interleaved submission order.
  ServiceCore batched_core(topology_, model_, service_options);
  const std::string batched_socket =
      util::fmt("./svc_batch_conc_{}.sock", static_cast<int>(::getpid()));
  ServerOptions batched_options;
  batched_options.unix_socket = batched_socket;
  batched_options.batch_max = 4;
  Server batched_server(batched_core, batched_options);
  std::vector<long long> batched =
      finished_ids(batched_server, batched_socket,
                   [&](const std::string& path) {
                     std::vector<std::thread> clients;
                     clients.reserve(kClients);
                     for (int c = 0; c < kClients; ++c) {
                       clients.emplace_back([&, c] {
                         auto client = Client::connect_unix(path);
                         ASSERT_TRUE(client.has_value());
                         for (int j = 0; j < kJobsPerClient; ++j) {
                           const int id = 1 + c * kJobsPerClient + j;
                           json::Value params;
                           params.set("job",
                                      jobgraph::to_manifest(
                                          dl_job(id, 1.0 * id, 1, 150)));
                           const auto response =
                               client->call("submit", params);
                           ASSERT_TRUE(response.has_value());
                           EXPECT_TRUE(response->ok) << "job " << id;
                         }
                       });
                     }
                     for (std::thread& thread : clients) thread.join();
                   });

  std::sort(oracle.begin(), oracle.end());
  std::sort(batched.begin(), batched.end());
  EXPECT_EQ(batched, oracle);
}

// --- snapshot ---------------------------------------------------------------

// A snapshot taken between batches captures a consistent admission state:
// restoring it into a fresh core and replaying the remaining batches
// yields byte-identical responses and terminal state.
TEST_F(ServiceBatchTest, SnapshotBetweenBatchesRestoresContinuation) {
  std::vector<Request> first_batch;
  for (int id = 1; id <= 6; ++id) {
    first_batch.push_back(submit_request(id, dl_job(id, 0.5 * id, 1)));
  }
  std::vector<Request> second_batch;
  for (int id = 7; id <= 10; ++id) {
    second_batch.push_back(submit_request(id, dl_job(id, 0.5 * id, 1)));
  }
  {
    json::Value params;
    params.set("all", true);
    second_batch.push_back(make_request(30, "advance", std::move(params)));
  }
  second_batch.push_back(make_request(31, "list"));

  ServiceCore original = make_core();
  (void)original.handle_batch(first_batch);
  const json::Value snapshot = original.snapshot_json();
  std::vector<std::string> original_replies;
  for (const Response& response : original.handle_batch(second_batch)) {
    original_replies.push_back(encode(response));
  }

  ServiceCore restored = make_core();
  ASSERT_TRUE(restored.restore_json(snapshot));
  std::vector<std::string> restored_replies;
  for (const Response& response : restored.handle_batch(second_batch)) {
    restored_replies.push_back(encode(response));
  }
  EXPECT_EQ(restored_replies, original_replies);
}

}  // namespace
}  // namespace gts::svc
