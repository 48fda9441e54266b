// Scheduler-service tests: wire-protocol encode/decode, ServiceCore verb
// semantics (malformed requests, backpressure, cancel, drain), snapshot →
// restore state identity, prototype-vs-service placement equivalence, a
// concurrent multi-client socket session (the TSan target), and a protocol
// fuzz corpus (truncations, garbage, malformed lines at batch boundaries).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "check/audit.hpp"
#include "jobgraph/manifest.hpp"
#include "perf/model.hpp"
#include "proto/runtime.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "svc/snapshot.hpp"
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

/// Topology/model/core wired like a small gts_schedd (2 Minsky machines).
class ServiceCoreTest : public ::testing::Test {
 protected:
  ServiceCoreTest()
      : topology_(topo::builders::cluster(
            2, topo::builders::MachineShape::kPower8Minsky)),
        model_(perf::CalibrationParams::paper_minsky()) {}

  ServiceCore make_core(int max_queue = 64, int shard_count = 1) {
    ServiceOptions options;
    options.config.max_queue = max_queue;
    options.config.shard_count = shard_count;
    options.config.retry_after_ms = 25.0;
    options.self_audit = true;
    return ServiceCore(topology_, model_, options);
  }

  Response submit(ServiceCore& core, const jobgraph::JobRequest& job,
                  long long request_id = 1) {
    json::Value params;
    params.set("job", jobgraph::to_manifest(job));
    return core.handle(make_request(request_id, "submit", std::move(params)));
  }

  Response advance_all(ServiceCore& core, long long request_id = 90) {
    json::Value params;
    params.set("all", true);
    return core.handle(make_request(request_id, "advance", std::move(params)));
  }

  topo::TopologyGraph topology_;
  perf::DlWorkloadModel model_;
};

// --- protocol ---------------------------------------------------------------

TEST(SvcProtocolTest, RequestEncodeParseRoundtrip) {
  json::Value params;
  params.set("id", 7);
  const Request request = make_request(42, "status", std::move(params));
  const std::string line = encode(request);
  EXPECT_EQ(line.back(), '\n');
  const auto parsed = parse_request(line);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  EXPECT_EQ(parsed->version, kProtocolVersion);
  EXPECT_EQ(parsed->id, 42);
  EXPECT_EQ(parsed->verb, "status");
  EXPECT_EQ(parsed->params.at("id").as_int(), 7);
}

TEST(SvcProtocolTest, ResponseEncodeParseRoundtrip) {
  json::Value result;
  result.set("now", 12.5);
  const Response ok = Response::success(3, std::move(result));
  const auto parsed_ok = parse_response(encode(ok));
  ASSERT_TRUE(parsed_ok.has_value());
  EXPECT_TRUE(parsed_ok->ok);
  EXPECT_EQ(parsed_ok->id, 3);
  EXPECT_DOUBLE_EQ(parsed_ok->result.at("now").as_number(), 12.5);

  const Response fail =
      Response::failure(4, ErrorCode::kBackpressure, "queue full", 50.0);
  const auto parsed_fail = parse_response(encode(fail));
  ASSERT_TRUE(parsed_fail.has_value());
  EXPECT_FALSE(parsed_fail->ok);
  EXPECT_EQ(parsed_fail->id, 4);
  EXPECT_EQ(parsed_fail->code, ErrorCode::kBackpressure);
  EXPECT_EQ(parsed_fail->message, "queue full");
  EXPECT_DOUBLE_EQ(parsed_fail->retry_after_ms, 50.0);
}

TEST(SvcProtocolTest, ErrorCodeNamesRoundtrip) {
  for (const ErrorCode code :
       {ErrorCode::kParse, ErrorCode::kUnsupportedVersion,
        ErrorCode::kBadRequest, ErrorCode::kUnknownVerb,
        ErrorCode::kBackpressure, ErrorCode::kDraining, ErrorCode::kNotFound,
        ErrorCode::kConflict, ErrorCode::kInternal}) {
    const auto parsed = parse_error_code(to_string(code));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, code);
  }
  EXPECT_FALSE(parse_error_code("no-such-code").has_value());
}

TEST(SvcProtocolTest, RejectsMalformedRequests) {
  EXPECT_FALSE(parse_request("not json").has_value());
  EXPECT_FALSE(parse_request("[1,2,3]").has_value());          // not an object
  EXPECT_FALSE(parse_request(R"({"id":1,"verb":"x"})").has_value());  // no v
  EXPECT_FALSE(parse_request(R"({"v":1,"verb":"x"})").has_value());   // no id
  EXPECT_FALSE(parse_request(R"({"v":1,"id":1})").has_value());  // no verb
  EXPECT_FALSE(
      parse_request(R"({"v":1,"id":1,"verb":""})").has_value());  // empty
  EXPECT_FALSE(parse_request(R"({"v":1,"id":1,"verb":"x","params":3})")
                   .has_value());  // params not an object
  const std::string oversize =
      R"({"v":1,"id":1,"verb":")" + std::string(kMaxLineBytes, 'a') + R"("})";
  EXPECT_FALSE(parse_request(oversize).has_value());
}

// --- core verb semantics ----------------------------------------------------

TEST_F(ServiceCoreTest, MalformedLineAnsweredOnIdZero) {
  ServiceCore core = make_core();
  const Response response = core.handle_line("{broken");
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.id, 0);
  EXPECT_EQ(response.code, ErrorCode::kParse);
}

TEST_F(ServiceCoreTest, VersionMismatchAnsweredOnRequestId) {
  ServiceCore core = make_core();
  Request request = make_request(9, "ping");
  request.version = 2;
  const Response response = core.handle(request);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.id, 9);
  EXPECT_EQ(response.code, ErrorCode::kUnsupportedVersion);
}

TEST_F(ServiceCoreTest, UnknownVerbAndBadParams) {
  ServiceCore core = make_core();
  const Response unknown = core.handle(make_request(1, "frobnicate"));
  EXPECT_FALSE(unknown.ok);
  EXPECT_EQ(unknown.code, ErrorCode::kUnknownVerb);

  // submit requires exactly one of job / manifest.
  const Response neither = core.handle(make_request(2, "submit"));
  EXPECT_FALSE(neither.ok);
  EXPECT_EQ(neither.code, ErrorCode::kBadRequest);

  json::Value params;
  params.set("id", std::string("seven"));
  const Response bad_id =
      core.handle(make_request(3, "status", std::move(params)));
  EXPECT_FALSE(bad_id.ok);
  EXPECT_EQ(bad_id.code, ErrorCode::kBadRequest);
}

TEST_F(ServiceCoreTest, SubmitLifecycle) {
  ServiceCore core = make_core();
  const Response accepted = submit(core, dl_job(1, 0.0, 2));
  ASSERT_TRUE(accepted.ok) << accepted.message;
  EXPECT_EQ(accepted.result.at("id").as_int(), 1);
  EXPECT_EQ(accepted.result.at("status").as_string(), "accepted");

  ASSERT_TRUE(advance_all(core).ok);
  json::Value status_params;
  status_params.set("id", 1);
  const Response finished =
      core.handle(make_request(5, "status", std::move(status_params)));
  ASSERT_TRUE(finished.ok);
  EXPECT_EQ(finished.result.at("state").as_string(), "finished");
  EXPECT_EQ(finished.result.at("gpus").as_array().size(), 2u);
}

TEST_F(ServiceCoreTest, BackpressureCarriesRetryHint) {
  ServiceCore core = make_core(/*max_queue=*/2);
  ASSERT_TRUE(submit(core, dl_job(1, 10.0, 1), 1).ok);
  ASSERT_TRUE(submit(core, dl_job(2, 11.0, 1), 2).ok);
  const Response third = submit(core, dl_job(3, 12.0, 1), 3);
  EXPECT_FALSE(third.ok);
  EXPECT_EQ(third.code, ErrorCode::kBackpressure);
  EXPECT_DOUBLE_EQ(third.retry_after_ms, 25.0);

  // Admitting the queue frees capacity and the retry succeeds.
  ASSERT_TRUE(advance_all(core).ok);
  EXPECT_TRUE(submit(core, dl_job(3, 12.0, 1), 4).ok);
}

TEST_F(ServiceCoreTest, CancelConflictAndNotFound) {
  ServiceCore core = make_core();
  ASSERT_TRUE(submit(core, dl_job(1, 5.0, 1)).ok);

  json::Value cancel_params;
  cancel_params.set("id", 1);
  const Response cancelled =
      core.handle(make_request(2, "cancel", cancel_params));
  ASSERT_TRUE(cancelled.ok) << cancelled.message;

  const Response again = core.handle(make_request(3, "cancel", cancel_params));
  EXPECT_FALSE(again.ok);
  EXPECT_EQ(again.code, ErrorCode::kConflict);

  json::Value missing;
  missing.set("id", 999);
  const Response not_found =
      core.handle(make_request(4, "status", std::move(missing)));
  EXPECT_FALSE(not_found.ok);
  EXPECT_EQ(not_found.code, ErrorCode::kNotFound);
}

TEST_F(ServiceCoreTest, DrainRefusesNewSubmits) {
  ServiceCore core = make_core();
  ASSERT_TRUE(submit(core, dl_job(1, 0.0, 1)).ok);
  json::Value params;
  params.set("wait", false);
  ASSERT_TRUE(core.handle(make_request(2, "drain", std::move(params))).ok);
  const Response refused = submit(core, dl_job(2, 0.0, 1), 3);
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.code, ErrorCode::kDraining);
}

TEST_F(ServiceCoreTest, DrainingCoreRefusesTerminalIdsAsConflicts) {
  // While draining, a resubmitted finished, cancelled or rejected id is a
  // conflict, as without the drain; a new id is refused as draining.
  for (const int shards : {1, 2}) {
    ServiceCore core = make_core(/*max_queue=*/64, shards);
    ASSERT_TRUE(submit(core, dl_job(1, 0.0, 2), 1).ok);
    ASSERT_TRUE(advance_all(core).ok);
    const double now = core.driver().now();
    ASSERT_TRUE(submit(core, dl_job(2, now + 1000.0, 1), 2).ok);
    json::Value cancel_params;
    cancel_params.set("id", 2);
    ASSERT_TRUE(core.handle(make_request(3, "cancel", cancel_params)).ok);
    ASSERT_FALSE(submit(core, dl_job(3, now, 8), 4).ok);
    ASSERT_TRUE(core.handle(make_request(5, "drain")).ok);

    for (const int id : {1, 2, 3}) {
      const Response refused = submit(core, dl_job(id, now, 1), 10 + id);
      EXPECT_FALSE(refused.ok);
      EXPECT_EQ(refused.code, ErrorCode::kConflict)
          << "id=" << id << " shards=" << shards;
      EXPECT_EQ(refused.message,
                util::fmt("job id {} already submitted", id));
    }
    const Response fresh = submit(core, dl_job(4, now, 1), 20);
    EXPECT_FALSE(fresh.ok);
    EXPECT_EQ(fresh.code, ErrorCode::kDraining) << "shards=" << shards;
  }
}

// --- snapshot / restore -----------------------------------------------------

TEST_F(ServiceCoreTest, SnapshotRestoreStateIdentity) {
  ServiceCore original = make_core();
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE(
        submit(original, dl_job(i, 2.0 * i, 1 + (i % 3), 300), i).ok);
  }
  // Mid-flight: some running, some waiting, some arrivals still pending.
  json::Value advance_params;
  advance_params.set("to", 7.0);
  ASSERT_TRUE(
      original.handle(make_request(50, "advance", advance_params)).ok);

  // Through the verb: a snapshot request checkpoints progress, which is
  // what makes the continuation bitwise-identical.
  const Response snap = original.handle(make_request(51, "snapshot"));
  ASSERT_TRUE(snap.ok) << snap.message;
  const json::Value snapshot = snap.result.at("snapshot");
  ASSERT_TRUE(validate_snapshot_json(snapshot)) << "snapshot invalid";

  ServiceCore restored = make_core();
  const auto status = restored.restore_json(snapshot);
  ASSERT_TRUE(status) << status.error().message;

  // Restored cluster state passes the validators directly.
  ASSERT_TRUE(restored.driver().validate());

  // The restored core re-snapshots byte-identically.
  EXPECT_EQ(json::write(restored.snapshot_json(), {.indent = 2}),
            json::write(snapshot, {.indent = 2}));

  // ... and every subsequent decision matches the uninterrupted run.
  for (ServiceCore* core : {&original, &restored}) {
    ASSERT_TRUE(core->handle(make_request(60, "drain")).ok);
  }
  const std::string original_list =
      encode(original.handle(make_request(61, "list")));
  const std::string restored_list =
      encode(restored.handle(make_request(61, "list")));
  EXPECT_EQ(original_list, restored_list);
  for (int i = 1; i <= 6; ++i) {
    json::Value params;
    params.set("id", i);
    const std::string a =
        encode(original.handle(make_request(70 + i, "status", params)));
    const std::string b =
        encode(restored.handle(make_request(70 + i, "status", params)));
    EXPECT_EQ(a, b) << "job " << i << " diverged after restore";
  }
}

TEST_F(ServiceCoreTest, RestoredCoreRefusesIdsFinishedBeforeSnapshot) {
  // Finished jobs reach the restored driver only as the snapshot's
  // history records: the restored core must still refuse their ids
  // exactly as the uninterrupted one does.
  for (const int shards : {1, 2}) {
    ServiceCore original = make_core(/*max_queue=*/64, shards);
    ASSERT_TRUE(submit(original, dl_job(1, 0.0, 2), 1).ok);
    ASSERT_TRUE(submit(original, dl_job(2, 0.0, 2), 2).ok);
    ASSERT_TRUE(advance_all(original).ok);

    ServiceCore restored = make_core(/*max_queue=*/64, shards);
    const auto status = restored.restore_json(original.snapshot_json());
    ASSERT_TRUE(status) << status.error().message;

    const std::string want = encode(submit(original, dl_job(1, 0.0, 2), 3));
    const std::string got = encode(submit(restored, dl_job(1, 0.0, 2), 3));
    EXPECT_EQ(got, want) << "shards=" << shards;
    EXPECT_NE(want.find("job id 1 already submitted"), std::string::npos)
        << want;
  }
}

TEST_F(ServiceCoreTest, RestoredCoreKeepsLifecycleMetrics) {
  // The snapshot carries the driver's terminal records, so a restored
  // core's lifecycle metrics cover the jobs that ended before it. The
  // decisions, events and router `routed` counters count one process's
  // work and are not compared.
  for (const int shards : {1, 2}) {
    ServiceCore original = make_core(/*max_queue=*/64, shards);
    ASSERT_TRUE(submit(original, dl_job(1, 0.0, 2), 1).ok);
    ASSERT_TRUE(submit(original, dl_job(2, 0.0, 2), 2).ok);
    ASSERT_TRUE(advance_all(original).ok);

    ServiceCore restored = make_core(/*max_queue=*/64, shards);
    const auto status = restored.restore_json(original.snapshot_json());
    ASSERT_TRUE(status) << status.error().message;

    const Response want = original.handle(make_request(3, "metrics"));
    const Response got = restored.handle(make_request(3, "metrics"));
    ASSERT_TRUE(want.ok && got.ok);
    EXPECT_EQ(want.result.at("terminal").as_int(), 2);
    EXPECT_GT(want.result.at("mean_jct_slowdown").as_number(), 1.0);
    for (const char* key :
         {"terminal", "postponements", "degradations", "slo_violations",
          "mean_jct_slowdown", "mean_waiting_time"}) {
      EXPECT_EQ(got.result.at(key).as_number(),
                want.result.at(key).as_number())
          << key << " shards=" << shards;
    }
  }
}

TEST_F(ServiceCoreTest, SnapshotValidatorRejectsGarbage) {
  // Each document is refused for its own reason: the current version,
  // so only the kind or a missing field is wrong.
  const auto refusal = [](const json::Value& document) {
    const util::Status status = validate_snapshot_json(document);
    return status ? std::string("accepted") : status.error().message;
  };
  EXPECT_EQ(refusal(json::Value{}), "snapshot: document is not an object");
  json::Value doc;
  doc.set("schema_version", kSnapshotSchemaVersion);
  doc.set("kind", "wrong");
  EXPECT_EQ(refusal(doc), "snapshot: kind must be 'svc_snapshot'");
  json::Value missing;
  missing.set("schema_version", kSnapshotSchemaVersion);
  missing.set("kind", std::string(kSnapshotKind));
  missing.set("now", 1.0);
  EXPECT_EQ(refusal(missing),
            "snapshot: missing numeric 'capacity_version'");
  missing.set("capacity_version", 0);
  EXPECT_EQ(refusal(missing), "snapshot: missing array 'running'");
  auto bad_version = json::parse(
      R"({"schema_version":99,"kind":"svc_snapshot","now":0,
          "capacity_version":0,"draining":false,"next_auto_id":1,
          "running":[],"waiting":[],"pending":[],"history":[]})");
  ASSERT_TRUE(bad_version.has_value());
  EXPECT_EQ(refusal(*bad_version), "snapshot: schema_version must be 2");

  // Hostile history entries: restore_json refuses each one cleanly. The
  // origin ends with job 1 finished, job 2 cancelled, job 5 rejected,
  // jobs 3 and 6 filling both machines, job 7 waiting and job 4 pending.
  ServiceCore origin = make_core();
  ASSERT_TRUE(submit(origin, dl_job(1, 0.0, 2), 1).ok);
  ASSERT_TRUE(advance_all(origin).ok);
  const double now = origin.driver().now();
  ASSERT_TRUE(submit(origin, dl_job(2, now + 1000.0, 1), 2).ok);
  json::Value cancel_params;
  cancel_params.set("id", 2);
  ASSERT_TRUE(origin.handle(make_request(3, "cancel", cancel_params)).ok);
  ASSERT_TRUE(submit(origin, dl_job(3, now, 4), 4).ok);
  ASSERT_TRUE(submit(origin, dl_job(4, now + 5000.0, 1), 5).ok);
  ASSERT_FALSE(submit(origin, dl_job(5, now, 8), 6).ok);
  ASSERT_TRUE(submit(origin, dl_job(6, now, 4), 7).ok);
  ASSERT_TRUE(submit(origin, dl_job(7, now, 1), 8).ok);
  json::Value advance_params;
  advance_params.set("to", now);
  ASSERT_TRUE(origin.handle(make_request(9, "advance", advance_params)).ok);
  const json::Value good = origin.snapshot_json();
  ASSERT_EQ(good.at("history").as_array().size(), 3u);
  ASSERT_EQ(good.at("running").as_array().size(), 2u);
  ASSERT_EQ(good.at("waiting").as_array().size(), 1u);
  ASSERT_EQ(good.at("pending").as_array().size(), 1u);
  {
    ServiceCore restored = make_core();
    const auto status = restored.restore_json(good);
    ASSERT_TRUE(status) << status.error().message;
  }
  const json::Value finished = good.at("history").as_array()[0];
  ASSERT_EQ(finished.at("state").as_string(), "finished");
  const auto with_history = [&good](json::Array history) {
    json::Value document = good;
    document.set("history", json::Value{std::move(history)});
    return document;
  };
  const auto with_field = [&](const char* key, json::Value value) {
    json::Value entry = finished;
    entry.set(key, std::move(value));
    return with_history({entry});
  };
  const double inf = std::numeric_limits<double>::infinity();
  // Each case names the refusal it must get.
  struct Hostile {
    const char* name;
    json::Value document;
    const char* reason;
  };
  json::Value schema_one = good;
  schema_one.set("schema_version", 1);
  const json::Value& running_id =
      good.at("running").as_array()[0].at("manifest").at("id");
  const json::Value& waiting_id =
      good.at("waiting").as_array()[0].at("manifest").at("id");
  const json::Value& pending_id =
      good.at("pending").as_array()[0].at("manifest").at("id");
  const std::vector<Hostile> hostile = {
      {"schema 1", schema_one, "schema_version must be 2"},
      {"string id", with_field("id", "1"), "without integer 'id'"},
      {"fractional id", with_field("id", 1.5), "without integer 'id'"},
      {"unknown state", with_field("state", "exploded"),
       "unknown state 'exploded'"},
      {"missing state", with_field("state", json::Value{}),
       "unknown state ''"},
      {"repeated id", with_history({finished, finished}),
       "id already known"},
      {"running id", with_field("id", running_id), "id already known"},
      {"waiting id", with_field("id", waiting_id), "id already known"},
      {"pending id", with_field("id", pending_id), "id already known"},
      {"infinite end", with_field("end", inf), "non-finite"},
      {"NaN arrival", with_field("arrival", std::nan("")), "non-finite"},
      {"negative arrival", with_field("arrival", -5.0), "negative time"},
      {"negative start", with_field("start", -3.0), "negative time"},
      {"start after end",
       with_field("start", finished.at("end").as_number() + 1.0),
       "times do not match the terminal state"},
      {"gpus not an array", with_field("gpus", "0,1"), "without gpus array"},
      {"fractional gpu", with_field("gpus", json::Value{json::Array{0.5, 1}}),
       "non-integer GPU id"},
      {"string gpu", with_field("gpus", json::Value{json::Array{"a", 1}}),
       "non-integer GPU id"},
      {"gpu out of range",
       with_field("gpus", json::Value{json::Array{0, 99}}),
       "GPU id out of range"},
  };
  for (const Hostile& item : hostile) {
    ServiceCore restored = make_core();
    const util::Status status = restored.restore_json(item.document);
    ASSERT_FALSE(status) << item.name;
    EXPECT_NE(status.error().message.find(item.reason), std::string::npos)
        << item.name << ": " << status.error().message;
  }
}

// --- prototype equivalence --------------------------------------------------

TEST_F(ServiceCoreTest, ManifestSubmitMatchesPrototypeRuntime) {
  // One fixed workload written as a Section 5.1 manifest file.
  std::vector<jobgraph::JobRequest> jobs;
  for (int i = 1; i <= 8; ++i) {
    jobs.push_back(dl_job(i, 3.0 * i, 1 + (i % 4), 250));
  }
  json::Value manifest;
  for (const jobgraph::JobRequest& job : jobs) {
    manifest.mutable_array().push_back(jobgraph::to_manifest(job));
  }
  const std::string path =
      util::fmt("./svc_manifest_{}.json", static_cast<int>(::getpid()));
  {
    std::ofstream out(path);
    out << json::write(manifest, {.indent = 2});
  }

  // Batch prototype run (Sections 5.1/5.2) on the same policy.
  proto::PrototypeRuntime runtime(topology_, model_);
  proto::PrototypeConfig config;
  config.policy = sched::Policy::kTopoAwareP;
  const auto proto_run = runtime.run_manifest(config, path);
  ASSERT_TRUE(proto_run.has_value()) << proto_run.error().message;

  // Service run: submit the same manifest over the verb, drain.
  ServiceCore core = make_core();
  json::Value params;
  params.set("manifest", path);
  const Response submitted =
      core.handle(make_request(1, "submit", std::move(params)));
  ASSERT_TRUE(submitted.ok) << submitted.message;
  EXPECT_EQ(submitted.result.at("accepted").as_int(), 8);
  ASSERT_TRUE(core.handle(make_request(2, "drain")).ok);

  // Identical placements and timings, job by job.
  for (const jobgraph::JobRequest& job : jobs) {
    const auto record = core.driver().job_record(job.id);
    const cluster::JobRecord* expected =
        proto_run->report.recorder.find(job.id);
    ASSERT_TRUE(record.has_value());
    ASSERT_NE(expected, nullptr);
    EXPECT_EQ(record->gpus, expected->gpus) << "job " << job.id;
    EXPECT_DOUBLE_EQ(record->start, expected->start) << "job " << job.id;
    EXPECT_DOUBLE_EQ(record->end, expected->end) << "job " << job.id;
    EXPECT_DOUBLE_EQ(record->placement_utility, expected->placement_utility);
  }
  std::remove(path.c_str());
}

// --- socket server (TSan target) --------------------------------------------

TEST(SvcServerTest, ConcurrentClientsSubmitAndDrain) {
  const topo::TopologyGraph topology = topo::builders::cluster(
      2, topo::builders::MachineShape::kPower8Minsky);
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  ServiceOptions options;
  options.config.max_queue = 64;
  ServiceCore core(topology, model, options);

  const std::string socket_path =
      util::fmt("./svc_test_{}.sock", static_cast<int>(::getpid()));
  ServerOptions server_options;
  server_options.unix_socket = socket_path;
  Server server(core, server_options);
  ASSERT_TRUE(server.start());
  std::thread server_thread([&server] { (void)server.run(); });

  constexpr int kClients = 4;
  constexpr int kJobsPerClient = 5;
  std::atomic<int> accepted{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = Client::connect_unix(socket_path);
      ASSERT_TRUE(client.has_value()) << client.error().message;
      for (int j = 0; j < kJobsPerClient; ++j) {
        const int id = 1 + c * kJobsPerClient + j;
        json::Value params;
        params.set("job",
                   jobgraph::to_manifest(dl_job(id, 1.0 * id, 1, 150)));
        const auto response = client->call("submit", params);
        ASSERT_TRUE(response.has_value()) << response.error().message;
        if (response->ok) accepted.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(accepted.load(), kClients * kJobsPerClient);

  auto control = Client::connect_unix(socket_path);
  ASSERT_TRUE(control.has_value());
  const auto drained = control->call("drain");
  ASSERT_TRUE(drained.has_value());
  EXPECT_TRUE(drained->ok);
  const auto listing = control->call("list");
  ASSERT_TRUE(listing.has_value());
  ASSERT_TRUE(listing->ok);
  EXPECT_EQ(listing->result.at("finished").as_array().size(),
            static_cast<std::size_t>(kClients * kJobsPerClient));
  const auto shutdown = control->call("shutdown");
  ASSERT_TRUE(shutdown.has_value());
  EXPECT_TRUE(shutdown->ok);
  server_thread.join();
}

TEST(SvcServerTest, MalformedLineClosesSession) {
  const topo::TopologyGraph topology = topo::builders::cluster(
      1, topo::builders::MachineShape::kPower8Minsky);
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  ServiceCore core(topology, model, {});

  const std::string socket_path =
      util::fmt("./svc_bad_{}.sock", static_cast<int>(::getpid()));
  ServerOptions server_options;
  server_options.unix_socket = socket_path;
  Server server(core, server_options);
  ASSERT_TRUE(server.start());
  std::thread server_thread([&server] { (void)server.run(); });

  auto bad = Client::connect_unix(socket_path);
  ASSERT_TRUE(bad.has_value());
  const auto reply = bad->roundtrip_raw("this is not json\n");
  ASSERT_TRUE(reply.has_value()) << reply.error().message;
  EXPECT_FALSE(reply->ok);
  EXPECT_EQ(reply->id, 0);
  EXPECT_EQ(reply->code, ErrorCode::kParse);
  // The session is gone; the next round trip fails at the transport.
  EXPECT_FALSE(bad->call("ping").has_value());

  // A fresh session still works.
  auto good = Client::connect_unix(socket_path);
  ASSERT_TRUE(good.has_value());
  const auto pong = good->call("ping");
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(pong->ok);

  server.stop();
  server_thread.join();
}

// --- protocol fuzz corpus ---------------------------------------------------

/// Hostile input the parser must classify the same way every time: empty
/// and whitespace-only lines, non-object JSON, missing/typed-wrong
/// required fields, embedded NULs and control bytes, deep nesting, and
/// near-miss requests. None of these should ever crash or be accepted.
std::vector<std::string> fuzz_corpus() {
  std::vector<std::string> corpus = {
      std::string(),
      " ",
      "\t \t",
      "null",
      "true",
      "0",
      "-1e309",
      "\"just a string\"",
      "[]",
      "[{\"v\":1,\"id\":1,\"verb\":\"ping\"}]",
      "{}",
      "{\"v\":1}",
      "{\"id\":7}",
      "{\"verb\":\"ping\"}",
      "{\"v\":1,\"id\":1}",
      "{\"v\":1,\"verb\":\"ping\"}",
      "{\"id\":1,\"verb\":\"ping\"}",
      "{\"v\":\"one\",\"id\":1,\"verb\":\"ping\"}",
      "{\"v\":1,\"id\":\"one\",\"verb\":\"ping\"}",
      "{\"v\":1,\"id\":1,\"verb\":7}",
      "{\"v\":1,\"id\":1,\"verb\":\"\"}",
      "{\"v\":1,\"id\":1,\"verb\":\"ping\",\"params\":[]}",
      "{\"v\":1,\"id\":1,\"verb\":\"ping\"}{\"v\":1,\"id\":2,\"verb\":\"ping\"}",
      "{\"v\":1,\"id\":1,\"verb\":\"ping\" garbage",
      "{\"v\":1,\"id\":1,\"verb\":\"ping\"",
      "ping",
      "GET / HTTP/1.1",
      "\xff\xfe\x00\x01",
      std::string("{\"v\":1,\0\"id\":1}", 16),
  };
  corpus.push_back(std::string(64, '{'));
  corpus.push_back(std::string(64, '[') + std::string(64, ']'));
  return corpus;
}

// Every proper prefix of a valid request line is malformed, and must be
// rejected — at every truncation point, not just "obviously broken" ones.
TEST(SvcProtocolTest, TruncatedRequestPrefixesNeverParse) {
  json::Value params;
  params.set("job", jobgraph::to_manifest(dl_job(3, 1.5, 2)));
  const std::string line = encode(make_request(11, "submit", std::move(params)));
  const std::string body = line.substr(0, line.size() - 1);  // strip '\n'
  ASSERT_TRUE(parse_request(body).has_value());
  for (size_t cut = 0; cut < body.size(); ++cut) {
    EXPECT_FALSE(parse_request(body.substr(0, cut)).has_value())
        << "prefix of length " << cut << " parsed";
  }
}

// The corpus never crashes the parser and classifies identically across
// repeated parses — rejection must be a pure function of the bytes.
TEST(SvcProtocolTest, FuzzCorpusClassifiesDeterministically) {
  for (const std::string& line : fuzz_corpus()) {
    const auto first = parse_request(line);
    const auto second = parse_request(line);
    EXPECT_FALSE(first.has_value()) << "accepted: " << line;
    ASSERT_EQ(first.has_value(), second.has_value());
    if (!first.has_value()) {
      EXPECT_EQ(first.error().message, second.error().message)
          << "unstable rejection for: " << line;
    }
  }
}

// handle_line answers every corpus line (and every truncation of a valid
// line) with a well-formed parse failure on id 0, and the core keeps
// serving afterwards — hostile input is contained, never sticky.
TEST_F(ServiceCoreTest, FuzzCorpusLinesAlwaysAnswerWellFormed) {
  ServiceCore core = make_core();
  std::vector<std::string> lines = fuzz_corpus();
  const std::string valid = encode(make_request(5, "ping"));
  for (size_t cut = 0; cut + 1 < valid.size(); ++cut) {
    lines.push_back(valid.substr(0, cut));
  }
  for (const std::string& line : lines) {
    const Response response = core.handle_line(line);
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.id, 0);
    EXPECT_EQ(response.code, ErrorCode::kParse);
    const auto reparsed = parse_response(encode(response));
    ASSERT_TRUE(reparsed.has_value()) << "unencodable response for: " << line;
    EXPECT_EQ(reparsed->code, ErrorCode::kParse);
  }
  const Response pong = core.handle(make_request(6, "ping"));
  EXPECT_TRUE(pong.ok);
}

/// Raw pipelined exchange: connect, send all bytes at once, read reply
/// lines until EOF or `max_replies`. Client can't pipeline (strict
/// request/response), and fuzzing batch boundaries needs pipelining.
std::vector<std::string> raw_pipelined(const std::string& socket_path,
                                       const std::string& bytes,
                                       int max_replies) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0 ||
      ::send(fd, bytes.data(), bytes.size(), 0) !=
          static_cast<ssize_t>(bytes.size())) {
    ::close(fd);
    return {};
  }
  std::string in;
  std::vector<std::string> lines;
  char buffer[4096];
  while (static_cast<int>(lines.size()) < max_replies) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
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

// A malformed line at EVERY position of a pipelined burst — before, on
// and after each batch boundary of a batch_max=3 server — produces the
// same reply stream as the unbatched oracle: the valid replies that
// preceded it, one parse failure on id 0, then connection close with the
// rest of the pipeline dropped.
TEST(SvcServerTest, MalformedLineAtEveryBatchBoundary) {
  const topo::TopologyGraph topology = topo::builders::cluster(
      1, topo::builders::MachineShape::kPower8Minsky);
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());

  constexpr int kLines = 6;
  const auto run_once = [&](int batch_max, int malformed_at)
      -> std::vector<std::string> {
    ServiceCore core(topology, model, {});
    const std::string socket_path =
        util::fmt("./svc_fuzz_{}_{}_{}.sock", static_cast<int>(::getpid()),
                  batch_max, malformed_at);
    ServerOptions server_options;
    server_options.unix_socket = socket_path;
    server_options.batch_max = batch_max;
    Server server(core, server_options);
    EXPECT_TRUE(server.start());
    std::thread server_thread([&server] { (void)server.run(); });
    std::string bytes;
    for (int i = 0; i < kLines; ++i) {
      if (i == malformed_at) {
        bytes += "{\"v\":1,\"id\":99,\"verb\":\"subm\n";  // truncated JSON
      } else {
        json::Value params;
        params.set("job", jobgraph::to_manifest(dl_job(i + 1, 1.0 * (i + 1),
                                                       /*num_gpus=*/1)));
        bytes += encode(make_request(i + 1, "submit", std::move(params)));
      }
    }
    const std::vector<std::string> replies =
        raw_pipelined(socket_path, bytes, kLines + 1);
    server.stop();
    server_thread.join();
    return replies;
  };

  for (int malformed_at = 0; malformed_at < kLines; ++malformed_at) {
    const std::vector<std::string> oracle = run_once(1, malformed_at);
    ASSERT_EQ(static_cast<int>(oracle.size()), malformed_at + 1)
        << "malformed_at=" << malformed_at;
    const auto failure = parse_response(oracle.back() + "\n");
    ASSERT_TRUE(failure.has_value());
    EXPECT_EQ(failure->id, 0);
    EXPECT_EQ(failure->code, ErrorCode::kParse);
    const std::vector<std::string> batched = run_once(3, malformed_at);
    EXPECT_EQ(batched, oracle) << "malformed_at=" << malformed_at;
  }
}

}  // namespace
}  // namespace gts::svc
