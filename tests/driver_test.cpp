#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>

#include "decision_digest.hpp"
#include "perf/profile.hpp"
#include "trace/generator.hpp"
#include "sched/driver.hpp"
#include "sched/topo_aware.hpp"
#include "topo/builders.hpp"

namespace gts::sched {
namespace {

using jobgraph::JobRequest;
using jobgraph::NeuralNet;

class DriverTest : public ::testing::Test {
 protected:
  topo::TopologyGraph topo_ = topo::builders::power8_minsky();
  perf::DlWorkloadModel model_{perf::CalibrationParams::paper_minsky()};

  JobRequest job(int id, double arrival, int gpus, int batch = 1,
                 long long iterations = 400) {
    return perf::make_profiled_dl(id, arrival, NeuralNet::kAlexNet, batch,
                                  gpus, gpus > 1 ? 0.5 : 0.3, model_, topo_,
                                  iterations);
  }

  DriverReport run(Policy policy, std::vector<JobRequest> jobs) {
    const auto scheduler = make_scheduler(policy);
    Driver driver(topo_, model_, *scheduler);
    return driver.run(std::move(jobs));
  }
};

TEST_F(DriverTest, SingleJobRunsToCompletion) {
  const DriverReport report = run(Policy::kFcfs, {job(0, 1.0, 1)});
  const cluster::JobRecord* record = report.recorder.find(0);
  ASSERT_NE(record, nullptr);
  EXPECT_TRUE(record->finished());
  EXPECT_DOUBLE_EQ(record->start, 1.0);
  // 400 iterations at 25 ms solo.
  EXPECT_NEAR(record->end, 1.0 + 400 * 0.025, 0.1);
  EXPECT_EQ(report.rejected_jobs, 0);
  EXPECT_GT(report.decision_count, 0);
}

TEST_F(DriverTest, StaysReadableAfterRun) {
  // Four 3-GPU jobs at once on one 4-GPU machine: three of them wait
  // beside a free GPU, so every pass postpones them.
  std::vector<JobRequest> jobs;
  for (int i = 0; i < 4; ++i) jobs.push_back(job(i, 0.0, 3));
  const auto scheduler = make_scheduler(Policy::kBestFit);
  Driver driver(topo_, model_, *scheduler);
  const DriverReport report = driver.run(jobs);
  long long postponements = 0;
  for (const cluster::JobRecord& record : report.recorder.records()) {
    postponements += record.postponements;
  }
  EXPECT_GT(postponements, 0);
  EXPECT_EQ(driver.lifecycle().postponements, postponements);
  EXPECT_EQ(driver.recorder().records().size(), 4u);
  EXPECT_EQ(driver.report().decision_count, report.decision_count);
}

TEST_F(DriverTest, CompletionTimesReflectInterference) {
  // Two identical 2-GPU jobs, one per socket: each suffers the Fig. 6
  // tiny|tiny machine-level slowdown (30%).
  const DriverReport report =
      run(Policy::kFcfs, {job(0, 0.0, 2), job(1, 0.0, 2)});
  const cluster::JobRecord* a = report.recorder.find(0);
  ASSERT_TRUE(a->finished());
  const double solo = 400 * 0.075;
  EXPECT_NEAR(a->execution_time(), solo * 1.30, solo * 0.02);
}

TEST_F(DriverTest, QueuedJobStartsWhenGpusFree) {
  // Machine full until job 0 finishes.
  std::vector<JobRequest> jobs = {job(0, 0.0, 4), job(1, 1.0, 2)};
  const DriverReport report = run(Policy::kFcfs, jobs);
  const cluster::JobRecord* first = report.recorder.find(0);
  const cluster::JobRecord* second = report.recorder.find(1);
  ASSERT_TRUE(first->finished());
  ASSERT_TRUE(second->finished());
  EXPECT_NEAR(second->start, first->end, 1e-6);
  EXPECT_GT(second->waiting_time(), 0.0);
}

TEST_F(DriverTest, FcfsBlocksBehindHeadOfLine) {
  // Head job needs 4 GPUs (waits for job 0); a later 1-GPU job must NOT
  // overtake it under strict FIFO.
  std::vector<JobRequest> jobs = {job(0, 0.0, 2), job(1, 1.0, 4),
                                  job(2, 2.0, 1)};
  const DriverReport report = run(Policy::kFcfs, jobs);
  const cluster::JobRecord* blocked = report.recorder.find(1);
  const cluster::JobRecord* late = report.recorder.find(2);
  ASSERT_TRUE(blocked->finished());
  ASSERT_TRUE(late->finished());
  EXPECT_GE(late->start, blocked->start);
}

TEST_F(DriverTest, TopoAwareAllowsOvertaking) {
  // Same workload under TOPO-AWARE: the 1-GPU job may start while the
  // 4-GPU job waits (Algorithm 1 keeps scanning the queue).
  std::vector<JobRequest> jobs = {job(0, 0.0, 2), job(1, 1.0, 4),
                                  job(2, 2.0, 1)};
  const DriverReport report = run(Policy::kTopoAware, jobs);
  const cluster::JobRecord* blocked = report.recorder.find(1);
  const cluster::JobRecord* late = report.recorder.find(2);
  ASSERT_TRUE(blocked->finished());
  ASSERT_TRUE(late->finished());
  EXPECT_LT(late->start, blocked->start);
}

TEST_F(DriverTest, ImpossibleJobRejectedNotDeadlocked) {
  std::vector<JobRequest> jobs = {job(0, 0.0, 1),
                                  job(1, 1.0, 8)};  // 8 > 4 GPUs
  const DriverReport report = run(Policy::kFcfs, jobs);
  EXPECT_EQ(report.rejected_jobs, 1);
  EXPECT_TRUE(report.recorder.find(0)->finished());
  EXPECT_FALSE(report.recorder.find(1)->placed());
}

TEST_F(DriverTest, SingleNodeSpreadRejectedWithoutBlockingFcfs) {
  // Tasks on distinct machines, yet all on one machine: no placement of
  // this shape passes the audit, so it is refused at submission instead of
  // sitting at the head of a blocking queue for good.
  const topo::TopologyGraph cluster = topo::builders::make_cluster(
      4, 4, topo::builders::MachineShape::kPower8Minsky);
  const auto scheduler = make_scheduler(Policy::kFcfs);
  Driver driver(cluster, model_, *scheduler);
  JobRequest spread = perf::make_profiled_dl(
      0, 0.0, NeuralNet::kAlexNet, 1, 2, 0.0, model_, cluster, 400);
  spread.profile.single_node = true;
  spread.profile.anti_collocate = true;
  EXPECT_EQ(driver.submit(spread), SubmitResult::kNeverFits);
  JobRequest lone = spread;
  lone.id = 1;
  lone.num_gpus = 1;
  lone.comm_graph = jobgraph::JobGraph::all_to_all(1, 4.0);
  EXPECT_EQ(driver.submit(lone), SubmitResult::kAccepted);
  ASSERT_EQ(driver.submit(perf::make_profiled_dl(
                2, 1.0, NeuralNet::kAlexNet, 1, 2, 0.0, model_, cluster,
                400)),
            SubmitResult::kAccepted);
  driver.advance_all();
  EXPECT_EQ(driver.report().rejected_jobs, 1);
  const cluster::JobRecord* refused = driver.report().recorder.find(0);
  EXPECT_TRUE(refused == nullptr || !refused->placed());
  for (const int id : {1, 2}) {
    const cluster::JobRecord* record = driver.report().recorder.find(id);
    ASSERT_NE(record, nullptr) << id;
    EXPECT_TRUE(record->finished()) << id;
  }
}

TEST_F(DriverTest, DeterministicAcrossRuns) {
  std::vector<JobRequest> jobs = {job(0, 0.0, 2), job(1, 3.0, 2),
                                  job(2, 5.0, 1), job(3, 6.0, 2)};
  const DriverReport a = run(Policy::kTopoAwareP, jobs);
  const DriverReport b = run(Policy::kTopoAwareP, jobs);
  ASSERT_EQ(a.recorder.records().size(), b.recorder.records().size());
  for (size_t i = 0; i < a.recorder.records().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.recorder.records()[i].end,
                     b.recorder.records()[i].end);
    EXPECT_EQ(a.recorder.records()[i].gpus, b.recorder.records()[i].gpus);
  }
}

// Property sweep: for random workloads under every policy, the recorded
// schedule must be physically consistent — no GPU hosts two jobs at
// overlapping times, jobs never start before arrival, every placed job's
// GPU count matches its request, and placements respect the single-node
// constraint.
struct ScheduleProperty {
  Policy policy;
  std::uint64_t seed;
};
class SchedulePropertyTest
    : public ::testing::TestWithParam<ScheduleProperty> {};

TEST_P(SchedulePropertyTest, NoOverlapNoTimeTravel) {
  const auto [policy, seed] = GetParam();
  const topo::TopologyGraph topology = topo::builders::cluster(
      2, topo::builders::MachineShape::kPower8Minsky);
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());

  trace::GeneratorOptions gen;
  gen.job_count = 40;
  gen.iterations = 200;
  gen.seed = seed;
  const auto jobs = trace::generate_workload(gen, model, topology);

  const auto scheduler = make_scheduler(policy);
  Driver driver(topology, model, *scheduler);
  const DriverReport report = driver.run(jobs);

  const auto& records = report.recorder.records();
  for (const auto& record : records) {
    if (!record.placed()) continue;
    EXPECT_GE(record.start, record.arrival - 1e-9);
    EXPECT_EQ(static_cast<int>(record.gpus.size()), record.num_gpus);
    if (record.finished()) {
      EXPECT_GE(record.end, record.start);
    }
    // single_node jobs stay on one machine.
    std::set<int> machines;
    for (const int gpu : record.gpus) {
      machines.insert(topology.machine_of_gpu(gpu));
    }
    EXPECT_EQ(machines.size(), 1u);
  }
  // Pairwise GPU-interval overlap check.
  for (size_t i = 0; i < records.size(); ++i) {
    for (size_t j = i + 1; j < records.size(); ++j) {
      const auto& a = records[i];
      const auto& b = records[j];
      if (!a.placed() || !b.placed()) continue;
      const bool time_overlap =
          a.start < b.end - 1e-9 && b.start < a.end - 1e-9;
      if (!time_overlap) continue;
      for (const int gpu : a.gpus) {
        EXPECT_TRUE(std::find(b.gpus.begin(), b.gpus.end(), gpu) ==
                    b.gpus.end())
            << "GPU " << gpu << " double-booked by jobs " << a.id << " and "
            << b.id;
      }
    }
  }
}

std::vector<ScheduleProperty> schedule_sweep() {
  std::vector<ScheduleProperty> params;
  for (const Policy policy : {Policy::kFcfs, Policy::kBestFit,
                              Policy::kTopoAware, Policy::kTopoAwareP}) {
    for (const std::uint64_t seed : {1ULL, 7ULL, 21ULL}) {
      params.push_back({policy, seed});
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(AllPoliciesRandomWorkloads, SchedulePropertyTest,
                         ::testing::ValuesIn(schedule_sweep()));

TEST_F(DriverTest, MakespanIsLastCompletion) {
  std::vector<JobRequest> jobs = {job(0, 0.0, 1, 1, 100),
                                  job(1, 0.0, 1, 1, 1000)};
  const DriverReport report = run(Policy::kTopoAware, jobs);
  double latest = 0.0;
  for (const auto& record : report.recorder.records()) {
    latest = std::max(latest, record.end);
  }
  EXPECT_DOUBLE_EQ(report.end_time, latest);
}

// --- capacity gate -----------------------------------------------------------
//
// Decisions on a queue-heavy trace — the Fig. 11 Scenario 2 shape on 50
// Minsky machines: 500 jobs, lambda = 2 jobs/min per machine, 250
// iterations — are pinned by committed per-policy digests
// (tests/decision_digest.hpp), recorded before the driver had a capacity
// gate. The gate declines only offers no
// policy could place, so the schedule, the postponement total and the
// offer total (scheduler calls + gate skips) must all stay exactly put.
// The work counts (scheduler calls, gate skips, engine events) are pinned
// too, so a change that makes the driver do more work fails here. For the
// two TOPO-AWARE policies so are the DRB counts (bipartitions, FM passes),
// which guard the mid-recursion utility's Eq. 5 inputs.

struct PinnedPolicy {
  Policy policy;
  std::uint64_t digest;
  long long postponements;
  long long offers;  // Scheduler::place calls before the gate existed
  long long decisions;
  long long capacity_skips;
  std::uint64_t events;
  int bipartitions;  // TOPO-AWARE policies only; -1 elsewhere
  int fm_passes;
};

TEST(CapacityGateTest, QueueHeavyDecisionsMatchCommittedDigests) {
  const topo::TopologyGraph topology = topo::builders::make_cluster(
      50, 4, topo::builders::MachineShape::kPower8Minsky);
  const perf::DlWorkloadModel model{perf::CalibrationParams::paper_minsky()};
  trace::GeneratorOptions generator;
  generator.job_count = 500;
  generator.seed = 6;
  generator.iterations = 250;
  generator.arrival_rate_per_minute = 2.0 * 50;
  const std::vector<JobRequest> jobs =
      trace::generate_workload(generator, model, topology);

  const PinnedPolicy pinned[] = {
      {Policy::kBestFit, 0xf975dc3cca382916ULL, 4287, 4787, 500, 4287, 999,
       -1, -1},
      {Policy::kFcfs, 0x8d2d940924880e97ULL, 280, 780, 500, 280, 997, -1, -1},
      {Policy::kTopoAware, 0x02c5b489fd024585ULL, 4629, 5129, 500, 4629, 998,
       643, 643},
      {Policy::kTopoAwareP, 0x40c3fad06c5f80c3ULL, 4097, 4597, 522, 4075, 997,
       670, 670},
  };
  for (const PinnedPolicy& pin : pinned) {
    const std::string name(to_string(pin.policy));
    const auto scheduler = make_scheduler(pin.policy);
    Driver driver(topology, model, *scheduler);
    const DriverReport report = driver.run(jobs);
    int finished = 0;
    for (const cluster::JobRecord& record : report.recorder.records()) {
      if (record.finished()) ++finished;
    }
    EXPECT_EQ(finished, 500) << name;
    const std::uint64_t digest =
        testing_digest::decision_digest(report.recorder);
    EXPECT_EQ(digest, pin.digest)
        << name << " digest " << testing_digest::hex(digest);
    EXPECT_EQ(summarize_lifecycle(report.recorder).postponements,
              pin.postponements)
        << name;
    EXPECT_EQ(report.decision_count + report.capacity_skips, pin.offers)
        << name;
    EXPECT_GT(report.capacity_skips, 0) << name << ": the gate never fired";
    EXPECT_EQ(report.decision_count, pin.decisions) << name;
    EXPECT_EQ(report.capacity_skips, pin.capacity_skips) << name;
    EXPECT_EQ(report.events, pin.events) << name;
    EXPECT_EQ(report.placed_latency_us.count(), 500) << name;
    EXPECT_EQ(report.placed_latency_us.count() +
                  report.declined_latency_us.count(),
              report.decision_count)
        << name;
    if (const auto* topo_aware =
            dynamic_cast<const TopoAwareScheduler*>(scheduler.get())) {
      const partition::DrbStats drb = topo_aware->drb_stats();
      EXPECT_EQ(drb.bipartitions, pin.bipartitions) << name;
      EXPECT_EQ(drb.fm_passes, pin.fm_passes) << name;
    }
  }
}

}  // namespace
}  // namespace gts::sched
