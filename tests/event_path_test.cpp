// Event-path suite (DESIGN.md section 20): the scoped O(touched) event
// path — link-indexed rate recompute, skip-on-equal-rate regime
// anchoring, FlowDelta subtract-on-read, indexed finish-time heap — is
// byte-identical to the pre-scoping full recompute it replaced.
//
//   * Seeded mixed traces with a heavy multi-machine share, unsharded
//     and at shard counts {1, 4}, pinned by committed digests
//     (tests/decision_digest.hpp) over every record plus the event count
//     and end-time bits. Recorded while the full recompute still ran the
//     same traces to identical records.
//   * Heap vs the old all-jobs scan for next_completion, including
//     bitwise rate ties (smaller id wins, the ordered-map tie-break) and
//     zero-rate jobs (absent from the heap).
//   * Link-index + heap + occupancy-counter consistency audited by
//     check::validate after every step of random place/remove churn.
//   * Snapshot -> restore: a restored driver carries bitwise-identical
//     rates and finish times and replays the rest of the run identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "check/audit.hpp"
#include "cluster/recorder.hpp"
#include "cluster/state.hpp"
#include "decision_digest.hpp"
#include "perf/model.hpp"
#include "perf/profile.hpp"
#include "sched/driver.hpp"
#include "sched/topo_aware.hpp"
#include "shard/sharded_driver.hpp"
#include "sim/arrivals.hpp"
#include "topo/builders.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace gts {
namespace {

using topo::builders::MachineShape;

/// Mixed workload with a guaranteed multi-machine share: the task-count
/// pattern {1, 2, 4, 8} puts every 4th job across two Minsky machines
/// (4 GPUs each), and 8-GPU jobs carry cross-machine comm flows — the
/// placements the link index exists for.
std::vector<jobgraph::JobRequest> mixed_jobs(
    int job_count, const perf::DlWorkloadModel& model,
    const topo::TopologyGraph& topology, std::uint64_t seed) {
  util::Rng rng(seed);
  const std::vector<double> arrivals =
      sim::poisson_arrivals(job_count, /*rate_per_minute=*/40.0, rng);
  const jobgraph::NeuralNet nets[] = {jobgraph::NeuralNet::kAlexNet,
                                      jobgraph::NeuralNet::kCaffeRef,
                                      jobgraph::NeuralNet::kGoogLeNet};
  const int batches[] = {1, 4, 16};
  const int tasks_pattern[] = {1, 2, 4, 8};
  const int per_machine =
      static_cast<int>(topology.gpus_of_machine(0).size());

  std::vector<jobgraph::JobRequest> jobs;
  jobs.reserve(static_cast<size_t>(job_count));
  for (int i = 0; i < job_count; ++i) {
    const int tasks = tasks_pattern[i % 4];
    jobgraph::JobRequest request = perf::make_profiled_dl(
        i, arrivals[static_cast<size_t>(i)], nets[i % 3],
        batches[(i / 3) % 3], tasks, tasks == 1 ? 0.3 : 0.5, model, topology,
        300);
    if (tasks > per_machine) request.profile.single_node = false;
    jobs.push_back(std::move(request));
  }
  return jobs;
}

/// A run pinned by its record digest, event count and end-time bits.
struct PinnedRun {
  int axis;  // shard count (1 for the unsharded driver)
  std::uint64_t digest;
  std::uint64_t events;
  std::uint64_t end_time_bits;
};

void expect_pinned(const sched::DriverReport& report, const PinnedRun& pin,
                   const std::string& label) {
  const std::uint64_t digest =
      testing_digest::decision_digest(report.recorder);
  const std::uint64_t end_bits =
      testing_digest::Fnv1a::bits(report.end_time);
  EXPECT_EQ(digest, pin.digest)
      << label << " digest " << testing_digest::hex(digest);
  EXPECT_EQ(report.events, pin.events) << label;
  EXPECT_EQ(end_bits, pin.end_time_bits)
      << label << " end_time bits " << testing_digest::hex(end_bits);
}

/// The pre-heap next_completion: linear scan over every running job,
/// recomputing the finish time from banked progress at `now`. Kept here
/// verbatim as the reference the heap must agree with.
std::optional<std::pair<int, double>> scan_next_completion(
    const cluster::ClusterState& state, double now) {
  std::optional<std::pair<int, double>> best;
  for (const auto& [id, job] : state.running_jobs()) {
    if (job.rate <= 0.0) continue;
    const double pending = now - job.last_update;
    const double done = job.progress_iterations + job.rate * pending;
    const double remaining =
        static_cast<double>(job.request.iterations) - done;
    const double finish = now + std::max(0.0, remaining) / job.rate;
    if (!best || finish < best->second) best = {id, finish};
  }
  return best;
}

TEST(EventPathTest, MixedTraceMatchesCommittedDigests) {
  const topo::TopologyGraph topology =
      topo::builders::cluster(8, MachineShape::kPower8Minsky);
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  const auto jobs = mixed_jobs(400, model, topology, /*seed=*/20260807);

  const PinnedRun pin{1, 0xc25536f1ab59d127ULL, 800, 0x40c50ea64242ceb2ULL};
  sched::TopoAwareScheduler scheduler({}, /*postpone=*/false);
  sched::Driver driver(topology, model, scheduler);
  const sched::DriverReport report = driver.run(jobs);
  ASSERT_EQ(report.recorder.records().size(), 400u);
  expect_pinned(report, pin, "unsharded");
}

TEST(EventPathTest, MixedTraceMatchesCommittedDigestsAcrossShardCounts) {
  const topo::TopologyGraph topology =
      topo::builders::cluster(8, MachineShape::kPower8Minsky);
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  const auto jobs = mixed_jobs(300, model, topology, /*seed=*/7);

  const PinnedRun pinned[] = {
      {1, 0x58bb1423a2d53f7cULL, 600, 0x40a8bef445b5a225ULL},
      {4, 0x30f1ff839733b8d8ULL, 600, 0x40b117a704ed79d3ULL},
  };
  for (const PinnedRun& pin : pinned) {
    shard::ShardedOptions options;
    options.shards = pin.axis;
    shard::ShardedDriver driver(topology, model, options);
    const sched::DriverReport report = driver.run(jobs);
    ASSERT_GT(report.recorder.records().size(), 0u);
    expect_pinned(report, pin, "shards=" + std::to_string(pin.axis));
  }
}

TEST(EventPathTest, HeapAgreesWithScanAndBreaksTiesBySmallerId) {
  const topo::TopologyGraph topology =
      topo::builders::cluster(4, MachineShape::kPower8Minsky);
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  cluster::ClusterState state(topology, model);

  // Two identical single-GPU jobs on symmetric GPUs of different machines:
  // identical inputs give bitwise-equal rates and finish times, the exact
  // tie the (time, id) heap ordering must resolve like the old id-ordered
  // scan — smaller id first.
  const jobgraph::JobRequest a = perf::make_profiled_dl(
      3, 0.0, jobgraph::NeuralNet::kAlexNet, 4, 1, 0.3, model, topology, 100);
  const jobgraph::JobRequest b = perf::make_profiled_dl(
      1, 0.0, jobgraph::NeuralNet::kAlexNet, 4, 1, 0.3, model, topology, 100);
  state.place(a, {topology.gpus_of_machine(0)[0]}, 0.0);
  state.place(b, {topology.gpus_of_machine(1)[0]}, 0.0);
  ASSERT_EQ(state.find(3)->rate, state.find(1)->rate);
  ASSERT_EQ(state.find(3)->finish_time, state.find(1)->finish_time);

  const auto tied = state.next_completion(0.0);
  ASSERT_TRUE(tied.has_value());
  EXPECT_EQ(tied->first, 1);  // smaller id wins the bitwise tie
  const auto scanned = scan_next_completion(state, 0.0);
  ASSERT_TRUE(scanned.has_value());
  EXPECT_EQ(tied->first, scanned->first);
  EXPECT_EQ(tied->second, scanned->second);

  // Both tied jobs are due together at the stored finish time.
  const std::vector<int> due = state.due_completions(tied->second);
  EXPECT_EQ(due, (std::vector<int>{1, 3}));
  EXPECT_TRUE(state.due_completions(tied->second - 1.0).empty());

  // A third, slower job (bigger batch, interference from machine sharing)
  // lands behind the tied pair; heap and scan agree after banking at an
  // intermediate time (banking rebases both to the same anchors).
  const jobgraph::JobRequest c = perf::make_profiled_dl(
      2, 0.0, jobgraph::NeuralNet::kGoogLeNet, 16, 2, 0.5, model, topology,
      5000);
  state.place(c,
              {topology.gpus_of_machine(2)[0], topology.gpus_of_machine(2)[1]},
              1.0);
  state.bank_progress(2.5);
  const auto heap_next = state.next_completion(2.5);
  const auto scan_next = scan_next_completion(state, 2.5);
  ASSERT_TRUE(heap_next.has_value());
  ASSERT_TRUE(scan_next.has_value());
  EXPECT_EQ(heap_next->first, scan_next->first);
  EXPECT_EQ(heap_next->second, scan_next->second);

  // Removing the heap top promotes the other half of the tie.
  state.remove(1, 3.0);
  const auto promoted = state.next_completion(3.0);
  ASSERT_TRUE(promoted.has_value());
  EXPECT_EQ(promoted->first, 3);
  EXPECT_EQ(promoted->second, scan_next_completion(state, 3.0)->second);
}

TEST(EventPathTest, ZeroRateJobsStayOutOfTheHeap) {
  // compute_scale = 0 makes a single-GPU job (no comm edges) take zero
  // time per iteration -> rate 0 -> it can never complete on its own and
  // must not occupy a heap slot (the old scan skipped rate <= 0 too).
  perf::CalibrationParams params = perf::CalibrationParams::paper_minsky();
  params.compute_scale = 0.0;
  const perf::DlWorkloadModel model(params);
  const topo::TopologyGraph topology =
      topo::builders::cluster(2, MachineShape::kPower8Minsky);
  cluster::ClusterState state(topology, model);

  const jobgraph::JobRequest solo = perf::make_profiled_dl(
      0, 0.0, jobgraph::NeuralNet::kAlexNet, 4, 1, 0.3, model, topology, 100);
  state.place(solo, {0}, 0.0);
  ASSERT_NE(state.find(0), nullptr);
  EXPECT_EQ(state.find(0)->rate, 0.0);
  EXPECT_EQ(state.find(0)->heap_pos, -1);
  EXPECT_TRUE(state.finish_heap().empty());
  EXPECT_FALSE(state.next_completion(0.0).has_value());
  EXPECT_EQ(scan_next_completion(state, 0.0), std::nullopt);
  EXPECT_TRUE(state.due_completions(1e9).empty());

  // A communicating job still completes: comm time is nonzero, so it gets
  // a slot while the zero-rate job keeps none.
  const jobgraph::JobRequest pair = perf::make_profiled_dl(
      1, 0.0, jobgraph::NeuralNet::kAlexNet, 4, 2, 0.5, model, topology, 100);
  state.place(pair, {4, 5}, 0.0);
  ASSERT_GT(state.find(1)->rate, 0.0);
  EXPECT_EQ(state.finish_heap().size(), 1u);
  const auto next = state.next_completion(0.0);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->first, 1);
  EXPECT_EQ(next->second, scan_next_completion(state, 0.0)->second);
}

TEST(EventPathTest, ChurnKeepsLinkIndexHeapAndCountersConsistent) {
  const topo::TopologyGraph topology =
      topo::builders::cluster(6, MachineShape::kPower8Minsky);
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  cluster::ClusterState state(topology, model);
  const auto jobs = mixed_jobs(120, model, topology, /*seed=*/99);

  // Random place/remove churn with naive first-free placement (8-GPU jobs
  // straddle machines, exercising the link index); check::validate replays
  // the link index, flow_link_counts, finish heap and occupancy counters
  // from scratch after every mutation.
  util::Rng rng(4242);
  std::deque<int> resident;
  double now = 0.0;
  for (const jobgraph::JobRequest& job : jobs) {
    now += 1.0;
    while (state.free_gpu_count() < job.num_gpus && !resident.empty()) {
      state.remove(resident.front(), now);
      resident.pop_front();
      ASSERT_TRUE(check::validate(state).is_ok()) << "after eviction";
    }
    std::vector<int> gpus;
    for (int g = 0; g < topology.gpu_count() &&
                    static_cast<int>(gpus.size()) < job.num_gpus;
         ++g) {
      if (state.gpu_free(g)) gpus.push_back(g);
    }
    ASSERT_EQ(static_cast<int>(gpus.size()), job.num_gpus);
    state.place(job, std::move(gpus), now);
    resident.push_back(job.id);
    ASSERT_TRUE(check::validate(state).is_ok()) << "after placing " << job.id;
    // Random mid-stream removal keeps the indices churning both ways.
    if (resident.size() > 3 && rng.uniform() < 0.3) {
      const size_t victim =
          static_cast<size_t>(rng.uniform_int(
              0, static_cast<int>(resident.size()) - 1));
      state.remove(resident[victim], now);
      resident.erase(resident.begin() + static_cast<long>(victim));
      ASSERT_TRUE(check::validate(state).is_ok()) << "after random removal";
    }
  }
  while (!resident.empty()) {
    now += 1.0;
    state.remove(resident.front(), now);
    resident.pop_front();
    ASSERT_TRUE(check::validate(state).is_ok()) << "during teardown";
  }
  EXPECT_TRUE(state.finish_heap().empty());
  EXPECT_EQ(state.fragmentation(), 1.0);  // every socket free again
  EXPECT_EQ(state.free_gpu_count(), topology.gpu_count());
}

TEST(EventPathTest, SnapshotRestoreCarriesBitwiseIdenticalRates) {
  const topo::TopologyGraph topology =
      topo::builders::cluster(8, MachineShape::kPower8Minsky);
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  const auto jobs = mixed_jobs(200, model, topology, /*seed=*/11);

  sched::TopoAwareScheduler scheduler_a({}, /*postpone=*/false);
  sched::Driver original(topology, model, scheduler_a);
  for (const jobgraph::JobRequest& job : jobs) {
    ASSERT_EQ(original.submit(job), sched::SubmitResult::kAccepted);
  }
  const double mid = jobs[120].arrival_time;
  original.advance_to(mid);
  // The snapshot seam: banking rebases every (progress, last_update,
  // finish_time) to `mid`, which is exactly what restore re-derives.
  original.checkpoint_progress();
  ASSERT_GT(original.running_job_count(), 0);

  sched::TopoAwareScheduler scheduler_b({}, /*postpone=*/false);
  sched::Driver restored(topology, model, scheduler_b);
  ASSERT_TRUE(
      restored.begin_restore(mid, original.capacity_version()).is_ok());
  original.visit_running([&](const sched::RunningJobView& view) {
    const std::vector<int> gpus(view.gpus.begin(), view.gpus.end());
    EXPECT_TRUE(restored
                    .restore_running(*view.request, gpus, view.start_time,
                                     view.progress_iterations,
                                     view.placement_utility,
                                     view.noise_factor)
                    .is_ok());
    return true;
  });
  original.visit_waiting([&](const sched::WaitingView& view) {
    restored.restore_waiting(*view.request, view.attempted_version);
    return true;
  });
  for (const jobgraph::JobRequest& pending : original.pending_arrivals()) {
    EXPECT_EQ(restored.submit(pending), sched::SubmitResult::kAccepted);
  }
  ASSERT_TRUE(restored.finish_restore().is_ok());

  // Rate identity: the restored regime anchors are bitwise-equal, so both
  // processes extrapolate identical progress and finish times from `mid`.
  for (const auto& [id, job] : original.state().running_jobs()) {
    const cluster::RunningJob* twin = restored.state().find(id);
    ASSERT_NE(twin, nullptr) << "job " << id;
    EXPECT_EQ(twin->rate, job.rate) << "job " << id;
    EXPECT_EQ(twin->progress_iterations, job.progress_iterations)
        << "job " << id;
    EXPECT_EQ(twin->last_update, job.last_update) << "job " << id;
    EXPECT_EQ(twin->finish_time, job.finish_time) << "job " << id;
  }
  const auto next_a = original.state().next_completion(mid);
  const auto next_b = restored.state().next_completion(mid);
  ASSERT_EQ(next_a.has_value(), next_b.has_value());
  if (next_a) {
    EXPECT_EQ(next_a->first, next_b->first);
    EXPECT_EQ(next_a->second, next_b->second);
  }

  // Both processes replay the remainder of the run identically.
  original.advance_all();
  restored.advance_all();
  EXPECT_EQ(original.now(), restored.now());
  restored.visit_records([&](const cluster::JobRecord& record) {
    const auto twin = original.job_record(record.id);
    EXPECT_TRUE(twin.has_value()) << "job " << record.id;
    if (twin) {
      EXPECT_EQ(record.gpus, twin->gpus) << "job " << record.id;
      EXPECT_EQ(record.end, twin->end) << "job " << record.id;
    }
    return true;
  });
}

}  // namespace
}  // namespace gts
