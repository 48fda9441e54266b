// Tests for the check subsystem: the GTS_CHECK macro family and failure
// handler modes, the deep structural validators, and the scheduler
// placement audit — including the contract that a deliberately corrupted
// ClusterState (double-allocated GPU) is caught while valid states pass.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "check/audit.hpp"
#include "check/check.hpp"
#include "cluster/state.hpp"
#include "perf/profile.hpp"
#include "sched/driver.hpp"
#include "sched/scheduler.hpp"
#include "topo/builders.hpp"

namespace gts {
namespace {

using check::FailureMode;
using check::ScopedFailureMode;
using jobgraph::JobRequest;
using jobgraph::NeuralNet;

// --- GTS_CHECK macro family -----------------------------------------------

TEST(CheckMacros, PassingCheckIsSilent) {
  check::reset_failure_count();
  GTS_CHECK(1 + 1 == 2);
  GTS_CHECK_EQ(4, 2 + 2);
  GTS_CHECK_LT(1, 2);
  EXPECT_EQ(check::failure_count(), 0u);
}

TEST(CheckMacros, ThrowModeCarriesConditionAndFormattedMessage) {
  const ScopedFailureMode mode(FailureMode::kThrow);
  try {
    const int x = 42;
    GTS_CHECK(x < 0, "x=", x, " should be negative");
    FAIL() << "GTS_CHECK did not throw";
  } catch (const check::CheckFailedError& error) {
    EXPECT_STREQ(error.info().condition, "x < 0");
    EXPECT_EQ(error.info().message, "x=42 should be negative");
    EXPECT_GT(error.info().line, 0);
    EXPECT_NE(std::string(error.info().file).find("check_test.cpp"),
              std::string::npos);
  }
}

TEST(CheckMacros, ComparisonChecksReportBothOperands) {
  const ScopedFailureMode mode(FailureMode::kThrow);
  try {
    GTS_CHECK_EQ(2 + 2, 5);
    FAIL() << "GTS_CHECK_EQ did not throw";
  } catch (const check::CheckFailedError& error) {
    EXPECT_EQ(error.info().message, "lhs=4 rhs=5");
  }
}

TEST(CheckMacros, LogAndCountModeContinuesExecution) {
  const ScopedFailureMode mode(FailureMode::kLogAndCount);
  check::reset_failure_count();
  bool reached = false;
  GTS_CHECK(false, "soft failure");
  reached = true;  // production mode: counted, not fatal
  EXPECT_TRUE(reached);
  EXPECT_EQ(check::failure_count(), 1u);
  EXPECT_EQ(check::last_failure().message, "soft failure");
  GTS_CHECK_GE(1, 2);
  EXPECT_EQ(check::failure_count(), 2u);
}

TEST(CheckMacros, CustomHandlerReplacesModeBehaviour) {
  const ScopedFailureMode mode(FailureMode::kAbort);  // would abort if used
  std::vector<std::string> seen;
  check::set_failure_handler([&seen](const check::FailureInfo& info) {
    seen.push_back(info.to_string());
  });
  GTS_CHECK(false, "handled");
  check::set_failure_handler(nullptr);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_NE(seen[0].find("check failed: false"), std::string::npos);
  EXPECT_NE(seen[0].find("handled"), std::string::npos);
}

TEST(CheckMacros, DcheckMatchesBuildConfiguration) {
  const ScopedFailureMode mode(FailureMode::kThrow);
#if GTS_DCHECKS_ENABLED
  EXPECT_THROW(GTS_DCHECK(false, "debug check"), check::CheckFailedError);
#else
  GTS_DCHECK(false, "debug check");  // compiled out: must not evaluate
  SUCCEED();
#endif
}

// --- validate(JobGraph) ----------------------------------------------------

TEST(JobGraphValidator, WellFormedGraphsPass) {
  EXPECT_TRUE(check::validate(jobgraph::JobGraph::all_to_all(4, 2.0)).is_ok());
  EXPECT_TRUE(check::validate(jobgraph::JobGraph::ring(5, 1.0)).is_ok());
  EXPECT_TRUE(check::validate(jobgraph::JobGraph(1)).is_ok());
}

TEST(JobGraphValidator, OutOfBoundsEdgeCaught) {
  // Sneak a corrupt edge past add_edge's own check via log-and-count mode.
  const ScopedFailureMode mode(FailureMode::kLogAndCount);
  jobgraph::JobGraph graph(2);
  graph.add_edge(0, 5, 1.0);
  const util::Status status = check::validate(graph);
  ASSERT_FALSE(status.is_ok());
  EXPECT_NE(status.error().message.find("out of bounds"), std::string::npos);
}

TEST(JobGraphValidator, DuplicateEdgeCaught) {
  jobgraph::JobGraph graph(3);
  graph.add_edge(0, 1, 1.0);
  graph.add_edge(1, 0, 2.0);  // same pair, normalized
  const util::Status status = check::validate(graph);
  ASSERT_FALSE(status.is_ok());
  EXPECT_NE(status.error().message.find("duplicate"), std::string::npos);
}

// --- validate(TopologyGraph) ----------------------------------------------

TEST(TopologyValidator, BuilderTopologiesPass) {
  EXPECT_TRUE(check::validate(topo::builders::power8_minsky()).is_ok());
  EXPECT_TRUE(check::validate(topo::builders::dgx1()).is_ok());
  EXPECT_TRUE(
      check::validate(
          topo::builders::cluster(4, topo::builders::MachineShape::kDgx1))
          .is_ok());
}

TEST(TopologyValidator, DisconnectedGraphCaught) {
  topo::TopologyGraph graph;
  topo::Node machine;
  machine.kind = topo::NodeKind::kMachine;
  machine.machine = 0;
  graph.add_node(machine);
  graph.add_node(machine);  // second island, no link between them
  const util::Status status = check::validate(graph);
  ASSERT_FALSE(status.is_ok());
  EXPECT_NE(status.error().message.find("not connected"), std::string::npos);
}

// --- ClusterState audit ----------------------------------------------------

class ClusterAuditTest : public ::testing::Test {
 protected:
  topo::TopologyGraph topo_ =
      topo::builders::cluster(2, topo::builders::MachineShape::kPower8Minsky);
  perf::DlWorkloadModel model_{perf::CalibrationParams::paper_minsky()};
  cluster::ClusterState state_{topo_, model_};

  JobRequest job(int id, int gpus) {
    return perf::make_profiled_dl(id, 0.0, NeuralNet::kAlexNet, 8, gpus, 0.0,
                                  model_, topo_, 100);
  }
};

TEST_F(ClusterAuditTest, ValidStatesPass) {
  EXPECT_TRUE(check::validate(state_).is_ok());
  state_.place(job(1, 2), {0, 1}, 0.0);
  state_.place(job(2, 2), {4, 5}, 1.0);
  EXPECT_TRUE(check::validate(state_).is_ok());
  state_.remove(1, 2.0);
  EXPECT_TRUE(check::validate(state_).is_ok());
}

TEST_F(ClusterAuditTest, PlacementAuditAcceptsFeasiblePlacement) {
  state_.place(job(1, 2), {0, 1}, 0.0);
  EXPECT_TRUE(
      check::audit_placement(job(2, 2), std::vector<int>{2, 3}, state_)
          .is_ok());
}

TEST_F(ClusterAuditTest, PlacementAuditCatchesDoubleAllocatedGpu) {
  state_.place(job(1, 2), {0, 1}, 0.0);
  // A scheduler proposing GPU 1 again would double-allocate it.
  const util::Status overlap =
      check::audit_placement(job(2, 2), std::vector<int>{1, 2}, state_);
  ASSERT_FALSE(overlap.is_ok());
  EXPECT_NE(overlap.error().message.find("already allocated to job 1"),
            std::string::npos);

  // Corrupted ownership table: GPU 3 silently stolen for job 1. The same
  // placement that would otherwise be feasible now fails the audit.
  state_.corrupt_gpu_owner_for_test(3, 1);
  const util::Status corrupted =
      check::audit_placement(job(2, 2), std::vector<int>{2, 3}, state_);
  ASSERT_FALSE(corrupted.is_ok());
  EXPECT_NE(corrupted.error().message.find("GPU 3"), std::string::npos);
}

TEST_F(ClusterAuditTest, StateAuditCatchesOwnershipCorruption) {
  state_.place(job(1, 2), {0, 1}, 0.0);
  state_.place(job(2, 2), {2, 3}, 0.0);
  ASSERT_TRUE(check::validate(state_).is_ok());

  // Double allocation: the owner table hands job 2's GPU to job 1.
  state_.corrupt_gpu_owner_for_test(2, 1);
  const util::Status status = check::validate(state_);
  ASSERT_FALSE(status.is_ok());
  EXPECT_NE(status.error().message.find("GPU 2"), std::string::npos);

  state_.corrupt_gpu_owner_for_test(2, 2);  // repair
  ASSERT_TRUE(check::validate(state_).is_ok());

  // Phantom owner: a free GPU marked as held by a job that does not exist.
  state_.corrupt_gpu_owner_for_test(7, 99);
  const util::Status phantom = check::validate(state_);
  ASSERT_FALSE(phantom.is_ok());
  EXPECT_NE(phantom.error().message.find("no running job"),
            std::string::npos);
}

TEST_F(ClusterAuditTest, CapacityIndexFollowsCorruptedOwnership) {
  // The capacity index (per-machine free counts, the machines-by-free-count
  // histogram and its maximum) is a projection of the ownership table, so
  // it must stay consistent with a corrupted table: validate then reports
  // the job/owner mismatch itself, never an index drift.
  state_.place(job(1, 2), {0, 1}, 0.0);
  ASSERT_TRUE(check::validate(state_).is_ok());
  EXPECT_EQ(state_.machine_free_count(0), 2);
  EXPECT_EQ(state_.max_machine_free(), 4);

  // Phantom owners take every free GPU of machine 1.
  for (const int gpu : {4, 5, 6, 7}) state_.corrupt_gpu_owner_for_test(gpu, 99);
  EXPECT_EQ(state_.machine_free_count(1), 0);
  EXPECT_EQ(state_.max_machine_free(), 2);
  EXPECT_EQ(state_.machines_with_free(), 1);
  EXPECT_FALSE(state_.may_fit(job(2, 3)));
  const util::Status phantom = check::validate(state_);
  ASSERT_FALSE(phantom.is_ok());
  EXPECT_NE(phantom.error().message.find("no running job"), std::string::npos)
      << phantom.error().message;

  // Handing job 1's GPU to nobody frees it in the index as well.
  for (const int gpu : {4, 5, 6, 7}) state_.corrupt_gpu_owner_for_test(gpu, -1);
  state_.corrupt_gpu_owner_for_test(1, -1);
  EXPECT_EQ(state_.machine_free_count(0), 3);
  const util::Status lost = check::validate(state_);
  ASSERT_FALSE(lost.is_ok());
  EXPECT_NE(lost.error().message.find("GPU 1"), std::string::npos)
      << lost.error().message;

  state_.corrupt_gpu_owner_for_test(1, 1);  // repair
  EXPECT_TRUE(check::validate(state_).is_ok());
  EXPECT_EQ(state_.machine_free_histogram()[2], 1);
  EXPECT_EQ(state_.machine_free_histogram()[4], 1);
}

TEST_F(ClusterAuditTest, SocketFreeCountsFollowCorruptedOwnership) {
  // The per-socket free counts that TOPO-AWARE's candidate pre-score reads
  // belong to the capacity index: validate replays them from ownership,
  // and a corrupted owner table moves them with it, so the audit reports
  // the ownership fault itself as a clean error, never a socket drift.
  const auto counts = [&](int machine) {
    const std::span<const int> free = state_.socket_free_counts(machine);
    return std::vector<int>(free.begin(), free.end());
  };
  EXPECT_EQ(counts(0), (std::vector<int>{2, 2}));
  state_.place(job(1, 2), {0, 1}, 0.0);
  ASSERT_TRUE(check::validate(state_).is_ok());
  EXPECT_EQ(counts(0), (std::vector<int>{0, 2}));
  EXPECT_EQ(counts(1), (std::vector<int>{2, 2}));

  // A phantom owner takes GPU 7 (machine 1, socket 1).
  state_.corrupt_gpu_owner_for_test(7, 99);
  EXPECT_EQ(counts(1), (std::vector<int>{2, 1}));
  const util::Status phantom = check::validate(state_);
  ASSERT_FALSE(phantom.is_ok());
  EXPECT_NE(phantom.error().message.find("no running job"), std::string::npos)
      << phantom.error().message;
  EXPECT_EQ(phantom.error().message.find("socket"), std::string::npos)
      << phantom.error().message;

  // Job 1 loses GPU 0 to nobody: socket 0 of machine 0 gains it back.
  state_.corrupt_gpu_owner_for_test(7, -1);
  state_.corrupt_gpu_owner_for_test(0, -1);
  EXPECT_EQ(counts(0), (std::vector<int>{1, 2}));
  const util::Status lost = check::validate(state_);
  ASSERT_FALSE(lost.is_ok());
  EXPECT_NE(lost.error().message.find("GPU 0"), std::string::npos)
      << lost.error().message;

  state_.corrupt_gpu_owner_for_test(0, 1);  // repair
  EXPECT_TRUE(check::validate(state_).is_ok());
  EXPECT_EQ(counts(0), (std::vector<int>{0, 2}));
  EXPECT_EQ(counts(1), (std::vector<int>{2, 2}));
}

TEST_F(ClusterAuditTest, DesyncedSocketHistogramIsFlagged) {
  // validate replays the socket histogram from ownership next to the
  // socket counts, so a histogram that drifts while ownership and every
  // count stay right is caught by name.
  state_.place(job(1, 2), {0, 1}, 0.0);
  ASSERT_TRUE(check::validate(state_).is_ok());
  EXPECT_EQ(state_.max_socket_free(), 2);
  state_.corrupt_socket_histogram_for_test(/*from=*/2, /*to=*/1);
  const util::Status drift = check::validate(state_);
  ASSERT_FALSE(drift.is_ok());
  EXPECT_NE(drift.error().message.find("sockets indexed with 1 free GPUs"),
            std::string::npos)
      << drift.error().message;
  state_.corrupt_socket_histogram_for_test(/*from=*/1, /*to=*/2);  // repair
  EXPECT_TRUE(check::validate(state_).is_ok());
}

TEST_F(ClusterAuditTest, PlacementAuditEnforcesShapeAndConstraints) {
  // Wrong GPU count for the task graph.
  EXPECT_FALSE(
      check::audit_placement(job(1, 2), std::vector<int>{0}, state_).is_ok());
  // Duplicate GPU in the proposal.
  EXPECT_FALSE(
      check::audit_placement(job(1, 2), std::vector<int>{1, 1}, state_)
          .is_ok());
  // Out-of-range GPU id.
  EXPECT_FALSE(
      check::audit_placement(job(1, 2), std::vector<int>{0, 64}, state_)
          .is_ok());
  // Single-node job spanning both machines (GPUs 0-3 vs 4-7).
  JobRequest spanning = job(1, 2);
  ASSERT_TRUE(spanning.profile.single_node);
  EXPECT_FALSE(
      check::audit_placement(spanning, std::vector<int>{0, 4}, state_)
          .is_ok());
  // Anti-collocated job packed onto one machine.
  JobRequest spread = job(2, 2);
  spread.profile.single_node = false;
  spread.profile.anti_collocate = true;
  EXPECT_FALSE(check::audit_placement(spread, std::vector<int>{0, 1}, state_)
                   .is_ok());
  EXPECT_TRUE(check::audit_placement(spread, std::vector<int>{0, 4}, state_)
                  .is_ok());
}

// --- Driver self-audit wiring ---------------------------------------------

TEST(DriverSelfAudit, CleanRunPassesContinuousAudit) {
  const topo::TopologyGraph topology = topo::builders::power8_minsky();
  const perf::DlWorkloadModel model{perf::CalibrationParams::paper_minsky()};
  std::vector<JobRequest> jobs;
  for (int id = 0; id < 6; ++id) {
    jobs.push_back(perf::make_profiled_dl(id, 0.5 * id, NeuralNet::kAlexNet,
                                          8, 1 + id % 2, 0.0, model, topology,
                                          50));
  }
  const auto scheduler = sched::make_scheduler(sched::Policy::kTopoAware);
  sched::DriverOptions options;
  options.self_audit = true;  // validate(ClusterState) after every event
  sched::Driver driver(topology, model, *scheduler, options);
  const sched::DriverReport report = driver.run(jobs);
  EXPECT_EQ(report.rejected_jobs, 0);
  EXPECT_GT(report.end_time, 0.0);
  int finished = 0;
  for (const cluster::JobRecord& record : report.recorder.records()) {
    if (record.finished()) ++finished;
  }
  EXPECT_EQ(finished, 6);
}

}  // namespace
}  // namespace gts
