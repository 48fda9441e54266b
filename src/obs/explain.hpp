// Decision-explain records: one JSONL line per scheduling decision, with
// the candidate mappings considered and the Eq. 3/4/5 utility-term
// breakdown behind the chosen one — the post-hoc answer to "why did job J
// land on GPUs {…}".
//
// Flow: the Driver opens a DecisionScope per place() call when explain is
// enabled; schedulers (TopoAwareScheduler, greedy) append candidates to
// the thread-current scope; the Driver fills the outcome and the chosen
// terms and appends the record to the process-wide ExplainLog sink.
// Schedulers touch the scope through DecisionScope::current(), which is a
// single thread-local read (nullptr when explain is off).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "util/annotations.hpp"
#include "util/expected.hpp"
#include "util/sync.hpp"

namespace gts::obs {

/// The normalized Eq. 2–5 utility terms (mirrors sched::UtilityBreakdown;
/// duplicated here so obs stays below sched in the layering).
struct UtilityTerms {
  double comm_cost = 0.0;     // t, Eq. 3
  double comm_utility = 1.0;  // t_best / t
  double interference = 1.0;  // I, Eq. 4
  double frag_omega = 0.0;    // omega, Eq. 5
  double frag_utility = 1.0;  // 1 - omega
  double comm_weight = 0.0;   // w (job's normalized comm weight)
  double utility = 1.0;       // U, the combined score
  bool has_breakdown = false;  // false: only `utility` is meaningful

  json::Value to_json() const;
};

/// One candidate mapping the scheduler evaluated.
struct ExplainCandidate {
  std::vector<int> gpus;
  UtilityTerms terms;
  /// Where the candidate came from: "drb", "best-machine:<m>" or
  /// "greedy".
  std::string source;
};

/// One scheduling decision.
struct DecisionRecord {
  long long sequence = 0;  // assigned by ExplainLog::append
  double sim_time = 0.0;
  std::string policy;
  int job_id = 0;
  int num_gpus = 0;
  double min_utility = 0.0;
  /// "placed" | "declined" | "postponed".
  std::string outcome;
  std::vector<int> gpus;  // chosen mapping (empty unless placed)
  UtilityTerms chosen;
  bool satisfied = true;
  std::vector<ExplainCandidate> candidates;
  double decision_us = 0.0;  // wall-clock cost of the place() call

  json::Value to_json() const;
};

/// Process-wide JSONL sink.
class ExplainLog {
 public:
  static ExplainLog& instance();

  util::Status open(const std::string& path);
  bool is_open() const;
  /// Stamps record.sequence and writes one JSON line. No-op while closed.
  void append(DecisionRecord record);
  void close();
  long long records_written() const;

 private:
  ExplainLog() = default;
  mutable util::Mutex mutex_;
  /// std::FILE*, kept opaque for the header.
  void* file_ GTS_GUARDED_BY(mutex_) = nullptr;
  long long sequence_ GTS_GUARDED_BY(mutex_) = 0;
};

/// The per-decision candidate collector, thread-current while a Driver
/// decision is in flight.
class DecisionScope {
 public:
  DecisionScope(std::string policy, int job_id, int num_gpus,
                double min_utility, double sim_time);
  ~DecisionScope();
  DecisionScope(const DecisionScope&) = delete;
  DecisionScope& operator=(const DecisionScope&) = delete;

  /// The scope currently in flight on this thread; nullptr when explain is
  /// off or no decision is being made.
  static DecisionScope* current() noexcept;

  void add_candidate(ExplainCandidate candidate);
  DecisionRecord& record() noexcept { return record_; }

  /// Finalizes and appends to the ExplainLog.
  void commit();

 private:
  DecisionRecord record_;
  DecisionScope* previous_ = nullptr;
  bool committed_ = false;
};

/// Parses a JSONL explain file back into records (tooling/tests).
util::Expected<std::vector<json::Value>> read_explain_jsonl(
    const std::string& path);

}  // namespace gts::obs
