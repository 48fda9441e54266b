#include "cluster/recorder.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "check/check.hpp"
#include "util/strings.hpp"

namespace gts::cluster {

void Recorder::on_submit(const jobgraph::JobRequest& request) {
  JobRecord record;
  record.id = request.id;
  record.nn = request.profile.nn;
  record.batch = request.profile.batch;
  record.num_gpus = request.num_gpus;
  record.min_utility = request.min_utility;
  record.arrival = request.arrival_time;
  record.best_solo_time = request.profile.solo_time_pack;
  index_.emplace(record.id, records_.size());
  records_.push_back(std::move(record));
}

bool Recorder::import_record(JobRecord record) {
  if (!index_.emplace(record.id, records_.size()).second) return false;
  if (record.finished()) makespan_ = std::max(makespan_, record.end);
  records_.push_back(std::move(record));
  return true;
}

JobRecord* Recorder::find(int job_id) {
  const auto it = index_.find(job_id);
  return it == index_.end() ? nullptr : &records_[it->second];
}

const JobRecord* Recorder::find(int job_id) const {
  const auto it = index_.find(job_id);
  return it == index_.end() ? nullptr : &records_[it->second];
}

void Recorder::on_place(int job_id, double t, const std::vector<int>& gpus,
                        double utility, bool p2p) {
  if (JobRecord* record = find(job_id)) {
    record->start = t;
    record->gpus = gpus;
    record->placement_utility = utility;
    record->p2p = p2p;
    if (utility + 1e-9 < record->min_utility) ++record->degradation_events;
  }
}

void Recorder::on_postpone(int job_id) {
  if (JobRecord* record = find(job_id)) ++record->postponements;
}

void Recorder::on_finish(int job_id, double t) {
  if (JobRecord* record = find(job_id)) {
    record->end = t;
    if (record->finished()) makespan_ = std::max(makespan_, t);
  }
}

void Recorder::on_cancel(int job_id, double t) {
  if (JobRecord* record = find(job_id)) {
    // A finished record may count in makespan_, which never shrinks.
    GTS_DCHECK(!record->finished(), "cancel of finished job ", job_id);
    record->end = t;
    record->cancelled = true;
  }
}

void Recorder::on_reject(int job_id) {
  if (JobRecord* record = find(job_id)) record->rejected = true;
}

void Recorder::sample(const ClusterState& state, double t) {
  double p2p_gbps = 0.0;
  double host_gbps = 0.0;
  double utility_sum = 0.0;
  int running = 0;
  for (const auto& [id, job] : state.running_jobs()) {
    const double bw = state.model().average_link_bandwidth(
        job.request, job.gpus, state.topology());
    (job.p2p ? p2p_gbps : host_gbps) += bw;
    utility_sum += job.placement_utility;
    ++running;
  }
  p2p_bw_.push_back({t, p2p_gbps});
  host_bw_.push_back({t, host_gbps});
  mean_utility_.push_back({t, running > 0 ? utility_sum / running : 0.0});
}

int Recorder::slo_violations() const {
  int violations = 0;
  for (const JobRecord& record : records_) {
    if (record.slo_violated()) ++violations;
  }
  return violations;
}

long long Recorder::total_postponements() const {
  long long total = 0;
  for (const JobRecord& record : records_) total += record.postponements;
  return total;
}

int Recorder::total_degradations() const {
  int total = 0;
  for (const JobRecord& record : records_) total += record.degradation_events;
  return total;
}

double Recorder::mean_jct_slowdown() const {
  double total = 0.0;
  int count = 0;
  for (const JobRecord& record : records_) {
    const double slowdown = record.jct_slowdown();
    if (slowdown >= 0.0) {
      total += slowdown;
      ++count;
    }
  }
  return count == 0 ? 0.0 : total / count;
}

std::vector<double> Recorder::sorted_qos_slowdowns() const {
  std::vector<double> slowdowns;
  for (const JobRecord& record : records_) {
    if (record.finished()) slowdowns.push_back(record.qos_slowdown());
  }
  std::sort(slowdowns.rbegin(), slowdowns.rend());
  return slowdowns;
}

std::vector<double> Recorder::sorted_qos_wait_slowdowns() const {
  std::vector<double> slowdowns;
  for (const JobRecord& record : records_) {
    if (record.finished()) slowdowns.push_back(record.qos_wait_slowdown());
  }
  std::sort(slowdowns.rbegin(), slowdowns.rend());
  return slowdowns;
}

double Recorder::mean_waiting_time() const {
  double total = 0.0;
  int count = 0;
  for (const JobRecord& record : records_) {
    if (record.placed()) {
      total += record.waiting_time();
      ++count;
    }
  }
  return count == 0 ? 0.0 : total / count;
}

std::string Recorder::render_timeline(const topo::TopologyGraph& topology,
                                      double t_end, int columns) const {
  // One text row per GPU; cells show the job id occupying the GPU in that
  // time bucket ('.' = idle). Mirrors Fig. 8(a)-(d).
  std::ostringstream os;
  if (t_end <= 0.0) t_end = makespan();
  if (t_end <= 0.0) return "(empty timeline)\n";
  const double dt = t_end / columns;
  for (int gpu = 0; gpu < topology.gpu_count(); ++gpu) {
    os << "GPU" << gpu << " |";
    for (int c = 0; c < columns; ++c) {
      const double t = (c + 0.5) * dt;
      char cell = '.';
      for (const JobRecord& record : records_) {
        if (!record.placed()) continue;
        const double end = record.end >= 0.0 ? record.end : t_end;
        if (t >= record.start && t < end &&
            std::find(record.gpus.begin(), record.gpus.end(), gpu) !=
                record.gpus.end()) {
          cell = static_cast<char>('0' + record.id % 10);
          break;
        }
      }
      os << cell;
    }
    os << "|\n";
  }
  os << "      0s" << std::string(static_cast<size_t>(std::max(0, columns - 14)), ' ')
     << util::format_double(t_end, 1) << "s\n";
  return os.str();
}

}  // namespace gts::cluster
