#include "src/minimpi/verify/verify.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <utility>

#include "src/util/decision_tree.hpp"
#include "src/util/rng.hpp"

namespace minimpi::verify {

namespace {

/// Why a schedule failed: the job failed, or a checker found something.
/// Empty when it passed.
std::string failure_of(const JobReport& report) {
  const CheckReport* check = report.check ? &*report.check : nullptr;
  const bool check_failed =
      check != nullptr &&
      (!check->deadlocks.empty() || !check->type_mismatches.empty() ||
       !check->collective_mismatches.empty());
  if (report.ok && !check_failed) return "";
  if (report.abort.has_value()) return report.abort->to_string();
  for (const RankFailure& f : report.failures) {
    if (!f.operation.empty()) {
      return "rank " + std::to_string(f.world_rank) + " (" + f.component +
             ") failed in " + f.operation + ": " + f.what;
    }
  }
  if (!report.abort_reason.empty()) return report.abort_reason;
  if (check != nullptr && !check->clean()) return check->to_string();
  if (!report.failures.empty()) return report.failures.front().what;
  return "job failed";
}

std::string race_key(const RaceRecord& race) {
  std::ostringstream key;
  key << race.owner << "|" << race.context << "|" << race.tag << "|"
      << race.op << "|";
  for (const rank_t c : race.candidates) key << c << ",";
  return key.str();
}

/// One schedule: the job as run, the decisions it took, its races.
struct Schedule {
  JobReport report;
  Trace trace;
  std::vector<RaceRecord> races;
  std::string failure;  ///< failure_of(report)
};

/// Run the job once under a VerifyScheduler whose fenced decisions come
/// from `tree`; immediate ones take their first candidate.
Schedule run_schedule(const JobRunner& run, const JobOptions& base,
                      std::uint64_t seed, mph::util::DecisionTree& tree) {
  Schedule out;
  out.trace.seed = seed;
  // Fenced decisions arrive on the monitor thread, immediate ones on rank
  // threads: one lock keeps the tree and the trace in decision order.
  std::mutex decision_mutex;
  auto scheduler = std::make_shared<VerifyScheduler>(
      [&](const DecisionPoint& point) {
        const std::lock_guard<std::mutex> lock(decision_mutex);
        Decision d{point.owner, point.op, point.context, point.tag,
                   point.candidates.front(), point.candidates,
                   point.immediate};
        if (!point.immediate) d.chose = d.candidates[tree.decide(d.branch())];
        out.trace.decisions.push_back(d);
        return d.chose;
      });
  // Declared after the mutex so that, even when `run` throws, the last
  // owner of the scheduler (and so its monitor thread) goes first.
  JobOptions job = base;
  job.scheduler = scheduler;
  job.seed = seed;
  // mpicheck is part of the verification oracle: every schedule runs with
  // the deadlock/type/collective checkers armed (the leak audit stays as
  // the caller configured it).
  job.check.deadlock = true;
  job.check.type_matching = true;
  job.check.collectives = true;
  out.report = run(job);
  scheduler->stop();
  out.races = scheduler->races();
  out.failure = failure_of(out.report);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

std::string ScheduleFailure::to_string(
    const std::function<std::string(rank_t)>& label) const {
  std::ostringstream out;
  out << "schedule #" << schedule_index << " fails: " << reason << "\n"
      << trace.to_string(label);
  return out.str();
}

std::string VerifyReport::to_string(
    const std::function<std::string(rank_t)>& label) const {
  std::ostringstream out;
  out << "mph_verify: explored " << schedules_run;
  if (complete) {
    out << " schedule(s), complete (max decision depth " << max_decision_depth
        << ")";
  } else {
    out << " of >= " << frontier_lower_bound << " schedule(s)";
    if (schedule_budget_exhausted) out << " [schedule budget exhausted]";
    if (time_budget_exhausted) out << " [time budget exhausted]";
    if (!schedule_budget_exhausted && !time_budget_exhausted) {
      out << " [stopped early]";
    }
  }
  if (!divergence.empty()) out << "\ndivergence: " << divergence;
  if (races.empty()) {
    out << "\nwildcard races: none";
  } else {
    out << "\nwildcard races: " << races.size() << " distinct";
    for (const RaceRecord& race : races) {
      out << "\n  " << race.to_string(label);
    }
  }
  if (failures.empty()) {
    out << "\nfailures: none";
  } else {
    out << "\nfailures: " << failures.size();
    for (const ScheduleFailure& f : failures) {
      out << "\n" << f.to_string(label);
    }
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// Exploration
// ---------------------------------------------------------------------------

VerifyReport verify(const JobRunner& run, VerifyOptions options) {
  // All randomness must flow through the recorded seed: any code path that
  // asks the OS for fresh entropy during exploration throws instead of
  // silently breaking replays.
  const mph::util::ScopedEntropyBan entropy_ban;
  const std::uint64_t seed = options.seed != 0 ? options.seed : 1;
  mph::util::DecisionTree tree(options.max_schedules, options.budget);
  VerifyReport out;
  std::set<std::string> seen_races;
  for (bool more = true; more;) {
    Schedule schedule = run_schedule(run, options.job, seed, tree);
    const bool failed = !schedule.failure.empty();
    more = tree.end_run(failed && options.stop_on_failure);
    out.max_decision_depth = std::max<std::uint64_t>(
        out.max_decision_depth, schedule.trace.decisions.size());
    for (const RaceRecord& race : schedule.races) {
      if (seen_races.insert(race_key(race)).second) out.races.push_back(race);
    }
    if (failed && tree.status().divergence.empty()) {
      out.failures.push_back(ScheduleFailure{tree.status().runs - 1,
                                             std::move(schedule.failure),
                                             std::move(schedule.trace)});
    }
  }
  const mph::util::DecisionTree::Status& status = tree.status();
  out.schedules_run = status.runs;
  out.frontier_lower_bound = tree.frontier();
  out.complete = status.complete;
  out.schedule_budget_exhausted = status.run_budget_exhausted;
  out.time_budget_exhausted = status.time_budget_exhausted;
  out.divergence = status.divergence;
  return out;
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

ReplayResult replay(const JobRunner& run, const Trace& trace,
                    JobOptions job) {
  const mph::util::ScopedEntropyBan entropy_ban;
  std::vector<mph::util::Branch> forced;
  for (const Decision& d : trace.decisions) {
    if (!d.immediate) forced.push_back(d.branch());
  }
  mph::util::DecisionTree tree(std::move(forced));
  Schedule schedule = run_schedule(run, job, trace.seed != 0 ? trace.seed : 1,
                                   tree);
  (void)tree.end_run();
  return ReplayResult{std::move(schedule.report), std::move(schedule.trace),
                      tree.status().divergence, std::move(schedule.failure)};
}

}  // namespace minimpi::verify
