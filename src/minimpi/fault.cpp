#include "src/minimpi/fault.hpp"

#include <iterator>
#include <thread>

#include "src/util/rng.hpp"

namespace minimpi {

FaultPlan& FaultPlan::kill_at(KillPoint point, rank_t victim,
                              std::uint64_t hit) {
  FaultRule rule;
  rule.action = FaultRule::Action::kill;
  rule.point = point;
  rule.victim = victim;
  rule.hit = hit;
  rules_.push_back(rule);
  return *this;
}

FaultPlan& FaultPlan::kill_at_step(rank_t victim, std::uint64_t step) {
  FaultRule rule;
  rule.action = FaultRule::Action::kill;
  rule.point = KillPoint::step;
  rule.victim = victim;
  rule.step = step;
  rules_.push_back(rule);
  return *this;
}

FaultPlan& FaultPlan::drop(EnvelopeMatch match, std::uint64_t hit) {
  FaultRule rule;
  rule.action = FaultRule::Action::drop;
  rule.match = match;
  rule.hit = hit;
  rules_.push_back(rule);
  return *this;
}

FaultPlan& FaultPlan::delay(EnvelopeMatch match, std::chrono::milliseconds by,
                            std::uint64_t hit,
                            std::chrono::milliseconds jitter) {
  FaultRule rule;
  rule.action = FaultRule::Action::delay;
  rule.match = match;
  rule.delay = by;
  rule.delay_jitter = jitter;
  rule.hit = hit;
  rules_.push_back(rule);
  return *this;
}

FaultPlan& FaultPlan::truncate(EnvelopeMatch match, std::size_t bytes,
                               std::uint64_t hit) {
  FaultRule rule;
  rule.action = FaultRule::Action::truncate;
  rule.match = match;
  rule.truncate_to = bytes;
  rule.hit = hit;
  rules_.push_back(rule);
  return *this;
}

FaultPlan FaultPlan::chaos_kill(std::uint64_t seed, int world_size) {
  if (world_size <= 0) {
    throw Error(Errc::invalid_argument,
                "chaos_kill requires a positive world size");
  }
  // Only communication kill-points: every rank reaches them in any job that
  // communicates at all, so the plan is live regardless of the workload.
  static constexpr KillPoint kCandidates[] = {
      KillPoint::before_send,    KillPoint::after_send,
      KillPoint::before_recv,    KillPoint::after_recv,
      KillPoint::before_barrier, KillPoint::after_barrier,
  };
  mph::util::Rng rng(seed);
  const rank_t victim =
      static_cast<rank_t>(rng.below(static_cast<std::uint64_t>(world_size)));
  const KillPoint point = kCandidates[rng.below(std::size(kCandidates))];
  const std::uint64_t hit = rng.range(1, 4);
  FaultPlan plan;
  plan.kill_at(point, victim, hit);
  return plan;
}

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed,
                             Observer* observer)
    : plan_(std::move(plan)),
      observer_(observer),
      rng_(seed),
      visits_(plan_.rules().size(), 0),
      fired_(plan_.rules().size(), false) {}

void FaultInjector::on_point(KillPoint point, rank_t world_rank,
                             std::uint64_t step) {
  const std::vector<FaultRule>& rules = plan_.rules();
  std::size_t fire_index = rules.size();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < rules.size(); ++i) {
      const FaultRule& rule = rules[i];
      if (rule.action != FaultRule::Action::kill) continue;
      if (rule.point != point) continue;
      if (rule.victim != any_source && rule.victim != world_rank) continue;
      if (point == KillPoint::step && rule.step != step) continue;
      if (fired_[i]) continue;
      if (++visits_[i] < rule.hit) continue;
      fired_[i] = true;
      fire_index = i;
      events_.push_back(FaultEvent{
          i, world_rank,
          std::string("kill at ") + kill_point_name(point) + " (rank " +
              std::to_string(world_rank) + ")"});
      break;
    }
  }
  if (fire_index < rules.size()) {
    if (observer_ != nullptr) {
      observer_->fault_fired(world_rank, kill_point_name(point), any_source,
                             kWorldContext, any_tag, 0);
    }
    throw FaultInjectedError(point, world_rank);
  }
}

bool FaultInjector::admit(Envelope& env, rank_t dest_world) {
  const std::vector<FaultRule>& rules = plan_.rules();
  std::chrono::milliseconds sleep_for{0};
  bool deliver = true;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < rules.size(); ++i) {
      const FaultRule& rule = rules[i];
      if (rule.action == FaultRule::Action::kill) continue;
      if (fired_[i]) continue;
      if (!rule.match.matches(env, dest_world)) continue;
      if (++visits_[i] < rule.hit) continue;
      fired_[i] = true;
      const char* name = "";
      std::uint64_t detail = 0;  // bytes, or milliseconds delayed
      std::string what;
      switch (rule.action) {
        case FaultRule::Action::drop:
          deliver = false;
          name = "drop";
          detail = env.payload.size();
          what = "drop envelope src=" + std::to_string(env.src) +
                 " tag=" + std::to_string(env.tag);
          break;
        case FaultRule::Action::delay: {
          std::chrono::milliseconds total = rule.delay;
          if (rule.delay_jitter.count() > 0) {
            total += std::chrono::milliseconds(rng_.range(
                0, static_cast<std::int64_t>(rule.delay_jitter.count())));
          }
          sleep_for += total;
          name = "delay";
          detail = static_cast<std::uint64_t>(total.count());
          what = "delay envelope src=" + std::to_string(env.src) + " by " +
                 std::to_string(total.count()) + "ms";
          break;
        }
        case FaultRule::Action::truncate:
          if (env.payload.size() > rule.truncate_to) {
            env.payload = env.payload.first(rule.truncate_to);
          }
          name = "truncate";
          detail = rule.truncate_to;
          what = "truncate envelope src=" + std::to_string(env.src) + " to " +
                 std::to_string(rule.truncate_to) + " bytes";
          break;
        case FaultRule::Action::kill:
          break;
      }
      events_.push_back(FaultEvent{i, dest_world, std::move(what)});
      if (observer_ != nullptr) {
        observer_->fault_fired(env.src, name, dest_world, env.context,
                               env.tag, detail);
      }
      if (!deliver) break;  // dropped: later rules moot
    }
  }
  // Sleep outside the lock so a delay rule never stalls other injections.
  // Under virtual time (schedule verification) the delay is recorded but
  // not slept: message ordering is the explorer's job, not the clock's.
  if (sleep_for.count() > 0 &&
      !virtual_time_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(sleep_for);
  }
  return deliver;
}

std::vector<FaultEvent> FaultInjector::events() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

}  // namespace minimpi
