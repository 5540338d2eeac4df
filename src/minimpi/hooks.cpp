#include "src/minimpi/hooks.hpp"

#include <algorithm>

namespace minimpi {

namespace {

class ObserverFanOut final : public Observer {
 public:
  explicit ObserverFanOut(std::vector<Observer*> layers)
      : layers_(std::move(layers)) {}

  void envelope_sent(Envelope& env, rank_t dest) override {
    each(&Observer::envelope_sent, env, dest);
  }
  void envelope_delivered(rank_t owner, const Envelope& env) override {
    each(&Observer::envelope_delivered, owner, env);
  }
  std::exception_ptr envelope_matched(rank_t owner, const Envelope& env,
                                      const TypeSig& expected,
                                      std::size_t capacity,
                                      bool posted) override {
    std::exception_ptr first;
    for (Observer* o : layers_) {
      std::exception_ptr bad =
          o->envelope_matched(owner, env, expected, capacity, posted);
      if (!first) first = std::move(bad);
    }
    return first;
  }
  void queue_depth_changed(rank_t owner, std::size_t depth) override {
    each(&Observer::queue_depth_changed, owner, depth);
  }
  void recv_posted(rank_t owner, rank_t source, context_t ctx, tag_t tag,
                   std::size_t capacity) override {
    each(&Observer::recv_posted, owner, source, ctx, tag, capacity);
  }
  void recv_completed(rank_t owner, const char* op, const Status& status,
                      context_t ctx, std::uint64_t flow, std::uint64_t t0_ns,
                      std::uint64_t t1_ns) override {
    each(&Observer::recv_completed, owner, op, status, ctx, flow, t0_ns,
         t1_ns);
  }
  void request_consumed(rank_t owner) override {
    each(&Observer::request_consumed, owner);
  }
  void wait_blocked(rank_t owner, const BlockedWait& wait) override {
    each(&Observer::wait_blocked, owner, wait);
  }
  void wait_unblocked(rank_t owner, const BlockedWait& wait,
                      std::uint64_t t1_ns) override {
    each(&Observer::wait_unblocked, owner, wait, t1_ns);
  }
  void wait_timed_out(rank_t owner) override {
    each(&Observer::wait_timed_out, owner);
  }
  void poll_missed(rank_t owner, rank_t source, const char* op, context_t ctx,
                   tag_t tag) override {
    each(&Observer::poll_missed, owner, source, op, ctx, tag);
  }
  void poll_hit(rank_t owner) override { each(&Observer::poll_hit, owner); }
  void fault_fired(rank_t rank, const char* name, rank_t peer, context_t ctx,
                   tag_t tag, std::uint64_t detail) override {
    each(&Observer::fault_fired, rank, name, peer, ctx, tag, detail);
  }

 private:
  template <class... Params, class... Args>
  void each(void (Observer::*event)(Params...), Args&... args) {
    for (Observer* o : layers_) (o->*event)(args...);
  }

  std::vector<Observer*> layers_;
};

class InterposerFanOut final : public Interposer {
 public:
  explicit InterposerFanOut(std::vector<Interposer*> layers)
      : layers_(std::move(layers)) {
    for (Interposer* i : layers_) {
      if (i->verifying()) decider_ = i;
    }
  }

  [[nodiscard]] bool verifying() const noexcept override {
    return decider_ != nullptr;
  }
  bool admit(Envelope& env, rank_t dest) override {
    return std::all_of(layers_.begin(), layers_.end(),
                       [&](Interposer* i) { return i->admit(env, dest); });
  }
  rank_t resolve_wildcard(rank_t owner, context_t ctx, tag_t tag,
                          const char* op) override {
    return decider_->resolve_wildcard(owner, ctx, tag, op);
  }
  rank_t resolve_immediate(rank_t owner, context_t ctx, tag_t tag,
                           const std::vector<rank_t>& candidates) override {
    return decider_->resolve_immediate(owner, ctx, tag, candidates);
  }

 private:
  std::vector<Interposer*> layers_;
  Interposer* decider_ = nullptr;  ///< the verifying layer, if any
};

template <class FanOut, class Seam>
Seam* wire(std::vector<Seam*> layers, std::unique_ptr<Seam>& fan_out) {
  std::erase(layers, nullptr);
  if (layers.empty()) return nullptr;
  if (layers.size() == 1) return layers.front();
  fan_out = std::make_unique<FanOut>(std::move(layers));
  return fan_out.get();
}

}  // namespace

Observer* wire_observers(std::vector<Observer*> layers,
                         std::unique_ptr<Observer>& fan_out) {
  return wire<ObserverFanOut>(std::move(layers), fan_out);
}

Interposer* wire_interposers(std::vector<Interposer*> layers,
                             std::unique_ptr<Interposer>& fan_out) {
  return wire<InterposerFanOut>(std::move(layers), fan_out);
}

}  // namespace minimpi
