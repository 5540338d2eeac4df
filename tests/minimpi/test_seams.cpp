// The instrumentation seams and the job clock: the events a mailbox reports
// to its observer, in order and with their lock context; how the seams are
// wired; the one time axis the tracer and the metrics registry share; and
// the compile-time seam of the mph::atomic shim.
#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/minimpi/comm.hpp"
#include "src/minimpi/launcher.hpp"
#include "src/minimpi/mailbox.hpp"
#include "src/minimpi/metrics.hpp"
#include "src/minimpi/racer/atomic.hpp"
#include "src/minimpi/trace.hpp"

using namespace minimpi;

// Outside MPH_RACER builds the shim is std::atomic itself, so the lock-free
// words of the normal library cost exactly what std::atomic costs.  This
// stops compiling if MPH_RACER ever reaches a target that links minimpi.
static_assert(std::is_same_v<mph::atomic<std::uint64_t>, std::atomic_uint64_t>);
static_assert(std::is_same_v<mph::atomic_flag, std::atomic_flag>);

namespace {

/// Records every observer event by name, suffixed "*" when it ran under the
/// mailbox mutex (probed from a helper thread, which can take the mutex
/// only when the event's thread does not hold it).
class Recorder final : public Observer {
 public:
  const Mailbox* box = nullptr;
  std::vector<std::string> events;
  std::atomic<int> blocked_count{0};

  void envelope_sent(Envelope& /*env*/, rank_t /*dest*/) override {
    note("sent");
  }
  void envelope_delivered(rank_t /*owner*/, const Envelope& /*env*/) override {
    note("delivered");
  }
  std::exception_ptr envelope_matched(rank_t /*owner*/,
                                      const Envelope& /*env*/,
                                      const TypeSig& /*expected*/,
                                      std::size_t /*capacity*/,
                                      bool posted) override {
    note(posted ? "matched(posted)" : "matched");
    return nullptr;
  }
  void queue_depth_changed(rank_t /*owner*/, std::size_t depth) override {
    note("depth=" + std::to_string(depth));
  }
  void recv_posted(rank_t /*owner*/, rank_t /*source*/, context_t /*ctx*/,
                   tag_t /*tag*/, std::size_t /*capacity*/) override {
    note("posted");
  }
  void recv_completed(rank_t /*owner*/, const char* op,
                      const Status& /*status*/, context_t /*ctx*/,
                      std::uint64_t /*flow*/, std::uint64_t t0_ns,
                      std::uint64_t t1_ns) override {
    EXPECT_LE(t0_ns, t1_ns);
    note(std::string("completed(") + op + ")");
  }
  void request_consumed(rank_t /*owner*/) override { note("consumed"); }
  void wait_blocked(rank_t /*owner*/, const BlockedWait& /*wait*/) override {
    note("blocked");
    blocked_count += 1;
  }
  void wait_unblocked(rank_t /*owner*/, const BlockedWait& /*wait*/,
                      std::uint64_t /*t1_ns*/) override {
    note("unblocked");
  }
  void poll_missed(rank_t /*owner*/, rank_t /*source*/, const char* op,
                   context_t /*ctx*/, tag_t /*tag*/) override {
    note(std::string("miss(") + op + ")");
  }
  void poll_hit(rank_t /*owner*/) override { note("hit"); }

 private:
  void note(std::string name) {
    bool locked = false;
    std::thread([&] { locked = box->busy(); }).join();
    const std::lock_guard<std::mutex> lock(mutex_);
    events.push_back(locked ? name + "*" : name);
  }
  std::mutex mutex_;
};

/// Drops every envelope.
class Dropper final : public Interposer {
 public:
  bool admit(Envelope& /*env*/, rank_t /*dest*/) override { return false; }
};

Envelope envelope(rank_t src, tag_t tag, int value) {
  Envelope env;
  env.src = src;
  env.tag = tag;
  env.storage.resize(sizeof value);
  std::memcpy(env.storage.data(), &value, sizeof value);
  env.payload = env.storage;
  return env;
}

std::span<std::byte> bytes_of(int& value) {
  return std::as_writable_bytes(std::span<int>(&value, 1));
}

using Events = std::vector<std::string>;

/// Runs `receive` and `send` in two threads pinned to one CPU (the first
/// this process may use).  A waiting receiver's yield then hands the CPU to
/// the sender, so a sender that waits for the receiver to start waiting
/// delivers inside the receiver's yield phase — after its first failed
/// match check and before it could park.
void on_one_cpu(const std::function<void()>& receive,
                const std::function<void()>& send) {
  std::thread([&] {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
      int cpu = 0;
      while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &allowed)) ++cpu;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pthread_setaffinity_np(pthread_self(), sizeof one, &one);
    }
    std::thread sender(send);  // inherits the one-CPU mask
    receive();
    sender.join();
  }).join();
}

struct SeamFixture : ::testing::Test {
  SeamFixture() { recorder.box = &box; }

  mph::atomic<bool> abort_flag{false};
  std::string abort_reason;
  Recorder recorder;
  Mailbox box{abort_flag, abort_reason, 0, &recorder};
};

}  // namespace

TEST_F(SeamFixture, DeliverQueueThenReceive) {
  box.deliver(envelope(1, 5, 42));
  int got = 0;
  box.recv(kWorldContext, 1, 5, bytes_of(got), Deadline::max());
  EXPECT_EQ(got, 42);
  EXPECT_EQ(recorder.events,
            (Events{"sent", "delivered*", "depth=1*", "matched*", "depth=0*",
                    "completed(recv)*"}));
}

TEST_F(SeamFixture, PostDeliverThenWait) {
  int got = 0;
  const auto ticket = box.post_recv(kWorldContext, 1, 5, bytes_of(got));
  box.deliver(envelope(1, 5, 42));
  box.wait(ticket, Deadline::max());
  EXPECT_EQ(got, 42);
  EXPECT_EQ(recorder.events,
            (Events{"posted*", "sent", "matched(posted)*", "delivered*",
                    "consumed*", "completed(wait)*"}));
}

TEST_F(SeamFixture, IprobeAndTestMissThenHit) {
  EXPECT_FALSE(box.iprobe(kWorldContext, 1, 5).has_value());
  int got = 0;
  const auto ticket = box.post_recv(kWorldContext, 1, 6, bytes_of(got));
  Status status;
  EXPECT_FALSE(box.test(ticket, &status));
  box.deliver(envelope(1, 5, 1));
  EXPECT_TRUE(box.iprobe(kWorldContext, 1, 5).has_value());
  box.deliver(envelope(1, 6, 2));
  EXPECT_TRUE(box.test(ticket, &status));
  EXPECT_EQ(got, 2);
  EXPECT_EQ(recorder.events,
            (Events{"miss(iprobe)*", "posted*", "miss(test)*", "sent",
                    "delivered*", "depth=1*", "hit*", "sent",
                    "matched(posted)*", "delivered*", "hit*", "consumed*"}));
}

TEST_F(SeamFixture, BlockedReceiveIsBracketed) {
  std::thread sender([&] {
    // Send once the receiver is parked: the wait registers at its first
    // failed check and again right before the park, and the mutex is free
    // after the second registration only while the receiver sleeps.  (The
    // time limit turns a missing registration into a failure, not a hang.)
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while ((recorder.blocked_count < 2 || box.busy()) &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    box.deliver(envelope(1, 5, 42));
  });
  int got = 0;
  box.recv(kWorldContext, 1, 5, bytes_of(got), Deadline::max());
  sender.join();
  EXPECT_EQ(got, 42);
  // The parked receive had published its buffer: the sender matches it
  // and copies straight in, so the envelope never queues.
  EXPECT_EQ(recorder.events,
            (Events{"blocked*", "blocked*", "sent", "matched*", "delivered*",
                    "unblocked*", "completed(recv)*"}));
}

TEST_F(SeamFixture, DeliveryBeforeTheParkIsBracketedOnce) {
  int got = 0;
  on_one_cpu(
      [&] { box.recv(kWorldContext, 1, 5, bytes_of(got), Deadline::max()); },
      [&] {
        while (recorder.blocked_count < 1) std::this_thread::yield();
        box.deliver(envelope(1, 5, 42));
      });
  EXPECT_EQ(got, 42);
  // One registration (the first failed check; no park followed) and one
  // unregistration, with the delivery — straight into the published
  // buffer — in between.
  EXPECT_EQ(recorder.events,
            (Events{"blocked*", "sent", "matched*", "delivered*",
                    "unblocked*", "completed(recv)*"}));
}

TEST(Seams, ReceiveSatisfiedWhileYieldingIsStillABlockedWait) {
  // The wait starts at the first failed match check, not at the park: time
  // spent yielding counts as blocked time and as the tracer's blocked span.
  JobClock clock;
  MetricsRegistry metrics(1, clock);
  Tracer tracer(1, TraceOptions::parse("1"), clock);
  std::unique_ptr<Observer> fan_out;
  Observer* observer = wire_observers({&metrics, &tracer}, fan_out);
  mph::atomic<bool> abort_flag{false};
  std::string abort_reason;
  Mailbox box{abort_flag, abort_reason, 0, observer, nullptr, clock};
  int got = 0;
  on_one_cpu(
      [&] {
        box.recv(kWorldContext, any_source, 5, bytes_of(got), Deadline::max());
      },
      [&] {
        // Triggered by the receive's entry, not by any observer event.  The
        // count rises before the receive's first match check, so yield once
        // more: that hands the CPU back to a receiver preempted in between.
        while (box.wildcard_recvs() == 0) std::this_thread::yield();
        std::this_thread::yield();
        box.deliver(envelope(1, 5, 42));
      });
  ASSERT_EQ(got, 42);
  EXPECT_GT(metrics.read_rank(0).blocked_ns, 0u);
  int blocked_spans = 0;
  for (const TraceEvent& e : tracer.ring(0).snapshot().events) {
    if (e.op == TraceOp::blocked && e.span) ++blocked_spans;
  }
  EXPECT_EQ(blocked_spans, 1);
}

TEST(Seams, InterposerDropHappensAfterTheObserversSawTheSend) {
  mph::atomic<bool> abort_flag{false};
  std::string abort_reason;
  Recorder recorder;
  Dropper dropper;
  Mailbox box{abort_flag, abort_reason, 0, &recorder, &dropper};
  recorder.box = &box;
  box.deliver(envelope(1, 5, 42));
  EXPECT_EQ(box.queued(), 0u);
  EXPECT_EQ(recorder.events, (Events{"sent"}));
}

TEST(Seams, FanOutOnlyWhenSeveralLayersAreOn) {
  Recorder a;
  Recorder b;
  std::unique_ptr<Observer> fan_out;
  EXPECT_EQ(wire_observers({nullptr, nullptr}, fan_out), nullptr);
  EXPECT_EQ(wire_observers({nullptr, &a}, fan_out), &a);
  EXPECT_EQ(fan_out, nullptr);
  Observer* both = wire_observers({&a, nullptr, &b}, fan_out);
  ASSERT_NE(fan_out, nullptr);
  EXPECT_EQ(both, fan_out.get());

  mph::atomic<bool> abort_flag{false};
  std::string abort_reason;
  Mailbox box{abort_flag, abort_reason, 0, both};
  a.box = &box;
  b.box = &box;
  box.deliver(envelope(1, 5, 42));
  EXPECT_EQ(a.events, (Events{"sent", "delivered*", "depth=1*"}));
  EXPECT_EQ(b.events, a.events);
}

TEST(JobClock, MatchLatencyIsTheTracedReceiveTimeOnOneEpoch) {
  JobOptions options;
  options.trace.enabled = true;
  options.monitor.enabled = true;
  options.monitor.interval = std::chrono::milliseconds(0);
  std::uint64_t snapshot_ns = 0;
  const JobReport report = run_spmd(
      2,
      [&](const Comm& world, const ExecEnv&) {
        const rank_t peer = 1 - world.rank();
        for (int i = 0; i < 20; ++i) {
          int got = 0;
          if (world.rank() == 0) {
            world.send(i, peer, 0);
            world.recv(got, peer, 1);
          } else {
            Request request = world.irecv(std::span<int>(&got, 1), peer, 0);
            request.wait();
            world.send(got, peer, 1);
          }
        }
        if (world.rank() == 0) {
          // A metrics snapshot bracketed by two trace instants: on one
          // epoch its time falls between theirs.
          Job& job = world.job();
          job.tracer()->instant(0, TraceOp::phase, "before_snapshot");
          snapshot_ns = job.metrics_snapshot().t_ns;
          job.tracer()->instant(0, TraceOp::phase, "after_snapshot");
        }
      },
      options);
  ASSERT_TRUE(report.ok) << report.first_error();
  ASSERT_TRUE(report.trace.has_value());
  ASSERT_TRUE(report.metrics.has_value());

  for (const RankTrace& rank : report.trace->ranks) {
    std::uint64_t traced_ns = 0;
    std::uint64_t spans = 0;
    for (const TraceEvent& e : rank.events) {
      if (e.op == TraceOp::recv && e.span) {
        traced_ns += e.t_end_ns - e.t_start_ns;
        ++spans;
      }
    }
    const RankMetrics& metrics =
        report.metrics->ranks[static_cast<std::size_t>(rank.world_rank)];
    EXPECT_EQ(spans, 20u) << "rank " << rank.world_rank;
    EXPECT_EQ(metrics.match_latency.count, spans) << "rank " << rank.world_rank;
    EXPECT_EQ(metrics.match_latency.sum, traced_ns)
        << "rank " << rank.world_rank;
  }

  std::uint64_t before_ns = 0;
  std::uint64_t after_ns = 0;
  for (const TraceEvent& e : report.trace->ranks[0].events) {
    if (std::string(e.name) == "before_snapshot") before_ns = e.t_start_ns;
    if (std::string(e.name) == "after_snapshot") after_ns = e.t_start_ns;
  }
  ASSERT_NE(after_ns, 0u);
  EXPECT_LE(before_ns, snapshot_ns);
  EXPECT_LE(snapshot_ns, after_ns);
}
