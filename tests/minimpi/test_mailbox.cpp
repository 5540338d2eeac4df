// Unit tests for the Mailbox matching engine (single- and multi-threaded).
#include "src/minimpi/mailbox.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <thread>
#include <vector>

#include "src/minimpi/error.hpp"

using namespace minimpi;

namespace {

Envelope make_env(context_t ctx, rank_t src, tag_t tag,
                  std::initializer_list<int> values) {
  Envelope e;
  e.context = ctx;
  e.src = src;
  e.tag = tag;
  e.storage.resize(values.size() * sizeof(int));
  std::memcpy(e.storage.data(), std::data(values), e.storage.size());
  e.payload = e.storage;
  return e;
}

int first_int(std::span<const std::byte> bytes) {
  int v = 0;
  std::memcpy(&v, bytes.data(), sizeof(int));
  return v;
}

struct MailboxFixture : ::testing::Test {
  mph::atomic<bool> abort_flag{false};  // the Job's flag type (racer shim)
  std::string abort_reason = "test abort";
  Mailbox box{abort_flag, abort_reason};
  Deadline soon = std::chrono::steady_clock::now() + std::chrono::seconds(30);
};

}  // namespace

TEST_F(MailboxFixture, DeliverThenReceive) {
  box.deliver(make_env(1, 4, 7, {42}));
  int out = 0;
  const Status st = box.recv(1, 4, 7,
                             std::as_writable_bytes(std::span<int>(&out, 1)),
                             soon);
  EXPECT_EQ(out, 42);
  EXPECT_EQ(st.source, 4);
  EXPECT_EQ(st.tag, 7);
  EXPECT_EQ(st.bytes, sizeof(int));
  EXPECT_EQ(box.queued(), 0u);
}

TEST_F(MailboxFixture, WildcardSourceAndTag) {
  box.deliver(make_env(1, 9, 3, {5}));
  int out = 0;
  const Status st = box.recv(1, any_source, any_tag,
                             std::as_writable_bytes(std::span<int>(&out, 1)),
                             soon);
  EXPECT_EQ(st.source, 9);
  EXPECT_EQ(st.tag, 3);
  EXPECT_EQ(out, 5);
}

TEST_F(MailboxFixture, ContextIsolation) {
  box.deliver(make_env(2, 0, 0, {1}));
  // A receive on context 3 must not see the context-2 message.
  EXPECT_FALSE(box.iprobe(3, any_source, any_tag).has_value());
  EXPECT_TRUE(box.iprobe(2, any_source, any_tag).has_value());
}

TEST_F(MailboxFixture, NonOvertakingSameSourceTag) {
  box.deliver(make_env(1, 2, 5, {100}));
  box.deliver(make_env(1, 2, 5, {200}));
  int out = 0;
  box.recv(1, 2, 5, std::as_writable_bytes(std::span<int>(&out, 1)), soon);
  EXPECT_EQ(out, 100);
  box.recv(1, 2, 5, std::as_writable_bytes(std::span<int>(&out, 1)), soon);
  EXPECT_EQ(out, 200);
}

TEST_F(MailboxFixture, TagSelectionSkipsNonMatching) {
  box.deliver(make_env(1, 2, 5, {100}));
  box.deliver(make_env(1, 2, 6, {200}));
  int out = 0;
  box.recv(1, 2, 6, std::as_writable_bytes(std::span<int>(&out, 1)), soon);
  EXPECT_EQ(out, 200);
  EXPECT_EQ(box.queued(), 1u);
}

TEST_F(MailboxFixture, TruncationThrows) {
  box.deliver(make_env(1, 0, 0, {1, 2, 3}));
  int out = 0;
  EXPECT_THROW(
      box.recv(1, 0, 0, std::as_writable_bytes(std::span<int>(&out, 1)), soon),
      Error);
}

TEST_F(MailboxFixture, RecvTakeReturnsPayload) {
  box.deliver(make_env(1, 3, 8, {7, 8, 9}));
  auto [st, payload] = box.recv_take(1, 3, 8, soon);
  EXPECT_EQ(st.bytes, 3 * sizeof(int));
  EXPECT_EQ(first_int(payload), 7);
}

TEST_F(MailboxFixture, PostRecvCompletesOnDeliver) {
  int out = 0;
  auto ticket = box.post_recv(1, any_source, 4,
                              std::as_writable_bytes(std::span<int>(&out, 1)));
  EXPECT_FALSE(box.test(ticket, nullptr));
  box.deliver(make_env(1, 6, 4, {77}));
  Status st;
  ASSERT_TRUE(box.test(ticket, &st));
  EXPECT_EQ(out, 77);
  EXPECT_EQ(st.source, 6);
}

TEST_F(MailboxFixture, PostRecvMatchesAlreadyQueued) {
  box.deliver(make_env(1, 1, 2, {55}));
  int out = 0;
  auto ticket =
      box.post_recv(1, 1, 2, std::as_writable_bytes(std::span<int>(&out, 1)));
  Status st;
  ASSERT_TRUE(box.test(ticket, &st));
  EXPECT_EQ(out, 55);
}

TEST_F(MailboxFixture, PostedRecvsMatchInPostingOrder) {
  int a = 0, b = 0;
  auto t1 = box.post_recv(1, any_source, any_tag,
                          std::as_writable_bytes(std::span<int>(&a, 1)));
  auto t2 = box.post_recv(1, any_source, any_tag,
                          std::as_writable_bytes(std::span<int>(&b, 1)));
  box.deliver(make_env(1, 0, 0, {1}));
  box.deliver(make_env(1, 0, 0, {2}));
  box.wait(t1, soon);
  box.wait(t2, soon);
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST_F(MailboxFixture, PostedTruncationSurfacesAtWait) {
  int small = 0;
  auto ticket =
      box.post_recv(1, any_source, any_tag,
                    std::as_writable_bytes(std::span<int>(&small, 1)));
  box.deliver(make_env(1, 0, 0, {1, 2}));
  EXPECT_THROW(box.wait(ticket, soon), Error);
}

TEST_F(MailboxFixture, CancelRemovesPostedRecv) {
  int out = 0;
  auto ticket = box.post_recv(1, any_source, any_tag,
                              std::as_writable_bytes(std::span<int>(&out, 1)));
  box.cancel(ticket);
  box.deliver(make_env(1, 0, 0, {9}));
  // The delivered message must be queued, not matched to the cancelled recv.
  EXPECT_EQ(box.queued(), 1u);
  EXPECT_EQ(out, 0);
}

TEST_F(MailboxFixture, ProbeReportsWithoutConsuming) {
  box.deliver(make_env(1, 5, 6, {1, 2}));
  const Status st = box.probe(1, any_source, any_tag, soon);
  EXPECT_EQ(st.source, 5);
  EXPECT_EQ(st.tag, 6);
  EXPECT_EQ(st.bytes, 2 * sizeof(int));
  EXPECT_EQ(box.queued(), 1u);
}

TEST_F(MailboxFixture, TimeoutThrows) {
  const Deadline fast =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  int out = 0;
  try {
    box.recv(1, 0, 0, std::as_writable_bytes(std::span<int>(&out, 1)), fast);
    FAIL() << "expected timeout";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::timeout);
  }
}

TEST_F(MailboxFixture, AbortWakesBlockedReceiver) {
  std::thread receiver([&] {
    int out = 0;
    EXPECT_THROW(box.recv(1, 0, 0,
                          std::as_writable_bytes(std::span<int>(&out, 1)),
                          Deadline::max()),
                 AbortedError);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  abort_flag.store(true);
  box.wake_all();
  receiver.join();
}

TEST_F(MailboxFixture, CrossThreadDeliverWakesReceiver) {
  int out = 0;
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    box.deliver(make_env(1, 0, 3, {321}));
  });
  const Status st =
      box.recv(1, 0, 3, std::as_writable_bytes(std::span<int>(&out, 1)), soon);
  sender.join();
  EXPECT_EQ(out, 321);
  EXPECT_EQ(st.bytes, sizeof(int));
}

TEST_F(MailboxFixture, ZeroByteMessage) {
  Envelope e;
  e.context = 1;
  e.src = 0;
  e.tag = 0;
  box.deliver(std::move(e));
  const Status st = box.recv(1, 0, 0, {}, soon);
  EXPECT_EQ(st.bytes, 0u);
}

// ---------------------------------------------------------------------------
// Contention tests — the mailbox's lock-free fast-path flags under real
// threads.  These are the tsan gate for the abort-flag and wildcard-counter
// protocols (the same protocols mph_racer checks exhaustively at small
// bounds via the mailbox_abort_flag / mailbox_wildcard_counter litmus
// cases); under the tsan preset any mis-annotated ordering is a reported
// race here.
// ---------------------------------------------------------------------------

TEST_F(MailboxFixture, AbortFlagContentionUnwindsEveryWaiter) {
  constexpr int kReceivers = 4;
  std::vector<std::thread> receivers;
  std::atomic<int> unwound{0};
  receivers.reserve(kReceivers);
  for (int i = 0; i < kReceivers; ++i) {
    receivers.emplace_back([&, i] {
      int out = 0;
      try {
        // Mix blocking receives and probes so both fast paths cross the
        // acquire load of abort_flag_ while the flag flips.
        if (i % 2 == 0) {
          (void)box.recv(1, any_source, any_tag,
                         std::as_writable_bytes(std::span<int>(&out, 1)),
                         Deadline::max());
        } else {
          (void)box.probe(1, any_source, any_tag, Deadline::max());
        }
      } catch (const AbortedError& e) {
        // The release store of the flag must make the write-once reason
        // visible to every unwinding waiter.
        EXPECT_NE(std::string_view(e.what()).find("test abort"),
                  std::string_view::npos);
        unwound.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  abort_flag.store(true, std::memory_order_release);
  box.wake_all();
  for (std::thread& th : receivers) th.join();
  EXPECT_EQ(unwound.load(), kReceivers);
}

TEST_F(MailboxFixture, WildcardCounterContentionIsExact) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const tag_t tag = static_cast<tag_t>(t * kPerThread + i);
        box.deliver(make_env(1, 2, tag, {i}));
        int out = 0;
        // A wildcard-source receive: bumps wildcard_recvs_ on the fast
        // path while the other threads do the same.
        (void)box.recv(1, any_source, tag,
                       std::as_writable_bytes(std::span<int>(&out, 1)),
                       Deadline::max());
      }
    });
  }
  for (std::thread& th : workers) th.join();
  EXPECT_EQ(box.wildcard_recvs(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(box.queued(), 0u);
}
