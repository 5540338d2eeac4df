// The one-copy send path: a sender copies straight into a receive that is
// already waiting — a posted irecv or a blocking recv that published its
// buffer — outside the mailbox mutex, and an envelope queues an owned copy
// only when nothing waits.  These cases pin what that path must keep:
// every payload and the per-sender order under contention, truncation
// errors, type checks, fault rules and the dropped-request rule.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "src/minimpi/check.hpp"
#include "src/minimpi/fault.hpp"
#include "src/minimpi/launcher.hpp"
#include "src/minimpi/mailbox.hpp"

using namespace minimpi;

namespace {

/// An envelope borrowing `values`, as a send site builds one.
Envelope borrowed(rank_t src, tag_t tag, const std::vector<int>& values) {
  Envelope env;
  env.context = 1;
  env.src = src;
  env.tag = tag;
  env.payload = std::as_bytes(std::span<const int>(values));
  return env;
}

std::span<std::byte> bytes_of(std::vector<int>& values) {
  return std::as_writable_bytes(std::span<int>(values));
}

/// Spin until `box` holds `n` posted receives (a blocking recv counts once
/// it has published its buffer).
void await_posted(const Mailbox& box, std::size_t n) {
  while (box.posted() != n) std::this_thread::yield();
}

struct DirectCopyFixture : ::testing::Test {
  mph::atomic<bool> abort_flag{false};
  std::string abort_reason = "test abort";
  Deadline soon = std::chrono::steady_clock::now() + std::chrono::seconds(30);
};

/// Word `k` of message `seq` from `sender` in the stress test.
std::uint64_t stress_word(int sender, int seq, std::size_t k) {
  return (static_cast<std::uint64_t>(sender) << 56) ^
         (static_cast<std::uint64_t>(seq) << 24) ^ (k * 0x9e3779b97f4a7c15ULL);
}

/// Message sizes in words: 8 B, 4 KiB and 64 KiB, mixed per sender.
std::size_t stress_words(int sender, int seq) {
  constexpr std::size_t kWords[] = {1, 512, 8192};
  return kWords[static_cast<std::size_t>(seq * 7 + sender * 5) % 3];
}

}  // namespace

TEST(DirectCopy, AnySourceStressKeepsEveryPayloadAndOrder) {
  // One ANY_SOURCE receiver and three senders: some sends find the receive
  // waiting and copy straight in, others queue while a claimed copy runs,
  // and a sender can re-match a receive that published while it copied.
  // A receive that loses a claimed message, or publishes twice, hangs
  // here or fails a word.
  constexpr int kSenders = 3;
  constexpr int kPerSender = 1000;
  JobOptions options;
  options.recv_timeout = std::chrono::seconds(60);
  const JobReport report = run_spmd(
      kSenders + 1,
      [&](const Comm& world, const ExecEnv&) {
        if (world.rank() != 0) {
          const int me = world.rank();
          std::vector<std::uint64_t> buf(8192);
          for (int seq = 0; seq < kPerSender; ++seq) {
            const std::size_t words = stress_words(me, seq);
            for (std::size_t k = 0; k < words; ++k) {
              buf[k] = stress_word(me, seq, k);
            }
            world.send(std::span<const std::uint64_t>(buf.data(), words), 0,
                       7);
            // Paced, so the receiver mostly waits (and the senders find its
            // buffer published) but three sends still land close together.
            if (seq % 4 != 0) {
              std::this_thread::sleep_for(std::chrono::microseconds(50));
            }
          }
          return;
        }
        std::vector<int> next(kSenders + 1, 0);
        std::vector<std::uint64_t> buf(8192);
        for (int i = 0; i < kSenders * kPerSender; ++i) {
          const Status st =
              world.recv(std::span<std::uint64_t>(buf), any_source, 7);
          ASSERT_GE(st.source, 1);
          ASSERT_LE(st.source, kSenders);
          const int seq = next[static_cast<std::size_t>(st.source)]++;
          const std::size_t words = stress_words(st.source, seq);
          ASSERT_EQ(st.bytes, words * sizeof(std::uint64_t))
              << "sender " << st.source << " message " << seq;
          for (std::size_t k = 0; k < words; ++k) {
            ASSERT_EQ(buf[k], stress_word(st.source, seq, k))
                << "sender " << st.source << " message " << seq << " word "
                << k;
          }
        }
      },
      options);
  ASSERT_TRUE(report.ok) << report.abort_reason << " / "
                         << report.first_error();
}

TEST_F(DirectCopyFixture, TooSmallBlockingReceiveThrowsAndKeepsTheEnvelope) {
  Mailbox box{abort_flag, abort_reason};
  const std::vector<int> sent{1, 2};
  std::thread sender([&] {
    await_posted(box, 1);
    box.deliver(borrowed(0, 5, sent));
  });
  std::vector<int> small{-1};
  try {
    box.recv(1, 0, 5, bytes_of(small), soon);
    ADD_FAILURE() << "a 4-byte receive matched an 8-byte message";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::truncation) << e.what();
  }
  sender.join();
  EXPECT_EQ(small, std::vector<int>{-1});
  EXPECT_EQ(box.posted(), 0u);
  ASSERT_EQ(box.queued(), 1u);  // queued, as a queued match stays queued
  std::vector<int> big(2, 0);
  box.recv(1, 0, 5, bytes_of(big), soon);
  EXPECT_EQ(big, sent);
}

TEST_F(DirectCopyFixture, TooSmallPostedReceiveFailsItsTicket) {
  Mailbox box{abort_flag, abort_reason};
  std::vector<int> small{-1};
  const auto ticket = box.post_recv(1, 0, 5, bytes_of(small));
  const std::vector<int> sent{1, 2};
  box.deliver(borrowed(0, 5, sent));
  try {
    box.wait(ticket, soon);
    ADD_FAILURE() << "a 4-byte posted receive matched an 8-byte message";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::truncation) << e.what();
  }
  EXPECT_EQ(small, std::vector<int>{-1});
  EXPECT_EQ(box.queued(), 0u);  // a posted receive consumes its match
}

TEST_F(DirectCopyFixture, TypeMismatchOnTheSenderThreadThrowsInTheReceiver) {
  CheckOptions options;
  options.type_matching = true;
  Checker checker(options, 2);
  Mailbox box{abort_flag, abort_reason, 1, &checker};
  const std::vector<int> sent{42, 43};
  std::thread sender([&] {
    await_posted(box, 1);  // the receive waits: the sender's thread matches
    Envelope env = borrowed(0, 3, sent);
    env.sig = type_sig<int>();
    box.deliver(std::move(env));
  });
  double wrong = 0.0;
  EXPECT_THROW(box.recv(1, 0, 3,
                        std::as_writable_bytes(std::span<double>(&wrong, 1)),
                        soon, type_sig<double>()),
               TypeMismatchError);
  sender.join();
  EXPECT_EQ(wrong, 0.0);
  EXPECT_EQ(box.queued(), 0u);
  EXPECT_EQ(checker.report().type_mismatches.size(), 1u);
}

TEST_F(DirectCopyFixture, FaultRulesActOnBorrowedEnvelopes) {
  EnvelopeMatch tag1;
  tag1.tag = 1;
  EnvelopeMatch tag2;
  tag2.tag = 2;
  FaultInjector faults(FaultPlan()
                           .truncate(tag1, sizeof(int), 1)
                           .truncate(tag1, sizeof(int), 2)
                           .drop(tag2));
  Mailbox box{abort_flag, abort_reason, 0, nullptr, &faults};
  const std::vector<int> sent{1, 2, 3, 4};

  // Truncated into a waiting receive: one int lands, the sender's bytes
  // stay whole.
  std::vector<int> got(4, -1);
  const auto ticket = box.post_recv(1, 0, 1, bytes_of(got));
  box.deliver(borrowed(0, 1, sent));
  EXPECT_EQ(box.wait(ticket, soon).bytes, sizeof(int));
  EXPECT_EQ(got, (std::vector<int>{1, -1, -1, -1}));
  EXPECT_EQ(sent, (std::vector<int>{1, 2, 3, 4}));

  // Truncated into the queue: only the shortened view is owned.
  box.deliver(borrowed(0, 1, sent));
  const auto [status, payload] = box.recv_take(1, 0, 1, soon);
  EXPECT_EQ(status.bytes, sizeof(int));
  EXPECT_EQ(payload.size(), sizeof(int));

  // Dropped: the waiting receive never completes, nothing queues.
  std::vector<int> none(4, -1);
  const auto dropped = box.post_recv(1, 0, 2, bytes_of(none));
  box.deliver(borrowed(0, 2, sent));
  Status unused;
  EXPECT_FALSE(box.test(dropped, &unused));
  EXPECT_EQ(box.queued(), 0u);
  box.cancel(dropped);
  EXPECT_EQ(none, std::vector<int>(4, -1));
  EXPECT_EQ(faults.events().size(), 3u);
}

TEST_F(DirectCopyFixture, DroppedRequestNeverWritesItsBuffer) {
  Mailbox box{abort_flag, abort_reason};
  const std::vector<int> sent(64 * 1024, 7);

  // Detached before the send: the match consumes the envelope in MPI
  // order and copies nothing.
  std::vector<int> buf(sent.size(), -1);
  box.detach(box.post_recv(1, 0, 1, bytes_of(buf)));
  box.deliver(borrowed(0, 1, sent));
  EXPECT_EQ(buf, std::vector<int>(sent.size(), -1));
  EXPECT_EQ(box.queued(), 0u);

  // Detached while a sender may be copying: detach returns only once the
  // copy is over, so the buffer never changes after it returns.
  for (int round = 0; round < 20; ++round) {
    std::fill(buf.begin(), buf.end(), -1);
    const auto ticket = box.post_recv(1, 0, 2, bytes_of(buf));
    std::thread sender([&] { box.deliver(borrowed(0, 2, sent)); });
    box.detach(ticket);
    const std::vector<int> after_detach = buf;
    sender.join();
    EXPECT_EQ(buf, after_detach) << "round " << round;
  }
  EXPECT_EQ(box.queued(), 0u);
}
