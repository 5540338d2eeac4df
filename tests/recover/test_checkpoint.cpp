// Checkpoint/CheckpointStore round trips: typed entries, CRC + format
// validation, atomic persistence with pruning, and round trips of the
// checkpointable library state (RNG, time manager, accumulator).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/coupler/accumulator.hpp"
#include "src/coupler/timemgr.hpp"
#include "src/mph/errors.hpp"
#include "src/mph/recover.hpp"
#include "src/util/rng.hpp"

namespace {

using mph::SetupError;
using mph::recover::Checkpoint;
using mph::recover::CheckpointStore;

std::string fresh_dir(const std::string& name) {
  // pid-unique: ctest runs tests of this binary as concurrent processes.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("mph_ckpt_" + std::to_string(::getpid()) + "_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

TEST(Checkpoint, TypedEntriesRoundTripThroughBytes) {
  Checkpoint ckpt(42);
  const std::vector<double> field = {1.5, -2.25, 3.0e-7, 0.0};
  const std::vector<std::uint64_t> words = {0, 1, ~0ULL};
  ckpt.put_doubles("field", field);
  ckpt.put_u64s("words", words);
  ckpt.put_scalar("dt", 0.05);
  ckpt.put_flag("has_import", true);
  ckpt.put_flag("empty", false);

  const Checkpoint back = Checkpoint::from_bytes(ckpt.to_bytes());
  EXPECT_EQ(back.step(), 42u);
  EXPECT_EQ(back.doubles("field"), field);
  EXPECT_EQ(back.u64s("words"), words);
  EXPECT_DOUBLE_EQ(back.scalar("dt"), 0.05);
  EXPECT_TRUE(back.flag("has_import"));
  EXPECT_FALSE(back.flag("empty"));
  EXPECT_TRUE(back.has("field"));
  EXPECT_FALSE(back.has("missing"));
}

TEST(Checkpoint, MissingKeyNamesTheKey) {
  const Checkpoint ckpt(1);
  try {
    (void)ckpt.doubles("ocean.sst");
    FAIL() << "expected SetupError";
  } catch (const SetupError& ex) {
    EXPECT_NE(std::string(ex.what()).find("ocean.sst"), std::string::npos)
        << ex.what();
  }
}

TEST(Checkpoint, RngStateRoundTripResumesStream) {
  mph::util::Rng rng(1234);
  for (int i = 0; i < 17; ++i) (void)rng();
  Checkpoint ckpt(3);
  const auto state = rng.state();
  ckpt.put_u64s("rng", std::vector<std::uint64_t>(state.begin(), state.end()));

  const Checkpoint back = Checkpoint::from_bytes(ckpt.to_bytes());
  const std::vector<std::uint64_t> raw = back.u64s("rng");
  ASSERT_EQ(raw.size(), 4u);
  mph::util::Rng resumed(0);
  resumed.set_state({raw[0], raw[1], raw[2], raw[3]});
  for (int i = 0; i < 32; ++i) EXPECT_EQ(resumed(), rng());
}

TEST(Checkpoint, TimeManagerAndAccumulatorRoundTrip) {
  mph::coupler::TimeManager clock(0.5, 100.0);
  clock.add_alarm("couple", 2.0);
  std::vector<std::string> fired;
  for (int i = 0; i < 7; ++i) fired = clock.advance();

  mph::coupler::FieldAccumulator acc(3);
  const std::vector<double> a = {1, 2, 3};
  const std::vector<double> b = {4, 5, 6};
  acc.add(a);
  acc.add(b);

  Checkpoint ckpt(7);
  ckpt.put_u64s("clock.step",
                std::vector<std::uint64_t>{
                    static_cast<std::uint64_t>(clock.step())});
  ckpt.put_doubles("acc.sum", acc.sum());
  ckpt.put_scalar("acc.samples", acc.samples());

  const Checkpoint back = Checkpoint::from_bytes(ckpt.to_bytes());
  mph::coupler::TimeManager clock2(0.5, 100.0);
  clock2.add_alarm("couple", 2.0);
  clock2.restore_step(static_cast<long long>(back.u64s("clock.step")[0]));
  EXPECT_EQ(clock2.step(), clock.step());
  EXPECT_DOUBLE_EQ(clock2.time(), clock.time());
  // The restored clock fires the same alarms going forward.
  EXPECT_EQ(clock2.advance(), clock.advance());

  mph::coupler::FieldAccumulator acc2(3);
  acc2.restore(back.doubles("acc.sum"),
               static_cast<int>(back.scalar("acc.samples")));
  EXPECT_EQ(acc2.samples(), 2);
  EXPECT_EQ(acc2.mean(), acc.mean());
}

TEST(CheckpointStore, SaveLoadLatestAndPrune) {
  const CheckpointStore store(fresh_dir("prune"), /*retain=*/2);
  for (std::uint64_t step = 0; step < 5; ++step) {
    Checkpoint ckpt(step);
    ckpt.put_scalar("value", static_cast<double>(step) * 1.5);
    store.save("Ocean1", ckpt);
  }
  // Only the newest two steps survive pruning.
  EXPECT_EQ(store.steps("Ocean1"), (std::vector<std::uint64_t>{3, 4}));
  ASSERT_TRUE(store.latest_step("Ocean1").has_value());
  EXPECT_EQ(*store.latest_step("Ocean1"), 4u);

  const auto latest = store.load_latest("Ocean1");
  ASSERT_TRUE(latest.has_value());
  EXPECT_DOUBLE_EQ(latest->scalar("value"), 6.0);
  const auto older = store.load_step("Ocean1", 3);
  ASSERT_TRUE(older.has_value());
  EXPECT_DOUBLE_EQ(older->scalar("value"), 4.5);
  EXPECT_FALSE(store.load_step("Ocean1", 0).has_value());

  // Members are independent key spaces.
  EXPECT_FALSE(store.latest_step("Ocean2").has_value());
  EXPECT_FALSE(store.load_latest("Ocean2").has_value());
}

TEST(CheckpointStore, CorruptedFileRejectedWithSetupError) {
  const CheckpointStore store(fresh_dir("corrupt"), 2);
  Checkpoint ckpt(1);
  ckpt.put_doubles("field", std::vector<double>{1, 2, 3});
  store.save("Ocean1", ckpt);

  // Flip one payload byte: the CRC must catch it and the error must name
  // the file.
  const std::string path = store.path_of("Ocean1", 1);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(24);
    char byte = 0;
    f.seekg(24);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(24);
    f.write(&byte, 1);
  }
  try {
    (void)store.load_step("Ocean1", 1);
    FAIL() << "expected SetupError";
  } catch (const SetupError& ex) {
    EXPECT_NE(std::string(ex.what()).find(path), std::string::npos)
        << ex.what();
  }
}

TEST(CheckpointStore, TruncatedFileRejectedWithSetupError) {
  const CheckpointStore store(fresh_dir("truncate"), 2);
  Checkpoint ckpt(2);
  ckpt.put_doubles("field", std::vector<double>(64, 3.25));
  store.save("Ocean1", ckpt);

  const std::string path = store.path_of("Ocean1", 2);
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_THROW((void)store.load_latest("Ocean1"), SetupError);

  // An empty file is equally rejected, not treated as "no checkpoint".
  std::filesystem::resize_file(path, 0);
  EXPECT_THROW((void)store.load_step("Ocean1", 2), SetupError);
}

TEST(Checkpoint, CraftedPayloadLengthRejectedWithSetupError) {
  // A payload length near 2^64 must not wrap the reader's bounds check
  // (offset + length) into a "fits" answer: the image is rejected as
  // truncated, not handed to an allocation of that size.
  Checkpoint ckpt(1);
  ckpt.put_doubles("crafted", std::vector<double>{1.0});
  std::vector<std::byte> image = ckpt.to_bytes();
  const std::string key = "crafted";
  const auto* raw = reinterpret_cast<const char*>(image.data());
  const std::string_view text(raw, image.size());
  const std::size_t key_at = text.find(key);
  ASSERT_NE(key_at, std::string_view::npos);
  const std::uint64_t crafted = UINT64_MAX - 1;
  std::memcpy(image.data() + key_at + key.size(), &crafted, sizeof(crafted));
  EXPECT_THROW((void)Checkpoint::from_bytes(image, "crafted"), SetupError);
}

TEST(CheckpointStore, OversizedStepFileNameIsSkipped) {
  const std::string dir = fresh_dir("oversized");
  const CheckpointStore store(dir, 2);
  Checkpoint ckpt(3);
  ckpt.put_scalar("x", 1.0);
  store.save("m", ckpt);
  // A step number beyond 64 bits cannot be ours: it is skipped like any
  // other foreign file name.
  std::ofstream(dir + "/m.step99999999999999999999999.ckpt") << "junk";
  EXPECT_EQ(store.steps("m"), (std::vector<std::uint64_t>{3}));
  EXPECT_EQ(store.latest_step("m"), 3u);
}

TEST(CheckpointStore, BadMagicRejected) {
  const CheckpointStore store(fresh_dir("magic"), 2);
  Checkpoint ckpt(1);
  ckpt.put_scalar("x", 1.0);
  store.save("m", ckpt);
  const std::string path = store.path_of("m", 1);
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << "NOTACKPT-garbage-garbage-garbage";
  }
  EXPECT_THROW((void)store.load_step("m", 1), SetupError);
}

}  // namespace
