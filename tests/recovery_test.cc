// Recovery and historical replay: checkpoint + WAL tail reconstruction
// equals a continuously-run operator, crash-before-first-checkpoint
// recovery, replay-target parsing and replays to position and timestamp
// targets, the retention error paths, refusal before any element flows,
// and fallback past a corrupt checkpoint.

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/naive_operator.h"
#include "core/ssky_operator.h"
#include "stream/generator.h"
#include "stream/window.h"
#include "store/recovery.h"
#include "store/wal.h"

namespace psky {
namespace {

namespace fs = std::filesystem;

constexpr int kDims = 3;
constexpr double kQ = 0.3;
constexpr size_t kCapacity = 40;

std::string TempDir(const char* tag) {
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      (std::string("psky_rec_") + tag + "_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::vector<UncertainElement> MakeStream(size_t n, uint64_t seed) {
  StreamConfig cfg;
  cfg.dims = kDims;
  cfg.spatial = SpatialDistribution::kAntiCorrelated;
  cfg.seed = seed;
  StreamGenerator gen(cfg);
  return gen.Take(n);
}

// Drives the stream prefix [0, steps) the way psky_stream does —
// checkpointing and rotating the WAL every `ckpt_every` elements — and
// leaves the durable state in `dir`. Returns the operator state after
// the full prefix for comparison.
void RunDurablePrefix(const std::string& dir,
                      const std::vector<UncertainElement>& stream,
                      size_t steps, uint64_t ckpt_every) {
  SskyOperator op(kDims, kQ);
  CountWindow window(kCapacity);
  WalWriter wal;
  std::string error;
  int err = 0;
  ASSERT_TRUE(wal.Create(dir + "/" + WalFileName(0),
                         static_cast<uint32_t>(kDims), 0, &error, &err))
      << error;
  for (size_t i = 0; i < steps; ++i) {
    const UncertainElement& e = stream[i];
    WalRecord r;
    r.element = e;
    r.step_after = i + 1;
    r.next_seq_after = e.seq + 1;
    r.lines_after = 0;
    ASSERT_TRUE(wal.Append(r, &error, &err)) << error;
    if (window.full()) op.Expire(window.PushRotate(e));
    else window.Push(e);
    op.Insert(e);
    const uint64_t step = static_cast<uint64_t>(i) + 1;
    if (step % ckpt_every == 0) {
      CheckpointState state;
      state.dims = kDims;
      state.q = kQ;
      state.window_kind = WindowKind::kCount;
      state.window_capacity = kCapacity;
      state.elements_consumed = step;
      state.next_seq = e.seq + 1;
      state.window = window.Snapshot();
      ASSERT_TRUE(WriteCheckpointFile(
          dir + "/" + CheckpointFileName(step), state, &error))
          << error;
      ASSERT_TRUE(wal.RotateTo(dir, step, &error, &err)) << error;
    }
  }
  ASSERT_TRUE(wal.Sync(&error, &err)) << error;
  wal.Close();
}

// Rebuilds an operator from a RecoveredState the way psky_stream resumes.
void Rebuild(const RecoveredState& rec, SskyOperator* op,
             CountWindow* window) {
  ReplayWindow(rec.checkpoint, op);
  for (const auto& e : rec.checkpoint.window) window->Push(e);
  for (const WalRecord& r : rec.tail) {
    if (window->full()) op->Expire(window->PushRotate(r.element));
    else window->Push(r.element);
    op->Insert(r.element);
  }
}

void ExpectSkylinesEqual(SskyOperator& a, SskyOperator& b) {
  const auto sa = a.Skyline();
  const auto sb = b.Skyline();
  ASSERT_EQ(sa.size(), sb.size());
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].element.seq, sb[i].element.seq);
    EXPECT_EQ(sa[i].psky, sb[i].psky);  // bitwise
  }
}

TEST(RecoverStateTest, CheckpointPlusTailMatchesContinuousRun) {
  const std::string dir = TempDir("ckpt_tail");
  const std::vector<UncertainElement> stream = MakeStream(300, 11);
  RunDurablePrefix(dir, stream, 300, 120);  // checkpoints at 120, 240

  RecoveredState rec;
  std::string error;
  ASSERT_TRUE(RecoverState(dir, &rec, &error)) << error;
  EXPECT_TRUE(rec.has_checkpoint);
  EXPECT_EQ(rec.checkpoint.elements_consumed, 240u);
  ASSERT_EQ(rec.tail.size(), 60u);
  EXPECT_EQ(rec.tail.front().step_after, 241u);
  EXPECT_EQ(rec.tail.back().step_after, 300u);
  EXPECT_FALSE(rec.tail_truncated);

  SskyOperator recovered_op(kDims, kQ);
  CountWindow recovered_window(kCapacity);
  Rebuild(rec, &recovered_op, &recovered_window);

  SskyOperator continuous(kDims, kQ);
  CountWindow window(kCapacity);
  for (const auto& e : stream) {
    if (window.full()) continuous.Expire(window.PushRotate(e));
    else window.Push(e);
    continuous.Insert(e);
  }
  ExpectSkylinesEqual(continuous, recovered_op);
}

TEST(RecoverStateTest, CrashBeforeFirstCheckpointRecoversFromWalAlone) {
  const std::string dir = TempDir("no_ckpt");
  const std::vector<UncertainElement> stream = MakeStream(50, 3);
  RunDurablePrefix(dir, stream, 50, 1000);  // never checkpoints

  RecoveredState rec;
  std::string error;
  ASSERT_TRUE(RecoverState(dir, &rec, &error)) << error;
  EXPECT_FALSE(rec.has_checkpoint);
  ASSERT_EQ(rec.tail.size(), 50u);
  EXPECT_EQ(rec.tail.front().step_after, 1u);
}

TEST(RecoverStateTest, TornWalTailSurvivesWithValidPrefix) {
  const std::string dir = TempDir("torn");
  const std::vector<UncertainElement> stream = MakeStream(30, 9);
  RunDurablePrefix(dir, stream, 30, 1000);
  const std::vector<std::string> files = ListWalFiles(dir);
  ASSERT_EQ(files.size(), 1u);
  fs::resize_file(files[0], fs::file_size(files[0]) - 7);

  RecoveredState rec;
  std::string error;
  ASSERT_TRUE(RecoverState(dir, &rec, &error)) << error;
  EXPECT_TRUE(rec.tail_truncated);
  ASSERT_EQ(rec.tail.size(), 29u);
  EXPECT_FALSE(rec.notes.empty());
}

TEST(RecoverStateTest, EmptyDirectoryIsNotRecoverable) {
  const std::string dir = TempDir("empty");
  RecoveredState rec;
  std::string error;
  EXPECT_FALSE(RecoverState(dir, &rec, &error));
  EXPECT_FALSE(error.empty());
}

TEST(ReplayTargetTest, ParsesPositionsAndTimestamps) {
  ReplayTarget t;
  std::string error;
  ASSERT_TRUE(ParseReplayTarget("1234", &t, &error)) << error;
  EXPECT_EQ(t.kind, ReplayTarget::Kind::kStep);
  EXPECT_EQ(t.step, 1234u);
  ASSERT_TRUE(ParseReplayTarget("ts:17.5", &t, &error)) << error;
  EXPECT_EQ(t.kind, ReplayTarget::Kind::kTime);
  EXPECT_DOUBLE_EQ(t.time, 17.5);
  EXPECT_FALSE(ParseReplayTarget("", &t, &error));
  EXPECT_FALSE(ParseReplayTarget("12x4", &t, &error));
  EXPECT_FALSE(ParseReplayTarget("ts:", &t, &error));
  EXPECT_FALSE(ParseReplayTarget("ts:abc", &t, &error));
}

// Replays `dir` up to `target` through Resume() the way psky_stream
// --replay-at does, into `op` and `window`.
ResumeStatus ReplayTo(const std::string& dir, const ReplayTarget& target,
                      SskyOperator* op, CountWindow* window,
                      ResumeResult* result, std::string* error) {
  ResumeSink sink;
  sink.element = [&](const UncertainElement& e) {
    window->Push(e);
    op->Insert(e);
  };
  sink.record = [&](const WalRecord& r) {
    if (window->full()) op->Expire(window->PushRotate(r.element));
    else window->Push(r.element);
    op->Insert(r.element);
    return true;
  };
  ResumeOptions options;
  options.wal = true;
  options.target = &target;
  return Resume(dir, options, sink, result, error);
}

TEST(PlanReplayTest, PositionTargetMatchesFreshRunAndOracle) {
  const std::string dir = TempDir("plan_pos");
  const std::vector<UncertainElement> stream = MakeStream(300, 21);
  RunDurablePrefix(dir, stream, 300, 120);

  for (const uint64_t target_step : {130u, 240u, 299u}) {
    ReplayTarget target;
    target.kind = ReplayTarget::Kind::kStep;
    target.step = target_step;
    SskyOperator replayed(kDims, kQ);
    CountWindow window(kCapacity);
    ResumeResult result;
    std::string error;
    ASSERT_EQ(ReplayTo(dir, target, &replayed, &window, &result, &error),
              ResumeStatus::kOk)
        << error;
    EXPECT_EQ(result.base.elements_consumed + result.tail_records,
              target_step);
    EXPECT_EQ(result.step, target_step);

    // Fresh-run equivalence.
    SskyOperator fresh(kDims, kQ);
    CountWindow fresh_window(kCapacity);
    for (size_t i = 0; i < target_step; ++i) {
      const UncertainElement& e = stream[i];
      if (fresh_window.full()) fresh.Expire(fresh_window.PushRotate(e));
      else fresh_window.Push(e);
      fresh.Insert(e);
    }
    ExpectSkylinesEqual(fresh, replayed);

    // Audit-oracle equivalence: the naive operator over the replayed
    // window derives the same skyline definitionally.
    NaiveSkylineOperator oracle(kDims, kQ);
    for (const auto& e : window.Snapshot()) oracle.Insert(e);
    const auto oracle_sky = oracle.Skyline();
    const auto replay_sky = replayed.Skyline();
    ASSERT_EQ(oracle_sky.size(), replay_sky.size());
    for (size_t i = 0; i < oracle_sky.size(); ++i) {
      EXPECT_EQ(oracle_sky[i].element.seq, replay_sky[i].element.seq);
      EXPECT_NEAR(oracle_sky[i].psky, replay_sky[i].psky, 1e-9);
    }
  }
}

TEST(PlanReplayTest, TimestampTargetStopsAtTheRightRecord) {
  const std::string dir = TempDir("plan_time");
  std::vector<UncertainElement> stream = MakeStream(200, 8);
  for (size_t i = 0; i < stream.size(); ++i) {
    stream[i].time = static_cast<double>(i + 1);  // admitted, monotonic
  }
  RunDurablePrefix(dir, stream, 200, 80);

  ReplayTarget target;
  std::string error;
  ASSERT_TRUE(ParseReplayTarget("ts:150.5", &target, &error)) << error;
  SskyOperator op(kDims, kQ);
  CountWindow window(kCapacity);
  ResumeResult result;
  ASSERT_EQ(ReplayTo(dir, target, &op, &window, &result, &error),
            ResumeStatus::kOk)
      << error;
  ASSERT_GT(result.tail_records, 0u);
  EXPECT_EQ(result.base.elements_consumed + result.tail_records, 150u);
  EXPECT_LE(result.tip.element.time, 150.5);
}

TEST(PlanReplayTest, RejectsTargetsOutsideRetention) {
  const std::string dir = TempDir("plan_err");
  const std::vector<UncertainElement> stream = MakeStream(300, 4);
  RunDurablePrefix(dir, stream, 300, 120);
  // Emulate retention pruning: drop everything before checkpoint 240.
  PruneCheckpoints(dir, 1);
  PruneWalFiles(dir, 240);

  auto replay = [&](uint64_t step, std::string* error) {
    ReplayTarget target;
    target.kind = ReplayTarget::Kind::kStep;
    target.step = step;
    SskyOperator op(kDims, kQ);
    CountWindow window(kCapacity);
    ResumeResult result;
    return ReplayTo(dir, target, &op, &window, &result, error);
  };
  std::string error;
  // Predates the oldest retained checkpoint.
  EXPECT_EQ(replay(100, &error), ResumeStatus::kFailed);
  EXPECT_FALSE(error.empty());
  // Beyond the end of the log.
  EXPECT_EQ(replay(10000, &error), ResumeStatus::kFailed);
  EXPECT_FALSE(error.empty());
  // Inside retention still works.
  EXPECT_EQ(replay(270, &error), ResumeStatus::kOk) << error;
}

// The configuration reaches the caller before any element: a refusal
// there delivers nothing.
TEST(ResumeTest, RefusedCheckpointDeliversNothing) {
  const std::string dir = TempDir("refuse");
  const std::vector<UncertainElement> stream = MakeStream(300, 5);
  RunDurablePrefix(dir, stream, 300, 120);
  size_t delivered = 0;
  ResumeSink sink;
  sink.begin = [](const CheckpointState& header) {
    return header.dims != kDims;  // refuse this configuration
  };
  sink.element = [&](const UncertainElement&) { ++delivered; };
  sink.record = [&](const WalRecord&) {
    ++delivered;
    return true;
  };
  ResumeOptions options;
  options.wal = true;
  ResumeResult result;
  std::string error;
  EXPECT_EQ(Resume(dir, options, sink, &result, &error),
            ResumeStatus::kRefused);
  EXPECT_EQ(delivered, 0u);
}

// A corrupt newest checkpoint is passed over and reported, but the
// library only reads: the file stays where it was.
TEST(ResumeTest, CorruptNewestFallsBackAndIsLeftInPlace) {
  const std::string dir = TempDir("corrupt");
  const std::vector<UncertainElement> stream = MakeStream(300, 6);
  RunDurablePrefix(dir, stream, 300, 120);  // checkpoints at 120, 240
  const std::string newest = dir + "/" + CheckpointFileName(240);
  fs::resize_file(newest, fs::file_size(newest) - 3);

  SskyOperator op(kDims, kQ);
  CountWindow window(kCapacity);
  ResumeSink sink;
  sink.element = [&](const UncertainElement& e) {
    window.Push(e);
    op.Insert(e);
  };
  sink.record = [&](const WalRecord& r) {
    if (window.full()) op.Expire(window.PushRotate(r.element));
    else window.Push(r.element);
    op.Insert(r.element);
    return true;
  };
  ResumeOptions options;
  options.wal = true;
  ResumeResult result;
  std::string error;
  ASSERT_EQ(Resume(dir, options, sink, &result, &error), ResumeStatus::kOk)
      << error;
  EXPECT_EQ(result.base.elements_consumed, 120u);
  EXPECT_EQ(result.step, 300u);
  ASSERT_EQ(result.skipped.size(), 1u);
  EXPECT_EQ(result.skipped[0], newest);
  EXPECT_NE(result.skipped_diagnostics.find(newest), std::string::npos);
  EXPECT_TRUE(fs::exists(newest));

  SskyOperator continuous(kDims, kQ);
  CountWindow continuous_window(kCapacity);
  for (const auto& e : stream) {
    if (continuous_window.full()) {
      continuous.Expire(continuous_window.PushRotate(e));
    } else {
      continuous_window.Push(e);
    }
    continuous.Insert(e);
  }
  ExpectSkylinesEqual(continuous, op);
}

TEST(ParseCheckpointStepTest, AcceptsOnlyCanonicalNames) {
  uint64_t step = 0;
  EXPECT_TRUE(ParseCheckpointStep(CheckpointFileName(77), &step));
  EXPECT_EQ(step, 77u);
  EXPECT_TRUE(
      ParseCheckpointStep("/some/dir/" + CheckpointFileName(8), &step));
  EXPECT_EQ(step, 8u);
  EXPECT_FALSE(ParseCheckpointStep("ckpt-12.psky", &step));
  EXPECT_FALSE(ParseCheckpointStep(WalFileName(3), &step));
}

}  // namespace
}  // namespace psky
