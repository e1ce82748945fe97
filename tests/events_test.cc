// Delta-event feed: reconstructing the skyline purely from
// TakeSkylineDelta() / DrainBandChanges() must reproduce the full result
// at every stream step, and at any cadence of takes.

#include <algorithm>
#include <cmath>
#include <iterator>
#include <random>
#include <set>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/ssky_operator.h"
#include "stream/generator.h"
#include "test_util.h"

namespace psky {
namespace {

// Sorted seqs in `a` but not in `b`.
std::vector<uint64_t> Minus(const std::vector<uint64_t>& a,
                            const std::vector<uint64_t>& b) {
  std::vector<uint64_t> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

TEST(Events, DisabledByDefault) {
  SskyOperator op(2, 0.3);
  op.Insert(MakeElement({0.5, 0.5}, 0.9, 1));
  EXPECT_TRUE(op.TakeSkylineDelta().entered.empty());
}

TEST(Events, SingleArrivalAndExpiry) {
  SkyTree::Options opt;
  opt.record_events = true;
  SskyOperator op(2, 0.3, opt);
  const UncertainElement e = MakeElement({0.5, 0.5}, 0.9, 1);
  op.Insert(e);
  auto delta = op.TakeSkylineDelta();
  EXPECT_EQ(delta.entered, std::vector<uint64_t>{1});
  EXPECT_TRUE(delta.left.empty());
  op.Expire(e);
  delta = op.TakeSkylineDelta();
  EXPECT_TRUE(delta.entered.empty());
  EXPECT_EQ(delta.left, std::vector<uint64_t>{1});
}

TEST(Events, DominationMovesElementOutAndBack) {
  SkyTree::Options opt;
  opt.record_events = true;
  SskyOperator op(2, 0.5, opt);
  op.Insert(MakeElement({0.5, 0.5}, 0.9, 1));
  (void)op.TakeSkylineDelta();
  // A dominator with P = 0.5 demotes seq 1 below q (P_sky = 0.45) while
  // keeping it in the candidate set (P_new = 0.5 >= q); anything stronger
  // would *evict* seq 1, which is irreversible by design (Theorem 5).
  const UncertainElement dom = MakeElement({0.1, 0.1}, 0.5, 2);
  op.Insert(dom);
  auto delta = op.TakeSkylineDelta();
  EXPECT_EQ(delta.entered, std::vector<uint64_t>{2});
  EXPECT_EQ(delta.left, std::vector<uint64_t>{1});
  // ...and its expiry brings seq 1 back.
  op.Expire(dom);
  delta = op.TakeSkylineDelta();
  EXPECT_EQ(delta.entered, std::vector<uint64_t>{1});
  EXPECT_EQ(delta.left, std::vector<uint64_t>{2});
}

TEST(Events, ReconstructsSkylineOnRandomStream) {
  SkyTree::Options opt;
  opt.record_events = true;
  for (int dims : {2, 3}) {
    StreamConfig cfg;
    cfg.dims = dims;
    cfg.spatial = SpatialDistribution::kAntiCorrelated;
    cfg.seed = 500 + static_cast<uint64_t>(dims);
    StreamGenerator gen(cfg);
    SskyOperator op(dims, 0.3, opt);
    StreamProcessor proc(&op, 60);
    std::set<uint64_t> reconstructed;
    for (const UncertainElement& e : gen.Take(600)) {
      proc.Step(e);
      const auto delta = op.TakeSkylineDelta();
      for (uint64_t seq : delta.left) {
        ASSERT_TRUE(reconstructed.erase(seq)) << "left but absent: " << seq;
      }
      for (uint64_t seq : delta.entered) {
        ASSERT_TRUE(reconstructed.insert(seq).second)
            << "entered but present: " << seq;
      }
      ASSERT_EQ(reconstructed, [&op] {
        std::set<uint64_t> s;
        for (const auto& m : op.Skyline()) s.insert(m.element.seq);
        return s;
      }()) << "at seq " << e.seq;
    }
  }
}

// A resumed run replays its recovery tail with no consumer draining the
// events, so the first delta after it composes a bulk backlog. That delta,
// and every per-step delta after it, must equal the set difference of
// consecutive Skyline() results.
TEST(Events, PerStepDeltasStayExactAfterABulkReplay) {
  SkyTree::Options opt;
  opt.record_events = true;
  StreamConfig cfg;
  cfg.dims = 3;
  cfg.spatial = SpatialDistribution::kIndependent;
  cfg.seed = 77;
  StreamGenerator gen(cfg);
  SskyOperator op(3, 0.3, opt);
  StreamProcessor proc(&op, 2000);
  for (const UncertainElement& e : gen.Take(20000)) proc.Step(e);
  std::vector<uint64_t> prev = SeqsOf(op.Skyline());
  const auto bulk = op.TakeSkylineDelta();
  EXPECT_EQ(bulk.entered, prev);
  EXPECT_TRUE(bulk.left.empty());
  for (const UncertainElement& e : gen.Take(3000)) {
    proc.Step(e);
    const std::vector<uint64_t> cur = SeqsOf(op.Skyline());
    const auto delta = op.TakeSkylineDelta();
    ASSERT_EQ(delta.entered, Minus(cur, prev)) << "at seq " << e.seq;
    ASSERT_EQ(delta.left, Minus(prev, cur)) << "at seq " << e.seq;
    prev = cur;
  }
}

// A consumer may take deltas at any cadence: every take must equal the set
// differences of the Skyline() results at it and at the take before,
// however many steps (1-256, drawn at random) lie between. Probabilities
// rounded to tenths make band 1 <-> 2 flips and exact P_sky = q ties
// recur, so one take composes many flips of the same element.
TEST(Events, DeltasComposeAtAnyTakeCadence) {
  SkyTree::Options opt;
  opt.record_events = true;
  for (SpatialDistribution spatial :
       {SpatialDistribution::kAntiCorrelated,
        SpatialDistribution::kIndependent, SpatialDistribution::kCorrelated}) {
    StreamConfig cfg;
    cfg.dims = 3;
    cfg.spatial = spatial;
    cfg.seed = 4100 + static_cast<uint64_t>(spatial);
    StreamGenerator gen(cfg);
    SskyOperator op(3, 0.3, opt);
    StreamProcessor proc(&op, 500);
    std::mt19937_64 rng(cfg.seed);
    std::uniform_int_distribution<int> cadence(1, 256);
    std::vector<uint64_t> prev;
    int until_take = cadence(rng);
    for (UncertainElement e : gen.Take(15000)) {
      e.prob = std::max(0.1, std::round(e.prob * 10.0) / 10.0);
      proc.Step(e);
      if (--until_take > 0) continue;
      until_take = cadence(rng);
      const std::vector<uint64_t> cur = SeqsOf(op.Skyline());
      const auto delta = op.TakeSkylineDelta();
      ASSERT_EQ(delta.entered, Minus(cur, prev))
          << "spatial " << static_cast<int>(spatial) << " at seq " << e.seq;
      ASSERT_EQ(delta.left, Minus(prev, cur))
          << "spatial " << static_cast<int>(spatial) << " at seq " << e.seq;
      prev = cur;
    }
  }
}

// An element that joins SKY on arrival and is evicted before the next take
// never shows in the feed.
TEST(Events, ArrivalEvictedWithinOneTakeIsNoChange) {
  SkyTree::Options opt;
  opt.record_events = true;
  SskyOperator op(2, 0.7, opt);
  op.Insert(MakeElement({0.5, 0.5}, 0.8, 1));  // P_sky = 0.8: joins SKY
  // A P = 0.5 dominator drops seq 1's P_new to 0.5 < q, which evicts it;
  // the dominator's own P_sky = 0.5 keeps it out of SKY.
  op.Insert(MakeElement({0.1, 0.1}, 0.5, 2));
  ASSERT_EQ(op.candidate_count(), 1u);
  ASSERT_EQ(op.skyline_count(), 0u);
  const auto delta = op.TakeSkylineDelta();
  EXPECT_TRUE(delta.entered.empty());
  EXPECT_TRUE(delta.left.empty());
}

// An element that leaves SKY and re-enters before the next take never
// shows in the feed; neither does the dominator that came and went.
TEST(Events, LeaveAndReenterWithinOneTakeIsNoChange) {
  SkyTree::Options opt;
  opt.record_events = true;
  SskyOperator op(2, 0.5, opt);
  op.Insert(MakeElement({0.5, 0.5}, 0.9, 1));
  EXPECT_EQ(op.TakeSkylineDelta().entered, std::vector<uint64_t>{1});
  const UncertainElement dom = MakeElement({0.1, 0.1}, 0.5, 2);
  op.Insert(dom);  // seq 1 leaves (P_sky = 0.45), seq 2 enters
  op.Expire(dom);  // seq 1 re-enters, seq 2 leaves
  ASSERT_EQ(SeqsOf(op.Skyline()), std::vector<uint64_t>{1});
  const auto delta = op.TakeSkylineDelta();
  EXPECT_TRUE(delta.entered.empty());
  EXPECT_TRUE(delta.left.empty());
}

TEST(Events, BandChangesReconstructAllBandsForMsky) {
  SkyTree::Options opt;
  opt.record_events = true;
  SkyTree tree(3, {0.7, 0.4, 0.2}, opt);
  StreamConfig cfg;
  cfg.dims = 3;
  cfg.seed = 901;
  StreamGenerator gen(cfg);
  CountWindow window(50);
  std::unordered_map<uint64_t, int> bands;
  std::vector<SkyTree::BandChange> events;
  for (UncertainElement e : gen.Take(400)) {
    e.prob = ClampProb(e.prob);
    if (auto expired = window.Push(e)) tree.Expire(*expired);
    tree.Arrive(e);
    tree.DrainBandChanges(&events);
    for (const auto& ev : events) {
      if (ev.new_band == 0) {
        bands.erase(ev.seq);
      } else {
        bands[ev.seq] = ev.new_band;
      }
    }
    // Reconstructed bands must match the tree's own classification.
    std::unordered_map<uint64_t, int> want;
    tree.ForEach([&want](const SkylineMember& m, int band) {
      want[m.element.seq] = band;
    });
    ASSERT_EQ(want, bands) << "at seq " << e.seq;
  }
}

}  // namespace
}  // namespace psky
