#include "core/ssky_operator.h"

#include <algorithm>

namespace psky {

SskyOperator::SskyOperator(int dims, double q, SkyTree::Options options)
    : q_(q), tree_(dims, {q}, options) {}

void SskyOperator::Insert(const UncertainElement& e) {
  ++stats_.arrivals;
  UncertainElement clamped = e;
  clamped.prob = ClampProb(clamped.prob);
  tree_.Arrive(clamped);
}

void SskyOperator::Expire(const UncertainElement& e) {
  ++stats_.expirations;
  tree_.Expire(e);
}

std::vector<SkylineMember> SskyOperator::Skyline() const {
  std::vector<SkylineMember> out;
  out.reserve(tree_.skyline_size());
  tree_.ForEach([&out](const SkylineMember& m, int band) {
    if (band == 1) out.push_back(m);
  });
  std::sort(out.begin(), out.end(),
            [](const SkylineMember& a, const SkylineMember& b) {
              return a.element.seq < b.element.seq;
            });
  return out;
}

std::vector<SkylineMember> SskyOperator::Candidates() const {
  std::vector<SkylineMember> out;
  out.reserve(tree_.size());
  tree_.ForEach(
      [&out](const SkylineMember& m, int /*band*/) { out.push_back(m); });
  std::sort(out.begin(), out.end(),
            [](const SkylineMember& a, const SkylineMember& b) {
              return a.element.seq < b.element.seq;
            });
  return out;
}

SskyOperator::SkylineDelta SskyOperator::TakeSkylineDelta() {
  tree_.DrainBandChanges(&scratch_events_);
  // One seq's events form a chain (each old band is the band the previous
  // event set), so summing [new == 1] - [old == 1] over them telescopes to
  // [last new == 1] - [first old == 1] in any order. Sorting by seq groups
  // each chain and leaves both lists sorted.
  std::sort(scratch_events_.begin(), scratch_events_.end(),
            [](const SkyTree::BandChange& a, const SkyTree::BandChange& b) {
              return a.seq < b.seq;
            });
  SkylineDelta delta;
  for (size_t i = 0; i < scratch_events_.size();) {
    const uint64_t seq = scratch_events_[i].seq;
    int net = 0;
    for (; i < scratch_events_.size() && scratch_events_[i].seq == seq; ++i) {
      net += (scratch_events_[i].new_band == 1) -
             (scratch_events_[i].old_band == 1);
    }
    if (net > 0) delta.entered.push_back(seq);
    if (net < 0) delta.left.push_back(seq);
  }
  return delta;
}

const OperatorStats& SskyOperator::stats() const {
  const SkyTree::Counters& c = tree_.counters();
  stats_.evictions = c.evictions;
  stats_.nodes_visited = c.nodes_visited;
  stats_.elements_touched = c.elements_touched;
  return stats_;
}

}  // namespace psky
