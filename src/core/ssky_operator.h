// SSKY: the paper's efficient continuous q-skyline operator (Section IV),
// built on the aggregate sky-tree.

#ifndef PSKY_CORE_SSKY_OPERATOR_H_
#define PSKY_CORE_SSKY_OPERATOR_H_

#include <cstdint>
#include <vector>

#include "core/operator.h"
#include "core/sky_tree.h"

namespace psky {

/// Continuous q-skyline operator over a sliding window (SSKY).
///
/// Typical use:
///
///   SskyOperator op(/*dims=*/3, /*q=*/0.3);
///   StreamProcessor proc(&op, /*window_size=*/1'000'000);
///   for (const UncertainElement& e : stream) {
///     proc.Step(e);
///     // op.skyline_count(), op.Skyline(), ... reflect the current window
///   }
class SskyOperator : public WindowSkylineOperator {
 public:
  SskyOperator(int dims, double q, SkyTree::Options options = {});

  void Insert(const UncertainElement& e) override;
  void Expire(const UncertainElement& e) override;

  size_t candidate_count() const override { return tree_.size(); }
  size_t skyline_count() const override { return tree_.skyline_size(); }
  std::vector<SkylineMember> Skyline() const override;
  std::vector<SkylineMember> Candidates() const override;
  const OperatorStats& stats() const override;
  double threshold() const override { return q_; }
  int dims() const override { return tree_.dims(); }

  /// Underlying tree, exposed for instrumentation and invariant checks.
  const SkyTree& tree() const { return tree_; }

  /// Mutable tree access for the integrity subsystem (core/audit.h): the
  /// auditor repairs drifted per-element probability state in place via
  /// SkyTree::RepairElement. Not part of the operator interface.
  SkyTree* mutable_tree() { return &tree_; }

  /// Net skyline membership changes since the last call, for push-style
  /// consumers of the continuous query. Requires
  /// SkyTree::Options::record_events (otherwise both lists stay empty).
  struct SkylineDelta {
    std::vector<uint64_t> entered;  ///< seqs that joined SKY_{N,q}
    std::vector<uint64_t> left;     ///< seqs that left SKY_{N,q}
  };
  SkylineDelta TakeSkylineDelta();

 private:
  double q_;
  SkyTree tree_;
  mutable OperatorStats stats_;
  // Drain buffer for TakeSkylineDelta; only its capacity outlives a call.
  std::vector<SkyTree::BandChange> scratch_events_;
};

}  // namespace psky

#endif  // PSKY_CORE_SSKY_OPERATOR_H_
