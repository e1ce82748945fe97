#include "core/shard_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "base/check.h"
#include "geom/dominance.h"

namespace psky {

bool ParseShardStrategy(const std::string& text, ShardStrategy* out) {
  if (text == "grid") {
    *out = ShardStrategy::kGrid;
    return true;
  }
  if (text == "band") {
    *out = ShardStrategy::kBand;
    return true;
  }
  return false;
}

namespace {

constexpr size_t kWorkerBatch = 256;
/// Dominating-region scans larger than this fall back to the O(dims)
/// min-corner histogram test (still conservative, never a false skip).
constexpr uint64_t kMaxRegionScan = 1024;

}  // namespace

ShardEngine::Shard::Shard(const Options& opts, uint64_t cells)
    : queue(opts.queue_capacity),
      op(opts.dims, opts.q, opts.tree_options),
      occupancy(cells, 0),
      dim_histogram(
          static_cast<size_t>(opts.dims) *
              (opts.grid_resolution != 0
                   ? opts.grid_resolution
                   : CellGrid::ChooseResolution(opts.dims)),
          0) {}

ShardEngine::ShardEngine(const Options& options)
    : options_(options),
      grid_(options.dims, options.grid_resolution != 0
                              ? options.grid_resolution
                              : CellGrid::ChooseResolution(options.dims)),
      watermark_(-std::numeric_limits<double>::infinity()) {
  PSKY_CHECK(options_.shards >= 1 && options_.shards <= 255);
  PSKY_CHECK(options_.window_capacity > 0 || options_.time_span > 0.0);
  PSKY_CHECK(options_.audit.pool == nullptr);
  options_.grid_resolution = grid_.resolution();
  shards_.reserve(static_cast<size_t>(options_.shards));
  for (int i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(options_, grid_.num_cells()));
    Shard* shard = shards_.back().get();
    if (options_.audit.mode != AuditMode::kOff) {
      shard->audit = std::make_unique<AuditManager>(
          &shard->op, options_.audit,
          AuditManager::IndexedView(&shard->fifo));
    }
    shard->worker = std::thread([this, shard] { WorkerLoop(shard); });
  }
}

ShardEngine::~ShardEngine() { Shutdown(); }

void ShardEngine::Shutdown() {
  if (shutdown_) return;
  shutdown_ = true;
  for (auto& shard : shards_) shard->queue.Close();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

int ShardEngine::ShardOf(const UncertainElement& e) const {
  const int n = shards();
  if (n == 1) return 0;
  if (options_.strategy == ShardStrategy::kBand) {
    const double p = ClampProb(e.prob);
    int band = static_cast<int>(p * n);
    if (band >= n) band = n - 1;
    return band;
  }
  return static_cast<int>(CellGrid::HashCell(grid_.IndexOf(e.pos)) %
                          static_cast<uint64_t>(n));
}

void ShardEngine::SendExpireOldest(uint8_t shard) {
  Command cmd;
  cmd.kind = Command::kExpireOldest;
  Shard& s = *shards_[shard];
  s.queue.Push(std::move(cmd));
  ++s.routed;
}

void ShardEngine::SendInsert(const UncertainElement& e, uint8_t shard) {
  Command cmd;
  cmd.kind = Command::kInsert;
  cmd.element = e;
  Shard& s = *shards_[shard];
  s.queue.Push(std::move(cmd));
  ++s.routed;
  ++s.inserted;
}

bool ShardEngine::Route(const UncertainElement& e,
                        UncertainElement* out_admitted) {
  PSKY_CHECK(!shutdown_);
  if (options_.window_capacity > 0) {
    // CountWindow::Push semantics: overflow expires exactly the oldest.
    if (ring_.size() == options_.window_capacity) {
      SendExpireOldest(ring_.front().shard);
      ring_.pop_front();
    }
    const uint8_t owner = static_cast<uint8_t>(ShardOf(e));
    ring_.push_back(RingEntry{e.time, owner});
    SendInsert(e, owner);
    if (out_admitted != nullptr) *out_admitted = e;
    return true;
  }
  // TimeWindow::TryPush semantics, replicated exactly (stream/window.cc).
  UncertainElement admitted = e;
  if (admitted.time < watermark_) {
    if (options_.ooo_policy == TimestampPolicy::kReject) {
      ++rejected_;
      return false;
    }
    admitted.time = watermark_;
    ++clamped_;
  }
  watermark_ = admitted.time;
  const double cutoff = admitted.time - options_.time_span;
  while (!ring_.empty() && ring_.front().time <= cutoff) {
    SendExpireOldest(ring_.front().shard);
    ring_.pop_front();
  }
  const uint8_t owner = static_cast<uint8_t>(ShardOf(admitted));
  ring_.push_back(RingEntry{admitted.time, owner});
  SendInsert(admitted, owner);
  if (out_admitted != nullptr) *out_admitted = admitted;
  return true;
}

void ShardEngine::Restore(const UncertainElement& e) {
  PSKY_CHECK(options_.window_capacity == 0 ||
             ring_.size() < options_.window_capacity);
  const uint8_t owner = static_cast<uint8_t>(ShardOf(e));
  ring_.push_back(RingEntry{e.time, owner});
  SendInsert(e, owner);
  if (e.time > watermark_) watermark_ = e.time;
}

void ShardEngine::Barrier() {
  ++barriers_;
  for (auto& shard : shards_) {
    // Workers park in PopBatch when drained, so poll with a short sleep
    // instead of spinning — barriers sit off the per-element hot path
    // (checkpoints, emits, shutdown).
    int spins = 0;
    while (shard->applied.load(std::memory_order_acquire) != shard->routed) {
      if (++spins < 64) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  }
}

void ShardEngine::WorkerLoop(Shard* shard) {
  std::vector<Command> batch;
  batch.reserve(kWorkerBatch);
  while (true) {
    batch.clear();
    const size_t n = shard->queue.PopBatch(&batch, kWorkerBatch);
    if (n == 0) break;  // closed and drained
    for (const Command& cmd : batch) ApplyCommand(shard, cmd);
    shard->window_elements.store(shard->fifo.size(),
                                 std::memory_order_relaxed);
    shard->candidates.store(shard->op.candidate_count(),
                            std::memory_order_relaxed);
    shard->applied.fetch_add(n, std::memory_order_release);
  }
  if (shard->audit != nullptr) shard->audit->Drain();
}

void ShardEngine::ApplyCommand(Shard* shard, const Command& cmd) {
  if (cmd.kind == Command::kExpireOldest) {
    PSKY_CHECK(!shard->fifo.empty());
    const UncertainElement oldest = shard->fifo.front();
    shard->fifo.pop_front();
    const CellGrid::Cell cell = grid_.CellOf(oldest.pos);
    const uint64_t idx = grid_.IndexOf(cell);
    PSKY_CHECK(shard->occupancy[idx] > 0);
    --shard->occupancy[idx];
    for (int d = 0; d < options_.dims; ++d) {
      uint32_t& h = shard->dim_histogram[static_cast<size_t>(d) *
                                             grid_.resolution() +
                                         cell.coord[d]];
      PSKY_CHECK(h > 0);
      --h;
    }
    shard->op.Expire(oldest);
    return;
  }
  const CellGrid::Cell cell = grid_.CellOf(cmd.element.pos);
  ++shard->occupancy[grid_.IndexOf(cell)];
  for (int d = 0; d < options_.dims; ++d) {
    ++shard->dim_histogram[static_cast<size_t>(d) * grid_.resolution() +
                           cell.coord[d]];
  }
  shard->fifo.push_back(cmd.element);
  shard->op.Insert(cmd.element);
  if (shard->audit != nullptr && !shard->audit->Step()) {
    shard->audit_violations.fetch_add(1, std::memory_order_relaxed);
  }
}

bool ShardEngine::ShardMayRefute(const Shard& shard,
                                 const CellGrid::Cell& cell) const {
  // Min-corner test first: if some dimension's smallest occupied cell
  // coordinate already exceeds the candidate's, nothing in this shard
  // can dominate it.
  const uint32_t res = grid_.resolution();
  for (int d = 0; d < options_.dims; ++d) {
    const uint32_t* hist =
        shard.dim_histogram.data() + static_cast<size_t>(d) * res;
    uint32_t min_coord = res;
    for (uint32_t c = 0; c <= cell.coord[d]; ++c) {
      if (hist[c] != 0) {
        min_coord = c;
        break;
      }
    }
    if (min_coord > cell.coord[d]) return false;
  }
  // Exact region scan when the dominating region is small enough:
  // enumerate every cell c' <= cell componentwise and look for
  // occupancy.
  uint64_t region = 1;
  for (int d = 0; d < options_.dims; ++d) {
    region *= static_cast<uint64_t>(cell.coord[d]) + 1;
  }
  if (region > kMaxRegionScan) return true;  // conservative
  CellGrid::Cell probe;
  const int dims = options_.dims;
  while (true) {
    if (shard.occupancy[grid_.IndexOf(probe)] != 0) return true;
    int d = dims - 1;
    while (d >= 0 && probe.coord[d] == cell.coord[d]) {
      probe.coord[d] = 0;
      --d;
    }
    if (d < 0) return false;
    ++probe.coord[d];
  }
}

std::vector<SkylineMember> ShardEngine::GlobalSkyline(
    size_t* candidate_count) {
  Barrier();
  ++merges_;
  const int n = shards();
  const double q_log = std::log(options_.q);

  // U = union of shard-local candidate sets, each sorted by seq.
  struct MergeCandidate {
    SkylineMember local;
    double newer_log = 0.0;
    double older_log = 0.0;
    bool in_sstar = false;
  };
  std::vector<MergeCandidate> u;
  for (int i = 0; i < n; ++i) {
    for (const SkylineMember& m :
         shards_[static_cast<size_t>(i)]->op.Candidates()) {
      MergeCandidate mc;
      mc.local = m;
      u.push_back(mc);
    }
  }
  merge_candidates_ += u.size();

  // Phase 1: exact dominator sums over U, accumulated in shard-index
  // order so the summation is deterministic.
  for (MergeCandidate& mc : u) {
    const CellGrid::Cell cell = grid_.CellOf(mc.local.element.pos);
    for (int j = 0; j < n; ++j) {
      const Shard& shard = *shards_[static_cast<size_t>(j)];
      if (!ShardMayRefute(shard, cell)) {
        ++merge_cell_skips_;
        continue;
      }
      ++merge_probes_;
      const SkyTree::DominatorSums sums = shard.op.tree().ExactDominators(
          mc.local.element.pos, mc.local.element.seq);
      mc.newer_log += sums.newer_log;
      mc.older_log += sums.older_log;
    }
    // S* membership: full-window P_new >= q (see file comment for why
    // the U-sum equals the full-window sum exactly for true members).
    mc.in_sstar = mc.newer_log >= q_log;
  }

  // Phase 2: restrict the sums to S* by removing the factors of
  // U \ S* dominators, then decide membership on restricted P_sky.
  std::vector<const MergeCandidate*> rejected;
  for (const MergeCandidate& mc : u) {
    if (!mc.in_sstar) rejected.push_back(&mc);
  }
  if (candidate_count != nullptr) *candidate_count = u.size() - rejected.size();
  std::vector<SkylineMember> out;
  for (MergeCandidate& mc : u) {
    if (!mc.in_sstar) continue;
    for (const MergeCandidate* r : rejected) {
      if (!Dominates(r->local.element.pos, mc.local.element.pos)) continue;
      const double factor = LogOneMinusProb(r->local.element.prob);
      if (r->local.element.seq > mc.local.element.seq) {
        mc.newer_log -= factor;
      } else {
        mc.older_log -= factor;
      }
    }
    const double prob_log = std::log(mc.local.element.prob);
    const double psky_log = prob_log + mc.newer_log + mc.older_log;
    if (psky_log >= q_log) {
      SkylineMember m;
      m.element = mc.local.element;
      m.pnew = std::exp(mc.newer_log);
      m.pold = std::exp(mc.older_log);
      m.psky = std::exp(psky_log);
      m.in_skyline = true;
      out.push_back(m);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SkylineMember& a, const SkylineMember& b) {
              return a.element.seq < b.element.seq;
            });
  return out;
}

ShardEngine::WindowCursor::WindowCursor(const ShardEngine* engine)
    : engine_(engine), pos_(engine->shards_.size(), 0) {}

bool ShardEngine::WindowCursor::Next(UncertainElement* e) {
  // K-way merge of the shard FIFOs by arrival sequence. Each FIFO is
  // already seq-sorted (commands arrive in global order), so a linear
  // merge reconstructs the exact sequential window.
  const UncertainElement* best = nullptr;
  size_t best_shard = 0;
  for (size_t i = 0; i < pos_.size(); ++i) {
    const auto& fifo = engine_->shards_[i]->fifo;
    if (pos_[i] < fifo.size() &&
        (best == nullptr || fifo[pos_[i]].seq < best->seq)) {
      best = &fifo[pos_[i]];
      best_shard = i;
    }
  }
  if (best == nullptr) return false;
  *e = *best;
  ++pos_[best_shard];
  return true;
}

ShardEngine::WindowCursor ShardEngine::NewWindowCursor() {
  Barrier();
  return WindowCursor(this);
}

std::vector<UncertainElement> ShardEngine::WindowSnapshot() {
  WindowCursor cursor = NewWindowCursor();
  std::vector<UncertainElement> out;
  out.reserve(ring_.size());
  UncertainElement e;
  while (cursor.Next(&e)) out.push_back(e);
  PSKY_CHECK(out.size() == ring_.size());
  return out;
}

ShardEngine::Stats ShardEngine::GetStats() const {
  Stats stats;
  stats.shards.reserve(shards_.size());
  uint64_t total_window = 0;
  uint64_t max_window = 0;
  for (const auto& shard : shards_) {
    ShardStats s;
    s.routed = shard->routed;
    s.applied = shard->applied.load(std::memory_order_relaxed);
    s.inserted = shard->inserted;
    s.queue_depth = shard->queue.SizeApprox();
    s.window_elements =
        shard->window_elements.load(std::memory_order_relaxed);
    s.candidates = shard->candidates.load(std::memory_order_relaxed);
    s.audit_violations =
        shard->audit_violations.load(std::memory_order_relaxed);
    total_window += s.window_elements;
    max_window = std::max<uint64_t>(max_window, s.window_elements);
    stats.shards.push_back(s);
  }
  if (total_window > 0) {
    const double mean = static_cast<double>(total_window) /
                        static_cast<double>(shards_.size());
    stats.imbalance = static_cast<double>(max_window) / mean;
  }
  stats.merges = merges_;
  stats.merge_candidates = merge_candidates_;
  stats.merge_probes = merge_probes_;
  stats.merge_cell_skips = merge_cell_skips_;
  stats.barriers = barriers_;
  return stats;
}

AuditReport ShardEngine::AuditReportMerged() {
  AuditReport merged;
  for (const auto& shard : shards_) {
    if (shard->audit == nullptr) continue;
    shard->audit->Drain();
    const AuditReport& r = shard->audit->report();
    merged.steps_seen += r.steps_seen;
    merged.elements_audited += r.elements_audited;
    merged.max_drift = std::max(merged.max_drift, r.max_drift);
    merged.drift_beyond_tolerance += r.drift_beyond_tolerance;
    merged.repairs_applied += r.repairs_applied;
    merged.band_flips_prevented += r.band_flips_prevented;
    merged.false_evictions += r.false_evictions;
    merged.oracle_replays += r.oracle_replays;
    merged.oracle_mismatches += r.oracle_mismatches;
    merged.violations_unrepaired += r.violations_unrepaired;
  }
  return merged;
}

}  // namespace psky
