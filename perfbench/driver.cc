// psky_bench_driver: the benchmark's own pipeline over the library's
// public layer APIs. It drives the same workload postures as psky_stream
// (generator or CSV source, optional ingest queue + degradation ladder,
// WAL + checkpoints + resume, memory or disk window, sequential operator
// or shard engine, optional auditor, counts or deltas output) and prints
// the same stdout lines, so its output can be diffed against the CLI's.
//
// Modes:
//   psky_bench_driver gen-csv --generate D --seed S --count N
//       Writes the generator stream as CSV on stdout with %.17g values, so
//       a CSV run reads exactly the elements --generate would produce.
//   psky_bench_driver run [flags]
//       Runs the pipeline. Flags are psky_stream's, for the postures the
//       driver supports, plus --trace, --oracle and --emit-after. With
//       --trace FILE every call into a layer is timed from outside with
//       steady_clock and aggregated per report interval; the spans stay
//       in memory and are written as JSON at exit. With --oracle the
//       NaiveSkylineOperator runs alongside over the same window and
//       every report is checked against it (small N only: the oracle is
//       quadratic in the window).
//
// Exit codes: 0 ok, 1 usage, 2 malformed input, 3 I/O failure, 4 audit
// violation left unrepaired, 5 oracle disagreement.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/audit.h"
#include "core/checkpoint.h"
#include "core/naive_operator.h"
#include "core/overload.h"
#include "core/shard_engine.h"
#include "core/ssky_operator.h"
#include "store/recovery.h"
#include "store/segment_store.h"
#include "store/wal.h"
#include "stream/csv.h"
#include "stream/generator.h"
#include "stream/window.h"

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void Die(int code, const std::string& msg) {
  std::fprintf(stderr, "psky_bench_driver: %s\n", msg.c_str());
  std::exit(code);
}

// psky_stream's defaults for values the benchmark never changes.
constexpr uint64_t kWalSyncEvery = 4096;
constexpr size_t kResidentBudget = 8;

struct Config {
  std::string generate = "anti";
  uint64_t seed = 1;
  uint64_t count = 0;   // generator elements (total stream length)
  std::string input;    // CSV file; empty: generator
  int dims = 3;
  double q = 0.3;
  size_t window = 100000;
  size_t batch = 64;
  uint64_t every = 10000;
  std::string emit = "counts";
  int shards = 1;
  bool audit = false;
  size_t max_queue = 0;
  bool wal = false;
  std::string ckpt_dir;
  uint64_t ckpt_every = 0;
  bool resume = false;
  bool disk = false;
  size_t segment_elems = 4096;
  std::string trace_out;
  bool oracle = false;
  uint64_t emit_after = 0;  // print nothing for steps <= this
};

psky::SpatialDistribution ParseDist(const std::string& d) {
  if (d == "anti") return psky::SpatialDistribution::kAntiCorrelated;
  if (d == "inde") return psky::SpatialDistribution::kIndependent;
  if (d == "corr") return psky::SpatialDistribution::kCorrelated;
  Die(1, "--generate must be anti, inde or corr");
}

Config ParseArgs(int argc, char** argv, int first) {
  Config c;
  auto need = [&](int i) -> const char* {
    if (i + 1 >= argc) Die(1, std::string("missing value for ") + argv[i]);
    return argv[i + 1];
  };
  auto u64 = [&](int i) {
    char* end = nullptr;
    const char* v = need(i);
    const unsigned long long x = std::strtoull(v, &end, 10);
    if (end == v || *end != '\0') Die(1, std::string("bad value: ") + v);
    return static_cast<uint64_t>(x);
  };
  for (int i = first; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "--generate") c.generate = need(i++);
    else if (f == "--seed") c.seed = u64(i++);
    else if (f == "--count") c.count = u64(i++);
    else if (f == "--input") c.input = need(i++);
    else if (f == "--dims") c.dims = static_cast<int>(u64(i++));
    else if (f == "--q") c.q = std::strtod(need(i++), nullptr);
    else if (f == "--window") c.window = u64(i++);
    else if (f == "--batch-size") c.batch = u64(i++);
    else if (f == "--every") c.every = u64(i++);
    else if (f == "--emit") c.emit = need(i++);
    else if (f == "--shards") c.shards = static_cast<int>(u64(i++));
    else if (f == "--audit-mode") c.audit = std::string(need(i++)) == "check";
    else if (f == "--max-queue") c.max_queue = u64(i++);
    else if (f == "--overload-policy") {
      if (std::string(need(i++)) != "block") Die(1, "only block is supported");
    }
    else if (f == "--wal") c.wal = true;
    else if (f == "--checkpoint-dir") c.ckpt_dir = need(i++);
    else if (f == "--checkpoint-every") c.ckpt_every = u64(i++);
    else if (f == "--resume") c.resume = true;
    else if (f == "--window-store") c.disk = std::string(need(i++)) == "disk";
    else if (f == "--segment-elems") c.segment_elems = u64(i++);
    else if (f == "--trace") c.trace_out = need(i++);
    else if (f == "--oracle") c.oracle = true;
    else if (f == "--emit-after") c.emit_after = u64(i++);
    else Die(1, "unknown flag " + f);
  }
  if (c.emit != "counts" && c.emit != "deltas") Die(1, "bad --emit");
  if (c.every == 0 || c.batch == 0 || c.window == 0) Die(1, "zero size");
  if ((c.wal || c.resume || c.ckpt_every > 0) && c.ckpt_dir.empty()) {
    Die(1, "--wal/--resume/--checkpoint-every need --checkpoint-dir");
  }
  if (c.audit && c.disk) Die(1, "--audit supports the memory window only");
  if (c.shards > 1 && (c.emit == "deltas" || c.disk || c.audit || c.wal)) {
    Die(1, "--shards supports the plain counts posture only");
  }
  return c;
}

int GenCsv(const Config& c) {
  psky::StreamConfig cfg;
  cfg.dims = c.dims;
  cfg.seed = c.seed;
  cfg.spatial = ParseDist(c.generate);
  psky::StreamGenerator gen(cfg);
  static char buf[1 << 16];
  std::setvbuf(stdout, buf, _IOFBF, sizeof buf);
  for (uint64_t i = 0; i < c.count; ++i) {
    const psky::UncertainElement e = gen.Next();
    for (int d = 0; d < c.dims; ++d) std::printf("%.17g,", e.pos[d]);
    std::printf("%.17g\n", e.prob);
  }
  return std::fflush(stdout) == 0 ? 0 : 3;
}

// --- tracing -----------------------------------------------------------------
// Main-thread layers. Their self times plus the unattributed remainder
// make up each interval's wall time; producer-thread work (queue mode) is
// kept apart because it overlaps the main thread.
enum Layer {
  kParse, kPopWait, kLadder, kWalAppend, kWalSync, kRotate, kExpire,
  kInsert, kAudit, kDelta, kEmit, kCheckpoint, kRoute, kMerge, kNumLayers
};
constexpr std::array<const char*, kNumLayers> kLayerNames = {
    "parse", "pop_wait", "ladder", "wal_append", "wal_sync", "rotate",
    "expire", "insert", "audit", "delta", "emit", "checkpoint", "route",
    "merge"};

// Cumulative counters snapshotted at every interval close.
struct Counters {
  uint64_t nodes = 0, touched = 0, evictions = 0;
  uint64_t delta_events = 0, emit_lines = 0;
  uint64_t depth_sum = 0, depth_samples = 0;
  int rung = 0, peak_rung = 0;
  uint64_t rung_transitions = 0;
  uint64_t wal_records = 0, wal_syncs = 0, wal_bytes = 0;
  uint64_t checkpoints = 0;
  uint64_t seg_hits = 0, seg_misses = 0, seg_pressure = 0, seg_resident = 0;
  uint64_t merges = 0, merge_candidates = 0, merge_cell_skips = 0,
           merge_probes = 0;
  double imbalance = 0.0;
  uint64_t lag = 0;
  uint64_t audited = 0;
  uint64_t candidates = 0, skyline = 0;
};

struct Interval {
  uint64_t start_step = 0, end_step = 0;
  int64_t wall_ns = 0;
  std::array<int64_t, kNumLayers> layer_ns{};
  Counters at_end;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  // Span start; a disabled tracer reads no clock.
  Clock::time_point Begin() const {
    return enabled_ ? Clock::now() : Clock::time_point{};
  }
  // Closes a span begun at `t0` and returns its end, so adjacent spans
  // share one clock read.
  Clock::time_point End(Layer l, Clock::time_point t0) {
    if (!enabled_) return t0;
    const Clock::time_point t1 = Clock::now();
    cur_.layer_ns[l] += (t1 - t0).count();
    return t1;
  }
  void StartInterval(uint64_t step) {
    cur_ = Interval{};
    cur_.start_step = step;
    interval_start_ = Clock::now();
  }
  void CloseInterval(uint64_t step, const Counters& c) {
    cur_.end_step = step;
    const Clock::time_point now = Clock::now();
    cur_.wall_ns = (now - interval_start_).count();
    cur_.at_end = c;
    intervals_.push_back(cur_);
    cur_ = Interval{};
    cur_.start_step = step;
    interval_start_ = now;
  }
  const std::vector<Interval>& intervals() const { return intervals_; }

 private:
  bool enabled_;
  Interval cur_;
  Clock::time_point interval_start_;
  std::vector<Interval> intervals_;
};

void WriteCountersJson(FILE* f, const Counters& c) {
  std::fprintf(
      f,
      "{\"nodes\":%" PRIu64 ",\"touched\":%" PRIu64 ",\"evictions\":%" PRIu64
      ",\"delta_events\":%" PRIu64 ",\"emit_lines\":%" PRIu64
      ",\"depth_sum\":%" PRIu64 ",\"depth_samples\":%" PRIu64
      ",\"rung\":%d,\"peak_rung\":%d,\"rung_transitions\":%" PRIu64
      ",\"wal_records\":%" PRIu64 ",\"wal_syncs\":%" PRIu64
      ",\"wal_bytes\":%" PRIu64 ",\"checkpoints\":%" PRIu64
      ",\"seg_hits\":%" PRIu64 ",\"seg_misses\":%" PRIu64
      ",\"seg_pressure\":%" PRIu64 ",\"seg_resident\":%" PRIu64
      ",\"merges\":%" PRIu64 ",\"merge_candidates\":%" PRIu64
      ",\"merge_cell_skips\":%" PRIu64 ",\"merge_probes\":%" PRIu64
      ",\"imbalance\":%.17g,\"lag\":%" PRIu64 ",\"audited\":%" PRIu64
      ",\"candidates\":%" PRIu64 ",\"skyline\":%" PRIu64 "}",
      c.nodes, c.touched, c.evictions, c.delta_events, c.emit_lines,
      c.depth_sum, c.depth_samples, c.rung, c.peak_rung, c.rung_transitions,
      c.wal_records, c.wal_syncs, c.wal_bytes, c.checkpoints, c.seg_hits,
      c.seg_misses, c.seg_pressure, c.seg_resident, c.merges,
      c.merge_candidates, c.merge_cell_skips, c.merge_probes, c.imbalance,
      c.lag, c.audited, c.candidates, c.skyline);
}

// --- source ------------------------------------------------------------------
class Source {
 public:
  Source(const Config& c, uint64_t start_line, uint64_t start_seq)
      : c_(c) {
    if (c.input.empty()) {
      psky::StreamConfig cfg;
      cfg.dims = c.dims;
      cfg.seed = c.seed;
      cfg.spatial = ParseDist(c.generate);
      gen_ = std::make_unique<psky::StreamGenerator>(cfg);
      // Generators are deterministic: a resume regenerates the prefix.
      for (; produced_ < start_seq && produced_ < c.count; ++produced_) {
        gen_->Next();
      }
      return;
    }
    file_.open(c.input);
    if (!file_) Die(1, "cannot open " + c.input);
    psky::CsvReaderOptions o;
    o.start_line = start_line;
    o.start_seq = start_seq;
    csv_ = std::make_unique<psky::CsvElementReader>(&file_, c.dims, o);
  }

  std::optional<psky::IngestItem> Next() {
    std::optional<psky::UncertainElement> e;
    if (csv_ != nullptr) {
      e = csv_->Next();
    } else if (produced_ < c_.count) {
      ++produced_;
      e = gen_->Next();
    }
    if (!e.has_value()) return std::nullopt;
    psky::IngestItem item;
    item.element = *e;
    if (csv_ != nullptr) {
      item.lines_after = csv_->lines_read();
      item.next_seq_after = csv_->next_seq();
    } else {
      item.next_seq_after = e->seq + 1;
    }
    return item;
  }

  bool ok() const { return csv_ == nullptr || csv_->ok(); }

 private:
  const Config& c_;
  std::ifstream file_;
  std::unique_ptr<psky::CsvElementReader> csv_;
  std::unique_ptr<psky::StreamGenerator> gen_;
  uint64_t produced_ = 0;
};

// --- naive oracle ------------------------------------------------------------
// Mirrors the pipeline window and checks counts (and, under deltas, the
// skyline membership change) against NaiveSkylineOperator.
class Oracle {
 public:
  Oracle(const Config& c) : naive_(c.dims, c.q), window_(c.window) {}

  void Push(const psky::UncertainElement& e) {
    if (fifo_.size() == window_) {
      naive_.Expire(fifo_.front());
      fifo_.pop_front();
    }
    fifo_.push_back(e);
    naive_.Insert(e);
  }

  void CheckCounts(uint64_t step, size_t candidates, size_t skyline) {
    if (candidates != naive_.candidate_count() ||
        skyline != naive_.skyline_count()) {
      Die(5, "oracle disagrees at step " + std::to_string(step) +
                 ": candidates " + std::to_string(candidates) + " vs " +
                 std::to_string(naive_.candidate_count()) + ", skyline " +
                 std::to_string(skyline) + " vs " +
                 std::to_string(naive_.skyline_count()));
    }
  }

  // Skyline membership as of now; the first call only primes the state.
  void CheckDelta(uint64_t step, const psky::SskyOperator::SkylineDelta& d) {
    std::vector<uint64_t> now;
    for (const auto& m : naive_.Skyline()) now.push_back(m.element.seq);
    std::sort(now.begin(), now.end());
    if (primed_) {
      std::vector<uint64_t> entered, left;
      std::set_difference(now.begin(), now.end(), last_.begin(), last_.end(),
                          std::back_inserter(entered));
      std::set_difference(last_.begin(), last_.end(), now.begin(), now.end(),
                          std::back_inserter(left));
      if (entered != d.entered || left != d.left) {
        Die(5, "oracle delta disagrees at step " + std::to_string(step));
      }
    }
    primed_ = true;
    last_ = std::move(now);
  }

 private:
  psky::NaiveSkylineOperator naive_;
  size_t window_;
  std::deque<psky::UncertainElement> fifo_;
  std::vector<uint64_t> last_;
  bool primed_ = false;
};

uint64_t FileSize(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(n);
}

// --- the pipeline ------------------------------------------------------------
int Run(const Config& c) {
  const Clock::time_point process_start = Clock::now();
  static char outbuf[1 << 16];
  std::setvbuf(stdout, outbuf, _IOFBF, sizeof outbuf);
  Tracer tr(!c.trace_out.empty());
  const bool deltas = c.emit == "deltas";

  psky::SkyTree::Options tree_options;
  tree_options.record_events = deltas;
  psky::SskyOperator op(c.dims, c.q, tree_options);
  std::unique_ptr<Oracle> oracle;
  if (c.oracle) oracle = std::make_unique<Oracle>(c);

  std::unique_ptr<psky::ShardEngine> engine;
  std::unique_ptr<psky::CountWindow> mem_window;
  std::unique_ptr<psky::StoredCountWindow> disk_window;
  if (c.shards > 1) {
    psky::ShardEngine::Options eng;
    eng.dims = c.dims;
    eng.q = c.q;
    eng.shards = c.shards;
    eng.window_capacity = c.window;
    eng.audit.mode = psky::AuditMode::kOff;  // the CLI's default
    engine = std::make_unique<psky::ShardEngine>(eng);
  } else if (c.disk) {
    psky::SegmentStore::Options so;
    so.dir = c.ckpt_dir.empty() ? "psky-segments" : c.ckpt_dir + "/segments";
    so.dims = c.dims;
    so.elements_per_segment = c.segment_elems;
    so.resident_budget = kResidentBudget;
    disk_window = std::make_unique<psky::StoredCountWindow>(c.window, so);
    std::string error;
    if (!disk_window->Init(&error)) Die(3, error);
    psky::SweepSegmentFiles(so.dir);
  } else {
    mem_window = std::make_unique<psky::CountWindow>(c.window);
  }
  auto window_size = [&]() -> size_t {
    return disk_window != nullptr ? disk_window->size() : mem_window->size();
  };

  // Window rotate + operator expire/insert for one admitted element.
  // Spans: rotate covers the window store, expire/insert the sky-tree.
  auto apply = [&](const psky::UncertainElement& e, Clock::time_point t) {
    if (engine != nullptr) {
      if (!engine->Route(e)) Die(1, "router rejected an element");
      t = tr.End(kRoute, t);
      if (oracle != nullptr) oracle->Push(e);
      return t;
    }
    std::optional<psky::UncertainElement> old;
    if (disk_window != nullptr) {
      if (disk_window->full()) old = disk_window->PushRotate(e);
      else disk_window->Push(e);
    } else if (mem_window->full()) {
      old = mem_window->PushRotate(e);
    } else {
      mem_window->Push(e);
    }
    t = tr.End(kRotate, t);
    if (old.has_value()) {
      op.Expire(*old);
      t = tr.End(kExpire, t);
    }
    op.Insert(e);
    t = tr.End(kInsert, t);
    if (oracle != nullptr) oracle->Push(e);
    return t;
  };

  // --- recovery: newest checkpoint + WAL tail --------------------------------
  uint64_t step = 0;
  uint64_t next_seq = 0, lines = 0;
  int64_t recovery_load_ns = 0, recovery_replay_ns = 0;
  uint64_t tail_records = 0;
  psky::RecoveredState rec;
  if (c.resume) {
    const Clock::time_point t0 = Clock::now();
    std::string error;
    if (c.wal) {
      if (!psky::RecoverState(c.ckpt_dir, &rec, &error)) Die(3, error);
    } else {
      rec.has_checkpoint =
          psky::LoadLatestCheckpoint(c.ckpt_dir, &rec.checkpoint, &error);
      if (!rec.has_checkpoint) Die(3, error);
    }
    const psky::CheckpointState& ck = rec.checkpoint;
    if (rec.has_checkpoint) {
      if (ck.dims != c.dims || ck.window_capacity != c.window) {
        Die(1, "checkpoint configuration differs");
      }
      psky::ReplayWindow(ck, &op);
      for (const auto& e : ck.window) {
        if (disk_window != nullptr) disk_window->Push(e);
        else mem_window->Push(e);
        if (oracle != nullptr) oracle->Push(e);
      }
      if (deltas) op.TakeSkylineDelta();  // replay is not news
      step = ck.elements_consumed;
      next_seq = ck.next_seq;
      lines = ck.lines_consumed;
    }
    const Clock::time_point t1 = Clock::now();
    recovery_load_ns = (t1 - t0).count();
    for (const psky::WalRecord& r : rec.tail) {
      apply(r.element, tr.Begin());
      step = r.step_after;
    }
    if (deltas) op.TakeSkylineDelta();
    if (!rec.tail.empty()) {
      next_seq = rec.tail.back().next_seq_after;
      lines = rec.tail.back().lines_after;
    }
    tail_records = rec.tail.size();
    recovery_replay_ns = (Clock::now() - t1).count();
    std::fprintf(stderr, "resumed at step %" PRIu64 " (%" PRIu64
                 " WAL records replayed)\n", step, tail_records);
  }
  if (oracle != nullptr && deltas) {
    oracle->CheckDelta(step, psky::SskyOperator::SkylineDelta{});
  }

  // --- WAL + checkpoints -----------------------------------------------------
  psky::WalWriter wal;
  psky::DiskPressureGovernor governor;
  uint64_t wal_bytes_closed = 0;  // bytes in WAL files already rotated away
  if (c.wal) {
    std::string error;
    int err = 0;
    bool opened = false;
    if (c.resume && !rec.active_wal.empty()) {
      uint64_t next_step = 0;
      opened = wal.OpenForAppend(rec.active_wal, &error, &err, &next_step) &&
               next_step == step + 1;
      if (!opened) wal.Close();
    }
    if (!opened) {
      const std::string path = c.ckpt_dir + "/" + psky::WalFileName(step);
      std::error_code ec;
      std::filesystem::remove(path, ec);
      if (!wal.Create(path, static_cast<uint32_t>(c.dims), step, &error,
                      &err)) {
        Die(3, "cannot create WAL: " + error);
      }
    }
    wal.SetAsyncSync(true);
  }

  uint64_t checkpoints = 0;
  auto write_checkpoint = [&]() {
    std::string error;
    int err = 0;
    if (c.wal && !(wal.Sync(&error, &err) && wal.SyncBarrier(&error, &err))) {
      Die(3, "WAL sync failed: " + error);
    }
    psky::CheckpointState h;
    h.dims = c.dims;
    h.q = c.q;
    h.window_kind = psky::WindowKind::kCount;
    h.window_capacity = c.window;
    h.elements_consumed = step;
    h.lines_consumed = lines;
    h.next_seq = next_seq;
    const std::string path = c.ckpt_dir + "/" + psky::CheckpointFileName(step);
    bool ok;
    if (disk_window != nullptr) {
      psky::SegmentStore::Cursor cur = disk_window->NewCursor();
      ok = psky::WriteCheckpointFileStreamed(
          path, h, disk_window->size(),
          [&cur](psky::UncertainElement* e) { return cur.Next(e); }, &error,
          &err);
    } else {
      h.window = engine != nullptr ? engine->WindowSnapshot()
                                   : mem_window->Snapshot();
      ok = psky::WriteCheckpointFile(path, h, &error, &err);
    }
    if (!ok) Die(3, "checkpoint failed: " + error);
    psky::PruneCheckpoints(c.ckpt_dir, 2);
    ++checkpoints;
    if (c.wal && wal.path() != c.ckpt_dir + "/" + psky::WalFileName(step)) {
      wal_bytes_closed += FileSize(wal.path());
      if (!wal.RotateTo(c.ckpt_dir, step, &error, &err)) {
        Die(3, "WAL rotation failed: " + error);
      }
      uint64_t oldest = step;
      for (const std::string& p : psky::ListCheckpointFiles(c.ckpt_dir)) {
        uint64_t s = 0;
        if (psky::ParseCheckpointStep(p, &s)) oldest = std::min(oldest, s);
      }
      psky::PruneWalFiles(c.ckpt_dir, oldest);
    }
  };

  auto wal_log = [&](const psky::IngestItem& item, Clock::time_point t) {
    psky::WalRecord r;
    r.element = item.element;
    r.step_after = step + 1;
    r.next_seq_after = item.next_seq_after;
    r.lines_after = item.lines_after;
    std::string error;
    int err = 0;
    if (!wal.Append(r, &error, &err)) Die(3, "WAL append failed: " + error);
    t = tr.End(kWalAppend, t);
    if (wal.pending() >= kWalSyncEvery * governor.multiplier()) {
      const Clock::time_point s0 = Clock::now();
      if (!wal.Sync(&error, &err)) Die(3, "WAL sync failed: " + error);
      uint64_t ms = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                                s0)
              .count());
      ms = std::max(ms, wal.TakeAsyncSyncLatencyMs());
      governor.ObserveSync(false, ms);
      t = tr.End(kWalSync, t);
    }
    return t;
  };

  // --- auditor, queue, ladder ------------------------------------------------
  std::unique_ptr<psky::AuditManager> audit;
  if (c.audit) {
    psky::AuditOptions ao;
    ao.mode = psky::AuditMode::kCheck;
    ao.audit_every = 64;
    audit = std::make_unique<psky::AuditManager>(
        &op, ao, [&]() { return mem_window->Snapshot(); });
  }
  std::unique_ptr<psky::BoundedIngestQueue> queue;
  if (c.max_queue > 0) {
    queue = std::make_unique<psky::BoundedIngestQueue>(
        c.max_queue, psky::OverloadPolicy::kBlock);
  }
  psky::DegradationLadder ladder;
  psky::DegradationLadder::Effects effects;
  size_t applied_divisor = 1;

  Counters counters;
  uint64_t merged_candidates = 0, merged_skyline = 0;
  auto snapshot_counters = [&]() {
    if (engine == nullptr) {
      const psky::OperatorStats& s = op.stats();
      counters.nodes = s.nodes_visited;
      counters.touched = s.elements_touched;
      counters.evictions = s.evictions;
      counters.candidates = op.candidate_count();
      counters.skyline = op.skyline_count();
    } else {
      const psky::ShardEngine::Stats es = engine->GetStats();
      counters.merges = es.merges;
      counters.merge_candidates = es.merge_candidates;
      counters.merge_cell_skips = es.merge_cell_skips;
      counters.merge_probes = es.merge_probes;
      counters.imbalance = es.imbalance;
      counters.candidates = merged_candidates;
      counters.skyline = merged_skyline;
    }
    const psky::DegradationLadder::Stats& ls = ladder.stats();
    counters.rung = ls.rung;
    counters.peak_rung = ls.peak_rung;
    counters.rung_transitions = ls.escalations + ls.recoveries;
    if (c.wal) {
      counters.wal_records = wal.stats().records_appended;
      counters.wal_syncs = wal.stats().syncs;
      counters.wal_bytes = wal_bytes_closed + FileSize(wal.path());
    }
    counters.checkpoints = checkpoints;
    if (disk_window != nullptr) {
      const psky::SegmentStore::Stats& ss = disk_window->store_stats();
      counters.seg_hits = ss.readahead_hits;
      counters.seg_misses = ss.readahead_misses;
      counters.seg_pressure = ss.recycle_pressure;
      counters.seg_resident = ss.segments_resident;
    }
    if (audit != nullptr) counters.audited = audit->report().elements_audited;
  };

  // Fresh runs reach steady state when the window fills; resumed runs
  // are steady from the first post-recovery step.
  int64_t setup_ns = -1;
  uint64_t steady_step = 0;
  Counters steady_base;
  auto mark_steady = [&]() {
    setup_ns = (Clock::now() - process_start).count();
    steady_step = step;
    snapshot_counters();
    steady_base = counters;
  };

  // Processes one admitted element: returns after all per-step work.
  auto process = [&](const psky::IngestItem& item) {
    Clock::time_point t = tr.Begin();
    if (c.wal) t = wal_log(item, t);
    t = apply(item.element, t);
    ++step;
    next_seq = item.next_seq_after;
    lines = item.lines_after;
    if (audit != nullptr) {
      if (!audit->Step()) Die(4, "auditor found an unrepaired violation");
      t = tr.End(kAudit, t);
    }
    if (deltas) {
      const psky::SskyOperator::SkylineDelta d = op.TakeSkylineDelta();
      t = tr.End(kDelta, t);
      const uint64_t n =
          step > c.emit_after ? d.left.size() + d.entered.size() : 0;
      if (n > 0) {
        for (uint64_t s : d.left) std::printf("-%" PRIu64 "\n", s);
        for (uint64_t s : d.entered) std::printf("+%" PRIu64 "\n", s);
      }
      counters.delta_events += n;
      counters.emit_lines += n;
      if (n > 0) t = tr.End(kEmit, t);
      if (oracle != nullptr) oracle->CheckDelta(step, d);
    }
    const bool report = step % c.every == 0;
    if (report && !deltas && step > c.emit_after) {
      size_t cands, sky;
      if (engine != nullptr) {
        uint64_t lag = 0;
        for (const auto& s : engine->GetStats().shards) {
          lag = std::max<uint64_t>(lag, s.routed - s.applied);
        }
        counters.lag = std::max(counters.lag, lag);
        t = tr.Begin();  // GetStats above is sampling, not a layer
        cands = 0;
        sky = engine->GlobalSkyline(&cands).size();
        merged_candidates = cands;
        merged_skyline = sky;
        t = tr.End(kMerge, t);
      } else {
        cands = op.candidate_count();
        sky = op.skyline_count();
      }
      std::printf("step=%" PRIu64 " candidates=%zu skyline=%zu\n", step,
                  cands, sky);
      ++counters.emit_lines;
      t = tr.End(kEmit, t);
      if (oracle != nullptr) oracle->CheckCounts(step, cands, sky);
    }
    const uint64_t ckpt_every = c.ckpt_every * effects.checkpoint_stretch;
    if (c.ckpt_every > 0 && step % ckpt_every == 0) {
      write_checkpoint();
      t = tr.End(kCheckpoint, t);
    }
    if (report && tr.enabled()) {
      snapshot_counters();
      tr.CloseInterval(step, counters);
    }
    if (setup_ns < 0 && (engine != nullptr ? engine->window_size()
                                           : window_size()) == c.window) {
      mark_steady();
      if (tr.enabled()) tr.StartInterval(step);
    }
  };

  if (c.resume) mark_steady();
  if (tr.enabled()) tr.StartInterval(step);
  std::atomic<int64_t> producer_parse_ns{0}, producer_push_ns{0};
  std::atomic<uint64_t> produced{0};
  Source source(c, lines, next_seq);
  if (queue == nullptr) {
    std::vector<psky::IngestItem> batch;
    batch.reserve(c.batch);
    bool done = false;
    while (!done) {
      batch.clear();
      Clock::time_point t = tr.Begin();
      while (batch.size() < c.batch) {
        auto item = source.Next();
        if (!item.has_value()) {
          done = true;
          break;
        }
        batch.push_back(*item);
      }
      tr.End(kParse, t);
      for (const auto& item : batch) process(item);
    }
  } else {
    // Producer thread: source -> queue (block policy: lossless).
    std::thread producer([&]() {
      int64_t parse_ns = 0, push_ns = 0;
      uint64_t n = 0;
      for (;;) {
        Clock::time_point t0 = tr.Begin();
        auto item = source.Next();
        Clock::time_point t1 = tr.Begin();
        if (!item.has_value()) break;
        if (!queue->Push(std::move(*item))) break;
        Clock::time_point t2 = tr.Begin();
        parse_ns += (t1 - t0).count();
        push_ns += (t2 - t1).count();
        ++n;
      }
      queue->CloseProducer();
      producer_parse_ns.store(parse_ns, std::memory_order_relaxed);
      producer_push_ns.store(push_ns, std::memory_order_relaxed);
      produced.store(n, std::memory_order_release);
    });
    std::vector<psky::IngestItem> items;
    for (;;) {
      Clock::time_point t = tr.Begin();
      const size_t pop_max = c.batch * effects.batch_multiplier;
      const size_t n = queue->PopBatch(&items, pop_max, 50);
      tr.End(kPopWait, t);
      if (n == 0) {
        if (queue->drained()) break;
        continue;
      }
      counters.depth_sum += queue->depth();
      ++counters.depth_samples;
      for (const auto& item : items) process(item);
      t = tr.Begin();
      ladder.Observe(queue->pressure());
      effects = ladder.effects();
      if (audit != nullptr) {
        audit->SetDegradation(effects.suspend_oracle, effects.audit_stretch);
      }
      if (disk_window != nullptr &&
          effects.segment_budget_divisor != applied_divisor) {
        applied_divisor = effects.segment_budget_divisor;
        disk_window->SetResidentBudget(
            std::max<size_t>(1, kResidentBudget / applied_divisor));
      }
      tr.End(kLadder, t);
    }
    producer.join();
  }
  if (!source.ok()) Die(2, "malformed input");
  const Clock::time_point loop_end = Clock::now();
  if (!c.ckpt_dir.empty()) write_checkpoint();
  if (c.wal) wal.Close();
  if (std::fflush(stdout) != 0) Die(3, "stdout write failed");

  if (oracle != nullptr && engine == nullptr && !deltas) {
    oracle->CheckCounts(step, op.candidate_count(), op.skyline_count());
  }
  std::fprintf(stderr, "processed %" PRIu64 " elements\n", step);
  if (!tr.enabled()) return 0;

  // Shard trees run on worker threads; their counters are read once, after
  // the final barrier, and reported as run totals.
  uint64_t shard_nodes = 0, shard_touched = 0, shard_evictions = 0;
  if (engine != nullptr) {
    engine->Barrier();
    for (int s = 0; s < engine->shards(); ++s) {
      const psky::OperatorStats& st = engine->shard_operator(s).stats();
      shard_nodes += st.nodes_visited;
      shard_touched += st.elements_touched;
      shard_evictions += st.evictions;
    }
  }

  FILE* f = std::fopen(c.trace_out.c_str(), "w");
  if (f == nullptr) Die(3, "cannot write " + c.trace_out);
  std::fprintf(f, "{\"layers\":[");
  for (int l = 0; l < kNumLayers; ++l) {
    std::fprintf(f, "%s\"%s\"", l ? "," : "", kLayerNames[l]);
  }
  std::fprintf(
      f,
      "],\"setup_ns\":%" PRId64 ",\"steady_step\":%" PRIu64
      ",\"steps\":%" PRIu64 ",\"loop_end_ns\":%" PRId64
      ",\"recovery_load_ns\":%" PRId64 ",\"recovery_replay_ns\":%" PRId64
      ",\"tail_records\":%" PRIu64 ",\"producer\":{\"parse_ns\":%" PRId64
      ",\"push_ns\":%" PRId64 ",\"produced\":%" PRIu64
      "},\"shard_totals\":{\"nodes\":%" PRIu64 ",\"touched\":%" PRIu64
      ",\"evictions\":%" PRIu64 "},\"base\":",
      setup_ns, steady_step, step, (loop_end - process_start).count(),
      recovery_load_ns, recovery_replay_ns, tail_records,
      producer_parse_ns.load(std::memory_order_relaxed),
      producer_push_ns.load(std::memory_order_relaxed),
      produced.load(std::memory_order_acquire), shard_nodes, shard_touched,
      shard_evictions);
  WriteCountersJson(f, steady_base);
  std::fprintf(f, ",\"intervals\":[");
  bool first = true;
  for (const Interval& iv : tr.intervals()) {
    std::fprintf(f,
                 "%s\n{\"start\":%" PRIu64 ",\"end\":%" PRIu64
                 ",\"wall_ns\":%" PRId64 ",\"ns\":[",
                 first ? "" : ",", iv.start_step, iv.end_step, iv.wall_ns);
    first = false;
    for (int l = 0; l < kNumLayers; ++l) {
      std::fprintf(f, "%s%" PRId64, l ? "," : "", iv.layer_ns[l]);
    }
    std::fprintf(f, "],\"c\":");
    WriteCountersJson(f, iv.at_end);
    std::fprintf(f, "}");
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) Die(3, "cannot write " + c.trace_out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Die(1, "usage: psky_bench_driver gen-csv|run [flags]");
  }
  const std::string mode = argv[1];
  const Config c = ParseArgs(argc, argv, 2);
  if (mode == "gen-csv") return GenCsv(c);
  if (mode == "run") return Run(c);
  Die(1, "unknown mode " + mode);
}
