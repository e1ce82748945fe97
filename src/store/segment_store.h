// Out-of-core window buffer: a FIFO of stream elements held in
// memory-mapped, fixed-size segment files.
//
// The paper's Theorem 8 bounds the live candidate set S_{N,q} at
// O(polylog^d N), so for giant windows only the sky-tree needs RAM — the
// raw window contents (needed solely to know *which* element expires
// next) can live on disk. This store keeps them there: elements append
// to the newest segment and pop from the oldest, and a fully drained
// segment file is recycled as the next tail segment instead of being
// deleted and recreated (the gtsat in_disk split: hot index in memory,
// bulk data on disk).
//
// Residency is bounded, not proportional to the window: only the head
// (expiry frontier), its readahead successor, and the write tail stay
// mapped in steady state. A fully written segment is unmapped as soon as
// the tail moves past it and remapped on demand — under MAP_SHARED the
// pages live in the page cache and file, so unmapping is non-destructive
// and merely drops them from this process's RSS. Random access (audit
// sampling, cursors) maps the containing segment lazily and an LRU
// sweep keeps the total mapped count under Options::resident_budget, so
// peak RSS is O(S_{N,q} + budget * segment bytes) — independent of N.
// Mappings are advised MADV_SEQUENTIAL (FIFO traffic) and the readahead
// cursor advises MADV_WILLNEED on the next expiry-frontier segment
// before PopFront reaches it.
//
// Segments are per-run scratch, not durable state: files are recreated
// on startup (the startup sweep deletes leftovers) and carry no CRC —
// durability comes from checkpoints plus the WAL (store/wal.h). Slot
// layout is the checkpoint v2 element encoding (seq u64, prob f64,
// time f64, pos[dims] f64), written via memcpy of host-endian bit
// patterns so reads round-trip bit-exactly.
//
// I/O failures report through bool + *error (no exceptions, no output);
// the segment-map fault-injection site covers every mapping path
// (tail creation and on-demand remap) and segment-recycle covers the
// head-recycle path.

#ifndef PSKY_STORE_SEGMENT_STORE_H_
#define PSKY_STORE_SEGMENT_STORE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "stream/element.h"

namespace psky {

/// FIFO of UncertainElements over memory-mapped segment files.
class SegmentStore {
 public:
  struct Options {
    std::string dir;                     ///< segment file directory
    int dims = 2;                        ///< element dimensionality
    size_t elements_per_segment = 4096;  ///< slots per segment file
    /// Maximum segments kept mapped at once; 0 means unlimited. Values
    /// below kMinResidentBudget are rounded up: the head, its readahead
    /// successor, and the write tail are never evicted.
    size_t resident_budget = 8;
  };

  /// Head + readahead + tail must always be mappable.
  static constexpr size_t kMinResidentBudget = 3;

  struct Stats {
    uint64_t segments_created = 0;   ///< new segment files mapped
    uint64_t segments_recycled = 0;  ///< drained files reused as tails
    uint64_t segments_live = 0;      ///< segments holding window data
    uint64_t segments_resident = 0;  ///< currently memory-mapped segments
    uint64_t readahead_hits = 0;     ///< head advanced onto a mapped segment
    uint64_t readahead_misses = 0;   ///< head advanced onto a cold segment
    uint64_t recycle_pressure = 0;   ///< budget-forced evictions of mapped segments
  };

  /// Streams the live window oldest→newest, mapping one segment at a
  /// time through the store's shared segment cache. The cursor survives
  /// concurrent PopFront/PushBack on its store: elements popped under it
  /// are skipped, elements pushed after creation are not yielded.
  class Cursor {
   public:
    /// Copies the next element into `*out`; returns false when the
    /// cursor is exhausted.
    bool Next(UncertainElement* out);

    /// Elements this cursor can still yield (shrinks if the store pops
    /// past unvisited elements).
    uint64_t remaining() const;

   private:
    friend class SegmentStore;
    Cursor(const SegmentStore* store, uint64_t abs_next, uint64_t abs_end)
        : store_(store), abs_next_(abs_next), abs_end_(abs_end) {}

    const SegmentStore* store_;
    uint64_t abs_next_;  ///< absolute stream index of the next element
    uint64_t abs_end_;   ///< absolute stream index one past the last
  };

  explicit SegmentStore(const Options& opts);
  ~SegmentStore();
  SegmentStore(const SegmentStore&) = delete;
  SegmentStore& operator=(const SegmentStore&) = delete;

  /// Creates the directory and validates options. Call once before use.
  bool Init(std::string* error);

  /// Appends `e` as the newest element, mapping a new tail segment when
  /// the current one is full (fault site: segment-map). The previous
  /// tail segment — now fully written — is unmapped unless it is the
  /// head or the readahead frontier.
  bool PushBack(const UncertainElement& e, std::string* error);

  /// Removes the oldest element into `*out`. A drained front segment is
  /// unmapped and queued for reuse (fault site: segment-recycle), and
  /// the next expiry-frontier segment is prefetched (MADV_WILLNEED).
  /// Requires size() > 0.
  bool PopFront(UncertainElement* out, std::string* error);

  /// The i-th element from the oldest (0 = oldest). Requires i < size().
  /// Maps the containing segment on demand through the shared segment
  /// cache, so a cold sample touches one segment, not the whole window.
  UncertainElement At(size_t i) const;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  int dims() const { return opts_.dims; }

  /// All elements, oldest first. O(size) memory — use NewCursor() for
  /// giant windows; this remains for small snapshots and tests.
  std::vector<UncertainElement> Snapshot() const;

  /// Streaming oldest→newest view of the current contents, starting at
  /// the `from`-th oldest element.
  Cursor NewCursor(uint64_t from = 0) const;

  /// Re-bounds the number of concurrently mapped segments (0 =
  /// unlimited; floored at kMinResidentBudget) and immediately evicts
  /// down to the new bound. The degradation ladder shrinks this under
  /// memory pressure.
  void SetResidentBudget(size_t budget);
  size_t resident_budget() const { return opts_.resident_budget; }

  const Stats& stats() const { return stats_; }

 private:
  struct Segment {
    uint64_t id = 0;
    std::string path;
    char* map = nullptr;
    uint64_t lru = 0;  ///< last-access tick; meaningful while mapped
  };

  size_t SlotBytes() const;
  size_t SegmentBytes() const;
  /// Maps segments_[seg_index] if it is cold (fault site: segment-map),
  /// refreshes its LRU stamp, and enforces the resident budget.
  bool EnsureMapped(size_t seg_index, std::string* error) const;
  void UnmapSegment(Segment* seg) const;
  /// Evicts least-recently-used mapped segments (never the head, the
  /// readahead frontier, the tail, or `protect_index`) until the
  /// resident count fits the budget.
  void EnforceResidentBudget(size_t protect_index) const;
  void ReadSlot(const char* slot, UncertainElement* e) const;
  bool MapTailSegment(std::string* error);
  bool RecycleFrontSegment(std::string* error);
  void UnmapAll();

  Options opts_;
  // Mapping state is logically const: remapping/evicting segments never
  // changes the FIFO contents, so const readers (At, Snapshot, Cursor)
  // may fault segments in and out.
  mutable std::deque<Segment> segments_;
  std::vector<std::string> free_files_;  ///< drained files awaiting reuse
  uint64_t next_id_ = 0;
  size_t head_offset_ = 0;  ///< elements already popped from the front segment
  size_t tail_count_ = 0;   ///< elements in the back segment
  size_t size_ = 0;
  uint64_t total_popped_ = 0;  ///< lifetime pops; anchors Cursor positions
  mutable uint64_t lru_tick_ = 0;
  mutable Stats stats_;
};

/// Count-based sliding window with the CountWindow interface but the
/// buffer held in a SegmentStore. `--window-store=disk` swaps this in;
/// its operator-visible behaviour is validated bit-equal to CountWindow.
/// Store I/O failures are fatal (PSKY_CHECK): a window that lost its
/// buffer cannot continue correctly, and the crash-quarantine handler
/// turns the check failure into a post-mortem dump.
class StoredCountWindow {
 public:
  StoredCountWindow(size_t capacity, const SegmentStore::Options& opts);

  /// Creates the backing store. Call once before use; returns false with
  /// a diagnostic when the directory cannot be set up.
  bool Init(std::string* error);

  /// Appends `e`; returns the evicted oldest element when the window
  /// overflows (see CountWindow::Push).
  std::optional<UncertainElement> Push(const UncertainElement& e);

  /// Steady-state rotation; requires full() (see CountWindow::PushRotate).
  /// Fused pop+push: the head read and tail write each resolve their
  /// segment once, so rotation touches each mapped page exactly once.
  UncertainElement PushRotate(const UncertainElement& e);

  size_t size() const { return store_.size(); }
  size_t capacity() const { return capacity_; }
  bool full() const { return store_.size() == capacity_; }

  /// The i-th element from the oldest; segment-cached (SegmentStore::At).
  UncertainElement At(size_t i) const { return store_.At(i); }

  /// Window contents, oldest first. O(size) memory — prefer NewCursor().
  std::vector<UncertainElement> Snapshot() const { return store_.Snapshot(); }

  /// Streaming oldest→newest view from the `from`-th oldest element (see
  /// SegmentStore::Cursor).
  SegmentStore::Cursor NewCursor(uint64_t from = 0) const {
    return store_.NewCursor(from);
  }

  void SetResidentBudget(size_t budget) { store_.SetResidentBudget(budget); }
  size_t resident_budget() const { return store_.resident_budget(); }

  const SegmentStore::Stats& store_stats() const { return store_.stats(); }

 private:
  size_t capacity_;
  SegmentStore store_;
};

/// Deletes segment files ("seg-*.pskyseg") left in `dir` by earlier
/// runs. Segments are per-run scratch, so at startup every one of them
/// is garbage. Returns the number removed; missing directories are a
/// no-op.
size_t SweepSegmentFiles(const std::string& dir);

}  // namespace psky

#endif  // PSKY_STORE_SEGMENT_STORE_H_
