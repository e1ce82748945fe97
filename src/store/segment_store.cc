#include "store/segment_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "base/check.h"
#include "base/fault_injection.h"
#include "geom/point.h"

namespace psky {

namespace {

bool Fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

// See checkpoint.cc: strerror is fine on the single pipeline thread.
std::string ErrnoString(int err) {
  return std::strerror(err);  // NOLINT(concurrency-mt-unsafe)
}

std::string SegmentFileName(uint64_t id) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "seg-%020llu.pskyseg",
                static_cast<unsigned long long>(id));
  return buf;
}

bool IsSegmentFileName(const std::string& name) {
  if (name.size() != SegmentFileName(0).size() || name.rfind("seg-", 0) != 0 ||
      name.compare(name.size() - 8, 8, ".pskyseg") != 0) {
    return false;
  }
  for (size_t i = 4; i < 24; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
  }
  return true;
}

}  // namespace

SegmentStore::SegmentStore(const Options& opts) : opts_(opts) {}

SegmentStore::~SegmentStore() {
  UnmapAll();
  // Per-run scratch: leave nothing behind on clean destruction.
  std::error_code ec;
  for (const Segment& seg : segments_) std::filesystem::remove(seg.path, ec);
  for (const std::string& path : free_files_) {
    std::filesystem::remove(path, ec);
  }
}

size_t SegmentStore::SlotBytes() const {
  return 24 + 8 * static_cast<size_t>(opts_.dims);
}

size_t SegmentStore::SegmentBytes() const {
  return SlotBytes() * opts_.elements_per_segment;
}

bool SegmentStore::Init(std::string* error) {
  if (opts_.dims < 1 || opts_.dims > kMaxDims) {
    return Fail(error, "segment store dims " + std::to_string(opts_.dims) +
                           " outside [1, " + std::to_string(kMaxDims) + "]");
  }
  if (opts_.elements_per_segment == 0) {
    return Fail(error, "segment store needs elements_per_segment >= 1");
  }
  std::error_code ec;
  if (!std::filesystem::is_directory(opts_.dir, ec) &&
      !std::filesystem::create_directories(opts_.dir, ec)) {
    return Fail(error, "cannot create " + opts_.dir + ": " + ec.message());
  }
  return true;
}

void SegmentStore::UnmapSegment(Segment* seg) const {
  if (seg->map == nullptr) return;
  ::munmap(seg->map, SegmentBytes());
  seg->map = nullptr;
  seg->lru = 0;
  --stats_.segments_resident;
}

void SegmentStore::EnforceResidentBudget(size_t protect_index) const {
  if (opts_.resident_budget == 0) return;
  const uint64_t budget = static_cast<uint64_t>(
      opts_.resident_budget < kMinResidentBudget ? kMinResidentBudget
                                                 : opts_.resident_budget);
  while (stats_.segments_resident > budget) {
    // Evict the least-recently-used mapped segment. The head, the
    // readahead frontier, the write tail, and the caller's segment are
    // pinned: evicting any of them would immediately thrash.
    size_t victim = segments_.size();
    uint64_t victim_lru = 0;
    const size_t last = segments_.size() - 1;
    for (size_t i = 2; i < segments_.size(); ++i) {
      const Segment& seg = segments_[i];
      if (i == last || i == protect_index || seg.map == nullptr) continue;
      if (victim == segments_.size() || seg.lru < victim_lru) {
        victim = i;
        victim_lru = seg.lru;
      }
    }
    if (victim == segments_.size()) return;  // only pinned segments mapped
    UnmapSegment(&segments_[victim]);
    ++stats_.recycle_pressure;
  }
}

bool SegmentStore::EnsureMapped(size_t seg_index, std::string* error) const {
  Segment& seg = segments_[seg_index];
  if (seg.map != nullptr) {
    seg.lru = ++lru_tick_;
    return true;
  }
  if (fault::Enabled()) {
    if (const int inj = fault::FailErrno(fault::Site::kSegmentMap)) {
      return Fail(error, "cannot map segment in " + opts_.dir + ": " +
                             ErrnoString(inj) + " (injected)");
    }
  }
  // The file was created and sized by MapTailSegment; MAP_SHARED means
  // the pages we dropped on eviction are still in the page cache / file.
  const int fd = ::open(seg.path.c_str(), O_RDWR);
  if (fd < 0) {
    return Fail(error, "cannot open " + seg.path + ": " + ErrnoString(errno));
  }
  void* map = ::mmap(nullptr, SegmentBytes(), PROT_READ | PROT_WRITE,
                     MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) {
    return Fail(error, "cannot map " + seg.path + ": " + ErrnoString(errno));
  }
  ::madvise(map, SegmentBytes(), MADV_SEQUENTIAL);
  seg.map = static_cast<char*>(map);
  seg.lru = ++lru_tick_;
  ++stats_.segments_resident;
  EnforceResidentBudget(seg_index);
  return true;
}

bool SegmentStore::MapTailSegment(std::string* error) {
  if (fault::Enabled()) {
    if (const int inj = fault::FailErrno(fault::Site::kSegmentMap)) {
      return Fail(error, "cannot map segment in " + opts_.dir + ": " +
                             ErrnoString(inj) + " (injected)");
    }
  }
  Segment seg;
  seg.id = next_id_++;
  seg.path =
      (std::filesystem::path(opts_.dir) / SegmentFileName(seg.id)).string();
  bool recycled = false;
  if (!free_files_.empty()) {
    const std::string from = free_files_.back();
    if (std::rename(from.c_str(), seg.path.c_str()) != 0) {
      return Fail(error, "cannot recycle " + from + " to " + seg.path + ": " +
                             ErrnoString(errno));
    }
    free_files_.pop_back();
    recycled = true;
  }
  const int fd = ::open(seg.path.c_str(), O_CREAT | O_RDWR, 0644);
  if (fd < 0) {
    return Fail(error,
                "cannot open " + seg.path + ": " + ErrnoString(errno));
  }
  if (::ftruncate(fd, static_cast<off_t>(SegmentBytes())) != 0) {
    const int err = errno;
    ::close(fd);
    return Fail(error,
                "cannot size " + seg.path + ": " + ErrnoString(err));
  }
  void* map = ::mmap(nullptr, SegmentBytes(), PROT_READ | PROT_WRITE,
                     MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) {
    return Fail(error, "cannot map " + seg.path + ": " + ErrnoString(errno));
  }
  ::madvise(map, SegmentBytes(), MADV_SEQUENTIAL);
  seg.map = static_cast<char*>(map);
  seg.lru = ++lru_tick_;
  segments_.push_back(seg);
  tail_count_ = 0;
  ++stats_.segments_resident;
  if (recycled) {
    ++stats_.segments_recycled;
  } else {
    ++stats_.segments_created;
  }
  stats_.segments_live = segments_.size();
  // Write-behind: the previous tail is now fully written and will not be
  // touched again until it reaches the expiry frontier — drop it from
  // RSS unless it *is* the frontier (head or readahead successor).
  if (segments_.size() >= 4) {
    UnmapSegment(&segments_[segments_.size() - 2]);
  }
  EnforceResidentBudget(segments_.size() - 1);
  return true;
}

bool SegmentStore::RecycleFrontSegment(std::string* error) {
  if (fault::Enabled()) {
    if (const int inj = fault::FailErrno(fault::Site::kSegmentRecycle)) {
      return Fail(error, "cannot recycle segment in " + opts_.dir + ": " +
                             ErrnoString(inj) + " (injected)");
    }
  }
  Segment seg = segments_.front();
  segments_.pop_front();
  if (seg.map != nullptr) {
    ::munmap(seg.map, SegmentBytes());
    --stats_.segments_resident;
  }
  free_files_.push_back(seg.path);
  head_offset_ = 0;
  stats_.segments_live = segments_.size();
  if (!segments_.empty()) {
    // Readahead accounting: the new expiry frontier should already be
    // mapped by the prefetch below from the previous recycle.
    if (segments_.front().map != nullptr) {
      ++stats_.readahead_hits;
      segments_.front().lru = ++lru_tick_;
    } else {
      ++stats_.readahead_misses;
      std::string ignored;  // best effort; PopFront surfaces real failures
      EnsureMapped(0, &ignored);
    }
    // Prefetch the next frontier so the following recycle is a hit and
    // the kernel starts paging it in now (MADV_WILLNEED).
    if (segments_.size() >= 2) {
      std::string ignored;
      if (EnsureMapped(1, &ignored)) {
        ::madvise(segments_[1].map, SegmentBytes(), MADV_WILLNEED);
      }
    }
  }
  return true;
}

void SegmentStore::UnmapAll() {
  for (Segment& seg : segments_) {
    if (seg.map != nullptr) ::munmap(seg.map, SegmentBytes());
    seg.map = nullptr;
  }
  stats_.segments_resident = 0;
}

void SegmentStore::ReadSlot(const char* slot, UncertainElement* e) const {
  e->pos = Point(opts_.dims);
  std::memcpy(&e->seq, slot, 8);
  std::memcpy(&e->prob, slot + 8, 8);
  std::memcpy(&e->time, slot + 16, 8);
  for (int d = 0; d < opts_.dims; ++d) {
    std::memcpy(&e->pos[d], slot + 24 + 8 * static_cast<size_t>(d), 8);
  }
}

bool SegmentStore::PushBack(const UncertainElement& e, std::string* error) {
  PSKY_CHECK(e.pos.dims() == opts_.dims);
  if (segments_.empty() || tail_count_ == opts_.elements_per_segment) {
    if (!MapTailSegment(error)) return false;
  } else if (segments_.back().map == nullptr) {
    // The tail can only go cold through SetResidentBudget edge cases;
    // fault in before writing.
    if (!EnsureMapped(segments_.size() - 1, error)) return false;
  }
  char* slot = segments_.back().map + tail_count_ * SlotBytes();
  std::memcpy(slot, &e.seq, 8);
  std::memcpy(slot + 8, &e.prob, 8);
  std::memcpy(slot + 16, &e.time, 8);
  std::memcpy(slot + 24, e.pos.data(), 8 * static_cast<size_t>(opts_.dims));
  ++tail_count_;
  ++size_;
  return true;
}

bool SegmentStore::PopFront(UncertainElement* out, std::string* error) {
  PSKY_CHECK(size_ > 0);
  if (!EnsureMapped(0, error)) return false;
  // Direct head read: the expiry frontier advances one slot per pop, so
  // steady-state rotation walks each mapped page exactly once.
  const char* slot = segments_.front().map + head_offset_ * SlotBytes();
  ReadSlot(slot, out);
  ++head_offset_;
  --size_;
  ++total_popped_;
  const bool front_is_tail = segments_.size() == 1;
  const size_t front_used = front_is_tail ? tail_count_
                                          : opts_.elements_per_segment;
  if (head_offset_ == front_used && !front_is_tail) {
    if (!RecycleFrontSegment(error)) {
      // The element is already out; undo nothing, but surface the I/O
      // problem. The drained segment stays mapped and retries next pop.
      ++size_;
      --head_offset_;
      --total_popped_;
      *out = UncertainElement{};
      return false;
    }
  } else if (head_offset_ == front_used && front_is_tail) {
    // Fully drained store: rewind the single segment in place.
    head_offset_ = 0;
    tail_count_ = 0;
  }
  return true;
}

UncertainElement SegmentStore::At(size_t i) const {
  PSKY_CHECK(i < size_);
  const size_t flat = head_offset_ + i;
  const size_t seg_index = flat / opts_.elements_per_segment;
  const size_t slot_index = flat % opts_.elements_per_segment;
  std::string error;
  PSKY_CHECK_MSG(EnsureMapped(seg_index, &error), error.c_str());
  const char* slot = segments_[seg_index].map + slot_index * SlotBytes();
  UncertainElement e;
  ReadSlot(slot, &e);
  return e;
}

std::vector<UncertainElement> SegmentStore::Snapshot() const {
  std::vector<UncertainElement> out;
  out.reserve(size_);
  for (size_t i = 0; i < size_; ++i) out.push_back(At(i));
  return out;
}

SegmentStore::Cursor SegmentStore::NewCursor(uint64_t from) const {
  const uint64_t end = total_popped_ + size_;
  return Cursor(this, std::min(total_popped_ + from, end), end);
}

void SegmentStore::SetResidentBudget(size_t budget) {
  opts_.resident_budget = budget;
  if (!segments_.empty()) EnforceResidentBudget(segments_.size());
}

bool SegmentStore::Cursor::Next(UncertainElement* out) {
  // Elements popped since the last call are gone; skip to the oldest
  // survivor (total_popped_ is the absolute index of the current head).
  if (abs_next_ < store_->total_popped_) abs_next_ = store_->total_popped_;
  if (abs_next_ >= abs_end_) return false;
  *out = store_->At(static_cast<size_t>(abs_next_ - store_->total_popped_));
  ++abs_next_;
  return true;
}

uint64_t SegmentStore::Cursor::remaining() const {
  const uint64_t next = abs_next_ < store_->total_popped_
                            ? store_->total_popped_
                            : abs_next_;
  return next >= abs_end_ ? 0 : abs_end_ - next;
}

StoredCountWindow::StoredCountWindow(size_t capacity,
                                     const SegmentStore::Options& opts)
    : capacity_(capacity), store_(opts) {}

bool StoredCountWindow::Init(std::string* error) {
  return store_.Init(error);
}

std::optional<UncertainElement> StoredCountWindow::Push(
    const UncertainElement& e) {
  std::string error;
  std::optional<UncertainElement> expired;
  if (store_.size() == capacity_) {
    UncertainElement oldest;
    PSKY_CHECK_MSG(store_.PopFront(&oldest, &error), error.c_str());
    expired = oldest;
  }
  PSKY_CHECK_MSG(store_.PushBack(e, &error), error.c_str());
  return expired;
}

UncertainElement StoredCountWindow::PushRotate(const UncertainElement& e) {
  PSKY_CHECK(full());
  std::string error;
  UncertainElement oldest;
  PSKY_CHECK_MSG(store_.PopFront(&oldest, &error), error.c_str());
  PSKY_CHECK_MSG(store_.PushBack(e, &error), error.c_str());
  return oldest;
}

size_t SweepSegmentFiles(const std::string& dir) {
  size_t removed = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (IsSegmentFileName(entry.path().filename().string())) {
      std::error_code rm_ec;
      if (std::filesystem::remove(entry.path(), rm_ec)) ++removed;
    }
  }
  return removed;
}

}  // namespace psky
