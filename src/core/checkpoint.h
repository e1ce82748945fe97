// Durable operator state: versioned, CRC-checksummed binary snapshots of a
// sliding-window skyline pipeline.
//
// A checkpoint captures everything needed to resume a continuous q-skyline
// query after a process restart: the operator/window configuration, the
// stream position, and the full ordered window contents. Restoring is
// deterministic replay — the window elements are re-inserted oldest-first
// into a fresh operator, which rebuilds exactly the candidate set and
// probability state of the original run (the operator state is a function
// of the window contents; see the paper's Theorems 2-4).
//
// File layout (all integers little-endian, doubles IEEE-754 bit patterns):
//
//   [0,  8)   magic "PSKYCKPT"
//   [8, 12)   format version (u32, currently 2)
//   [12,16)   CRC-32 of the payload
//   [16,24)   payload size in bytes (u64)
//   [24, ..)  payload: build-info stamp, fixed fields, window elements
//
// Version 2 prepends a build-info stamp (git hash + build type of the
// producing binary, see base/build_info.h) to the payload so post-mortems
// can identify which binary wrote a snapshot.
//
// One codec: a checkpoint is the window as an ordered element stream, so
// there is one writer and one reader, and both stream. The writer pulls
// elements from a CheckpointElementSource (a window read in place, a
// segment-store cursor, the shard engine's merged window) one I/O chunk
// at a time and persists atomically ("<path>.tmp", fsync, rename), so a
// crash mid-write never clobbers a good checkpoint. The reader validates
// CRC-first and then pushes elements into a sink one decode batch at a
// time; a corrupt file delivers nothing and yields a diagnostic, never a
// crash. The in-memory adapters (EncodeCheckpoint / DecodeCheckpoint for
// the quarantine format and fuzzers, the vector-holding file adapters)
// share the same encode, decode and validation code.

#ifndef PSKY_CORE_CHECKPOINT_H_
#define PSKY_CORE_CHECKPOINT_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "base/retry.h"
#include "core/operator.h"
#include "stream/element.h"

namespace psky {

/// Which sliding-window model the checkpointed pipeline ran.
enum class WindowKind : uint8_t {
  kCount = 0,  ///< most recent `window_capacity` elements
  kTime = 1,   ///< most recent `time_span` seconds
};

/// Complete resumable state of a streaming skyline pipeline.
struct CheckpointState {
  /// Build-info stamp of the binary that wrote the snapshot. Filled by
  /// EncodeCheckpoint (writers need not set it) and recovered by
  /// DecodeCheckpoint.
  std::string producer;

  // --- operator / window configuration ---------------------------------
  int dims = 2;
  double q = 0.3;
  WindowKind window_kind = WindowKind::kCount;
  uint64_t window_capacity = 0;  ///< count windows; 0 for time windows
  double time_span = 0.0;        ///< time windows; 0 for count windows

  // --- stream position --------------------------------------------------
  /// Elements fed into the operator so far (pipeline steps).
  uint64_t elements_consumed = 0;
  /// Raw input lines read so far (CSV sources; 0 for generators).
  uint64_t lines_consumed = 0;
  /// Next sequence number the source will assign.
  uint64_t next_seq = 0;

  // --- ingestion counters (carried across restarts for reporting) ------
  uint64_t bad_lines_skipped = 0;
  uint64_t probs_clamped = 0;
  uint64_t ooo_dropped = 0;

  /// Window contents, oldest first.
  std::vector<UncertainElement> window;
};

/// Pull-source of window elements, oldest first. Must yield exactly the
/// element count promised to the writer; returning false early fails the
/// write.
using CheckpointElementSource = std::function<bool(UncertainElement*)>;

/// Receives decoded window elements oldest-first during streaming reads.
using CheckpointElementSink = std::function<void(const UncertainElement&)>;

/// Source reading a window with size() and at(i) (CountWindow,
/// TimeWindow, std::vector) in place, oldest first.
template <typename Window>
CheckpointElementSource IndexedSource(const Window* w) {
  return [w, i = size_t{0}](UncertainElement* e) mutable {
    if (i >= w->size()) return false;
    *e = w->at(i++);
    return true;
  };
}

/// The writer: persists `state` (but not `state.window`) plus
/// `window_count` elements pulled from `source` to `path` atomically.
/// Returns false with `*error` on any failure; `*out_errno` gets the
/// failing errno (0 for non-errno failures such as a crash hook) so
/// callers can tell transient I/O conditions from permanent ones. Honors
/// the fault sites ckpt-open/-write/-fsync/-rename (base/fault_injection.h)
/// and the crash hooks below.
bool WriteCheckpointFileStreamed(const std::string& path,
                                 const CheckpointState& state,
                                 uint64_t window_count,
                                 const CheckpointElementSource& source,
                                 std::string* error, int* out_errno);

/// Retrying wrapper: re-attempts the write under `policy` (jittered
/// exponential backoff) while the failure is a transient I/O errno
/// (IsTransientIoError), each attempt with a fresh source from
/// `source_factory` (a cursor cannot be rewound). Exhaustion is counted in
/// `*stats`; `*error` carries the last attempt's diagnostic.
bool WriteCheckpointFileStreamedRetry(
    const std::string& path, const CheckpointState& state,
    uint64_t window_count,
    const std::function<CheckpointElementSource()>& source_factory,
    const RetryPolicy& policy, RetryStats* stats, std::string* error);

/// The reader. Open() validates everything but the elements: header,
/// payload size and CRC (a pass that retains nothing), fixed fields. So
/// corruption anywhere in the file reaches no sink. ReadElements() then
/// streams the elements, from the first one on every call.
class CheckpointFileReader {
 public:
  CheckpointFileReader() = default;
  ~CheckpointFileReader();
  CheckpointFileReader(const CheckpointFileReader&) = delete;
  CheckpointFileReader& operator=(const CheckpointFileReader&) = delete;

  /// Returns false with a diagnostic naming `path` on I/O failure or any
  /// corruption. Closes a previously opened file first.
  bool Open(const std::string& path, std::string* error);

  /// The validated configuration and position; `window` stays empty.
  const CheckpointState& header() const { return header_; }
  /// Elements in the window section.
  uint64_t window_count() const { return window_count_; }

  /// Delivers the window to `sink` oldest first, one decode batch in
  /// memory at a time. Fails (after delivering a prefix) only on an I/O
  /// error or an invalid element, which only a broken writer produces.
  bool ReadElements(const CheckpointElementSink& sink, std::string* error);

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  CheckpointState header_;
  uint64_t window_count_ = 0;
  long elements_offset_ = 0;  // file offset of the first element
};

/// Opens the newest checkpoint in `dir` that validates. A file Open()
/// rejects is skipped, its path appended to `*skipped` (when non-null) and
/// its diagnostic to `*diagnostics` ("; "-separated); `accept`, when set,
/// may pass over a valid file. Returns false when none qualifies. Reads
/// only: skipped files stay where they are.
bool OpenLatestCheckpoint(
    const std::string& dir, CheckpointFileReader* reader,
    std::vector<std::string>* skipped, std::string* diagnostics,
    const std::function<bool(CheckpointFileReader*)>& accept = nullptr);

// --- adapters for callers holding bytes or a materialized window --------

/// Serializes `state` (window included) into the checkpoint file format.
std::string EncodeCheckpoint(const CheckpointState& state);

/// Parses bytes produced by EncodeCheckpoint. On failure returns false and
/// sets `*error` (bad magic, unsupported version, truncation, CRC mismatch,
/// or malformed payload); `*out` is left unspecified.
bool DecodeCheckpoint(std::string_view bytes, CheckpointState* out,
                      std::string* error);

/// WriteCheckpointFileStreamed over `state.window`.
bool WriteCheckpointFile(const std::string& path, const CheckpointState& state,
                         std::string* error, int* out_errno = nullptr);

/// Reads a whole checkpoint file, window included. Returns false with
/// `*error` on I/O failure or any corruption.
bool ReadCheckpointFile(const std::string& path, CheckpointState* out,
                        std::string* error);

/// Canonical file name for a checkpoint taken after `elements_consumed`
/// steps: "ckpt-<20-digit count>.psky" (zero-padded so lexicographic order
/// is stream order).
std::string CheckpointFileName(uint64_t elements_consumed);

/// Recovers the step count a CheckpointFileName-style path encodes.
/// Returns false for unrelated names.
bool ParseCheckpointStep(const std::string& path, uint64_t* step);

/// Checkpoint files in `dir` (by CheckpointFileName convention), newest
/// first. Ignores temp files and unrelated names. Missing or unreadable
/// directories yield an empty list.
std::vector<std::string> ListCheckpointFiles(const std::string& dir);

/// OpenLatestCheckpoint, then reads the chosen file's window into `*out`.
/// Diagnostics for skipped files land in `*error` (also on success).
/// Returns false when no valid checkpoint exists.
bool LoadLatestCheckpoint(const std::string& dir, CheckpointState* out,
                          std::string* error);

/// Deletes all but the `keep` newest checkpoint files in `dir`, plus any
/// stale ".tmp" leftovers from interrupted writes. Returns the step of the
/// oldest checkpoint kept (UINT64_MAX when none is).
uint64_t PruneCheckpoints(const std::string& dir, size_t keep);

/// Removes ".tmp" leftovers from crashed mid-write attempts without
/// touching any completed checkpoint. Called on startup and before each
/// write so interrupted runs cannot accumulate temp wreckage. Returns the
/// number of files removed; a missing directory is a no-op.
size_t RemoveStaleCheckpointTemps(const std::string& dir);

/// Creates `dir` (and missing parents) if it does not exist, so a fresh
/// `--checkpoint-dir` works without manual setup. Returns false with a
/// diagnostic in `*error` when the path cannot be created or names a
/// non-directory.
bool EnsureCheckpointDir(const std::string& dir, std::string* error);

/// Rebuilds operator state by replaying the checkpointed window contents
/// oldest-first into `op` (which must be freshly constructed with the
/// checkpoint's dims and q).
void ReplayWindow(const CheckpointState& state, WindowSkylineOperator* op);

// --- fault injection (tests only) ---------------------------------------

/// Stages of the writer where a simulated crash can be injected.
enum class CheckpointCrashPoint {
  kMidPayload,    ///< temp file holds the header + a payload prefix
  kBeforeRename,  ///< temp file complete, rename not yet performed
};

/// Test hook: return false from the hook to make the writer stop
/// at that point as if the process died there — the temp file is left in
/// whatever state it reached and the target file is untouched. Pass
/// nullptr to clear.
using CheckpointCrashHook = bool (*)(CheckpointCrashPoint);
void SetCheckpointCrashHook(CheckpointCrashHook hook);

}  // namespace psky

#endif  // PSKY_CORE_CHECKPOINT_H_
