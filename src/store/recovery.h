// Crash recovery and deterministic historical replay over the durable
// stores: checkpoints (core/checkpoint.h) plus the write-ahead element
// log (store/wal.h).
//
// Recovery contract: the state reconstructed from the latest valid
// checkpoint plus the WAL tail is bit-identical to the state an
// uninterrupted run had at the same stream position, because operator
// state is a pure function of the admitted element sequence (paper
// Theorems 2-4) and both stores capture that sequence exactly. Records
// past the last group-commit sync may be missing after a crash; for
// replayable sources the caller re-reads them from the source using the
// last surviving record's position stamps, so the final output is still
// bit-identical.
//
// One routine, Resume(), serves every consumer: it picks the newest
// checkpoint that validates, hands the caller its configuration before any
// element flows, then streams the window and the contiguous WAL tail into
// the caller's sink — holding one checkpoint decode batch plus one WAL
// record, never the window, a WAL file or the tail. Given a target it
// answers a historical query ("the q-skyline at position P, or time T")
// the same way, from the newest checkpoint at or before the target.

#ifndef PSKY_STORE_RECOVERY_H_
#define PSKY_STORE_RECOVERY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "store/wal.h"

namespace psky {

/// A historical replay target: a stream position (elements consumed) or
/// a stream timestamp.
struct ReplayTarget {
  enum class Kind { kStep, kTime };
  Kind kind = Kind::kStep;
  uint64_t step = 0;  ///< kStep: replay through this many elements
  double time = 0.0;  ///< kTime: replay elements with time <= this
};

/// Parses a --replay-at spec: a bare integer is a position, "ts:<secs>"
/// a timestamp. Returns false with a diagnostic on malformed input.
bool ParseReplayTarget(const std::string& spec, ReplayTarget* out,
                       std::string* error);

struct ResumeOptions {
  /// Also stream the WAL records past the checkpoint (from step 1 when no
  /// checkpoint validates; the WAL alone then suffices).
  bool wal = false;
  /// Historical replay: use the newest checkpoint at or before the target
  /// and stop the WAL tail at it. Null resumes at the end of the log.
  const ReplayTarget* target = nullptr;
};

/// Where a resume streams to. Every callback is optional.
struct ResumeSink {
  /// The chosen checkpoint's configuration and position (window empty),
  /// before any of its elements. Returning false refuses the resume.
  std::function<bool(const CheckpointState&)> begin;
  /// The checkpointed window, oldest first.
  CheckpointElementSink element;
  /// WAL records past the checkpoint, in stream order. Returning false
  /// refuses the resume.
  std::function<bool(const WalRecord&)> record;
};

/// What a resume found and applied.
struct ResumeResult {
  /// False when no checkpoint qualified (a WAL-only recovery).
  bool has_checkpoint = false;
  /// The checkpoint's configuration and position (window empty).
  CheckpointState base;
  uint64_t window_elements = 0;  ///< elements the checkpoint delivered
  /// Checkpoint files passed over as corrupt, newest first, and their
  /// "<path>: <reason>" diagnostics ("; "-separated).
  std::vector<std::string> skipped;
  std::string skipped_diagnostics;
  uint64_t tail_records = 0;  ///< WAL records delivered
  WalRecord tip;              ///< the last of them (when tail_records > 0)
  uint64_t step = 0;          ///< stream position reached
  /// Newest readable WAL file (the append target for the resumed run).
  std::string active_wal;
  /// True when a WAL file had a torn tail (WalWriter::OpenForAppend
  /// repairs it on disk; the torn bytes are ignored here).
  bool tail_truncated = false;
  /// WAL notes: truncation reasons, coverage gaps. Never fatal by itself.
  std::string notes;
};

enum class ResumeStatus {
  kOk,
  kRefused,  ///< a sink callback returned false
  kFailed,   ///< nothing to resume from, an unreadable chosen checkpoint,
             ///< or a replay target outside the retained history
};

/// Streams the newest valid checkpoint in `dir` (and, with options.wal,
/// the contiguous WAL tail) into `sink`. Reads only: corrupt files are
/// reported in `*out`, never moved. `*error` explains kFailed.
ResumeStatus Resume(const std::string& dir, const ResumeOptions& options,
                    const ResumeSink& sink, ResumeResult* out,
                    std::string* error);

/// A materialized resume, for callers that hold the window as a vector:
/// the base snapshot (default when has_checkpoint is false) plus the WAL
/// tail, as ResumeResult describes them. Prefer Resume().
struct RecoveredState {
  CheckpointState checkpoint;
  bool has_checkpoint = false;
  std::vector<WalRecord> tail;
  std::string active_wal;
  bool tail_truncated = false;
  std::string notes;  ///< skipped checkpoints and WAL notes
};

/// Resume() with the WAL into a RecoveredState. Returns false only when
/// `dir` holds neither a valid checkpoint nor a readable WAL.
bool RecoverState(const std::string& dir, RecoveredState* out,
                  std::string* error);

}  // namespace psky

#endif  // PSKY_STORE_RECOVERY_H_
