#include "store/recovery.h"

#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <limits>

namespace psky {

namespace {

bool Fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

void Note(std::string* notes, const std::string& msg) {
  if (!notes->empty()) notes->append("; ");
  notes->append(msg);
}

std::string Joined(const std::string& a, const std::string& b) {
  std::string out = a;
  if (!b.empty()) Note(&out, b);
  return out;
}

}  // namespace

bool ParseReplayTarget(const std::string& spec, ReplayTarget* out,
                       std::string* error) {
  ReplayTarget target;
  if (spec.rfind("ts:", 0) == 0) {
    const std::string value = spec.substr(3);
    char* end = nullptr;
    target.kind = ReplayTarget::Kind::kTime;
    target.time = std::strtod(value.c_str(), &end);
    if (value.empty() || end == nullptr || *end != '\0') {
      return Fail(error, "bad --replay-at timestamp '" + value + "'");
    }
  } else {
    target.kind = ReplayTarget::Kind::kStep;
    const char* end = spec.data() + spec.size();
    if (std::from_chars(spec.data(), end, target.step).ptr != end ||
        spec.empty()) {
      return Fail(error, "bad --replay-at position '" + spec +
                             "' (want a step count or ts:<seconds>)");
    }
  }
  *out = target;
  return true;
}

ResumeStatus Resume(const std::string& dir, const ResumeOptions& options,
                    const ResumeSink& sink, ResumeResult* out,
                    std::string* error) {
  *out = ResumeResult{};
  const ReplayTarget* target = options.target;
  // A checkpoint can seed a replay when its state is a prefix of the
  // target sequence. For a step target that is any checkpoint at or
  // before the step; for a time target the admitted-timestamp
  // monotonicity (window policies reject or clamp out-of-order arrivals)
  // makes "newest window element at or before T" the same prefix
  // condition. Reading the newest element takes a pass over the window;
  // a read that fails here fails again, loudly, below.
  auto accept = [target](CheckpointFileReader* reader) {
    if (target == nullptr) return true;
    if (target->kind == ReplayTarget::Kind::kStep) {
      return reader->header().elements_consumed <= target->step;
    }
    double newest = -std::numeric_limits<double>::infinity();
    reader->ReadElements(
        [&newest](const UncertainElement& e) { newest = e.time; }, nullptr);
    return newest <= target->time;
  };
  CheckpointFileReader reader;
  out->has_checkpoint = OpenLatestCheckpoint(
      dir, &reader, &out->skipped, &out->skipped_diagnostics, accept);
  if (out->has_checkpoint) {
    out->base = reader.header();
    if (sink.begin && !sink.begin(out->base)) return ResumeStatus::kRefused;
    if (!reader.ReadElements(
            [&](const UncertainElement& e) {
              ++out->window_elements;
              if (sink.element) sink.element(e);
            },
            error)) {
      return ResumeStatus::kFailed;
    }
  } else if (!options.wal) {
    Fail(error, out->skipped_diagnostics.empty()
                    ? "no checkpoint files in " + dir
                    : out->skipped_diagnostics);
    return ResumeStatus::kFailed;
  } else if (target == nullptr && out->skipped.empty()) {
    Note(&out->notes, "no checkpoint files in " + dir);
  }
  out->step = out->base.elements_consumed;
  if (!options.wal) return ResumeStatus::kOk;

  // The contiguous run of WAL records following the checkpoint: records
  // with step_after = step + 1, step + 2, ... taken across consecutive
  // files of the rotation chain, each record applied as its frame
  // decodes. The chain starts at the last file whose start step is at or
  // below the checkpoint; earlier files only hold older records. The
  // first gap or unreadable file ends the tail (with a note); later files
  // are still read to find the append target.
  const std::vector<std::string> files = ListWalFiles(dir);
  size_t first = 0;
  for (size_t i = 0; i < files.size(); ++i) {
    uint64_t start = 0;
    if (ParseWalStartStep(files[i], &start) && start <= out->step) first = i;
  }
  bool any_readable = false;
  bool chain_ended = false;
  for (size_t i = first; i < files.size(); ++i) {
    std::string gap;
    bool refused = false;
    const auto apply = [&](const WalRecord& r) {
      // Past the chain's end, pre-base or a duplicate: skip.
      if (chain_ended || r.step_after <= out->step) return true;
      if (r.step_after != out->step + 1) {
        gap = files[i] + ": gap before step " + std::to_string(r.step_after) +
              " (expected " + std::to_string(out->step + 1) + ")";
        chain_ended = true;
      } else if (target != nullptr &&
                 (target->kind == ReplayTarget::Kind::kStep
                      ? r.step_after > target->step
                      : r.element.time > target->time)) {
        chain_ended = true;
      } else if (sink.record && !sink.record(r)) {
        refused = true;
        return false;
      } else {
        out->step = r.step_after;
        out->tip = r;
        ++out->tail_records;
      }
      return true;
    };
    WalContents contents;
    std::string file_error;
    const bool readable = ReadWalFile(files[i], apply, &contents, &file_error);
    if (refused) return ResumeStatus::kRefused;
    if (!readable) {
      Note(&out->notes, file_error);
      chain_ended = true;
      continue;
    }
    any_readable = true;
    out->active_wal = files[i];
    if (contents.tail_truncated) {
      out->tail_truncated = true;
      Note(&out->notes, files[i] + ": " + contents.tail_diagnostic);
    }
    if (!gap.empty()) Note(&out->notes, gap);
  }
  if (!out->has_checkpoint && !any_readable) {
    const std::string why = Joined(out->skipped_diagnostics, out->notes);
    Fail(error, (target != nullptr ? "nothing to replay in "
                                   : "nothing to recover in ") +
                    dir + (why.empty() ? "" : ": " + why));
    return ResumeStatus::kFailed;
  }
  if (target != nullptr && target->kind == ReplayTarget::Kind::kStep &&
      out->step != target->step) {
    Fail(error, "replay target " + std::to_string(target->step) +
                    " is beyond retained WAL coverage (have steps up to " +
                    std::to_string(out->step) + ")");
    return ResumeStatus::kFailed;
  }
  return ResumeStatus::kOk;
}

bool RecoverState(const std::string& dir, RecoveredState* out,
                  std::string* error) {
  RecoveredState state;
  ResumeSink sink;
  sink.begin = [&state](const CheckpointState& header) {
    state.checkpoint = header;
    return true;
  };
  sink.element = [&state](const UncertainElement& e) {
    state.checkpoint.window.push_back(e);
  };
  sink.record = [&state](const WalRecord& r) {
    state.tail.push_back(r);
    return true;
  };
  ResumeOptions options;
  options.wal = true;
  ResumeResult result;
  if (Resume(dir, options, sink, &result, error) != ResumeStatus::kOk) {
    return false;
  }
  state.has_checkpoint = result.has_checkpoint;
  state.active_wal = result.active_wal;
  state.tail_truncated = result.tail_truncated;
  state.notes = Joined(result.skipped_diagnostics, result.notes);
  *out = std::move(state);
  return true;
}

}  // namespace psky
