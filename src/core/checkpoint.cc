#include "core/checkpoint.h"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "base/build_info.h"
#include "base/crc32.h"
#include "base/fault_injection.h"
#include "base/wire.h"
#include "geom/point.h"

namespace psky {

namespace {

using wire::AppendF64;
using wire::AppendString;
using wire::AppendU32;
using wire::AppendU64;
using wire::Cursor;

constexpr char kMagic[8] = {'P', 'S', 'K', 'Y', 'C', 'K', 'P', 'T'};
constexpr uint32_t kVersion = 2;
constexpr size_t kHeaderSize = 24;
// Build-info stamps are short one-liners; anything longer than this in the
// length field is corruption, not a stamp.
constexpr uint64_t kMaxProducerBytes = 4096;

CheckpointCrashHook g_crash_hook = nullptr;

// Dies at `point` (returns false) when a crash hook is installed and asks
// for it; no hook means run to completion.
bool SurvivesCrashPoint(CheckpointCrashPoint point) {
  return g_crash_hook == nullptr || g_crash_hook(point);
}

bool Fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

// strerror's static buffer is not thread-safe in general, but checkpoint
// IO runs entirely on the caller's thread and nothing else in this
// process calls strerror concurrently.
std::string ErrnoString(int err) {
  return std::strerror(err);  // NOLINT(concurrency-mt-unsafe)
}
std::string ErrnoString() { return ErrnoString(errno); }

// Failure with an errno attached, for callers (the retry wrapper) that
// classify transient vs. permanent conditions. `err` of 0 means the
// failure was not errno-shaped (simulated crash hook, logic error) and is
// treated as permanent.
bool FailIo(std::string* error, int* out_errno, int err,
            const std::string& msg) {
  if (out_errno != nullptr) *out_errno = err;
  return Fail(error, msg);
}

// The errno a chaos schedule injects at `site`, or 0 (always 0 unless a
// schedule is armed).
int Injected(fault::Site site) {
  return fault::Enabled() ? fault::FailErrno(site) : 0;
}

size_t ElementBytes(int dims) { return 24 + 8 * static_cast<size_t>(dims); }

std::string EncodeHeader(uint32_t crc, uint64_t payload_size) {
  std::string header(kMagic, sizeof kMagic);
  AppendU32(&header, kVersion);
  AppendU32(&header, crc);
  AppendU64(&header, payload_size);
  return header;
}

// --- encode ---------------------------------------------------------------

// Streams the payload for `state` plus `window_count` elements from
// `source` through `emit`, one chunk of about kChunkBytes at a time (the
// first chunk is exactly the stamp and fixed fields). `*crc` and `*size`
// receive the payload's CRC-32 and length. Fails when `source` ends early
// or `emit` returns false.
bool EncodePayload(const CheckpointState& state, uint64_t window_count,
                   const CheckpointElementSource& source,
                   const std::function<bool(std::string_view)>& emit,
                   uint32_t* crc, uint64_t* size, std::string* error) {
  constexpr size_t kChunkBytes = 1 << 18;
  *crc = 0;
  *size = 0;
  std::string chunk;
  // The stamp identifies the *writer*: an explicitly pre-set producer (a
  // re-encoded foreign snapshot) is preserved, otherwise this binary's.
  AppendString(&chunk,
               state.producer.empty() ? BuildInfoString() : state.producer);
  AppendU32(&chunk, static_cast<uint32_t>(state.dims));
  AppendF64(&chunk, state.q);
  chunk.push_back(static_cast<char>(state.window_kind));
  AppendU64(&chunk, state.window_capacity);
  AppendF64(&chunk, state.time_span);
  AppendU64(&chunk, state.elements_consumed);
  AppendU64(&chunk, state.lines_consumed);
  AppendU64(&chunk, state.next_seq);
  AppendU64(&chunk, state.bad_lines_skipped);
  AppendU64(&chunk, state.probs_clamped);
  AppendU64(&chunk, state.ooo_dropped);
  AppendU64(&chunk, window_count);
  auto flush = [&]() {
    *crc = Crc32(chunk.data(), chunk.size(), *crc);
    *size += chunk.size();
    const bool ok = emit(chunk);
    chunk.clear();
    return ok;
  };
  if (!flush()) return false;
  UncertainElement e;
  for (uint64_t i = 0; i < window_count; ++i) {
    if (!source(&e)) {
      return Fail(error, "checkpoint element source ended early at " +
                             std::to_string(i) + " of " +
                             std::to_string(window_count));
    }
    AppendU64(&chunk, e.seq);
    AppendF64(&chunk, e.prob);
    AppendF64(&chunk, e.time);
    for (int d = 0; d < state.dims; ++d) AppendF64(&chunk, e.pos[d]);
    if (chunk.size() >= kChunkBytes && !flush()) return false;
  }
  return chunk.empty() || flush();
}

// --- decode ---------------------------------------------------------------

constexpr char kReadError[] = "cannot read payload";
// The stamp and fixed fields lie within this many bytes of the payload's
// start: a u32 stamp length, the stamp, then dims, q, kind, capacity,
// span, six stream counters and the element count.
constexpr size_t kMaxFixedBytes = 4 + kMaxProducerBytes + 4 + 8 + 1 + 8 + 8 +
                                  7 * 8;

// Checks the fixed header at the front of `head` (which may be short).
bool DecodeHeader(std::string_view head, uint32_t* crc, uint64_t* payload_size,
                  std::string* error) {
  if (head.size() < kHeaderSize) {
    return Fail(error, "checkpoint truncated: " + std::to_string(head.size()) +
                           " bytes, header needs " +
                           std::to_string(kHeaderSize));
  }
  if (std::memcmp(head.data(), kMagic, sizeof kMagic) != 0) {
    return Fail(error, "bad checkpoint magic (not a checkpoint file?)");
  }
  Cursor c(head.substr(sizeof kMagic, kHeaderSize - sizeof kMagic));
  uint32_t version = 0;
  c.ReadU32(&version);
  c.ReadU32(crc);
  c.ReadU64(payload_size);
  if (version != kVersion) {
    return Fail(error, "unsupported checkpoint version " +
                           std::to_string(version) + " (expected " +
                           std::to_string(kVersion) + ")");
  }
  return true;
}

bool CheckPayload(uint64_t want_size, uint64_t got_size, uint32_t want_crc,
                  uint32_t got_crc, std::string* error) {
  if (got_size != want_size) {
    return Fail(error, "checkpoint payload size mismatch: header says " +
                           std::to_string(want_size) + ", file has " +
                           std::to_string(got_size));
  }
  if (got_crc != want_crc) {
    return Fail(error, "checkpoint CRC mismatch (corrupted payload)");
  }
  return true;
}

// Decodes and validates the stamp and fixed fields of a CRC-checked
// payload of `payload_size` bytes from `head`, its first
// min(payload_size, kMaxFixedBytes) bytes. `*consumed` receives their
// length and `*count` the element count, checked against the bytes left.
bool DecodeFixedFields(std::string_view head, uint64_t payload_size,
                       CheckpointState* state, uint64_t* count,
                       size_t* consumed, std::string* error) {
  Cursor c(head);
  uint32_t dims = 0;
  uint8_t kind = 0;
  if (!c.ReadString(&state->producer, kMaxProducerBytes)) {
    return Fail(error, "checkpoint build-info stamp truncated or oversized");
  }
  if (!c.ReadU32(&dims) || !c.ReadF64(&state->q) || !c.ReadU8(&kind) ||
      !c.ReadU64(&state->window_capacity) || !c.ReadF64(&state->time_span) ||
      !c.ReadU64(&state->elements_consumed) ||
      !c.ReadU64(&state->lines_consumed) || !c.ReadU64(&state->next_seq) ||
      !c.ReadU64(&state->bad_lines_skipped) ||
      !c.ReadU64(&state->probs_clamped) || !c.ReadU64(&state->ooo_dropped) ||
      !c.ReadU64(count)) {
    return Fail(error, "checkpoint payload truncated in fixed fields");
  }
  if (dims < 1 || dims > static_cast<uint32_t>(kMaxDims)) {
    return Fail(error, "checkpoint dims out of range: " + std::to_string(dims));
  }
  state->dims = static_cast<int>(dims);
  if (!(state->q > 0.0) || !(state->q <= 1.0) || !std::isfinite(state->q)) {
    return Fail(error, "checkpoint q out of range");
  }
  if (kind > static_cast<uint8_t>(WindowKind::kTime)) {
    return Fail(error, "checkpoint window kind unknown: " +
                           std::to_string(kind));
  }
  state->window_kind = static_cast<WindowKind>(kind);
  *consumed = head.size() - c.remaining();
  const uint64_t left = payload_size - *consumed;
  const uint64_t elem_bytes = ElementBytes(state->dims);
  // Divide instead of multiplying: count is attacker-controlled and
  // count * elem_bytes can wrap mod 2^64 to match the bytes left, sending
  // a colossal count into a reserve() (fuzz regression
  // ckpt-count-overflow).
  if (*count > left / elem_bytes || left != *count * elem_bytes) {
    return Fail(error, "checkpoint element section size mismatch: " +
                           std::to_string(*count) + " elements need " +
                           std::to_string(*count * elem_bytes) + " bytes, " +
                           std::to_string(left) + " present");
  }
  return true;
}

// Decodes and validates the whole elements in `bytes` into `sink`;
// `first` is the window index of the first one (for diagnostics).
bool DecodeElements(std::string_view bytes, int dims, uint64_t first,
                    const CheckpointElementSink& sink, std::string* error) {
  const size_t count = bytes.size() / ElementBytes(dims);
  Cursor c(bytes);
  UncertainElement e;
  e.pos = Point(dims);
  for (uint64_t i = first; i < first + count; ++i) {
    c.ReadU64(&e.seq);
    c.ReadF64(&e.prob);
    c.ReadF64(&e.time);
    for (int d = 0; d < dims; ++d) c.ReadF64(&e.pos[d]);
    if (!std::isfinite(e.prob) || e.prob <= 0.0 || e.prob > 1.0) {
      return Fail(error, "checkpoint element " + std::to_string(i) +
                             " has invalid probability");
    }
    for (int d = 0; d < dims; ++d) {
      if (!std::isfinite(e.pos[d])) {
        return Fail(error, "checkpoint element " + std::to_string(i) +
                               " has non-finite coordinate");
      }
    }
    sink(e);
  }
  return true;
}

// Reads an opened file's header and window into `*out`.
bool ReadWindow(CheckpointFileReader* reader, CheckpointState* out,
                std::string* error) {
  CheckpointState state = reader->header();
  state.window.reserve(reader->window_count());
  if (!reader->ReadElements(
          [&state](const UncertainElement& e) { state.window.push_back(e); },
          error)) {
    return false;
  }
  *out = std::move(state);
  return true;
}

}  // namespace

void SetCheckpointCrashHook(CheckpointCrashHook hook) { g_crash_hook = hook; }

bool WriteCheckpointFileStreamed(const std::string& path,
                                 const CheckpointState& state,
                                 uint64_t window_count,
                                 const CheckpointElementSource& source,
                                 std::string* error, int* out_errno) {
  if (out_errno != nullptr) *out_errno = 0;
  // A crash mid-write leaves a ".tmp" behind; clear that wreckage before
  // producing more so interrupted runs cannot accumulate temp files.
  const std::string parent =
      std::filesystem::path(path).parent_path().string();
  RemoveStaleCheckpointTemps(parent.empty() ? "." : parent);
  const std::string tmp = path + ".tmp";
  if (const int inj = Injected(fault::Site::kCheckpointOpen)) {
    return FailIo(error, out_errno, inj,
                  "cannot open " + tmp + ": " + ErrnoString(inj) +
                      " (injected)");
  }
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return FailIo(error, out_errno, errno,
                  "cannot open " + tmp + ": " + ErrnoString());
  }
  // Every exit below closes the temp exactly once.
  auto fail = [&](int err, const std::string& msg) {
    std::fclose(f);
    return FailIo(error, out_errno, err, msg);
  };
  if (const int inj = Injected(fault::Site::kCheckpointWrite)) {
    return fail(inj, "cannot write " + tmp + ": " + ErrnoString(inj) +
                         " (injected)");
  }
  // The header is written twice: a placeholder first, then — once the
  // payload has streamed past the incremental CRC — the real one. The
  // rename-into-place discipline means no reader sees the placeholder.
  int write_errno = 0;
  bool crashed = false;
  int chunks = 0;
  auto emit = [&](std::string_view bytes) {
    errno = 0;
    if (std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
      write_errno = errno != 0 ? errno : EIO;
      return false;
    }
    // The injectable crash leaves a genuinely truncated temp: the
    // placeholder header plus the payload's first chunk.
    if (++chunks == 2) {
      crashed = !SurvivesCrashPoint(CheckpointCrashPoint::kMidPayload);
    }
    return !crashed;
  };
  uint32_t crc = 0;
  uint64_t payload_size = 0;
  std::string source_error;
  if (!emit(EncodeHeader(0, 0)) ||
      !EncodePayload(state, window_count, source, emit, &crc, &payload_size,
                     &source_error)) {
    if (crashed) return fail(0, "simulated crash mid-checkpoint-write");
    if (write_errno != 0) return fail(write_errno, "short write to " + tmp);
    return fail(0, source_error);
  }
  if (std::fseek(f, 0, SEEK_SET) != 0) {
    const int err = errno;
    return fail(err, "cannot seek in " + tmp + ": " + ErrnoString(err));
  }
  if (!emit(EncodeHeader(crc, payload_size))) {
    return fail(write_errno, "short write to " + tmp);
  }
  if (const int inj = Injected(fault::Site::kCheckpointFsync)) {
    return fail(inj, "cannot flush " + tmp + ": " + ErrnoString(inj) +
                         " (injected)");
  }
  if (std::fflush(f) != 0 || fsync(fileno(f)) != 0) {
    const int err = errno;
    return fail(err, "cannot flush " + tmp + ": " + ErrnoString(err));
  }
  std::fclose(f);
  if (!SurvivesCrashPoint(CheckpointCrashPoint::kBeforeRename)) {
    return Fail(error, "simulated crash before checkpoint rename");
  }
  if (const int inj = Injected(fault::Site::kCheckpointRename)) {
    return FailIo(error, out_errno, inj,
                  "cannot rename " + tmp + " to " + path + ": " +
                      ErrnoString(inj) + " (injected)");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return FailIo(error, out_errno, errno,
                  "cannot rename " + tmp + " to " + path + ": " +
                      ErrnoString());
  }
  return true;
}

bool WriteCheckpointFileStreamedRetry(
    const std::string& path, const CheckpointState& state,
    uint64_t window_count,
    const std::function<CheckpointElementSource()>& source_factory,
    const RetryPolicy& policy, RetryStats* stats, std::string* error) {
  std::string last_error;
  const bool ok = RetryWithBackoff(
      policy,
      [&](int* err) {
        // A fresh source per attempt: a cursor consumed by a failed
        // attempt cannot be rewound.
        return WriteCheckpointFileStreamed(path, state, window_count,
                                           source_factory(), &last_error, err);
      },
      stats);
  if (!ok && error != nullptr) *error = last_error;
  return ok;
}

CheckpointFileReader::~CheckpointFileReader() {
  if (file_ != nullptr) std::fclose(file_);
}

bool CheckpointFileReader::Open(const std::string& path, std::string* error) {
  if (file_ != nullptr) std::fclose(file_);
  path_ = path;
  header_ = CheckpointState{};
  window_count_ = 0;
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    return Fail(error, "cannot open " + path + ": " + ErrnoString());
  }
  std::string msg = kReadError;
  auto reject = [&]() {
    std::fclose(file_);
    file_ = nullptr;
    return Fail(error, path + ": " + msg);
  };
  char head[kHeaderSize];
  const size_t got = std::fread(head, 1, sizeof head, file_);
  uint32_t crc = 0;
  uint64_t payload_size = 0;
  if (!DecodeHeader(std::string_view(head, got), &crc, &payload_size, &msg)) {
    return reject();
  }
  // Checksum the payload without retaining it, so corruption is detected
  // before any element reaches a sink.
  uint32_t actual_crc = 0;
  uint64_t actual_size = 0;
  std::string buf(1 << 16, '\0');
  size_t n;
  while ((n = std::fread(buf.data(), 1, buf.size(), file_)) > 0) {
    actual_crc = Crc32(buf.data(), n, actual_crc);
    actual_size += n;
  }
  if (std::ferror(file_) != 0 ||
      !CheckPayload(payload_size, actual_size, crc, actual_crc, &msg)) {
    return reject();
  }
  buf.resize(
      static_cast<size_t>(std::min<uint64_t>(payload_size, kMaxFixedBytes)));
  size_t consumed = 0;
  if (std::fseek(file_, static_cast<long>(kHeaderSize), SEEK_SET) != 0 ||
      std::fread(buf.data(), 1, buf.size(), file_) != buf.size() ||
      !DecodeFixedFields(buf, payload_size, &header_, &window_count_,
                         &consumed, &msg)) {
    return reject();
  }
  elements_offset_ = static_cast<long>(kHeaderSize + consumed);
  return true;
}

bool CheckpointFileReader::ReadElements(const CheckpointElementSink& sink,
                                        std::string* error) {
  constexpr uint64_t kBatchElements = 4096;
  const size_t elem_bytes = ElementBytes(header_.dims);
  std::string msg = kReadError;
  std::string buf;
  bool ok = file_ != nullptr &&
            std::fseek(file_, elements_offset_, SEEK_SET) == 0;
  for (uint64_t i = 0; ok && i < window_count_; i += kBatchElements) {
    buf.resize(std::min(kBatchElements, window_count_ - i) * elem_bytes);
    ok = std::fread(buf.data(), 1, buf.size(), file_) == buf.size() &&
         DecodeElements(buf, header_.dims, i, sink, &msg);
  }
  return ok || Fail(error, path_ + ": " + msg);
}

bool OpenLatestCheckpoint(
    const std::string& dir, CheckpointFileReader* reader,
    std::vector<std::string>* skipped, std::string* diagnostics,
    const std::function<bool(CheckpointFileReader*)>& accept) {
  for (const std::string& path : ListCheckpointFiles(dir)) {  // newest first
    std::string file_error;
    if (!reader->Open(path, &file_error)) {
      if (skipped != nullptr) skipped->push_back(path);
      if (!diagnostics->empty()) diagnostics->append("; ");
      diagnostics->append(file_error);
      continue;
    }
    if (!accept || accept(reader)) return true;
  }
  return false;
}

std::string EncodeCheckpoint(const CheckpointState& state) {
  std::string out = EncodeHeader(0, 0);
  uint32_t crc = 0;
  uint64_t payload_size = 0;
  EncodePayload(
      state, state.window.size(), IndexedSource(&state.window),
      [&out](std::string_view bytes) {
        out.append(bytes);
        return true;
      },
      &crc, &payload_size, nullptr);
  out.replace(0, kHeaderSize, EncodeHeader(crc, payload_size));
  return out;
}

bool DecodeCheckpoint(std::string_view bytes, CheckpointState* out,
                      std::string* error) {
  uint32_t crc = 0;
  uint64_t payload_size = 0;
  if (!DecodeHeader(bytes, &crc, &payload_size, error)) return false;
  const std::string_view payload = bytes.substr(kHeaderSize);
  CheckpointState state;
  uint64_t count = 0;
  size_t consumed = 0;
  if (!CheckPayload(payload_size, payload.size(), crc,
                    Crc32(payload.data(), payload.size()), error) ||
      !DecodeFixedFields(payload.substr(0, kMaxFixedBytes), payload_size,
                         &state, &count, &consumed, error)) {
    return false;
  }
  state.window.reserve(count);
  if (!DecodeElements(
          payload.substr(consumed), state.dims, 0,
          [&state](const UncertainElement& e) { state.window.push_back(e); },
          error)) {
    return false;
  }
  *out = std::move(state);
  return true;
}

bool WriteCheckpointFile(const std::string& path, const CheckpointState& state,
                         std::string* error, int* out_errno) {
  return WriteCheckpointFileStreamed(path, state, state.window.size(),
                                     IndexedSource(&state.window), error,
                                     out_errno);
}

bool ReadCheckpointFile(const std::string& path, CheckpointState* out,
                        std::string* error) {
  CheckpointFileReader reader;
  return reader.Open(path, error) && ReadWindow(&reader, out, error);
}

std::string CheckpointFileName(uint64_t elements_consumed) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "ckpt-%020llu.psky",
                static_cast<unsigned long long>(elements_consumed));
  return buf;
}

bool ParseCheckpointStep(const std::string& path, uint64_t* step) {
  const std::string name = std::filesystem::path(path).filename().string();
  if (name.size() != CheckpointFileName(0).size() ||
      !name.starts_with("ckpt-") || !name.ends_with(".psky")) {
    return false;
  }
  const char* digits = name.data() + 5;
  return std::from_chars(digits, digits + 20, *step).ptr == digits + 20;
}

std::vector<std::string> ListCheckpointFiles(const std::string& dir) {
  std::vector<std::string> files;
  std::error_code ec;
  uint64_t step = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (ParseCheckpointStep(entry.path().string(), &step)) {
      files.push_back(entry.path().string());
    }
  }
  // Zero-padded counts make lexicographic order stream order.
  std::sort(files.begin(), files.end(), std::greater<>());
  return files;
}

bool LoadLatestCheckpoint(const std::string& dir, CheckpointState* out,
                          std::string* error) {
  CheckpointFileReader reader;
  std::string diagnostics;
  if (!OpenLatestCheckpoint(dir, &reader, nullptr, &diagnostics)) {
    return Fail(error, diagnostics.empty() ? "no checkpoint files in " + dir
                                           : diagnostics);
  }
  if (error != nullptr) *error = diagnostics;  // warnings, if any
  return ReadWindow(&reader, out, error);
}

uint64_t PruneCheckpoints(const std::string& dir, size_t keep) {
  const std::vector<std::string> files = ListCheckpointFiles(dir);
  std::error_code ec;
  for (size_t i = keep; i < files.size(); ++i) {
    std::filesystem::remove(files[i], ec);
  }
  RemoveStaleCheckpointTemps(dir);
  uint64_t oldest = UINT64_MAX;
  if (keep > 0 && !files.empty()) {
    ParseCheckpointStep(files[std::min(keep, files.size()) - 1], &oldest);
  }
  return oldest;
}

size_t RemoveStaleCheckpointTemps(const std::string& dir) {
  size_t removed = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".tmp") {
      std::error_code rm_ec;
      if (std::filesystem::remove(entry.path(), rm_ec)) ++removed;
    }
  }
  return removed;
}

bool EnsureCheckpointDir(const std::string& dir, std::string* error) {
  std::error_code ec;
  if (std::filesystem::is_directory(dir, ec)) return true;
  if (std::filesystem::exists(dir, ec)) {
    *error = dir + " exists but is not a directory";
    return false;
  }
  if (!std::filesystem::create_directories(dir, ec)) {
    *error = "cannot create " + dir + ": " + ec.message();
    return false;
  }
  return true;
}

void ReplayWindow(const CheckpointState& state, WindowSkylineOperator* op) {
  for (const UncertainElement& e : state.window) op->Insert(e);
}

}  // namespace psky
