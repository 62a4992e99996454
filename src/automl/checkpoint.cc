#include "automl/checkpoint.h"

#include <cstring>
#include <utility>

#include "automl/config_io.h"
#include "fault/failpoint.h"
#include "io/atomic_file.h"
#include "io/serialize.h"
#include "obs/obs.h"

namespace autoem {

std::string SerializeCheckpointBytes(uint8_t kind, const io::Writer& payload) {
  io::Writer file;
  for (char c : kCheckpointMagic) file.U8(static_cast<uint8_t>(c));
  file.U32(kCheckpointFormatVersion);
  file.U8(kind);
  file.U64(payload.size());
  file.U32(io::Crc32(payload.data()));
  file.Raw(payload.data());
  return file.data();
}

Status WriteCheckpointFile(uint8_t kind, const io::Writer& payload,
                           const std::string& path) {
  AUTOEM_FAILPOINT("checkpoint.write");
  return io::AtomicWriteFile(path, SerializeCheckpointBytes(kind, payload));
}

Result<std::string> ReadCheckpointFile(uint8_t kind, const std::string& path) {
  AUTOEM_FAILPOINT("checkpoint.read");
  std::string bytes;
  AUTOEM_RETURN_IF_ERROR(io::ReadFileToString(path, &bytes));
  return ParseCheckpointBytes(kind, bytes);
}

Result<std::string> ParseCheckpointBytes(uint8_t kind,
                                         const std::string& bytes) {
  io::Reader r(bytes);
  char magic[4];
  for (char& c : magic) {
    uint8_t b;
    AUTOEM_RETURN_IF_ERROR(r.U8(&b));
    c = static_cast<char>(b);
  }
  if (std::memcmp(magic, kCheckpointMagic, sizeof(kCheckpointMagic)) != 0) {
    return Status::InvalidArgument("not an autoem checkpoint file (bad magic)");
  }
  uint32_t version;
  AUTOEM_RETURN_IF_ERROR(r.U32(&version));
  if (version != kCheckpointFormatVersion) {
    return Status::InvalidArgument(
        "unsupported checkpoint format version " + std::to_string(version) +
        " (this build reads version " +
        std::to_string(kCheckpointFormatVersion) + ")");
  }
  uint8_t file_kind;
  AUTOEM_RETURN_IF_ERROR(r.U8(&file_kind));
  if (file_kind != kind) {
    return Status::InvalidArgument(
        "checkpoint kind mismatch: file has kind " +
        std::to_string(file_kind) + ", expected " + std::to_string(kind));
  }
  uint64_t size;
  uint32_t crc;
  AUTOEM_RETURN_IF_ERROR(r.U64(&size));
  AUTOEM_RETURN_IF_ERROR(r.U32(&crc));
  if (size != r.remaining()) {
    return Status::InvalidArgument("truncated checkpoint file");
  }
  std::string payload = bytes.substr(r.pos());
  if (io::Crc32(payload) != crc) {
    return Status::InvalidArgument("corrupt checkpoint file: CRC mismatch");
  }
  return payload;
}

namespace {

// The EvalRecord fields a resumed search reads back. Telemetry is not
// among them.
void WriteEvalRecord(io::Writer* w, const EvalRecord& record) {
  WriteConfigurationBinary(w, record.config);
  w->F64(record.valid_f1);
  w->F64(record.test_f1);
  w->F64(record.fit_seconds);
  w->I32(record.trial);
  w->F64(record.elapsed_seconds);
  w->U8(static_cast<uint8_t>(record.failure));
  w->Str(record.failure_message);
}

Status ReadEvalRecord(io::Reader* r, EvalRecord* record) {
  AUTOEM_RETURN_IF_ERROR(ReadConfigurationBinary(r, &record->config));
  AUTOEM_RETURN_IF_ERROR(r->F64(&record->valid_f1));
  AUTOEM_RETURN_IF_ERROR(r->F64(&record->test_f1));
  AUTOEM_RETURN_IF_ERROR(r->F64(&record->fit_seconds));
  AUTOEM_RETURN_IF_ERROR(r->I32(&record->trial));
  AUTOEM_RETURN_IF_ERROR(r->F64(&record->elapsed_seconds));
  uint8_t failure;
  AUTOEM_RETURN_IF_ERROR(r->U8(&failure));
  if (failure > static_cast<uint8_t>(TrialFailure::kNonFinite)) {
    return Status::InvalidArgument("checkpoint: unknown trial failure tag " +
                                   std::to_string(failure));
  }
  record->failure = static_cast<TrialFailure>(failure);
  return r->Str(&record->failure_message);
}

void WriteSearchPayload(const SearchCheckpoint& state, io::Writer* payload) {
  payload->U64(state.seed);
  payload->Str(state.rng_state);
  payload->U8(state.interleave_random ? 1 : 0);
  payload->F64(state.elapsed_seconds);
  payload->U64(state.history.size());
  for (const EvalRecord& record : state.history) {
    WriteEvalRecord(payload, record);
  }
  payload->U64(state.failed_hashes.size());
  for (uint64_t hash : state.failed_hashes) payload->U64(hash);
}

}  // namespace

std::string SerializeSearchCheckpoint(const SearchCheckpoint& state) {
  io::Writer payload;
  WriteSearchPayload(state, &payload);
  return SerializeCheckpointBytes(kSearchCheckpointKind, payload);
}

Status SaveSearchCheckpoint(const SearchCheckpoint& state,
                            const std::string& path) {
  obs::Span span("checkpoint.save");
  if (span.active()) {
    span.Arg("path", path);
    span.Arg("trials", state.history.size());
  }
  io::Writer payload;
  WriteSearchPayload(state, &payload);
  AUTOEM_RETURN_IF_ERROR(
      WriteCheckpointFile(kSearchCheckpointKind, payload, path));
  AUTOEM_LOG(DEBUG) << "checkpoint: saved " << state.history.size()
                    << " trials to " << path;
  return Status::OK();
}

namespace {

Result<SearchCheckpoint> ParseSearchPayload(const std::string& payload) {
  io::Reader r(payload);
  SearchCheckpoint state;
  AUTOEM_RETURN_IF_ERROR(r.U64(&state.seed));
  AUTOEM_RETURN_IF_ERROR(r.Str(&state.rng_state));
  uint8_t interleave;
  AUTOEM_RETURN_IF_ERROR(r.U8(&interleave));
  state.interleave_random = interleave != 0;
  AUTOEM_RETURN_IF_ERROR(r.F64(&state.elapsed_seconds));
  uint64_t n_history;
  // Each record is at least a config count (8) + 3 doubles (24) + trial (4)
  // + elapsed (8) + failure byte (1) + message length (8) = 53 bytes.
  AUTOEM_RETURN_IF_ERROR(r.Len(&n_history, 53));
  state.history.resize(static_cast<size_t>(n_history));
  for (EvalRecord& record : state.history) {
    AUTOEM_RETURN_IF_ERROR(ReadEvalRecord(&r, &record));
  }
  uint64_t n_failed;
  AUTOEM_RETURN_IF_ERROR(r.Len(&n_failed, 8));
  state.failed_hashes.resize(static_cast<size_t>(n_failed));
  for (uint64_t& hash : state.failed_hashes) {
    AUTOEM_RETURN_IF_ERROR(r.U64(&hash));
  }
  if (r.remaining() != 0) {
    return Status::InvalidArgument("corrupt checkpoint: trailing bytes");
  }
  return state;
}

}  // namespace

Result<SearchCheckpoint> LoadSearchCheckpoint(const std::string& path) {
  auto payload = ReadCheckpointFile(kSearchCheckpointKind, path);
  if (!payload.ok()) return payload.status();
  return ParseSearchPayload(*payload);
}

Result<SearchCheckpoint> DeserializeSearchCheckpoint(const std::string& bytes) {
  auto payload = ParseCheckpointBytes(kSearchCheckpointKind, bytes);
  if (!payload.ok()) return payload.status();
  return ParseSearchPayload(*payload);
}

}  // namespace autoem
