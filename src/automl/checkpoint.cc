#include "automl/checkpoint.h"

#include "automl/config_io.h"
#include "fault/failpoint.h"
#include "io/atomic_file.h"
#include "io/serialize.h"
#include "obs/obs.h"

namespace autoem {

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

// The search kind's section id (see checkpoint.h).
constexpr uint32_t kSearchKind = 1;

}  // namespace

std::string SerializeSearchCheckpoint(const SearchCheckpoint& state) {
  io::Writer payload;
  payload.U64(state.seed);
  payload.Str(state.rng_state);
  payload.F64(state.elapsed_seconds);
  payload.U64(state.history.size());
  for (const EvalRecord& record : state.history) {
    WriteEvalRecord(&payload, record);
  }
  return io::WriteContainer(kCheckpointFormat, {{kSearchKind, payload.data()}});
}

Result<SearchCheckpoint> DeserializeSearchCheckpoint(const std::string& bytes) {
  auto sections = io::ReadContainer(kCheckpointFormat, bytes, {kSearchKind});
  AUTOEM_RETURN_IF_ERROR(sections.status());
  io::Reader r(sections->front());
  SearchCheckpoint state;
  AUTOEM_RETURN_IF_ERROR(r.U64(&state.seed));
  AUTOEM_RETURN_IF_ERROR(r.Str(&state.rng_state));
  AUTOEM_RETURN_IF_ERROR(r.F64(&state.elapsed_seconds));
  uint64_t n_history;
  // Each record is at least a config count (8) + 3 doubles (24) + trial (4)
  // + elapsed (8) + failure byte (1) + message length (8) = 53 bytes.
  AUTOEM_RETURN_IF_ERROR(r.Len(&n_history, 53));
  state.history.resize(static_cast<size_t>(n_history));
  for (EvalRecord& record : state.history) {
    AUTOEM_RETURN_IF_ERROR(ReadEvalRecord(&r, &record));
  }
  if (r.remaining() != 0) {
    return Status::InvalidArgument("corrupt checkpoint: trailing bytes");
  }
  return state;
}

Status SaveSearchCheckpoint(const SearchCheckpoint& state,
                            const std::string& path) {
  obs::Span span("checkpoint.save");
  if (span.active()) {
    span.Arg("path", path);
    span.Arg("trials", state.history.size());
  }
  AUTOEM_FAILPOINT("checkpoint.write");
  AUTOEM_RETURN_IF_ERROR(
      io::AtomicWriteFile(path, SerializeSearchCheckpoint(state)));
  AUTOEM_LOG(DEBUG) << "checkpoint: saved " << state.history.size()
                    << " trials to " << path;
  return Status::OK();
}

Result<SearchCheckpoint> LoadSearchCheckpoint(const std::string& path) {
  AUTOEM_FAILPOINT("checkpoint.read");
  std::string bytes;
  AUTOEM_RETURN_IF_ERROR(io::ReadFileToString(path, &bytes));
  return DeserializeSearchCheckpoint(bytes);
}

}  // namespace autoem
