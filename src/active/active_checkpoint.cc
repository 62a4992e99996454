#include "active/active_checkpoint.h"

#include "automl/checkpoint.h"
#include "io/serialize.h"
#include "obs/obs.h"

namespace autoem {

namespace {

void WriteActivePayload(const ActiveCheckpoint& state, io::Writer* payload);

}  // namespace

std::string SerializeActiveCheckpoint(const ActiveCheckpoint& state) {
  io::Writer payload;
  WriteActivePayload(state, &payload);
  return SerializeCheckpointBytes(kActiveCheckpointKind, payload);
}

Status SaveActiveCheckpoint(const ActiveCheckpoint& state,
                            const std::string& path) {
  obs::Span span("active_checkpoint.save");
  if (span.active()) {
    span.Arg("path", path);
    span.Arg("iteration", state.iteration);
  }
  io::Writer payload;
  WriteActivePayload(state, &payload);
  AUTOEM_RETURN_IF_ERROR(
      WriteCheckpointFile(kActiveCheckpointKind, payload, path));
  AUTOEM_LOG(DEBUG) << "active_checkpoint: saved iteration "
                    << state.iteration << " to " << path;
  return Status::OK();
}

namespace {

void WriteActivePayload(const ActiveCheckpoint& state, io::Writer* w) {
  io::Writer& payload = *w;
  payload.U64(state.seed);
  payload.Str(state.rng_state);
  payload.U64(state.model_seed);
  payload.U64(state.iteration);
  payload.F64(state.alpha);
  payload.U64(state.human_used);
  payload.U64(state.machine_added);
  payload.U64(state.machine_correct);
  payload.U64(state.labeled.size());
  for (const ActiveLabeledRow& row : state.labeled) {
    payload.U64(row.pool_index);
    payload.I32(row.label);
    payload.U8(row.machine ? 1 : 0);
  }
  payload.VecIdx(state.unlabeled);
  payload.U64(state.stats.size());
  for (const ActiveIterationStats& s : state.stats) {
    payload.U64(s.iteration);
    payload.U64(s.human_labels);
    payload.U64(s.machine_labels);
    payload.F64(s.iteration_model_test_f1);
  }
}

// Reads one u64 count or index into a size_t field.
Status ReadSize(io::Reader* r, size_t* out) {
  uint64_t value;
  AUTOEM_RETURN_IF_ERROR(r->U64(&value));
  *out = static_cast<size_t>(value);
  return Status::OK();
}

Result<ActiveCheckpoint> ParseActivePayload(const std::string& payload) {
  io::Reader r(payload);
  ActiveCheckpoint state;
  AUTOEM_RETURN_IF_ERROR(r.U64(&state.seed));
  AUTOEM_RETURN_IF_ERROR(r.Str(&state.rng_state));
  AUTOEM_RETURN_IF_ERROR(r.U64(&state.model_seed));
  AUTOEM_RETURN_IF_ERROR(ReadSize(&r, &state.iteration));
  AUTOEM_RETURN_IF_ERROR(r.F64(&state.alpha));
  AUTOEM_RETURN_IF_ERROR(ReadSize(&r, &state.human_used));
  AUTOEM_RETURN_IF_ERROR(ReadSize(&r, &state.machine_added));
  AUTOEM_RETURN_IF_ERROR(ReadSize(&r, &state.machine_correct));
  uint64_t n_labeled;
  AUTOEM_RETURN_IF_ERROR(r.Len(&n_labeled, 13));  // u64 + i32 + u8
  state.labeled.resize(static_cast<size_t>(n_labeled));
  for (ActiveLabeledRow& row : state.labeled) {
    AUTOEM_RETURN_IF_ERROR(ReadSize(&r, &row.pool_index));
    AUTOEM_RETURN_IF_ERROR(r.I32(&row.label));
    uint8_t machine;
    AUTOEM_RETURN_IF_ERROR(r.U8(&machine));
    row.machine = machine != 0;
  }
  AUTOEM_RETURN_IF_ERROR(r.VecIdx(&state.unlabeled));
  uint64_t n_stats;
  AUTOEM_RETURN_IF_ERROR(r.Len(&n_stats, 32));  // 3x u64 + f64
  state.stats.resize(static_cast<size_t>(n_stats));
  for (ActiveIterationStats& s : state.stats) {
    AUTOEM_RETURN_IF_ERROR(ReadSize(&r, &s.iteration));
    AUTOEM_RETURN_IF_ERROR(ReadSize(&r, &s.human_labels));
    AUTOEM_RETURN_IF_ERROR(ReadSize(&r, &s.machine_labels));
    AUTOEM_RETURN_IF_ERROR(r.F64(&s.iteration_model_test_f1));
  }
  if (r.remaining() != 0) {
    return Status::InvalidArgument("corrupt checkpoint: trailing bytes");
  }
  return state;
}

}  // namespace

Result<ActiveCheckpoint> LoadActiveCheckpoint(const std::string& path) {
  auto payload = ReadCheckpointFile(kActiveCheckpointKind, path);
  if (!payload.ok()) return payload.status();
  return ParseActivePayload(*payload);
}

Result<ActiveCheckpoint> DeserializeActiveCheckpoint(const std::string& bytes) {
  auto payload = ParseCheckpointBytes(kActiveCheckpointKind, bytes);
  if (!payload.ok()) return payload.status();
  return ParseActivePayload(*payload);
}

}  // namespace autoem
