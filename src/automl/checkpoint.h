#ifndef AUTOEM_AUTOML_CHECKPOINT_H_
#define AUTOEM_AUTOML_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "automl/evaluator.h"
#include "common/status.h"
#include "io/container.h"

namespace autoem {

/// Crash-safe search checkpointing: the io/container.h layout under magic
/// "AEMK", written via io::AtomicWriteFile. A checkpoint holds resume state
/// only — run history, RNG stream, elapsed clock — so a SIGKILLed run
/// resumed from its last checkpoint replays the exact remaining trials and
/// reaches a bit-identical final model. Nothing that can be computed from
/// the rest is stored: the quarantine is the set of failed trials in the
/// history, and SMAC's interleave phase is positional. Per-trial telemetry
/// is a measurement, not state: it is not written, and restored trials
/// come back unmeasured.
///
/// A checkpoint file has one section, and its id is the checkpoint kind:
/// 1 for a search, 2 for a labeling session (active/active_checkpoint.h),
/// so neither ever resumes from the other's file. The version covers both
/// payload layouts; readers accept exactly the current one and reject every
/// other version and any CRC/structure damage with InvalidArgument. There
/// are no migration shims: a checkpoint only has to outlive the run it
/// protects, and starting that run afresh is the upgrade path.
inline constexpr uint32_t kCheckpointFormatVersion = 6;
inline constexpr io::ContainerFormat kCheckpointFormat = {
    {'A', 'E', 'M', 'K'}, kCheckpointFormatVersion, "checkpoint", "kind"};

/// State of a (random or SMAC) pipeline search at a trial boundary.
struct SearchCheckpoint {
  /// Seed the checkpointed run was launched with; resuming under a
  /// different seed is refused (the RNG stream would be meaningless).
  uint64_t seed = 0;
  /// mt19937_64 stream state (operator<< form) at the checkpoint.
  std::string rng_state;
  /// Wall clock consumed before the checkpoint; resumed runs offset their
  /// tuning-curve clock and time budget by this.
  double elapsed_seconds = 0.0;
  /// Every completed trial, in order (the search-local trajectory). Its
  /// failed trials are the quarantine.
  std::vector<EvalRecord> history;
};

/// Atomic write of the checkpoint (temp + fsync + rename); a crash mid-save
/// leaves the previous checkpoint intact.
Status SaveSearchCheckpoint(const SearchCheckpoint& state,
                            const std::string& path);

/// NotFound when `path` does not exist (callers treat that as "start
/// fresh"); InvalidArgument for wrong magic/version/kind, CRC mismatch, or
/// structural damage.
Result<SearchCheckpoint> LoadSearchCheckpoint(const std::string& path);

/// In-memory halves of the file API: the exact bytes SaveSearchCheckpoint
/// writes, and their parse. Fuzz harnesses and corruption tests drive these
/// directly on raw bytes without touching the filesystem.
std::string SerializeSearchCheckpoint(const SearchCheckpoint& state);
Result<SearchCheckpoint> DeserializeSearchCheckpoint(const std::string& bytes);

}  // namespace autoem

#endif  // AUTOEM_AUTOML_CHECKPOINT_H_
