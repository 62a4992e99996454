#ifndef AUTOEM_AUTOML_CHECKPOINT_H_
#define AUTOEM_AUTOML_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "automl/evaluator.h"
#include "common/status.h"

namespace autoem {

namespace io {
class Writer;
}  // namespace io

/// Crash-safe search checkpointing ("AEMK" container, CRC-protected,
/// written via io::AtomicWriteFile). A checkpoint holds resume state only —
/// run history, RNG stream, phase flags, quarantined configs — so a
/// SIGKILLed run resumed from its last checkpoint replays the exact
/// remaining trials and reaches a bit-identical final model. Per-trial
/// telemetry is a measurement, not state: it is not written, and restored
/// trials come back unmeasured.
///
/// Format versioned independently of the model container. Any layout
/// change bumps the version; readers accept exactly the current one and
/// reject every other version and any CRC/structure damage with
/// InvalidArgument. There are no migration shims: a checkpoint only has to
/// outlive the run it protects, and starting that run afresh is the
/// upgrade path.

inline constexpr char kCheckpointMagic[4] = {'A', 'E', 'M', 'K'};
inline constexpr uint32_t kCheckpointFormatVersion = 5;

/// Payload discriminator inside the container, so a search never resumes
/// from an active-learning checkpoint (or vice versa).
inline constexpr uint8_t kSearchCheckpointKind = 1;
inline constexpr uint8_t kActiveCheckpointKind = 2;

/// State of a (random or SMAC) pipeline search at a trial boundary.
struct SearchCheckpoint {
  /// Seed the checkpointed run was launched with; resuming under a
  /// different seed is refused (the RNG stream would be meaningless).
  uint64_t seed = 0;
  /// mt19937_64 stream state (operator<< form) at the checkpoint.
  std::string rng_state;
  /// SMAC's random-interleave phase flag, captured pre-evaluation so the
  /// resumed loop continues with the correct next step.
  bool interleave_random = false;
  /// Wall clock consumed before the checkpoint; resumed runs offset their
  /// tuning-curve clock and time budget by this.
  double elapsed_seconds = 0.0;
  /// Every completed trial, in order (the search-local trajectory).
  std::vector<EvalRecord> history;
  /// ConfigurationHash of every quarantined config (sorted); these are
  /// never re-proposed.
  std::vector<uint64_t> failed_hashes;
};

/// Atomic write of the checkpoint (temp + fsync + rename); a crash mid-save
/// leaves the previous checkpoint intact.
Status SaveSearchCheckpoint(const SearchCheckpoint& state,
                            const std::string& path);

/// In-memory half of SaveSearchCheckpoint: the exact bytes the file API
/// writes. Fuzz corpora and corruption tests build containers through this.
std::string SerializeSearchCheckpoint(const SearchCheckpoint& state);

/// NotFound when `path` does not exist (callers treat that as "start
/// fresh"); InvalidArgument for wrong magic/version/kind, CRC mismatch, or
/// structural damage.
Result<SearchCheckpoint> LoadSearchCheckpoint(const std::string& path);

/// Container plumbing shared with the active-learning checkpoint
/// (src/active/active_checkpoint.h): wraps `payload` in the AEMK envelope
/// (magic, version, kind, size, CRC) and writes it atomically / validates
/// and unwraps it. Exposed so every checkpoint flavor gets identical
/// corruption detection.
Status WriteCheckpointFile(uint8_t kind, const io::Writer& payload,
                           const std::string& path);

/// The AEMK envelope bytes for `payload` (what WriteCheckpointFile writes).
std::string SerializeCheckpointBytes(uint8_t kind, const io::Writer& payload);

/// Validates the envelope and returns the unwrapped payload bytes.
Result<std::string> ReadCheckpointFile(uint8_t kind, const std::string& path);

/// In-memory halves of the file API. The loaders are thin wrappers around
/// these; fuzz harnesses and corruption tests drive them directly on raw
/// bytes without touching the filesystem.
Result<std::string> ParseCheckpointBytes(uint8_t kind,
                                         const std::string& bytes);
Result<SearchCheckpoint> DeserializeSearchCheckpoint(const std::string& bytes);

}  // namespace autoem

#endif  // AUTOEM_AUTOML_CHECKPOINT_H_
