#ifndef AUTOEM_ACTIVE_ACTIVE_CHECKPOINT_H_
#define AUTOEM_ACTIVE_ACTIVE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "active/active_learner.h"
#include "common/status.h"

namespace autoem {

/// One collected label of a labeling session.
struct ActiveLabeledRow {
  size_t pool_index = 0;
  int32_t label = 0;
  bool machine = false;  // true for self-training (machine) labels
};

/// State of AutoML-EM-Active — everything the loop reads and writes: the
/// RNG stream, the collected labels (so a resume never re-spends oracle
/// budget), the remaining pool order, the Remark-2 class ratio, and the
/// per-iteration stats. RunAutoMlEmActive works on one of these and saves
/// it at each iteration boundary. Nothing derivable is stored: the last
/// completed iteration is the last `stats` entry, the human and machine
/// label counts are counts over `labeled`, and the iteration model itself
/// is refitted from the same forest seed on the restored labels, which
/// reproduces it bit-identically. Counts and indices are written as u64.
///
/// Shares the AEMK container with search checkpoints (automl/checkpoint.h)
/// under its own kind, so the two flavors can never be confused.
struct ActiveCheckpoint {
  /// Seed of the checkpointed run; resuming under a different seed is
  /// refused.
  uint64_t seed = 0;
  /// mt19937_64 stream state (operator<< form) after the last completed
  /// iteration's draws.
  std::string rng_state;
  /// The per-iteration forest's seed (drawn once, before the loop and
  /// before the saved RNG state).
  uint64_t model_seed = 0;
  /// α, the positive ratio of the initial sample (Remark 2).
  double alpha = 0.0;
  std::vector<ActiveLabeledRow> labeled;
  /// Remaining unlabeled pool indices, in draw order.
  std::vector<size_t> unlabeled;
  /// ActiveLearningResult::iterations so far, numbered 0..n-1 (0 = only
  /// the initial sample is done).
  std::vector<ActiveIterationStats> stats;
};

/// Atomic write (temp + fsync + rename); a crash mid-save leaves the
/// previous checkpoint intact.
Status SaveActiveCheckpoint(const ActiveCheckpoint& state,
                            const std::string& path);

/// NotFound when `path` does not exist (callers start fresh);
/// InvalidArgument for wrong magic/version/kind, CRC mismatch, or
/// structural damage.
Result<ActiveCheckpoint> LoadActiveCheckpoint(const std::string& path);

/// In-memory halves of the file API (container + payload codec on raw
/// bytes); fuzz harnesses and corruption tests drive these directly.
std::string SerializeActiveCheckpoint(const ActiveCheckpoint& state);
Result<ActiveCheckpoint> DeserializeActiveCheckpoint(const std::string& bytes);

}  // namespace autoem

#endif  // AUTOEM_ACTIVE_ACTIVE_CHECKPOINT_H_
