#ifndef AUTOEM_AUTOML_CONFIG_IO_H_
#define AUTOEM_AUTOML_CONFIG_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "automl/evaluator.h"
#include "automl/param_space.h"
#include "common/status.h"

namespace autoem {

namespace io {
class Writer;
class Reader;
}  // namespace io

/// Serializes a configuration to a stable, human-editable text form:
/// one `key = value` per line, keys sorted; strings single-quoted,
/// booleans as true/false, numbers in round-trip precision.
///
/// Together with AutoMlEmOptions::warm_start_configs this lets a search
/// persist its winner and seed the next run (the repo's simple
/// meta-learning workflow).
std::string SerializeConfiguration(const Configuration& config);

/// Parses the SerializeConfiguration format. Unknown lines and malformed
/// entries produce InvalidArgument; blank lines and `#` comments are
/// ignored.
Result<Configuration> ParseConfiguration(const std::string& text);

/// File convenience wrappers; loading a missing file is NotFound.
Status SaveConfiguration(const Configuration& config,
                         const std::string& path);
Result<Configuration> LoadConfiguration(const std::string& path);

/// Stable 64-bit FNV-1a hash of the serialized configuration — the compact
/// pipeline identifier used by trace spans and trajectory dumps. Identical
/// configurations hash identically across runs and processes.
uint64_t ConfigurationHash(const Configuration& config);

/// Binary Configuration codec shared by the model container
/// (EmPipeline::SaveFitted) and search checkpoints. std::map iterates in key
/// order, so equal configurations encode to equal bytes — which is what
/// makes byte-identical models/checkpoints possible.
void WriteConfigurationBinary(io::Writer* w, const Configuration& config);
Status ReadConfigurationBinary(io::Reader* r, Configuration* config);

/// Serializes a search trajectory (AutoMlEmResult::trajectory) as CSV with
/// header
///   trial,elapsed_seconds,fit_seconds,valid_f1,test_f1,best_f1_so_far,
///   config_hash,cpu_seconds,peak_rss_delta_kb,allocs,profile_samples,
///   pool_wait_micros,pool_busy_micros,failure
/// — one row per evaluation, the complete Fig. 3-style tuning curve,
/// reproducible without re-running the search. `config_hash` is
/// ConfigurationHash in hex. The six columns after it are the trial's
/// TrialTelemetry (TrialTelemetry::kColumns); a cell is empty when its
/// source was off, and on the rows a resumed run restored from its
/// checkpoint. `failure` is the TrialFailureName. New columns ride before
/// `failure`, so the original column indices stay stable.
std::string SerializeTrajectoryCsv(const std::vector<EvalRecord>& trajectory);
Status SaveTrajectory(const std::vector<EvalRecord>& trajectory,
                      const std::string& path);

}  // namespace autoem

#endif  // AUTOEM_AUTOML_CONFIG_IO_H_
