#ifndef AUTOEM_IO_MODEL_IO_H_
#define AUTOEM_IO_MODEL_IO_H_

#include <string>

#include "common/status.h"
#include "em/matcher.h"
#include "io/container.h"

namespace autoem {
namespace io {

/// Versioned binary container for a *fitted* end-to-end matcher (feature
/// plan + preprocessing state + trained classifier): the io/container.h
/// layout under magic "AEMM", three sections. Doubles are stored by
/// IEEE-754 bit pattern (see serialize.h). Readers reject an unknown magic
/// or format version, a CRC mismatch, a duplicate, missing or unknown
/// section, and truncation at any offset with a non-OK Status — never UB.
/// The format version covers the *payload encodings* too: any change to a
/// section's internal layout bumps kModelFormatVersion (no in-place
/// compatibility shims; old binaries refuse new files and vice versa,
/// Cache-style versioning as in CalicoDB). See DESIGN.md §8 for the full
/// policy.
inline constexpr uint32_t kModelFormatVersion = 1;
inline constexpr ContainerFormat kModelFormat = {
    {'A', 'E', 'M', 'M'}, kModelFormatVersion, "model", "section"};

/// Section ids of format version 1.
enum class ModelSection : uint32_t {
  kMeta = 1,       // producer string, best validation F1
  kGenerator = 2,  // feature generator name + fitted plan
  kPipeline = 3,   // configuration + fitted transform/classifier state
};

/// Serializes a trained matcher to `path`. Returns Unimplemented when the
/// pipeline contains a component without persistence support (every
/// model-space default — the random forest family — is supported), IOError
/// on filesystem failures.
Status SaveModel(const EntityMatcher& matcher, const std::string& path);

/// Loads a matcher saved by SaveModel. The returned matcher scores pairs
/// bit-identically to the instance that was saved, at any thread count.
/// NotFound when `path` does not exist; corrupted, truncated, or
/// version-mismatched files yield InvalidArgument.
Result<EntityMatcher> LoadModel(const std::string& path);

/// In-memory variants (the file API is a thin wrapper; tests use these to
/// corrupt bytes deterministically).
Status SerializeModel(const EntityMatcher& matcher, std::string* out);
Result<EntityMatcher> DeserializeModel(const std::string& bytes);

}  // namespace io
}  // namespace autoem

#endif  // AUTOEM_IO_MODEL_IO_H_
