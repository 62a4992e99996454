#ifndef AUTOEM_COMMON_LOGGING_H_
#define AUTOEM_COMMON_LOGGING_H_

namespace autoem {
namespace internal {

/// Reports a failed invariant on stderr, then aborts. Out of line to keep
/// the macro expansion small and the header dependency-free.
[[noreturn]] void CheckFailed(const char* file, int line, const char* expr,
                              const char* msg);

}  // namespace internal
}  // namespace autoem

/// Internal invariant check. Unlike assert(), stays active in release builds:
/// the benchmarks run in Release and we want invariant violations loud.
#define AUTOEM_CHECK(cond)                                              \
  do {                                                                  \
    if (!(cond)) {                                                      \
      ::autoem::internal::CheckFailed(__FILE__, __LINE__, #cond,        \
                                      nullptr);                         \
    }                                                                   \
  } while (0)

#define AUTOEM_CHECK_MSG(cond, msg)                                     \
  do {                                                                  \
    if (!(cond)) {                                                      \
      ::autoem::internal::CheckFailed(__FILE__, __LINE__, #cond, (msg)); \
    }                                                                   \
  } while (0)

/// Debug-only invariant check: same behavior as AUTOEM_CHECK in Debug
/// builds, compiles to nothing in Release (NDEBUG). The condition is still
/// type-checked in Release but never evaluated — use it for checks that are
/// too hot for the release binaries.
#ifdef NDEBUG
#define AUTOEM_DCHECK(cond)      \
  do {                           \
    if (false && (cond)) {       \
    }                            \
  } while (0)
#else
#define AUTOEM_DCHECK(cond) AUTOEM_CHECK(cond)
#endif

#endif  // AUTOEM_COMMON_LOGGING_H_
