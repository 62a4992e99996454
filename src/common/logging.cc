#include "common/logging.h"

#include <cstdio>
#include <cstdlib>

namespace autoem {
namespace internal {

[[noreturn]] void CheckFailed(const char* file, int line, const char* expr,
                              const char* msg) {
  if (msg != nullptr) {
    std::fprintf(stderr, "AUTOEM_CHECK failed at %s:%d: %s (%s)\n", file,
                 line, expr, msg);
  } else {
    std::fprintf(stderr, "AUTOEM_CHECK failed at %s:%d: %s\n", file, line,
                 expr);
  }
  std::abort();
}

}  // namespace internal
}  // namespace autoem
