#include "src/sim/log.h"

#include <cstdio>

namespace saba {

void LogWarning(const std::string& message) {
  std::fprintf(stderr, "[WARN] %s\n", message.c_str());
}

}  // namespace saba
