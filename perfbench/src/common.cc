#include "perfbench/src/common.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>

namespace perfbench {

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB.
}

double CurrentRssMb() {
  long pages = 0;
  long resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  const int read = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  if (read != 2) {
    return 0;
  }
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

RouterReplay ReplayRoutes(const saba::Topology& topology,
                          const std::vector<saba::RouteKey>& keys) {
  RouterReplay replay;
  // Return freed heap pages first, so the delta measures the router's live
  // allocations rather than what the allocator kept cached.
  malloc_trim(0);
  const double rss_before = CurrentRssMb();
  const Clock::time_point t0 = Clock::now();
  saba::Router router(&topology);
  for (const saba::RouteKey& key : keys) {
    router.Route(key.src, key.dst, key.salt);
  }
  replay.resolve_s = SecondsSince(t0);
  replay.rss_mb = CurrentRssMb() - rss_before;
  replay.routes = keys.size();
  return replay;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace perfbench
