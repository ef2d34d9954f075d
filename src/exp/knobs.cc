#include "src/exp/knobs.h"

#include <cstdlib>
#include <iostream>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace saba {
namespace {

struct Knob {
  std::string name;
  std::string value;
  bool from_env = false;
};

// saba-lint: shared-state-ok(the mutex IS the synchronization: every registry access below
// locks it, and it is never held across user code, so no ordering leaks out)
// saba-lint: allow(R7): guards only the knob registry, never held across user code.
std::mutex registry_mutex;
std::vector<Knob>& Registry() {
  // Leaked-singleton: the pointer is set once (const), only the pointee
  // mutates, and every mutation happens under registry_mutex.
  static std::vector<Knob>* const knobs = new std::vector<Knob>();
  return *knobs;
}

void RecordKnob(const char* name, const std::string& value, bool from_env) {
  std::lock_guard<std::mutex> lock(registry_mutex);  // saba-lint: allow(R7): registry lock.
  for (const Knob& knob : Registry()) {
    if (knob.name == name) {
      return;  // First read wins; repeated reads see the same environment.
    }
  }
  Registry().push_back({name, value, from_env});
}

[[noreturn]] void DieInvalidKnob(const char* name, const char* value) {
  std::cerr << "fatal: " << name << "='" << value
            << "' is not an integer; refusing to run a mis-scaled sweep\n";
  std::exit(2);
}

}  // namespace

int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) {
    RecordKnob(name, std::to_string(fallback), /*from_env=*/false);
    return fallback;
  }
  const std::optional<int64_t> parsed = ParseInt64(value);
  if (!parsed.has_value() || *parsed < std::numeric_limits<int>::min() ||
      *parsed > std::numeric_limits<int>::max()) {
    DieInvalidKnob(name, value);
  }
  RecordKnob(name, value, /*from_env=*/true);
  return static_cast<int>(*parsed);
}

uint64_t EnvSeed() {
  constexpr uint64_t kDefaultSeed = 42;
  const char* value = std::getenv("SABA_SEED");
  if (value == nullptr) {
    RecordKnob("SABA_SEED", std::to_string(kDefaultSeed), /*from_env=*/false);
    return kDefaultSeed;
  }
  const std::optional<uint64_t> parsed = ParseUint64(value);
  if (!parsed.has_value()) {
    DieInvalidKnob("SABA_SEED", value);
  }
  RecordKnob("SABA_SEED", value, /*from_env=*/true);
  return *parsed;
}

int EnvJobs() {
  const int jobs = EnvInt("SABA_JOBS", 0);
  if (jobs < 0) {
    std::cerr << "fatal: SABA_JOBS='" << jobs
              << "' must be >= 0 (0 means all hardware threads)\n";
    std::exit(2);
  }
  if (jobs > 0) {
    return jobs;
  }
  // saba-lint: allow(R7): queries the thread count, constructs no thread.
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? static_cast<int>(hardware) : 1;
}

int EnvShards() {
  const int shards = EnvInt("SABA_SHARDS", 0);
  if (shards < 0) {
    std::cerr << "fatal: SABA_SHARDS='" << shards
              << "' must be >= 0 (0 means the bench's default shard sweep)\n";
    std::exit(2);
  }
  return shards;
}

std::string EnvString(const char* name, const std::string& fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) {
    RecordKnob(name, fallback, /*from_env=*/false);
    return fallback;
  }
  RecordKnob(name, value, /*from_env=*/true);
  return value;
}

std::string KnobSummary() {
  std::lock_guard<std::mutex> lock(registry_mutex);  // saba-lint: allow(R7): registry lock.
  std::string out;
  for (const Knob& knob : Registry()) {
    if (knob.name == "SABA_SEED" || knob.name == "SABA_JOBS" || knob.name == "SABA_SHARDS") {
      continue;
    }
    if (!out.empty()) {
      out += ", ";
    }
    out += knob.name + "=" + knob.value;
    if (!knob.from_env) {
      out += " [default]";
    }
  }
  return out;
}

}  // namespace saba
