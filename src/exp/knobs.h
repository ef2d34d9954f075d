// Environment-variable scale knobs for the benchmark binaries.
//
// Parsing is strict: a knob that is set but malformed is fatal, instead of
// std::atoi's silent 0 turning a typo'd variable into an empty sweep. Every
// knob read is recorded in a registry so each bench banner can print the
// exact knob set it ran with (SABA_SEED, SABA_JOBS and SABA_SHARDS excluded
// — the seed has its own banner line and the job/shard counts must not reach
// stdout, which is required to be byte-identical across thread and shard
// counts).

#ifndef SRC_EXP_KNOBS_H_
#define SRC_EXP_KNOBS_H_

#include <cstdint>
#include <string>

#include "src/sim/parse.h"  // ParseInt64 and ParseUint64, which the knobs and their callers use.

namespace saba {

// Integer knob from the environment with a default. A set-but-unparsable
// value aborts the process with a message naming the knob.
int EnvInt(const char* name, int fallback);

// SABA_SEED (same strictness as EnvInt; full uint64 range), 42 when unset.
uint64_t EnvSeed();

// SABA_JOBS: worker-thread count for SweepRunner. Unset or 0 means "all
// hardware threads". Negative values are rejected.
int EnvJobs();

// SABA_SHARDS: shard count (and flush worker count) for the distributed
// controller's sharded flush (DESIGN.md §7.3). Unset or 0 means "the bench's
// default sweep"; like SABA_JOBS it is excluded from KnobSummary —
// programmed state and merged stats are bit-identical at every setting, and
// bench stdout must stay byte-identical across shard counts (the CI
// determinism diff depends on it). Negative values are rejected.
int EnvShards();

// String knob from the environment with a default (e.g. an output path).
// Registered in the knob summary like the integer knobs; an empty value is
// taken literally, not as "unset".
std::string EnvString(const char* name, const std::string& fallback);

// "SABA_SETUPS=100 [default], SABA_FIG10_INSTANCES=8" for every knob read so
// far, in first-read order; empty if none. SABA_SEED, SABA_JOBS and
// SABA_SHARDS are omitted.
std::string KnobSummary();

}  // namespace saba

#endif  // SRC_EXP_KNOBS_H_
