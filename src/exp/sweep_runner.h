// Deterministic parallel sweep engine for the figure benches.
//
// A sweep is N independent tasks — the (setup × scenario × policy) cells of
// an experiment grid. Tasks are fanned across SABA_JOBS worker threads, which
// claim task indices in ascending order; determinism comes from two rules:
//
//   1. a task's randomness derives only from (root_seed, task_index) via
//      Rng::ForStream — never from a generator shared across tasks — and
//   2. results land in a slot indexed by task number, so collection order is
//      the task order regardless of which thread finished when.
//
// Under those rules the sweep's output is bit-for-bit identical for every
// thread count (tested in tests/sweep_runner_test.cc; contract documented in
// DESIGN.md "Determinism & threading model").
//
// Threads come from the shared saba::WorkerPool primitive
// (src/sim/worker_pool.h) — the same pool substrate the distributed
// controller's sharded flush uses (DESIGN.md §7.3). SweepRunner adds the
// per-task exception transport and timing on top; a one-job pool runs the
// tasks inline, in index order, on the calling thread.

#ifndef SRC_EXP_SWEEP_RUNNER_H_
#define SRC_EXP_SWEEP_RUNNER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/rng.h"
#include "src/sim/worker_pool.h"

namespace saba {

// Throughput counters of the last sweep, for the benches' stderr banners.
struct SweepStats {
  size_t num_tasks = 0;
  int jobs = 1;              // Threads that could work at once: min(jobs, tasks).
  double wall_seconds = 0;   // Whole-sweep elapsed time.
  double task_seconds = 0;   // Sum of per-task elapsed times.

  double TasksPerSecond() const;
  // Aggregate task time over wall time: ~jobs when the sweep scales, ~1 when
  // it is serialized.
  double Speedup() const;
  // "11 tasks in 2.41 s on 8 jobs: 4.6 tasks/s, speedup 7.2x".
  std::string Summary() const;
};

class SweepRunner {
 public:
  // jobs <= 0 uses the SABA_JOBS environment knob (EnvJobs()).
  explicit SweepRunner(int jobs = 0);

  int jobs() const { return jobs_; }
  const SweepStats& stats() const { return stats_; }

  // Runs task(i) for every i in [0, num_tasks); returns results in task
  // order. A throwing task aborts the sweep: tasks above the lowest failed
  // index are skipped, tasks below it still run, and after all workers have
  // stopped the lowest-index exception is rethrown — the serial run's error,
  // at every job count.
  template <typename T>
  std::vector<T> Map(size_t num_tasks, const std::function<T(size_t)>& task) {
    std::vector<T> results(num_tasks);
    RunIndexed(num_tasks, [&](size_t i) { results[i] = task(i); });
    return results;
  }

  // Seeded variant: task(i, rng) where rng is the task-private stream
  // Rng::ForStream(root_seed, i).
  template <typename T>
  std::vector<T> MapSeeded(size_t num_tasks, uint64_t root_seed,
                           const std::function<T(size_t, Rng*)>& task) {
    return Map<T>(num_tasks, [root_seed, &task](size_t i) {
      Rng rng = Rng::ForStream(root_seed, i);
      return task(i, &rng);
    });
  }

 private:
  void RunIndexed(size_t num_tasks, const std::function<void(size_t)>& body);

  int jobs_;
  SweepStats stats_;
  std::unique_ptr<WorkerPool> pool_;  // Created on the first sweep.
};

}  // namespace saba

#endif  // SRC_EXP_SWEEP_RUNNER_H_
