#include "src/exp/sweep_runner.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <sstream>

#include "src/exp/knobs.h"
#include "src/sim/wallclock.h"
#include "src/sim/worker_pool.h"

namespace saba {

double SweepStats::TasksPerSecond() const {
  return wall_seconds > 0 ? static_cast<double>(num_tasks) / wall_seconds : 0.0;
}

double SweepStats::Speedup() const {
  return wall_seconds > 0 ? task_seconds / wall_seconds : 1.0;
}

std::string SweepStats::Summary() const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(2);
  os << num_tasks << " task" << (num_tasks == 1 ? "" : "s") << " in " << wall_seconds << " s on "
     << jobs << " job" << (jobs == 1 ? "" : "s") << ": " << TasksPerSecond()
     << " tasks/s, speedup " << Speedup() << "x";
  return os.str();
}

SweepRunner::SweepRunner(int jobs) : jobs_(jobs > 0 ? jobs : EnvJobs()) {}

void SweepRunner::RunIndexed(size_t num_tasks, const std::function<void(size_t)>& body) {
  stats_ = SweepStats{};
  stats_.num_tasks = num_tasks;
  stats_.jobs = static_cast<int>(std::clamp<size_t>(num_tasks, 1, static_cast<size_t>(jobs_)));
  if (num_tasks == 0) {
    return;
  }
  Stopwatch wall;
  if (pool_ == nullptr) {
    pool_ = std::make_unique<WorkerPool>(jobs_);
  }
  // One error and one timing slot per task. Only tasks above the lowest
  // failed index so far are skipped, so the lowest-index thrower always runs
  // and its error is the one rethrown, whichever thread lost a race.
  std::vector<std::exception_ptr> errors(num_tasks);
  std::vector<double> task_seconds(num_tasks, 0.0);
  std::atomic<size_t> lowest_failed{num_tasks};

  // saba-lint: pool-capture-ok(every write is index-owned: errors[index],
  // task_seconds[index] and the task's result slot belong to exactly one task,
  // and `lowest_failed` is an atomic — no captured reference is written from
  // two workers, §7.3)
  pool_->Run(num_tasks, [&](size_t index) {
    if (index > lowest_failed.load(std::memory_order_relaxed)) {
      return;  // A lower-index task failed: claim (to terminate) but skip.
    }
    Stopwatch task_watch;
    try {
      body(index);
    } catch (...) {
      errors[index] = std::current_exception();
      size_t seen = lowest_failed.load(std::memory_order_relaxed);
      while (index < seen && !lowest_failed.compare_exchange_weak(seen, index)) {
        // A failed exchange reloaded `seen`; retry while this index is lower.
      }
    }
    task_seconds[index] = task_watch.ElapsedSeconds();
  });

  for (double seconds : task_seconds) {
    stats_.task_seconds += seconds;
  }
  stats_.wall_seconds = wall.ElapsedSeconds();
  if (lowest_failed < num_tasks) {
    std::rethrow_exception(errors[lowest_failed]);
  }
}

}  // namespace saba
