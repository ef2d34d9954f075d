// Shared deterministic worker pool — the one blessed home for thread
// construction in this repository.
//
// Both inter-instance parallelism (SweepRunner fanning bench tasks, DESIGN.md
// §7) and intra-instance parallelism (the distributed controller flushing
// its shards concurrently, DESIGN.md §7.3) run on this primitive instead of
// spawning their own threads. Centralizing thread and
// lock construction keeps the determinism argument auditable — saba-lint rule
// R7 bans raw std::thread / std::async / mutex construction everywhere else —
// and gives the TSan CI job a single scheduling substrate to certify.
//
// Scheduling model: Run(n, body) executes body(i) exactly once for every
// index i in [0, n). Which thread runs which index, and in what order, is NOT
// deterministic; determinism is the caller's obligation. Callers uphold it by
// making body(i) a pure function of i that writes only i-indexed state — then
// no schedule can change any observable byte.

#ifndef SRC_SIM_WORKER_POOL_H_
#define SRC_SIM_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace saba {

class WorkerPool {
 public:
  // Spawns jobs - 1 persistent worker threads; the thread calling Run()
  // always works too. jobs must be >= 1 (1 = fully inline, no threads are
  // ever created).
  explicit WorkerPool(int jobs);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int jobs() const { return jobs_; }

  // Runs body(index) for every index in [0, num_tasks); returns after every
  // index has completed. Threads claim indices in ascending order from one
  // shared counter, so which thread runs an index is scheduling-dependent —
  // see the header comment for what callers must guarantee. `body` must not
  // throw (callers wanting exception transport capture exceptions into
  // index-keyed slots, as SweepRunner does). Run() is not reentrant and must
  // not be called from two threads at once.
  void Run(size_t num_tasks, const std::function<void(size_t index)>& body);

 private:
  void WorkerMain();
  // Claims and runs indices until every index of this Run is claimed.
  void Drain();

  const int jobs_;
  std::atomic<size_t> next_{0};  // The next unclaimed index; may overshoot.
  size_t num_tasks_ = 0;
  const std::function<void(size_t)>* body_ = nullptr;

  std::mutex mu_;
  std::condition_variable work_ready_;  // Signals a new epoch (or shutdown).
  std::condition_variable work_done_;   // Signals pending_ reached zero.
  uint64_t epoch_ = 0;                  // Incremented per Run to wake workers.
  int pending_ = 0;                     // Workers still draining this epoch.
  bool shutdown_ = false;

  std::vector<std::thread> threads_;  // jobs_ - 1 workers.
};

}  // namespace saba

#endif  // SRC_SIM_WORKER_POOL_H_
