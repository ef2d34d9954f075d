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
// Scheduling model: Run(n, body) executes body(i, slot) exactly once for every
// index i in [0, n). Which thread runs which index, and in what order, is NOT
// deterministic; determinism is the caller's obligation. Callers uphold it by
// making body(i) a pure function of i that writes only i-indexed state (the
// SweepRunner contract) or slot-indexed scratch (the engine contract, one
// arena per slot) — then no schedule can change any observable byte.

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
  // always participates as slot 0. jobs must be >= 1 (1 = fully inline, no
  // threads are ever created).
  explicit WorkerPool(int jobs);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int jobs() const { return jobs_; }

  // Runs body(index, slot) for every index in [0, num_tasks), with slot in
  // [0, jobs()); returns after every index has completed. Indices are claimed
  // by chunked work stealing, so the (index, slot) pairing is scheduling-
  // dependent — see the header comment for what callers must guarantee.
  // `body` must not throw (callers wanting exception transport capture
  // exceptions into index-keyed slots, as SweepRunner does). Run() is not
  // reentrant and must not be called from two threads at once.
  void Run(size_t num_tasks, const std::function<void(size_t index, int slot)>& body);

 private:
  // One contiguous range of task indices with an atomic claim cursor. Workers
  // drain their own block front-to-back, then steal from the fullest block;
  // claims are a single fetch_add, so the hot path never locks. The cursor
  // may overshoot `end` when thieves race on a near-empty block — harmless,
  // remaining work is computed as end - min(next, end).
  struct alignas(64) Block {
    std::atomic<size_t> next{0};
    size_t end = 0;
  };

  void WorkerMain(int slot);
  // Claims and runs tasks until no block has work left.
  void Drain(int slot);

  const int jobs_;
  std::vector<Block> blocks_;  // blocks_[slot]; sized jobs_, reused per Run.
  const std::function<void(size_t, int)>* body_ = nullptr;

  std::mutex mu_;
  std::condition_variable work_ready_;  // Signals a new epoch (or shutdown).
  std::condition_variable work_done_;   // Signals pending_ reached zero.
  uint64_t epoch_ = 0;                  // Incremented per Run to wake workers.
  int pending_ = 0;                     // Workers still draining this epoch.
  bool shutdown_ = false;

  std::vector<std::thread> threads_;  // jobs_ - 1 workers, slots 1..jobs_-1.
};

}  // namespace saba

#endif  // SRC_SIM_WORKER_POOL_H_
