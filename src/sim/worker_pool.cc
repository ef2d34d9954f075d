#include "src/sim/worker_pool.h"

#include <cassert>

namespace saba {

WorkerPool::WorkerPool(int jobs) : jobs_(jobs) {
  assert(jobs >= 1 && "a pool needs at least the calling thread");
  threads_.reserve(static_cast<size_t>(jobs_ - 1));
  for (int i = 1; i < jobs_; ++i) {
    threads_.emplace_back(&WorkerPool::WorkerMain, this);
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& thread : threads_) {
    thread.join();
  }
}

void WorkerPool::Run(size_t num_tasks, const std::function<void(size_t)>& body) {
  if (threads_.empty() || num_tasks <= 1) {
    // Inline path: same body calls, no synchronization.
    for (size_t i = 0; i < num_tasks; ++i) {
      body(i);
    }
    return;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    next_.store(0, std::memory_order_relaxed);
    num_tasks_ = num_tasks;
    body_ = &body;
    pending_ = static_cast<int>(threads_.size());
    ++epoch_;  // Publishes the counter, num_tasks_ and body_ to the workers.
  }
  work_ready_.notify_all();

  Drain();  // The caller works too.

  std::unique_lock<std::mutex> lock(mu_);
  work_done_.wait(lock, [this] { return pending_ == 0; });
  body_ = nullptr;
}

void WorkerPool::WorkerMain() {
  uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [&] { return shutdown_ || epoch_ != seen; });
      if (shutdown_) {
        return;
      }
      seen = epoch_;
    }
    Drain();
    bool last = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      last = --pending_ == 0;
    }
    if (last) {
      work_done_.notify_all();
    }
  }
}

void WorkerPool::Drain() {
  for (;;) {
    const size_t index = next_.fetch_add(1, std::memory_order_relaxed);
    if (index >= num_tasks_) {
      return;
    }
    (*body_)(index);
  }
}

}  // namespace saba
