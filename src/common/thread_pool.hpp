// Fixed-size worker pool. The scenario driver runs independent sweep
// cells on one, and the LP engine runs a window's shards on another.
//
// Semantics (audited for lost wakeups and shutdown races):
//   - Submit is safe from any number of producer threads. After the
//     destructor has closed the queue, Submit drops the task (and still
//     wakes Drain waiters, so a racing Drain cannot hang on a task that
//     will never run).
//   - Drain blocks until every task submitted before the call has
//     finished, including tasks submitted *by* running tasks. Multiple
//     threads may Drain concurrently; each returns once the pool is
//     momentarily idle. Drain from inside a task deadlocks — don't.
//   - Tasks must not throw: an escaping exception terminates the
//     process (there is no result channel to surface it on).
//   - The destructor closes the queue, runs every task already
//     accepted, then joins the workers.
#pragma once

#include <functional>
#include <thread>
#include <vector>

#include "common/mpsc_queue.hpp"

namespace actyp {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void Submit(std::function<void()> task);

  // Blocks until every task submitted before this call has finished.
  void Drain();

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

 private:
  // Decrements in_flight_ and, on the transition to zero, wakes Drain
  // waiters. The notify happens with drain_mu_ held: a waiter that has
  // seen in_flight_ != 0 is either still holding the mutex (it will
  // re-check before waiting) or already parked (it will be woken) —
  // the classic lost-wakeup window is closed in both cases.
  void FinishOne();

  BlockingQueue<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
  std::atomic<std::size_t> in_flight_{0};
  std::mutex drain_mu_;
  std::condition_variable drained_;
};

}  // namespace actyp
