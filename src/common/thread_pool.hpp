// Fixed-size worker pool over one blocking task queue. The scenario
// driver runs independent sweep cells on one (the LP engine keeps its
// own fixed crew in simnet::SimNetwork).
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

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace actyp {

// The pool's task queue: any number of producers Push, every worker
// Pops concurrently. Close() wakes all waiters; Pop returns nullopt once
// the queue is closed and drained.
template <typename T>
class BlockingQueue {
 public:
  // Returns false if the queue is closed.
  bool Push(T item) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  // Blocks until an item is available or the queue is closed and empty.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

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
