// Blocking multi-producer queue behind the thread pool. Close() wakes
// all waiters; Pop returns nullopt once the queue is closed and drained.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace actyp {

template <typename T>
class BlockingQueue {
 public:
  explicit BlockingQueue(std::size_t max_size = 0) : max_size_(max_size) {}

  // Returns false if the queue is closed.
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    if (max_size_ > 0) {
      not_full_.wait(lock,
                     [&] { return closed_ || items_.size() < max_size_; });
    }
    if (closed_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  // Non-blocking push; returns false when full or closed.
  bool TryPush(T item) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || (max_size_ > 0 && items_.size() >= max_size_)) return false;
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
    not_full_.notify_one();
    return item;
  }

  std::optional<T> TryPop() {
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return item;
  }

  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  std::size_t max_size_;
  bool closed_ = false;
};

}  // namespace actyp
