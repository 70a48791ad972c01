#include "common/symbols.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

namespace actyp {
namespace {

// Views sit in fixed-size chunks reached through a fixed directory of
// chunk pointers, so growth never moves a view and a reader needs no
// lock. A reader holds a symbol only after the Intern that made it
// (through whatever handed the symbol over), so the view it reads was
// written before it looks.
constexpr std::uint32_t kChunkBits = 12;
constexpr std::uint32_t kChunkSize = 1u << kChunkBits;
constexpr std::uint32_t kMaxChunks = 1u << 12;  // 16M symbols
// Text bytes are copied into blocks of at least this size.
constexpr std::size_t kBlockBytes = std::size_t{1} << 16;

class SymbolTable {
 public:
  std::uint32_t Intern(std::string_view text) {
    std::lock_guard<std::mutex> lock(mu_);
    if (2 * (count_ + 1) > slots_.size()) Grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = Hash(text) & mask;; i = (i + 1) & mask) {
      const std::uint32_t id = slots_[i];
      if (id == 0) {
        slots_[i] = Append(Store(text));
        return slots_[i];
      }
      if (View(id) == text) return id;
    }
  }

  std::string_view View(std::uint32_t id) const {
    return chunks_[id >> kChunkBits].load(std::memory_order_acquire)
        [id & (kChunkSize - 1)];
  }

 private:
  static std::size_t Hash(std::string_view text) {
    return std::hash<std::string_view>{}(text);
  }

  // Open addressing at a load factor of at most one half; 0 marks an
  // empty slot (id 0, the empty string, is never stored).
  void Grow() {
    std::vector<std::uint32_t> slots(slots_.empty() ? 1024 : 2 * slots_.size());
    const std::size_t mask = slots.size() - 1;
    for (std::uint32_t id = 1; id < count_; ++id) {
      std::size_t i = Hash(View(id)) & mask;
      while (slots[i] != 0) i = (i + 1) & mask;
      slots[i] = id;
    }
    slots_ = std::move(slots);
  }

  std::string_view Store(std::string_view text) {
    if (text.size() > block_left_) {
      const std::size_t size = std::max(kBlockBytes, text.size());
      blocks_.push_back(std::make_unique<char[]>(size));
      block_next_ = blocks_.back().get();
      block_left_ = size;
    }
    std::memcpy(block_next_, text.data(), text.size());
    const std::string_view stored(block_next_, text.size());
    block_next_ += text.size();
    block_left_ -= text.size();
    return stored;
  }

  std::uint32_t Append(std::string_view stored) {
    const std::uint32_t id = count_++;
    const std::uint32_t chunk = id >> kChunkBits;
    if (chunk >= kMaxChunks) {
      std::fprintf(stderr, "symbol table full (%u symbols)\n", id);
      std::abort();
    }
    std::string_view* views = chunks_[chunk].load(std::memory_order_relaxed);
    if (views == nullptr) {
      views = new std::string_view[kChunkSize];
      chunks_[chunk].store(views, std::memory_order_release);
    }
    views[id & (kChunkSize - 1)] = stored;
    return id;
  }

  std::mutex mu_;
  std::uint32_t count_ = 1;  // id 0 is the empty string
  std::vector<std::uint32_t> slots_;
  std::vector<std::unique_ptr<char[]>> blocks_;
  char* block_next_ = nullptr;
  std::size_t block_left_ = 0;
  std::atomic<std::string_view*> chunks_[kMaxChunks] = {};
};

// Never destroyed, so views outlive every static destructor.
SymbolTable& Table() {
  static SymbolTable* const table = new SymbolTable;
  return *table;
}

}  // namespace

std::string_view Symbol::text() const {
  return id_ == 0 ? std::string_view() : Table().View(id_);
}

Symbol Intern(std::string_view text) {
  return text.empty() ? Symbol() : Symbol(Table().Intern(text));
}

}  // namespace actyp
