// Process-wide string interning (the flyweight pattern: Gamma et al.,
// *Design Patterns*, 1994). The white pages repeat a few dozen distinct
// strings across every machine record (param keys and values, group
// names, policy and account names); each record stores a 4-byte Symbol
// per string instead of its own heap copy.
//
// The table is append-only and shared by every thread: Intern takes a
// lock, while reading a symbol's text is lock-free, and a returned view
// stays valid for the life of the process.
//
// A symbol's number depends on the order in which threads interned, so
// it must never order, print or otherwise reach output: Symbol has no
// operator<, and callers sort and compare by text().
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace actyp {

class Symbol {
 public:
  // The empty string.
  constexpr Symbol() = default;

  [[nodiscard]] std::string_view text() const;
  [[nodiscard]] bool empty() const { return id_ == 0; }

  friend bool operator==(Symbol a, Symbol b) { return a.id_ == b.id_; }

  // Hashes the number, so a container keyed by Symbol must never be
  // walked in an order that reaches output.
  struct Hash {
    std::size_t operator()(Symbol s) const noexcept { return s.id_; }
  };

 private:
  friend Symbol Intern(std::string_view text);
  explicit constexpr Symbol(std::uint32_t id) : id_(id) {}

  std::uint32_t id_ = 0;
};

// The symbol for `text`, added on first sight. Thread-safe.
Symbol Intern(std::string_view text);

// An ordered list of interned strings (user and tool groups).
using SymbolList = std::vector<Symbol>;

}  // namespace actyp
