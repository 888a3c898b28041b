// A slab of in-flight records addressed by 32-bit ids.
//
// park() moves a record in and returns its id; unpark(id) moves it back
// out and frees the id for reuse, last freed first. A protocol keeps each
// op here from issue to completion and hands every hop only its id, so a
// hop's closure is {this, id} and fits the engine's 48-byte inline
// callback buffer however large the record is. The slab grows on demand
// and never shrinks: once it reaches its working size, parking allocates
// nothing. Both mobile managers park their GVA ops in one (gas/agas_sw,
// gas/agas_net), and each endpoint keeps its completion ledger in one
// (net/endpoint).
//
// A reference into the slab is valid only until the next park(), which
// may grow it, so no T& is held across anything that may issue.
//
// Reaching a free id, by unpark() or by indexing, means an op completed
// twice (or was never issued): the slab aborts with its name and the id,
// in every build.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/format.hpp"

namespace nvgas::util {

template <typename T>
class Slab {
 public:
  // `name` appears in the double-completion abort; it must outlive the slab.
  explicit Slab(const char* name) : name_(name) {}

  [[nodiscard]] std::uint32_t park(T&& value) {
    ++live_;
    if (free_.empty()) {
      slots_.push_back(Slot{true, std::move(value)});
      return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t id = free_.back();
    free_.pop_back();
    Slot& s = slots_[id];
    s.value = std::move(value);
    s.live = true;
    return id;
  }

  // Move the record out and free its id, so the id is free before the
  // caller runs the record's completion, which may park more. The slot
  // keeps the moved-from record until park() assigns over it.
  [[nodiscard]] T unpark(std::uint32_t id) {
    Slot& s = live_slot(id);
    s.live = false;
    free_.push_back(id);
    --live_;
    return std::move(s.value);
  }

  [[nodiscard]] T& operator[](std::uint32_t id) { return live_slot(id).value; }
  [[nodiscard]] const T& operator[](std::uint32_t id) const {
    return const_cast<Slab&>(*this).live_slot(id).value;
  }

  // Records parked now.
  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] bool empty() const { return live_ == 0; }

  // The parked record with the lowest id, or null when none is.
  [[nodiscard]] const T* first() const {
    if (live_ == 0) return nullptr;
    for (const Slot& s : slots_) {
      if (s.live) return &s.value;
    }
    return nullptr;
  }

 private:
  // The flag leads, so checking it touches the record's first cache line.
  struct Slot {
    bool live = false;
    T value;
  };

  Slot& live_slot(std::uint32_t id) {
    if (id >= slots_.size() || !slots_[id].live) [[unlikely]] {
      double_completion(id);
    }
    return slots_[id];
  }

  [[noreturn]] [[gnu::cold]] [[gnu::noinline]] void double_completion(
      std::uint32_t id) const {
    const std::string what = util::format(
        "double completion: %s slot %u is not in flight", name_, id);
    util::panic(__FILE__, __LINE__, what.c_str());
  }

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
  const char* name_;
};

}  // namespace nvgas::util
