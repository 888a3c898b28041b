// A slab of in-flight records addressed by 32-bit ids.
//
// park() builds a record in a free slot and returns its id; unpark(id)
// moves it back out and frees the id for reuse, last freed first. A
// protocol keeps each op here from issue to completion and hands every
// hop only its id, so a hop's closure is {this, id} and fits the
// engine's 48-byte inline callback buffer however large the record is.
// The slab grows on demand and never shrinks: once it reaches its working
// size, parking allocates nothing. A World has one table of GAS ops, in
// its manager's gas::GasBase, which every manager parks its ops in; the
// endpoints' get and fetch_add carry its ids to the wire and back.
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
#include <memory>
#include <string>
#include <type_traits>
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

  // Build a record from `args` in a free slot and return its id. A freed
  // slot keeps its spent record; the new one is built in its place, so
  // parking moves nothing the caller did not hand over.
  template <typename... Args>
  [[nodiscard]] std::uint32_t park(Args&&... args) {
    static_assert(std::is_nothrow_constructible_v<T, Args&&...>,
                  "a slot must never be left without a record");
    ++live_;
    if (free_.empty()) {
      slots_.push_back(Slot{true, T(std::forward<Args>(args)...)});
      return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t id = free_.back();
    free_.pop_back();
    Slot& s = slots_[id];
    std::destroy_at(&s.value);
    std::construct_at(&s.value, std::forward<Args>(args)...);
    s.live = true;
    return id;
  }

  // Move the record out and free its id, so the id is free before the
  // caller runs the record's completion, which may park more.
  [[nodiscard]] T unpark(std::uint32_t id) {
    T value = std::move(live_slot(id).value);
    release(id);
    return value;
  }

  // Free the id of a record the caller has already taken what it needs
  // from; as with unpark, before running its completion.
  void release(std::uint32_t id) {
    live_slot(id).live = false;
    free_.push_back(id);
    --live_;
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
