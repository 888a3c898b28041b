// Byte buffer with bounds-checked serialization, used for parcel payloads
// and wire messages. Values are stored little-endian-as-memcpy (the
// simulator never crosses real machine boundaries, so host order is fine;
// the codec still goes through memcpy to stay alignment-safe and
// strict-aliasing-clean).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "util/assert.hpp"

namespace nvgas::util {

class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(std::size_t reserve) { data_.reserve(reserve); }
  explicit Buffer(std::span<const std::byte> bytes)
      : data_(bytes.begin(), bytes.end()) {}

  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }
  [[nodiscard]] const std::byte* data() const { return data_.data(); }
  [[nodiscard]] std::span<const std::byte> bytes() const { return data_; }
  void clear() { data_.clear(); }

  // --- writing -----------------------------------------------------------

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put(const T& value) {
    // Legal byte view, not type punning: casting an object pointer to
    // std::byte* for memcpy is explicitly allowed ([basic.types.general]);
    // the value is never reinterpreted in place.
    grow_copy(reinterpret_cast<const std::byte*>(&value), sizeof(T));
  }

  void put_bytes(std::span<const std::byte> bytes) {
    put<std::uint32_t>(static_cast<std::uint32_t>(bytes.size()));
    grow_copy(bytes.data(), bytes.size());
  }

  void put_string(const std::string& s) {
    put_bytes(std::as_bytes(std::span(s.data(), s.size())));
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put_vector(const std::vector<T>& v) {
    put<std::uint32_t>(static_cast<std::uint32_t>(v.size()));
    // Legal byte view of the element array (trivially copyable T); the
    // bytes are only read through memcpy, never aliased as another type.
    grow_copy(reinterpret_cast<const std::byte*>(v.data()), v.size() * sizeof(T));
  }

  void append_raw(std::span<const std::byte> bytes) {
    grow_copy(bytes.data(), bytes.size());
  }

  // --- reading (cursor-based) --------------------------------------------

  class Reader {
   public:
    explicit Reader(const Buffer& buf) : buf_(&buf) {}
    explicit Reader(std::span<const std::byte> bytes) : view_(bytes) {}

    template <typename T>
      requires std::is_trivially_copyable_v<T>
    T get() {
      T out;
      const auto src = view();
      NVGAS_CHECK_MSG(pos_ + sizeof(T) <= src.size(), "buffer underrun");
      std::memcpy(&out, src.data() + pos_, sizeof(T));
      pos_ += sizeof(T);
      return out;
    }

    std::vector<std::byte> get_bytes() {
      const auto n = get<std::uint32_t>();
      const auto src = view();
      NVGAS_CHECK_MSG(pos_ + n <= src.size(), "buffer underrun");
      std::vector<std::byte> out(src.begin() + static_cast<std::ptrdiff_t>(pos_),
                                 src.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
      pos_ += n;
      return out;
    }

    std::string get_string() {
      const auto raw = get_bytes();
      // Legal byte view: char may alias any object representation
      // ([basic.lval]); the string constructor copies immediately.
      return {reinterpret_cast<const char*>(raw.data()), raw.size()};
    }

    template <typename T>
      requires std::is_trivially_copyable_v<T>
    std::vector<T> get_vector() {
      const auto n = get<std::uint32_t>();
      const auto src = view();
      NVGAS_CHECK_MSG(pos_ + static_cast<std::size_t>(n) * sizeof(T) <= src.size(),
                      "buffer underrun");
      std::vector<T> out(n);
      std::memcpy(out.data(), src.data() + pos_, static_cast<std::size_t>(n) * sizeof(T));
      pos_ += static_cast<std::size_t>(n) * sizeof(T);
      return out;
    }

    [[nodiscard]] std::size_t remaining() const { return view().size() - pos_; }
    [[nodiscard]] bool exhausted() const { return remaining() == 0; }

    // View of the not-yet-consumed bytes (valid while the source lives).
    [[nodiscard]] std::span<const std::byte> rest() const {
      return view().subspan(pos_);
    }

    // Advance the cursor without decoding.
    void skip(std::size_t n) {
      NVGAS_CHECK_MSG(pos_ + n <= view().size(), "buffer underrun");
      pos_ += n;
    }

   private:
    [[nodiscard]] std::span<const std::byte> view() const {
      return buf_ != nullptr ? buf_->bytes() : view_;
    }
    const Buffer* buf_ = nullptr;
    std::span<const std::byte> view_;
    std::size_t pos_ = 0;
  };

  [[nodiscard]] Reader reader() const { return Reader(*this); }

 private:
  // Explicit reserve (libstdc++'s own doubling) + resize + memcpy: GCC 12
  // mis-tracks the reallocation inside a growing resize or an
  // iterator-range insert and reports spurious -Wstringop-overflow /
  // -Warray-bounds at -O2 and -O3.
  void grow_copy(const std::byte* src, std::size_t n) {
    if (n == 0) return;
    const std::size_t old = data_.size();
    if (old + n > data_.capacity()) {
      data_.reserve(std::max(old + n, 2 * old));
    }
    data_.resize(old + n);
    std::memcpy(data_.data() + old, src, n);
  }

  std::vector<std::byte> data_;
};

}  // namespace nvgas::util
