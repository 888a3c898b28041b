// Byte buffer with bounds-checked serialization, used for parcel payloads
// and wire messages. Values are stored little-endian-as-memcpy (the
// simulator never crosses real machine boundaries, so host order is fine;
// the codec still goes through memcpy to stay alignment-safe and
// strict-aliasing-clean).
//
// A parcel's payload is one Buffer from encoder to handler: each layer
// prepends its header into free space kept in front of the bytes and
// strips it again with drop_front, so no hop copies the payload.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace nvgas::util {

class Buffer {
 public:
  // Free bytes every allocation keeps in front of the payload: the
  // deepest header stack the runtime prepends, a parcel's ActionId over
  // encode_apply's [u64 gva | ActionId].
  static constexpr std::size_t kHeadroom = 16;

  Buffer() = default;
  explicit Buffer(std::size_t reserve) {
    if (reserve != 0) reallocate(kHeadroom, reserve);
  }
  explicit Buffer(std::span<const std::byte> bytes) { append_raw(bytes); }

  Buffer(const Buffer& other) : Buffer(other.bytes()) {}
  Buffer& operator=(const Buffer& other) {
    if (this != &other) {
      clear();
      append_raw(other.bytes());
    }
    return *this;
  }
  Buffer(Buffer&& other) noexcept
      : mem_(std::move(other.mem_)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)),
        cap_(std::exchange(other.cap_, 0)) {}
  Buffer& operator=(Buffer&& other) noexcept {
    mem_ = std::move(other.mem_);
    head_ = std::exchange(other.head_, 0);
    size_ = std::exchange(other.size_, 0);
    cap_ = std::exchange(other.cap_, 0);
    return *this;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const std::byte* data() const { return mem_.get() + head_; }
  [[nodiscard]] std::span<const std::byte> bytes() const { return {data(), size_}; }
  void clear() {
    size_ = 0;
    head_ = mem_ ? static_cast<std::uint32_t>(kHeadroom) : 0;
  }

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

  // Write `value` in front of the payload: in place while the headroom
  // lasts, else into a fresh allocation.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void prepend(const T& value) {
    if (head_ < sizeof(T)) reallocate(std::max(kHeadroom, sizeof(T)), size_);
    head_ -= static_cast<std::uint32_t>(sizeof(T));
    size_ += static_cast<std::uint32_t>(sizeof(T));
    // Legal byte view, as in put().
    std::memcpy(mem_.get() + head_, &value, sizeof(T));
  }

  // Strip the first `n` bytes in place; the freed bytes become headroom.
  void drop_front(std::size_t n) {
    NVGAS_CHECK_MSG(n <= size_, "buffer underrun");
    head_ += static_cast<std::uint32_t>(n);
    size_ -= static_cast<std::uint32_t>(n);
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
  void grow_copy(const std::byte* src, std::size_t n) {
    if (n == 0) return;
    if (head_ + size_ + n > cap_) {
      reallocate(kHeadroom, std::max<std::size_t>(size_ + n, 2 * std::size_t{size_}));
    }
    std::memcpy(mem_.get() + head_ + size_, src, n);
    size_ += static_cast<std::uint32_t>(n);
  }

  // Move the payload into a fresh allocation with `front` free bytes
  // before it and room for `payload` bytes from there.
  void reallocate(std::size_t front, std::size_t payload) {
    const std::size_t cap = front + payload;
    NVGAS_CHECK_MSG(cap <= UINT32_MAX, "buffer larger than 4 GiB");
    auto mem = std::make_unique_for_overwrite<std::byte[]>(cap);
    if (size_ != 0) std::memcpy(mem.get() + front, data(), size_);
    mem_ = std::move(mem);
    head_ = static_cast<std::uint32_t>(front);
    cap_ = static_cast<std::uint32_t>(cap);
  }

  // Payload bytes are mem_[head_, head_ + size_) of a cap_-byte block.
  // 32-bit offsets keep the object at 24 bytes (asserted below).
  std::unique_ptr<std::byte[]> mem_;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = 0;
};

// A Buffer rides by value inside the hot 48-byte InlineFunction closures:
// the parcel-delivery task (Endpoint::deliver_to_cpu around parcel_task,
// 48 B) and Runtime::invoke_action_at's task (48 B). One more word spills
// both to the heap on every parcel.
static_assert(sizeof(Buffer) == 24);

}  // namespace nvgas::util
