// Per-node registered memory segment.
//
// Local virtual addresses (LVAs) are byte offsets into this segment —
// exactly how an RDMA-registered heap behaves. Storage is chunked and
// allocated lazily on first write (reads of untouched memory return
// zeros without materializing pages), so simulating many nodes with
// large registered segments stays cheap on the host. All accesses are
// bounds-checked; the simulated NIC "DMA engine" reads/writes through
// this class, so data genuinely moves and tests can verify payloads
// end-to-end.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "util/assert.hpp"

namespace nvgas::sim {

using Lva = std::uint64_t;

class Memory {
 public:
  static constexpr std::size_t kChunkBytes = 256 * 1024;

  explicit Memory(std::size_t bytes)
      : size_(bytes), chunks_((bytes + kChunkBytes - 1) / kChunkBytes) {}

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t resident_bytes() const {
    std::size_t n = 0;
    for (const auto& c : chunks_) {
      if (c) n += kChunkBytes;
    }
    return n;
  }

  void write(Lva lva, std::span<const std::byte> src) {
    check_range(lva, src.size());
    std::size_t done = 0;
    while (done < src.size()) {
      const std::size_t chunk = (lva + done) / kChunkBytes;
      const std::size_t off = (lva + done) % kChunkBytes;
      const std::size_t n = std::min(src.size() - done, kChunkBytes - off);
      std::memcpy(materialize(chunk) + off, src.data() + done, n);
      done += n;
    }
  }

  void read(Lva lva, std::span<std::byte> dst) const {
    check_range(lva, dst.size());
    std::size_t done = 0;
    while (done < dst.size()) {
      const std::size_t chunk = (lva + done) / kChunkBytes;
      const std::size_t off = (lva + done) % kChunkBytes;
      const std::size_t n = std::min(dst.size() - done, kChunkBytes - off);
      const auto& c = chunks_[chunk];
      if (c) {
        std::memcpy(dst.data() + done, c->data() + off, n);
      } else {
        std::memset(dst.data() + done, 0, n);  // untouched memory reads zero
      }
      done += n;
    }
  }

  [[nodiscard]] std::vector<std::byte> read_vec(Lva lva, std::size_t len) const {
    std::vector<std::byte> out(len);
    read(lva, out);
    return out;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  [[nodiscard]] T load(Lva lva) const {
    T out;
    read(lva, std::as_writable_bytes(std::span(&out, 1)));
    return out;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void store(Lva lva, const T& value) {
    write(lva, std::as_bytes(std::span(&value, 1)));
  }

  // NIC-executed 64-bit atomics. "Atomic" refers to simulated semantics:
  // the event loop serializes them, mirroring a NIC atomic unit.
  std::uint64_t fetch_add_u64(Lva lva, std::uint64_t operand) {
    const auto old = load<std::uint64_t>(lva);
    store<std::uint64_t>(lva, old + operand);
    return old;
  }

 private:
  void check_range(Lva lva, std::size_t len) const {
    NVGAS_CHECK_MSG(lva <= size_ && len <= size_ - lva,
                    "memory access out of segment bounds");
  }

  std::byte* materialize(std::size_t chunk) {
    auto& c = chunks_[chunk];
    // Value-initialized: untouched memory reads zero.
    if (!c) c = std::make_unique<std::array<std::byte, kChunkBytes>>();
    return c->data();
  }

  std::size_t size_;
  mutable std::vector<std::unique_ptr<std::array<std::byte, kChunkBytes>>> chunks_;
};

}  // namespace nvgas::sim
