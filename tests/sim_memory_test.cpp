#include "sim/memory.hpp"

#include <gtest/gtest.h>

#include <cstring>

namespace nvgas::sim {
namespace {

TEST(Memory, WriteReadRoundTrip) {
  Memory m(1024);
  const char src[] = "global address space";
  m.write(100, std::as_bytes(std::span(src, sizeof src)));
  char dst[sizeof src];
  m.read(100, std::as_writable_bytes(std::span(dst, sizeof dst)));
  EXPECT_STREQ(dst, src);
}

TEST(Memory, TypedLoadStore) {
  Memory m(64);
  m.store<std::uint64_t>(8, 0x1122334455667788ULL);
  EXPECT_EQ(m.load<std::uint64_t>(8), 0x1122334455667788ULL);
  m.store<double>(16, -1.5);
  EXPECT_DOUBLE_EQ(m.load<double>(16), -1.5);
}

TEST(Memory, OutOfBoundsAborts) {
  Memory m(16);
  std::byte b{};
  EXPECT_DEATH(m.read(16, std::span(&b, 1)), "bounds");
  EXPECT_DEATH(m.write(10, std::as_bytes(std::span("too long for it"))), "bounds");
}

TEST(Memory, BoundaryAccessOk) {
  Memory m(16);
  m.store<std::uint64_t>(8, 42);  // touches bytes 8..15 inclusive
  EXPECT_EQ(m.load<std::uint64_t>(8), 42u);
}

TEST(Memory, ZeroInitialized) {
  Memory m(256);
  for (Lva a = 0; a < 256; a += 8) EXPECT_EQ(m.load<std::uint64_t>(a), 0u);
}

TEST(Memory, FetchAddReturnsOld) {
  Memory m(64);
  m.store<std::uint64_t>(0, 10);
  EXPECT_EQ(m.fetch_add_u64(0, 5), 10u);
  EXPECT_EQ(m.load<std::uint64_t>(0), 15u);
  EXPECT_EQ(m.fetch_add_u64(0, 0), 15u);
}

TEST(Memory, ReadVecMatchesWrites) {
  Memory m(32);
  const std::uint64_t v = 0xa5a5a5a5a5a5a5a5ULL;
  m.store<std::uint64_t>(4, v);
  const auto vec = m.read_vec(4, 8);
  std::uint64_t back = 0;
  std::memcpy(&back, vec.data(), 8);
  EXPECT_EQ(back, v);
  EXPECT_EQ(m.load<std::uint8_t>(12), 0u);
}

TEST(Memory, LazyChunksStayUnmaterializedOnReads) {
  Memory m(8u << 20);
  EXPECT_EQ(m.resident_bytes(), 0u);
  // Reads of untouched memory return zeros without allocating.
  const auto vec = m.read_vec(5u << 20, 4096);
  for (auto b : vec) EXPECT_EQ(b, std::byte{0});
  EXPECT_EQ(m.resident_bytes(), 0u);
  // A write materializes exactly the touched chunks.
  m.store<std::uint64_t>(0, 1);
  EXPECT_EQ(m.resident_bytes(), Memory::kChunkBytes);
}

TEST(Memory, WritesAcrossChunkBoundary) {
  Memory m(Memory::kChunkBytes * 2);
  std::vector<std::byte> data(4096);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i & 0xff);
  }
  const Lva lva = Memory::kChunkBytes - 2048;  // straddles the boundary
  m.write(lva, data);
  EXPECT_EQ(m.read_vec(lva, 4096), data);
  EXPECT_EQ(m.resident_bytes(), 2 * Memory::kChunkBytes);
}

}  // namespace
}  // namespace nvgas::sim
