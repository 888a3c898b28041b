#include "util/buffer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace nvgas::util {
namespace {

TEST(Buffer, RoundTripScalars) {
  Buffer buf;
  buf.put<std::uint8_t>(0xab);
  buf.put<std::uint32_t>(0xdeadbeef);
  buf.put<std::int64_t>(-42);
  buf.put<double>(3.25);

  auto r = buf.reader();
  EXPECT_EQ(r.get<std::uint8_t>(), 0xab);
  EXPECT_EQ(r.get<std::uint32_t>(), 0xdeadbeefu);
  EXPECT_EQ(r.get<std::int64_t>(), -42);
  EXPECT_DOUBLE_EQ(r.get<double>(), 3.25);
  EXPECT_TRUE(r.exhausted());
}

TEST(Buffer, RoundTripString) {
  Buffer buf;
  buf.put_string("hello gas");
  buf.put_string("");
  auto r = buf.reader();
  EXPECT_EQ(r.get_string(), "hello gas");
  EXPECT_EQ(r.get_string(), "");
  EXPECT_TRUE(r.exhausted());
}

TEST(Buffer, RoundTripVector) {
  Buffer buf;
  std::vector<std::uint64_t> v{1, 2, 3, 1ull << 60};
  buf.put_vector(v);
  auto r = buf.reader();
  EXPECT_EQ(r.get_vector<std::uint64_t>(), v);
}

TEST(Buffer, MixedSequence) {
  struct Pod {
    int a;
    float b;
    bool operator==(const Pod&) const = default;
  };
  Buffer buf;
  buf.put(Pod{7, 1.5f});
  buf.put_string("mid");
  buf.put(Pod{-1, -2.0f});
  auto r = buf.reader();
  EXPECT_EQ(r.get<Pod>(), (Pod{7, 1.5f}));
  EXPECT_EQ(r.get_string(), "mid");
  EXPECT_EQ(r.get<Pod>(), (Pod{-1, -2.0f}));
}

TEST(Buffer, UnderrunAborts) {
  Buffer buf;
  buf.put<std::uint16_t>(1);
  auto r = buf.reader();
  (void)r.get<std::uint16_t>();
  EXPECT_DEATH((void)r.get<std::uint8_t>(), "underrun");
}

TEST(Buffer, ReaderOverSpan) {
  Buffer buf;
  buf.put<std::uint32_t>(99);
  Buffer::Reader r(buf.bytes());
  EXPECT_EQ(r.get<std::uint32_t>(), 99u);
}

TEST(Buffer, RemainingTracksCursor) {
  Buffer buf;
  buf.put<std::uint64_t>(1);
  buf.put<std::uint64_t>(2);
  auto r = buf.reader();
  EXPECT_EQ(r.remaining(), 16u);
  (void)r.get<std::uint64_t>();
  EXPECT_EQ(r.remaining(), 8u);
}

TEST(Buffer, AppendRawConcatenates) {
  Buffer a;
  a.put<std::uint32_t>(1);
  Buffer b;
  b.put<std::uint32_t>(2);
  a.append_raw(b.bytes());
  auto r = a.reader();
  EXPECT_EQ(r.get<std::uint32_t>(), 1u);
  EXPECT_EQ(r.get<std::uint32_t>(), 2u);
}

TEST(Buffer, BytesLengthPrefixed) {
  Buffer buf;
  const std::vector<std::byte> payload{std::byte{1}, std::byte{2}, std::byte{3}};
  buf.put_bytes(payload);
  auto r = buf.reader();
  EXPECT_EQ(r.get_bytes(), payload);
}

TEST(Buffer, PrependThenDropFrontRoundTrips) {
  Buffer buf;
  buf.put<std::uint32_t>(7);
  buf.prepend<std::uint64_t>(0x1122334455667788ull);
  buf.prepend<std::uint16_t>(9);
  ASSERT_EQ(buf.size(), 14u);
  auto r = buf.reader();
  EXPECT_EQ(r.get<std::uint16_t>(), 9u);
  EXPECT_EQ(r.get<std::uint64_t>(), 0x1122334455667788ull);
  EXPECT_EQ(r.get<std::uint32_t>(), 7u);

  buf.drop_front(sizeof(std::uint16_t));
  EXPECT_EQ(buf.reader().get<std::uint64_t>(), 0x1122334455667788ull);
  buf.drop_front(sizeof(std::uint64_t));
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.reader().get<std::uint32_t>(), 7u);
}

TEST(Buffer, PrependIntoReservedBufferDoesNotReallocate) {
  Buffer buf(8);
  buf.put<std::uint64_t>(42);
  const std::byte* payload = buf.data();
  // The runtime's deepest header stack: a parcel's ActionId over
  // encode_apply's [u64 gva | ActionId].
  buf.prepend<std::uint32_t>(1);
  buf.prepend<std::uint64_t>(2);
  buf.prepend<std::uint32_t>(3);
  EXPECT_EQ(buf.data() + Buffer::kHeadroom, payload);
  // Stripping the headers and putting them back reuses the same room.
  buf.drop_front(Buffer::kHeadroom);
  EXPECT_EQ(buf.data(), payload);
  buf.prepend<std::uint64_t>(4);
  EXPECT_EQ(buf.data() + sizeof(std::uint64_t), payload);
  auto r = buf.reader();
  EXPECT_EQ(r.get<std::uint64_t>(), 4u);
  EXPECT_EQ(r.get<std::uint64_t>(), 42u);
}

TEST(Buffer, PrependIntoFullBufferStillWorks) {
  Buffer buf;
  buf.prepend<std::uint32_t>(5);  // no storage yet
  for (std::uint32_t i = 0; i < 3 * Buffer::kHeadroom; ++i) {
    buf.prepend<std::uint8_t>(static_cast<std::uint8_t>(i));  // headroom runs out
  }
  struct Wide {
    std::uint64_t w[4];
  };
  buf.prepend(Wide{{1, 2, 3, 4}});  // wider than the headroom itself
  auto r = buf.reader();
  EXPECT_EQ(r.get<Wide>().w[3], 4u);
  for (std::uint32_t i = 3 * Buffer::kHeadroom; i-- > 0;) {
    EXPECT_EQ(r.get<std::uint8_t>(), static_cast<std::uint8_t>(i));
  }
  EXPECT_EQ(r.get<std::uint32_t>(), 5u);
  EXPECT_TRUE(r.exhausted());
}

TEST(Buffer, DropFrontOfWholePayloadLeavesEmpty) {
  Buffer buf;
  buf.put<std::uint32_t>(1);
  buf.put<std::uint32_t>(2);
  buf.drop_front(buf.size());
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_TRUE(buf.bytes().empty());
  buf.put<std::uint16_t>(3);
  EXPECT_EQ(buf.reader().get<std::uint16_t>(), 3u);
}

TEST(Buffer, DropFrontPastEndAborts) {
  Buffer buf;
  buf.put<std::uint32_t>(1);
  EXPECT_DEATH(buf.drop_front(5), "buffer underrun");
}

TEST(Buffer, CopiesAndMovesKeepTheBytes) {
  Buffer a;
  a.put<std::uint32_t>(1);
  a.prepend<std::uint32_t>(2);
  Buffer b = a;
  a.drop_front(sizeof(std::uint32_t));
  EXPECT_EQ(b.size(), 8u);
  EXPECT_EQ(b.reader().get<std::uint32_t>(), 2u);
  Buffer c = std::move(b);
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_EQ(c.size(), 8u);
  c = a;
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c.reader().get<std::uint32_t>(), 1u);
}

}  // namespace
}  // namespace nvgas::util
