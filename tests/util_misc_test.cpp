#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "util/bitops.hpp"
#include "util/options.hpp"
#include "util/slab.hpp"
#include "util/table.hpp"

namespace nvgas::util {
namespace {

TEST(BitOps, CeilPow2) {
  EXPECT_EQ(ceil_pow2(1), 1u);
  EXPECT_EQ(ceil_pow2(2), 2u);
  EXPECT_EQ(ceil_pow2(3), 4u);
  EXPECT_EQ(ceil_pow2(1023), 1024u);
  EXPECT_EQ(ceil_pow2(1024), 1024u);
}

TEST(BitOps, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(65));
}

TEST(BitOps, Logs) {
  EXPECT_EQ(floor_log2(1), 0u);
  EXPECT_EQ(floor_log2(2), 1u);
  EXPECT_EQ(floor_log2(3), 1u);
  EXPECT_EQ(floor_log2(1ULL << 40), 40u);
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(1025), 11u);
}

TEST(BitOps, Masks) {
  EXPECT_EQ(low_mask(0), 0u);
  EXPECT_EQ(low_mask(1), 1u);
  EXPECT_EQ(low_mask(16), 0xffffu);
  EXPECT_EQ(low_mask(64), ~0ULL);
}

TEST(BitOps, Rounding) {
  EXPECT_EQ(round_up(0, 8), 0u);
  EXPECT_EQ(round_up(1, 8), 8u);
  EXPECT_EQ(round_up(8, 8), 8u);
  EXPECT_EQ(div_ceil(9, 4), 3u);
  EXPECT_EQ(div_ceil(8, 4), 2u);
}

TEST(Options, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog", "--nodes=16", "--verbose", "input.txt",
                        "--rate=2.5", "--name=bench", "--list=1,2,3"};
  Options opt(7, argv);
  EXPECT_EQ(opt.program(), "prog");
  EXPECT_EQ(opt.get_int("nodes", 0), 16);
  EXPECT_TRUE(opt.get_bool("verbose", false));
  EXPECT_FALSE(opt.get_bool("quiet", false));
  EXPECT_DOUBLE_EQ(opt.get_double("rate", 0.0), 2.5);
  EXPECT_EQ(opt.get("name", ""), "bench");
  ASSERT_EQ(opt.positionals().size(), 1u);
  EXPECT_EQ(opt.positionals()[0], "input.txt");
  EXPECT_EQ(opt.get_uint_list("list", {}), (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(Options, DefaultsWhenMissing) {
  const char* argv[] = {"prog"};
  Options opt(1, argv);
  EXPECT_EQ(opt.get_int("nodes", 8), 8);
  EXPECT_EQ(opt.get("mode", "pgas"), "pgas");
  EXPECT_EQ(opt.get_uint_list("sizes", {8, 64}), (std::vector<std::uint64_t>{8, 64}));
}

TEST(Options, HexIntegers) {
  const char* argv[] = {"prog", "--addr=0xff"};
  Options opt(2, argv);
  EXPECT_EQ(opt.get_uint("addr", 0), 0xffu);
}

TEST(Options, MalformedNumbersAreFatal) {
  const char* argv[] = {"prog", "--nodes=abc", "--rate=", "--sizes=8,x",
                        "--seed=12z", "--verbose", "--updates=-1",
                        "--signal=flase", "--wide=4294967300",
                        "--huge=99999999999999999999", "--counts=2,4294967296"};
  Options opt(11, argv);
  EXPECT_DEATH((void)opt.get_uint("nodes", 8), "--nodes=abc is not a number");
  EXPECT_DEATH((void)opt.get_double("rate", 1.0), "--rate= is not a number");
  EXPECT_DEATH((void)opt.get_uint_list("sizes", {}),
               "--sizes=x is not a number");
  EXPECT_DEATH((void)opt.get_int("seed", 0), "--seed=12z is not a number");
  EXPECT_DEATH((void)opt.get_int("verbose", 0),
               "--verbose=true is not a number");
  EXPECT_DEATH((void)opt.get_uint("updates", 1),
               "--updates=-1 is not an unsigned number");
  EXPECT_DEATH((void)opt.get_bool("signal", true),
               "--signal=flase is not a boolean");
  // A value outside the type read into is fatal, not narrowed.
  EXPECT_DEATH((void)opt.get_int<int>("wide", 8), "--wide=4294967300 is not in");
  EXPECT_DEATH((void)opt.get_uint<std::uint32_t>("wide", 8),
               "--wide=4294967300 is not in");
  EXPECT_DEATH((void)opt.get_uint("huge", 1), "--huge=99999999999999999999 is not in");
  EXPECT_DEATH((void)opt.get_int("huge", 1), "--huge=99999999999999999999 is not in");
  EXPECT_DEATH((void)opt.get_uint_list<std::uint32_t>("counts", {}),
               "--counts=4294967296 is not in");
  // The 64-bit default reads what a narrower type refuses.
  EXPECT_EQ(opt.get_uint("wide", 0), 4294967300u);
  EXPECT_EQ(opt.get_uint_list("counts", {}),
            (std::vector<std::uint64_t>{2, 4294967296u}));
}

TEST(Slab, ReusesTheLastFreedIdAndCountsLiveRecords) {
  util::Slab<std::unique_ptr<int>> slab("test slab");
  const std::uint32_t a = slab.park(std::make_unique<int>(1));
  const std::uint32_t b = slab.park(std::make_unique<int>(2));
  const std::uint32_t c = slab.park(std::make_unique<int>(3));
  EXPECT_EQ(slab.size(), 3u);
  EXPECT_EQ(*slab[b], 2);
  EXPECT_EQ(*slab.unpark(a), 1);
  EXPECT_EQ(*slab.unpark(c), 3);
  EXPECT_EQ(**slab.first(), 2);  // the lowest live id
  EXPECT_EQ(slab.park(std::make_unique<int>(4)), c);
  EXPECT_EQ(slab.park(std::make_unique<int>(5)), a);
  EXPECT_EQ(slab.park(std::make_unique<int>(6)), 3u);  // grows
  EXPECT_EQ(slab.size(), 4u);
  for (const std::uint32_t id : {a, b, c, 3u}) (void)slab.unpark(id);
  EXPECT_TRUE(slab.empty());
  EXPECT_EQ(slab.first(), nullptr);
}

// Unparking a free slot is a double completion: it aborts naming the
// slab and the slot, in every build.
TEST(Slab, DoubleCompletionAborts) {
  util::Slab<int> slab("test slab");
  const std::uint32_t id = slab.park(7);
  EXPECT_EQ(slab.unpark(id), 7);
  EXPECT_DEATH((void)slab.unpark(id),
               "double completion: test slab slot 0 is not in flight");
  EXPECT_DEATH((void)slab[id], "double completion: test slab slot 0");
  EXPECT_DEATH((void)slab.unpark(5), "double completion: test slab slot 5");
}

TEST(Table, AlignsColumns) {
  Table t("demo");
  t.columns({"name", "value"});
  t.cell("a").cell(std::uint64_t{1}).end_row();
  t.cell("long-name").cell(12.345, 1).end_row();
  const std::string s = t.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  EXPECT_NE(s.find("12.3"), std::string::npos);
  // All body lines share the same width.
  std::istringstream iss(s);
  std::string line;
  std::size_t width = 0;
  while (std::getline(iss, line)) {
    if (line.empty() || line[0] == '=') continue;
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width) << line;
  }
}

TEST(Table, RowArityChecked) {
  Table t;
  t.columns({"a", "b"});
  t.cell("only-one");
  EXPECT_DEATH(t.end_row(), "wrong number");
}

}  // namespace
}  // namespace nvgas::util
