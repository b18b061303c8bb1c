// Unit + parameterized property tests for the Thrust-analogue
// primitives: exclusive scans, sorts and the chunk-ordered reduction.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "prim/reduce.hpp"
#include "prim/scan.hpp"
#include "prim/sort.hpp"
#include "simt/thread_pool.hpp"
#include "util/prng.hpp"

namespace glouvain::prim {
namespace {

std::vector<std::uint64_t> random_vector(std::size_t n, std::uint64_t seed,
                                         std::uint64_t max_value = 1000) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng.next_below(max_value);
  return v;
}

/// Sizes spanning the serial cutoffs of every primitive.
class PrimSizes : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(Sizes, PrimSizes,
                         ::testing::Values(0, 1, 2, 7, 100, 4096, 40000, 300000));

TEST_P(PrimSizes, ExclusiveScanMatchesSerial) {
  const std::size_t n = GetParam();
  auto in = random_vector(n, 42 + n);
  std::vector<std::uint64_t> expect(n), got(n);
  std::uint64_t running = 0;
  for (std::size_t i = 0; i < n; ++i) {
    expect[i] = running;
    running += in[i];
  }
  const auto total =
      exclusive_scan(std::span<const std::uint64_t>(in), std::span<std::uint64_t>(got));
  EXPECT_EQ(total, running);
  EXPECT_EQ(got, expect);
}

TEST_P(PrimSizes, ExclusiveScanInPlace) {
  const std::size_t n = GetParam();
  auto data = random_vector(n, 5 + n);
  auto copy = data;
  std::uint64_t running = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto v = copy[i];
    copy[i] = running;
    running += v;
  }
  exclusive_scan(std::span<std::uint64_t>(data));
  EXPECT_EQ(data, copy);
}

TEST_P(PrimSizes, SortMatchesStdSort) {
  const std::size_t n = GetParam();
  auto data = random_vector(n, 17 + n, 1u << 30);
  auto expect = data;
  std::sort(expect.begin(), expect.end());
  prim::sort(std::span<std::uint64_t>(data));
  EXPECT_EQ(data, expect);
}

TEST_P(PrimSizes, ReduceMatchesSerialSumOnIntegers) {
  const std::size_t n = GetParam();
  const auto data = random_vector(n, 11 + n);
  std::uint64_t expect = 0;
  for (const auto x : data) expect += x;
  Scratch scratch;
  const auto sum = [&](std::size_t b, std::size_t e, unsigned) {
    std::uint64_t part = 0;
    for (std::size_t i = b; i < e; ++i) part += data[i];
    return part;
  };
  EXPECT_EQ(reduce(n, sum, scratch), expect);
  EXPECT_EQ(reduce(n, sum), expect);
}

TEST(Reduce, EmptyInputNeverCallsTheBody) {
  Scratch scratch;
  int calls = 0;
  const double total = reduce(
      0,
      [&](std::size_t, std::size_t, unsigned) {
        ++calls;
        return 1.0;
      },
      scratch);
  EXPECT_EQ(total, 0.0);
  EXPECT_EQ(calls, 0);
}

TEST(Reduce, SmallInputIsOneChunk) {
  simt::ThreadPool pool(1);  // chunks still split, but run in order
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  const std::size_t total = reduce(
      100,
      [&](std::size_t b, std::size_t e, unsigned) {
        chunks.emplace_back(b, e);
        return e - b;
      },
      pool);
  EXPECT_EQ(total, 100u);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], std::make_pair(std::size_t{0}, std::size_t{100}));
}

/// Non-integer values whose sum rounds differently under every
/// regrouping: the bit pattern pins the summation order.
std::vector<double> awkward_doubles(std::size_t n) {
  util::Xoshiro256 rng(77);
  std::vector<double> v(n);
  for (auto& x : v) {
    x = static_cast<double>(rng.next_below(1u << 30)) / 7.0 * 1e-3 +
        1.0 / static_cast<double>(1 + rng.next_below(997));
  }
  return v;
}

std::uint64_t reduce_bits(const std::vector<double>& data,
                          simt::ThreadPool& pool) {
  Scratch scratch;
  const double total = reduce(
      data.size(),
      [&](std::size_t b, std::size_t e, unsigned) {
        double part = 0;
        for (std::size_t i = b; i < e; ++i) part += data[i];
        return part;
      },
      scratch, pool);
  return std::bit_cast<std::uint64_t>(total);
}

TEST(Reduce, BitwiseEqualForAnyWorkerCountAndWhenNested) {
  const auto data = awkward_doubles(300000);
  simt::ThreadPool one(1), two(2), four(4);
  const std::uint64_t reference = reduce_bits(data, one);
  for (int rep = 0; rep < 5; ++rep) {
    EXPECT_EQ(reduce_bits(data, two), reference);
    EXPECT_EQ(reduce_bits(data, four), reference);
  }
  // Inside another parallel region the pool runs the same chunks inline.
  std::vector<std::uint64_t> nested(4);
  four.parallel_for(nested.size(), 1, [&](std::size_t i, unsigned) {
    nested[i] = reduce_bits(data, four);
  });
  for (const auto bits : nested) EXPECT_EQ(bits, reference);
}

TEST(Reduce, ChunkBoundariesDependOnlyOnTheInputSize) {
  const auto boundaries = [](simt::ThreadPool& pool) {
    std::vector<std::pair<std::size_t, std::size_t>> seen(64);
    std::size_t count = reduce(
        200000,
        [&](std::size_t b, std::size_t e, unsigned) {
          seen[b / detail::reduce_chunk_size(200000)] = {b, e};
          return std::size_t{1};
        },
        pool);
    seen.resize(count);
    return seen;
  };
  simt::ThreadPool one(1), four(4);
  const auto expect = boundaries(one);
  EXPECT_GT(expect.size(), 1u);
  EXPECT_EQ(boundaries(four), expect);
  EXPECT_EQ(expect.back().second, 200000u);
}

TEST(Scan, AllZeros) {
  std::vector<std::uint64_t> z(100000, 0);
  EXPECT_EQ(exclusive_scan(std::span<std::uint64_t>(z)), 0u);
  for (auto v : z) ASSERT_EQ(v, 0u);
}

TEST(Sort, DescendingComparator) {
  auto data = random_vector(100000, 29);
  prim::sort(std::span<std::uint64_t>(data), std::greater<std::uint64_t>{});
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end(), std::greater<std::uint64_t>{}));
}

}  // namespace
}  // namespace glouvain::prim
