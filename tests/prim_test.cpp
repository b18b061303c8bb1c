// Unit + parameterized property tests for the Thrust-analogue
// primitives: exclusive scans and sorts.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "prim/scan.hpp"
#include "prim/sort.hpp"
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
