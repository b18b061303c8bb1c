// Unit tests for src/util: PRNG, options, table, timers, the LRU
// cache; and the paper's prime table sizing (src/paper).
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <thread>

#include "paper/primes.hpp"
#include "util/lru_cache.hpp"
#include "util/options.hpp"
#include "util/prng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace glouvain::util {
namespace {

TEST(SplitMix64, DeterministicForSeed) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, KnownVector) {
  // Reference values for seed 1234567 (from the published algorithm).
  SplitMix64 sm(1234567);
  EXPECT_EQ(sm.next(), 6457827717110365317ULL);
  EXPECT_EQ(sm.next(), 3203168211198807973ULL);
}

TEST(Xoshiro256, DeterministicForSeed) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro256, DifferentSeedsDiffer) {
  Xoshiro256 a(7), b(8);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Xoshiro256, DoubleInUnitInterval) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Xoshiro256, NextBelowRespectsBound) {
  Xoshiro256 rng(5);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Xoshiro256, NextBelowCoversRange) {
  Xoshiro256 rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Xoshiro256, NextInClosedRange) {
  Xoshiro256 rng(13);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_in(10, 12);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 12u);
  }
}

TEST(Xoshiro256, SplitStreamsAreIndependent) {
  Xoshiro256 a(21);
  Xoshiro256 b = a.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Hash64, AvalanchesLowBits) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t x = 0; x < 256; ++x) seen.insert(hash64(x));
  EXPECT_EQ(seen.size(), 256u);
}

TEST(Primes, SmallValues) {
  EXPECT_FALSE(is_prime(0));
  EXPECT_FALSE(is_prime(1));
  EXPECT_TRUE(is_prime(2));
  EXPECT_TRUE(is_prime(3));
  EXPECT_FALSE(is_prime(4));
  EXPECT_TRUE(is_prime(5));
  EXPECT_FALSE(is_prime(91));  // 7 * 13
  EXPECT_TRUE(is_prime(97));
}

TEST(Primes, LargeKnownPrimes) {
  EXPECT_TRUE(is_prime(2147483647ULL));          // 2^31 - 1
  EXPECT_TRUE(is_prime(67280421310721ULL));      // factor of 2^128+1
  EXPECT_FALSE(is_prime(2147483647ULL * 3));
  EXPECT_TRUE(is_prime(18446744073709551557ULL));  // largest 64-bit prime
}

TEST(Primes, NextPrimeAtLeast) {
  EXPECT_EQ(next_prime_atleast(0), 2u);
  EXPECT_EQ(next_prime_atleast(2), 2u);
  EXPECT_EQ(next_prime_atleast(8), 11u);
  EXPECT_EQ(next_prime_atleast(14), 17u);
  EXPECT_EQ(next_prime_atleast(97), 97u);
}

TEST(PrimeTable, LadderEntriesArePrime) {
  PrimeTable table(3, 1 << 20, 1.3);
  for (auto p : table.ladder()) EXPECT_TRUE(is_prime(p)) << p;
}

TEST(PrimeTable, LookupIsAtLeastRequest) {
  const auto& table = PrimeTable::global();
  for (std::uint64_t x : {1ULL, 5ULL, 100ULL, 479ULL, 12345ULL, 999983ULL}) {
    const auto p = table.lookup(x);
    EXPECT_GE(p, x);
    EXPECT_TRUE(is_prime(p));
  }
}

TEST(PrimeTable, LookupBeyondLadderFallsBack) {
  PrimeTable small(3, 1000, 1.3);
  const auto p = small.lookup(1 << 20);
  EXPECT_GE(p, 1u << 20);
  EXPECT_TRUE(is_prime(p));
}

TEST(HashCapacity, PaperRule) {
  // Smallest listed prime > 1.5 * degree.
  for (std::uint64_t deg : {1ULL, 4ULL, 8ULL, 32ULL, 84ULL, 319ULL, 5000ULL}) {
    const auto cap = hash_capacity_for_degree(deg);
    EXPECT_TRUE(is_prime(cap));
    EXPECT_GT(static_cast<double>(cap), 1.5 * static_cast<double>(deg));
  }
  EXPECT_GE(hash_capacity_for_degree(0), 3u);  // degenerate degree
}

TEST(Options, ParsesKeyValueForms) {
  const char* argv[] = {"prog", "--alpha", "3", "--beta=2.5", "--flag", "pos1"};
  Options opt(6, argv);
  EXPECT_EQ(opt.get_int("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(opt.get_double("beta", 0), 2.5);
  EXPECT_TRUE(opt.get_flag("flag"));
  ASSERT_EQ(opt.positional().size(), 1u);
  EXPECT_EQ(opt.positional()[0], "pos1");
}

TEST(Options, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Options opt(1, argv);
  EXPECT_EQ(opt.get_int("missing", 7), 7);
  EXPECT_EQ(opt.get_string("name", "dflt"), "dflt");
  EXPECT_FALSE(opt.get_flag("off"));
}

TEST(Options, TracksUnknown) {
  const char* argv[] = {"prog", "--known", "1", "--typo", "2"};
  Options opt(5, argv);
  opt.get_int("known", 0);
  const auto unknown = opt.unknown();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(Options, HelpFlag) {
  const char* argv[] = {"prog", "--help"};
  Options opt(2, argv);
  EXPECT_TRUE(opt.help_requested());
  opt.get_int("x", 1, "the x");
  EXPECT_NE(opt.usage("test").find("--x"), std::string::npos);
}

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long-name"), std::string::npos);
  // Right-aligned numeric column: "22" ends both data lines consistently.
  EXPECT_NE(out.find("    1"), std::string::npos);
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::fixed(3.14159, 2), "3.14");
  EXPECT_EQ(Table::count(1234567), "1,234,567");
  EXPECT_EQ(Table::count(12), "12");
  EXPECT_EQ(Table::human(1500000.0), "1.50M");
  EXPECT_EQ(Table::percent(0.123, 1), "12.3%");
}

TEST(Timer, MeasuresElapsed) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(t.milliseconds(), 15.0);
  EXPECT_LT(t.milliseconds(), 5000.0);
}

TEST(Accumulator, SumsIntervals) {
  Accumulator acc;
  for (int i = 0; i < 3; ++i) {
    ScopedInterval guard(acc);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(acc.intervals(), 3);
  EXPECT_GE(acc.seconds(), 0.010);
}

TEST(LruCache, ShrinkingCapacityEvictsLeastRecentFirst) {
  LruCache<int, int> cache(4);
  for (int k = 0; k < 4; ++k) cache.put(k, std::make_shared<const int>(k));
  EXPECT_NE(cache.get(0), nullptr);  // recency, oldest first: 1 2 3 0

  cache.set_capacity(2);
  EXPECT_EQ(cache.get(1), nullptr);
  EXPECT_EQ(cache.get(2), nullptr);
  ASSERT_NE(cache.get(3), nullptr);
  ASSERT_NE(cache.get(0), nullptr);
  EXPECT_EQ(*cache.get(0), 0);

  const auto s = cache.stats();
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.capacity, 2u);
  EXPECT_EQ(s.insertions, 4u);
}

}  // namespace
}  // namespace glouvain::util
