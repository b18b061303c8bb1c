// Tests for the concurrent open-addressing hash table of Algorithm 2.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "paper/hash_map.hpp"
#include "paper/primes.hpp"
#include "simt/thread_pool.hpp"
#include "util/prng.hpp"

namespace glouvain::core {
namespace {

using graph::Community;
using graph::Weight;

struct TableStorage {
  explicit TableStorage(std::size_t capacity)
      : keys(capacity), weights(capacity) {}
  std::vector<Community> keys;
  std::vector<Weight> weights;
  CommunityHashMap map() {
    return CommunityHashMap(std::span<Community>(keys),
                            std::span<Weight>(weights));
  }
};

TEST(CommunityHashMap, InsertAndLookup) {
  TableStorage storage(7);
  auto map = storage.map();
  map.clear();
  map.insert_add(3, 1.5);
  map.insert_add(3, 2.0);
  map.insert_add(9, 4.0);
  EXPECT_DOUBLE_EQ(map.lookup(3), 3.5);
  EXPECT_DOUBLE_EQ(map.lookup(9), 4.0);
  EXPECT_DOUBLE_EQ(map.lookup(5), 0.0);
}

TEST(CommunityHashMap, HandlesCollisionsToFullLoad) {
  // Capacity-7 table, 7 distinct keys that all must land somewhere.
  TableStorage storage(7);
  auto map = storage.map();
  map.clear();
  for (Community c : {0u, 7u, 14u, 21u, 28u, 35u, 42u}) {  // all ≡ 0 mod 7
    map.insert_add(c, 1.0);
  }
  for (Community c : {0u, 7u, 14u, 21u, 28u, 35u, 42u}) {
    EXPECT_DOUBLE_EQ(map.lookup(c), 1.0) << c;
  }
}

TEST(CommunityHashMap, ClearResets) {
  TableStorage storage(11);
  auto map = storage.map();
  map.clear();
  map.insert_add(1, 5.0);
  map.clear();
  EXPECT_DOUBLE_EQ(map.lookup(1), 0.0);
  for (std::size_t i = 0; i < map.capacity(); ++i) EXPECT_FALSE(map.occupied(i));
}

TEST(CommunityHashMap, SlotIntrospection) {
  TableStorage storage(5);
  auto map = storage.map();
  map.clear();
  const std::size_t pos = map.insert_add(2, 1.25);
  EXPECT_TRUE(map.occupied(pos));
  EXPECT_EQ(map.key_at(pos), 2u);
  EXPECT_DOUBLE_EQ(map.weight_at(pos), 1.25);
}

TEST(CommunityHashMap, MatchesStdMapOnRandomWorkload) {
  util::Xoshiro256 rng(42);
  const std::size_t distinct = 200;
  const auto cap = static_cast<std::size_t>(
      util::hash_capacity_for_degree(distinct * 2));
  TableStorage storage(cap);
  auto map = storage.map();
  map.clear();

  std::map<Community, Weight> reference;
  for (int i = 0; i < 5000; ++i) {
    const auto c = static_cast<Community>(rng.next_below(distinct) * 31 + 5);
    const auto w = static_cast<Weight>(1 + rng.next_below(10));
    map.insert_add(c, w);
    reference[c] += w;
  }
  for (const auto& [c, w] : reference) {
    EXPECT_DOUBLE_EQ(map.lookup(c), w) << c;
  }
}

TEST(CommunityHashMap, ConcurrentAccumulationIsExact) {
  // Many threads hammering a few keys: totals must be exact (integer
  // weights), which exercises both the CAS claim path and the
  // lost-CAS-to-same-key path (lines 11-12 of Algorithm 2).
  simt::ThreadPool pool(4);
  const std::size_t cap = 13;
  TableStorage storage(cap);
  auto map = storage.map();
  map.clear();

  const std::size_t n = 200000;
  pool.parallel_for(n, [&](std::size_t i, unsigned) {
    map.insert_add(static_cast<Community>(i % 5) * 13 + 1, 1.0);
  });
  for (Community k = 0; k < 5; ++k) {
    EXPECT_DOUBLE_EQ(map.lookup(k * 13 + 1), static_cast<double>(n / 5)) << k;
  }
}

TEST(CommunityHashMap, ConcurrentDistinctKeysAllLand) {
  simt::ThreadPool pool(4);
  const std::size_t keys = 500;
  const auto cap =
      static_cast<std::size_t>(util::hash_capacity_for_degree(keys));
  TableStorage storage(cap);
  auto map = storage.map();
  map.clear();
  pool.parallel_for(keys, 1, [&](std::size_t i, unsigned) {
    map.insert_add(static_cast<Community>(i * 97 + 3), 2.0);
  });
  for (std::size_t i = 0; i < keys; ++i) {
    EXPECT_DOUBLE_EQ(map.lookup(static_cast<Community>(i * 97 + 3)), 2.0);
  }
}

TEST(CommunityHashMap, PaperCapacityRuleLeavesFreeSlots) {
  // Capacity from the paper's rule (> 1.5 deg) guarantees the table
  // never fills when a vertex of degree d meets <= d communities.
  for (std::uint64_t deg : {1ULL, 4ULL, 32ULL, 319ULL, 5000ULL}) {
    const auto cap = util::hash_capacity_for_degree(deg);
    EXPECT_GT(cap, deg);
  }
}

}  // namespace
}  // namespace glouvain::core
