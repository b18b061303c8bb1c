// Unit tests for the software SIMT device: thread pool, atomics,
// kernel launch semantics, the argmax combine, and the paper's lane
// groups and claimed-slot fold (src/paper).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <set>
#include <span>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "paper/compute_move.hpp"
#include "paper/lane_group.hpp"
#include "simt/atomics.hpp"
#include "simt/backend.hpp"
#include "simt/device.hpp"
#include "simt/kernel_ops.hpp"
#include "simt/thread_pool.hpp"
#include "simt/vector_ops.hpp"
#include "util/prng.hpp"

namespace glouvain::simt {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::size_t i, unsigned) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, WorkerIdsInRange) {
  ThreadPool pool(3);
  std::atomic<unsigned> max_worker{0};
  pool.parallel_for(10000, 16, [&](std::size_t, unsigned w) {
    unsigned cur = max_worker.load();
    while (w > cur && !max_worker.compare_exchange_weak(cur, w)) {
    }
  });
  EXPECT_LT(max_worker.load(), pool.size());
}

TEST(ThreadPool, EmptyAndTinyRanges) {
  ThreadPool pool(4);
  int count = 0;
  pool.parallel_for(0, [&](std::size_t, unsigned) { ++count; });
  EXPECT_EQ(count, 0);
  std::atomic<int> acount{0};
  pool.parallel_for(1, [&](std::size_t, unsigned) { acount.fetch_add(1); });
  EXPECT_EQ(acount.load(), 1);
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  ThreadPool pool(4);
  const std::size_t n = 1 << 18;
  std::vector<long> partial(pool.size(), 0);
  pool.parallel_for(n, [&](std::size_t i, unsigned w) {
    partial[w] += static_cast<long>(i);
  });
  const long total = std::accumulate(partial.begin(), partial.end(), 0L);
  EXPECT_EQ(total, static_cast<long>(n) * (static_cast<long>(n) - 1) / 2);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(10000, 8,
                        [&](std::size_t i, unsigned) {
                          if (i == 5000) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // Pool must remain usable afterwards.
  std::atomic<int> ok{0};
  pool.parallel_for(100, [&](std::size_t, unsigned) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 100);
}

TEST(ThreadPool, ConcurrentCallersSeeOnlyTheirOwnErrors) {
  // Two threads drive one pool; whichever loses the race for the
  // workers runs its job inline. The throwing caller must see its
  // exception every round, the other caller never.
  ThreadPool pool(4);
  constexpr int kRounds = 2000;
  std::atomic<int> missed{0};
  std::atomic<int> stray{0};
  std::thread thrower([&] {
    for (int r = 0; r < kRounds; ++r) {
      try {
        pool.parallel_for(256, 8, [](std::size_t i, unsigned) {
          if (i == 100) throw std::runtime_error("boom");
        });
        missed.fetch_add(1);
      } catch (const std::runtime_error&) {
      }
    }
  });
  std::thread clean([&] {
    for (int r = 0; r < kRounds; ++r) {
      try {
        pool.parallel_for(256, 8, [](std::size_t, unsigned) {});
      } catch (...) {
        stray.fetch_add(1);
      }
    }
  });
  thrower.join();
  clean.join();
  EXPECT_EQ(missed.load(), 0);
  EXPECT_EQ(stray.load(), 0);
}

TEST(ThreadPool, NestedCallsRunInline) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  pool.parallel_for(64, 1, [&](std::size_t, unsigned) {
    pool.parallel_for(10, [&](std::size_t, unsigned) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 640);
}

TEST(ThreadPool, SingleWorkerPool) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::size_t count = 0;
  pool.parallel_for(1000, [&](std::size_t, unsigned) { ++count; });
  EXPECT_EQ(count, 1000u);
}

TEST(Atomics, AddReturnsOldValue) {
  double d = 1.5;
  EXPECT_DOUBLE_EQ(atomic_add(d, 2.0), 1.5);
  EXPECT_DOUBLE_EQ(d, 3.5);
  std::uint32_t u = 7;
  EXPECT_EQ(atomic_add(u, 3u), 7u);
  EXPECT_EQ(u, 10u);
}

TEST(Atomics, SubOnUnsignedWraps) {
  std::uint32_t u = 10;
  atomic_sub(u, 3u);
  EXPECT_EQ(u, 7u);
}

// atomicCAS contract, pinned per width: the return value is what was
// OBSERVED in memory, and the swap happened iff that equals `expected`
// — CUDA semantics, NOT the bool-returning std::atomic CAS. The
// checker, the hash-map claim path and the paper's Algorithm 2 all
// lean on this.
TEST(Atomics, CasSemantics) {
  std::uint32_t x = 5;
  // Success: returns expected.
  EXPECT_EQ(atomic_cas(x, 5u, 9u), 5u);
  EXPECT_EQ(x, 9u);
  // Failure: returns observed, no write.
  EXPECT_EQ(atomic_cas(x, 5u, 1u), 9u);
  EXPECT_EQ(x, 9u);
}

TEST(Atomics, CasSemanticsInt32) {
  std::int32_t x = -5;
  EXPECT_EQ(atomic_cas(x, std::int32_t{-5}, std::int32_t{9}), -5);
  EXPECT_EQ(x, 9);
  // Failure path: observed value back, memory untouched, even when
  // desired would have matched a stale expectation.
  EXPECT_EQ(atomic_cas(x, std::int32_t{-5}, std::int32_t{-1}), 9);
  EXPECT_EQ(x, 9);
  // Winning with the observed value as the new expectation.
  EXPECT_EQ(atomic_cas(x, std::int32_t{9}, std::int32_t{-7}), 9);
  EXPECT_EQ(x, -7);
}

TEST(Atomics, CasSemanticsUint64) {
  const std::uint64_t big = std::uint64_t{1} << 40;
  std::uint64_t x = big;
  EXPECT_EQ(atomic_cas(x, big, big + 1), big);
  EXPECT_EQ(x, big + 1);
  EXPECT_EQ(atomic_cas(x, big, std::uint64_t{0}), big + 1);  // failure
  EXPECT_EQ(x, big + 1);
  EXPECT_EQ(atomic_cas(x, big + 1, std::uint64_t{3}), big + 1);
  EXPECT_EQ(x, 3u);
}

TEST(Atomics, CasFailureWritesNothingUnderContention) {
  // The failure path must never store `desired`: after a lost claim the
  // slot still holds the winner's value.
  ThreadPool pool(4);
  std::uint64_t slot = ~std::uint64_t{0};
  std::atomic<std::uint64_t> winner_value{0};
  pool.parallel_for(10000, 1, [&](std::size_t i, unsigned) {
    const auto mine = static_cast<std::uint64_t>(i + 1);
    if (atomic_cas(slot, ~std::uint64_t{0}, mine) == ~std::uint64_t{0}) {
      winner_value.store(mine);
    }
  });
  EXPECT_EQ(slot, winner_value.load());
}

TEST(Atomics, ConcurrentDoubleSumIsExactForIntegers) {
  ThreadPool pool(4);
  double sum = 0;
  pool.parallel_for(100000, [&](std::size_t, unsigned) { atomic_add(sum, 1.0); });
  EXPECT_DOUBLE_EQ(sum, 100000.0);
}

TEST(Atomics, ConcurrentCasClaimsExactlyOnce) {
  ThreadPool pool(4);
  std::uint32_t slot = 0xFFFFFFFFu;
  std::atomic<int> winners{0};
  pool.parallel_for(10000, 1, [&](std::size_t i, unsigned) {
    const auto claimed = static_cast<std::uint32_t>(i);
    if (atomic_cas(slot, 0xFFFFFFFFu, claimed) == 0xFFFFFFFFu) {
      winners.fetch_add(1);
    }
  });
  EXPECT_EQ(winners.load(), 1);
  EXPECT_NE(slot, 0xFFFFFFFFu);
}

TEST(LaneGroup, StridedForVisitsAllOnce) {
  for (unsigned lanes : {1u, 2u, 4u, 8u, 32u, 128u}) {
    with_lane_group(lanes, [&](const auto& g) {
      std::vector<int> hits(1000, 0);
      g.strided_for(1000, [&](unsigned lane, std::size_t idx) {
        EXPECT_EQ(idx % lanes, lane);  // interleaved assignment
        ++hits[idx];
      });
      for (int h : hits) ASSERT_EQ(h, 1);
    });
  }
}

TEST(LaneGroup, StridedForWarpOrder) {
  FixedLaneGroup<4> g;
  std::vector<std::size_t> order;
  g.strided_for(10, [&](unsigned, std::size_t idx) { order.push_back(idx); });
  // Round 0: 0 1 2 3; round 1: 4 5 6 7; round 2: 8 9.
  const std::vector<std::size_t> expect{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(order, expect);
}

TEST(LaneGroup, ExclusiveScan) {
  FixedLaneGroup<4> g;
  std::vector<std::uint64_t> counts{3, 0, 2, 5};
  const auto total = g.exclusive_scan(std::span<std::uint64_t>(counts));
  EXPECT_EQ(total, 10u);
  EXPECT_EQ(counts, (std::vector<std::uint64_t>{0, 3, 3, 5}));
}

TEST(Device, LaunchRunsEveryTask) {
  Device device({.worker_threads = 4});
  std::vector<std::atomic<int>> hits(5000);
  device.launch(5000, [&](TaskContext& ctx) { hits[ctx.task()].fetch_add(1); });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(Device, ForEachCoversRange) {
  Device device({.worker_threads = 3});
  std::vector<std::atomic<int>> hits(777);
  device.for_each(777, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
}

// --- Backend selection: names round-trip, unknown names are rejected
// (the CLI's exit-2 path leans on parse_backend returning false), and
// kAuto always resolves to a concrete substrate.

TEST(Backend, ParseRoundTripsAndRejectsUnknown) {
  Backend b = Backend::kAuto;
  EXPECT_TRUE(parse_backend("scalar", b));
  EXPECT_EQ(b, Backend::kScalar);
  EXPECT_TRUE(parse_backend("vector", b));
  EXPECT_EQ(b, Backend::kVector);
  EXPECT_TRUE(parse_backend("auto", b));
  EXPECT_EQ(b, Backend::kAuto);
  b = Backend::kScalar;
  EXPECT_FALSE(parse_backend("avx512", b));
  EXPECT_EQ(b, Backend::kScalar);  // left alone on failure
  EXPECT_FALSE(parse_backend("", b));
  for (Backend x : {Backend::kScalar, Backend::kVector, Backend::kAuto}) {
    Backend y = Backend::kScalar;
    EXPECT_TRUE(parse_backend(backend_name(x), y));
    EXPECT_EQ(y, x);
  }
}

TEST(Backend, ResolveIsConcreteAndIdempotent) {
  const Backend resolved = resolve_backend(Backend::kAuto);
  EXPECT_NE(resolved, Backend::kAuto);
  EXPECT_EQ(resolved,
            cpu_has_avx2() ? Backend::kVector : Backend::kScalar);
  // Explicit requests pass through (kVector is safe without AVX2 —
  // the vector primitives fall back to their scalar-emulation twins).
  EXPECT_EQ(resolve_backend(Backend::kScalar), Backend::kScalar);
  EXPECT_EQ(resolve_backend(Backend::kVector), Backend::kVector);
  EXPECT_EQ(resolve_backend(Backend::kAuto), resolved);  // cached probe
}

TEST(Device, BackendIsResolvedAtConstruction) {
  Device def;
  EXPECT_NE(def.backend(), Backend::kAuto);  // kAuto never escapes
  Device scalar({.backend = Backend::kScalar});
  EXPECT_EQ(scalar.backend(), Backend::kScalar);
  Device vector({.backend = Backend::kVector});
  EXPECT_EQ(vector.backend(), Backend::kVector);
  // An explicit backend keeps the rest of the config intact.
  Device custom({.worker_threads = 2, .backend = Backend::kScalar});
  EXPECT_EQ(custom.backend(), Backend::kScalar);
  EXPECT_EQ(custom.config().worker_threads, 2u);
}

// --- Scan precondition (documented on FixedLaneGroup): the span is
// always FULL lane width, and a lane that never counted holds zero.

TEST(LaneGroup, PartialFinalRoundExclusiveScanWithIdleZeros) {
  // 10 items over 8 lanes: the second round is partial (lanes 2..7
  // idle). Counts land as {2,2,1,1,1,1,1,1}; idle-in-final-round lanes
  // still hold their earlier counts, and a lane that never counted
  // holds zero — both legal under the documented precondition.
  FixedLaneGroup<8> g;
  std::vector<std::uint64_t> counts(8, 0);
  g.strided_for(10, [&](unsigned lane, std::size_t) { ++counts[lane]; });
  const auto total = g.exclusive_scan(std::span<std::uint64_t>(counts));
  EXPECT_EQ(total, 10u);
  EXPECT_EQ(counts,
            (std::vector<std::uint64_t>{0, 2, 4, 5, 6, 7, 8, 9}));
}

TEST(LaneGroup, RuntimeWidthsArePowersOfTwo) {
  // The dispatch accepts exactly the powers of two from 1 to 128 (the
  // power-of-two contract itself is the FixedLaneGroup static_assert),
  // so here we pin that every supported width round-trips through
  // exclusive_scan correctly at full width, and that other widths are
  // refused.
  for (unsigned lanes : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    with_lane_group(lanes, [&](const auto& g) {
      std::vector<std::uint64_t> ones(g.lanes(), 1);
      EXPECT_EQ(g.exclusive_scan(std::span<std::uint64_t>(ones)), lanes)
          << lanes;
      std::vector<std::uint64_t> want(g.lanes());
      std::iota(want.begin(), want.end(), std::uint64_t{0});
      EXPECT_EQ(ones, want) << lanes;
    });
  }
  for (unsigned lanes : {0u, 3u, 256u}) {
    EXPECT_THROW(with_lane_group(lanes, [](const auto&) {}),
                 std::invalid_argument)
        << lanes;
  }
}

TEST(LaneGroup, DispatchHandsOutTheRequestedWidth) {
  // Every power of two from 1 to 128: the group's width is the
  // bucket's.
  for (unsigned lanes = 1; lanes <= 128; lanes *= 2) {
    unsigned got = 0;
    with_lane_group(lanes, [&](const auto& g) { got = g.lanes(); });
    EXPECT_EQ(got, lanes) << lanes;
  }
}

// --- better(): the argmax combine is a total order, so the maximum of
// a candidate set does not depend on the order it is folded in.

TEST(Better, FoldsToOneAnswerInAnyOrder) {
  // Gains 1, 1 + 3 ulps and 1 + 6 ulps: a 1e-15 band would call the
  // neighbouring pairs ties but not the ends, so its answer followed
  // the fold order. All six orders must pick id 3.
  const std::array<BestComm, 3> cand{{{1.0, 1},
                                      {1.0 + 3 * 0x1p-52, 2},
                                      {1.0 + 6 * 0x1p-52, 3}}};
  std::array<int, 3> order{0, 1, 2};
  do {
    BestComm best = kEmptyBest;
    for (const int i : order) best = better(best, cand[i]);
    EXPECT_EQ(best.comm, 3u) << order[0] << order[1] << order[2];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(best.gain),
              std::bit_cast<std::uint64_t>(cand[2].gain));
  } while (std::next_permutation(order.begin(), order.end()));

  // Seeded sets with exact ties and gaps of a few ulps, folded in
  // several shuffled orders: each order gives the set's maximum
  // (highest gain, lowest id on an exact tie).
  util::Xoshiro256 rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<BestComm> set(1 + rng.next_below(300));
    for (std::size_t i = 0; i < set.size(); ++i) {
      set[i] = {1.0 + static_cast<double>(rng.next_below(8)) * 0x1p-52,
                static_cast<std::uint32_t>(i)};
    }
    const BestComm want = *std::min_element(
        set.begin(), set.end(), [](const BestComm& a, const BestComm& b) {
          return a.gain > b.gain || (a.gain == b.gain && a.comm < b.comm);
        });
    for (int shuffle = 0; shuffle < 8; ++shuffle) {
      for (std::size_t i = set.size() - 1; i > 0; --i) {
        std::swap(set[i], set[rng.next_below(i + 1)]);
      }
      BestComm got = kEmptyBest;
      for (const BestComm& c : set) got = better(got, c);
      EXPECT_EQ(got.comm, want.comm)
          << "trial " << trial << " shuffle " << shuffle;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.gain),
                std::bit_cast<std::uint64_t>(want.gain));
    }
  }
}

// --- scan_best: the fold of the claimed slots against a reference that
// scans every slot in ascending order, bit for bit on gain, key and
// d_skip.

namespace {

constexpr std::uint32_t kEmptySlot = 0xffffffffu;

/// A slot table with the accessors scan_best reads.
struct SlotTable {
  std::vector<std::uint32_t> keys;
  std::vector<double> weights;

  explicit SlotTable(std::size_t cap) : keys(cap, kEmptySlot), weights(cap) {}
  std::uint32_t key_at(std::size_t pos) const { return keys[pos]; }
  double weight_at(std::size_t pos) const { return weights[pos]; }

  /// The occupied slots in ascending order.
  std::vector<std::uint32_t> claimed() const {
    std::vector<std::uint32_t> out;
    for (std::size_t pos = 0; pos < keys.size(); ++pos) {
      if (keys[pos] != kEmptySlot) out.push_back(static_cast<std::uint32_t>(pos));
    }
    return out;
  }
};

struct ScanResult {
  BestComm best;
  double d_skip;
};

/// Every slot in ascending order, the maximum by the comparisons
/// written out rather than through better().
ScanResult scan_ref(const SlotTable& t, std::uint32_t skip_key,
                    const double* tot, double k, double inv_m2) {
  ScanResult r{kEmptyBest, 0.0};
  for (std::size_t pos = 0; pos < t.keys.size(); ++pos) {
    const std::uint32_t c = t.keys[pos];
    if (c == kEmptySlot) continue;
    if (c == skip_key) {
      r.d_skip = t.weights[pos];
      continue;
    }
    const double gain = t.weights[pos] - k * tot[c] * inv_m2;
    if (gain > r.best.gain || (gain == r.best.gain && c < r.best.comm)) {
      r.best = {gain, c};
    }
  }
  return r;
}

ScanResult scan(const SlotTable& t, std::span<const std::uint32_t> touched,
                std::uint32_t skip_key, const double* tot, double k,
                double inv_m2) {
  ScanResult r{kEmptyBest, 0.0};
  r.best = scan_best(t, touched, skip_key, tot, k, inv_m2, r.d_skip);
  return r;
}

/// (gain bits, key, d_skip bits) of a scan result.
std::tuple<std::uint64_t, std::uint32_t, std::uint64_t> bits(
    const ScanResult& r) {
  return {std::bit_cast<std::uint64_t>(r.best.gain), r.best.comm,
          std::bit_cast<std::uint64_t>(r.d_skip)};
}

}  // namespace

TEST(ScanBest, MatchesSlotOrderReference) {
  // 37 slots (odd capacity), about half claimed, one skip slot,
  // distinct gains, and 1/m2 not a power of two. Near ties at the top,
  // 3 and 6 ulps of the weight apart, and an exact tie: the winner is
  // key 63, the lower id of the exact tie.
  constexpr std::size_t kCap = 37;
  SlotTable t(kCap);
  std::vector<double> tot(128, 0.0);
  for (std::size_t c = 0; c < tot.size(); ++c) {
    tot[c] = 1.0 + 0.37 * static_cast<double>(c);
  }
  for (std::size_t i = 0; i < kCap; i += 2) {
    t.keys[i] = static_cast<std::uint32_t>((i * 7) % 60);
    t.weights[i] = 0.01 + 0.001 * static_cast<double>(i);
  }
  const std::uint32_t skip = t.keys[8];
  t.weights[8] = 3.25;
  const double u = 0x1p-52;
  const std::pair<std::size_t, std::pair<std::uint32_t, double>> near[] = {
      {1, {63, 1.0 + 6 * u}},
      {9, {62, 1.0 + 3 * u}},
      {17, {61, 1.0}},
      {33, {100, 1.0 + 6 * u}}};
  for (const auto& [slot, kw] : near) {
    t.keys[slot] = kw.first;
    t.weights[slot] = kw.second;
    tot[kw.first] = 15.0;
  }
  const double k = 5.0;
  const double inv_m2 = 1.0 / 77.0;
  const ScanResult want = scan_ref(t, skip, tot.data(), k, inv_m2);
  EXPECT_EQ(want.best.comm, 63u);
  EXPECT_EQ(want.d_skip, 3.25);

  // The claimed list in ascending slot order and in shuffled claim
  // orders gives the reference's bits.
  std::vector<std::uint32_t> touched = t.claimed();
  ASSERT_GT(touched.size() * 4, kCap);  // above 25% occupancy
  util::Xoshiro256 rng(37);
  for (int order = 0; order < 16; ++order) {
    EXPECT_EQ(bits(scan(t, touched, skip, tot.data(), k, inv_m2)), bits(want))
        << "order " << order;
    for (std::size_t i = touched.size() - 1; i > 0; --i) {
      std::swap(touched[i], touched[rng.next_below(i + 1)]);
    }
  }
}

TEST(ScanBest, SeededTablesAtEveryOccupancy) {
  // Tables from a few percent to nearly full, gains drawn from eight
  // values one ulp of the weight apart (so exact ties and gaps of a
  // few ulps abound), the skip key present or absent, each folded in
  // several shuffled claim orders.
  util::Xoshiro256 rng(33);
  const std::vector<double> tot(1024, 15.0);
  const double k = 5.0;
  const double inv_m2 = 1.0 / 77.0;
  // Distinct keys in no relation to slot order: slot pos holds ids[pos].
  std::vector<std::uint32_t> ids(tot.size());
  std::iota(ids.begin(), ids.end(), 0u);
  int sparse = 0;
  int dense = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t cap = 7 + rng.next_below(250);
    SlotTable t(cap);
    for (std::size_t i = ids.size() - 1; i > 0; --i) {
      std::swap(ids[i], ids[rng.next_below(i + 1)]);
    }
    const std::size_t fill = 1 + rng.next_below(cap);
    std::vector<std::uint32_t> touched;
    for (std::size_t i = 0; i < fill; ++i) {
      const std::size_t pos = rng.next_below(cap);
      if (t.keys[pos] != kEmptySlot) continue;
      t.keys[pos] = ids[pos];
      t.weights[pos] =
          1.0 + static_cast<double>(rng.next_below(8)) * 0x1p-52;
      touched.push_back(static_cast<std::uint32_t>(pos));
    }
    (touched.size() * 4 <= cap ? sparse : dense) += 1;
    const std::uint32_t skip =
        rng.next_below(2) == 0 ? t.keys[touched[0]] : kEmptySlot - 1;
    const ScanResult want = scan_ref(t, skip, tot.data(), k, inv_m2);
    for (int order = 0; order < 4; ++order) {
      EXPECT_EQ(bits(scan(t, touched, skip, tot.data(), k, inv_m2)),
                bits(want))
          << "trial " << trial << " order " << order;
      for (std::size_t i = touched.size() - 1; i > 0; --i) {
        std::swap(touched[i], touched[rng.next_below(i + 1)]);
      }
    }
  }
  // Tables at most a quarter full and fuller ones both occur.
  EXPECT_GT(sparse, 20);
  EXPECT_GT(dense, 20);
}

TEST(ScanBest, ExactTieGoesToLowestKey) {
  // Two slots with bitwise-identical gains: whichever is claimed
  // first, better()'s total order hands the exact tie to the lowest
  // community id.
  SlotTable t(16);
  const std::vector<double> tot(16, 2.0);  // equal tot -> equal gains
  t.keys[3] = 9;
  t.weights[3] = 1.5;
  t.keys[13] = 4;  // same gain, lower key, later slot
  t.weights[13] = 1.5;
  for (const std::vector<std::uint32_t>& touched :
       {std::vector<std::uint32_t>{3, 13}, std::vector<std::uint32_t>{13, 3}}) {
    const ScanResult got = scan(t, touched, 1000, tot.data(), 3.0, 1.0 / 64.0);
    EXPECT_EQ(got.best.comm, 4u);
    EXPECT_DOUBLE_EQ(got.best.gain, 1.5 - 3.0 * 2.0 / 64.0);
    EXPECT_DOUBLE_EQ(got.d_skip, 0.0);
    EXPECT_EQ(bits(got), bits(scan_ref(t, 1000, tot.data(), 3.0, 1.0 / 64.0)));
  }
}

TEST(ScanBest, AllEmptyAndOnlySkip) {
  SlotTable t(32);
  std::fill(t.weights.begin(), t.weights.end(), 7.0);
  const std::vector<double> tot(4, 1.0);
  ScanResult got = scan(t, {}, 2, tot.data(), 1.0, 0.5);
  EXPECT_EQ(got.best.comm, kEmptySlot);  // nothing found
  EXPECT_EQ(got.best.gain, -std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(got.d_skip, 0.0);
  t.keys[17] = 2;  // only the skip key present
  t.weights[17] = 2.5;
  const std::vector<std::uint32_t> touched{17};
  got = scan(t, touched, 2, tot.data(), 1.0, 0.5);
  EXPECT_EQ(got.best.comm, kEmptySlot);
  EXPECT_DOUBLE_EQ(got.d_skip, 2.5);
  EXPECT_EQ(bits(got), bits(scan_ref(t, 2, tot.data(), 1.0, 0.5)));
}

// --- simt::vec::row_internal_weight: parity against the plain scalar
// sum. On AVX2 hardware this exercises the real vector path; under
// GLOUVAIN_NO_AVX2=1 (the CI fallback smoke) the same assertions hold
// on the scalar-emulation twin.

TEST(VecOps, RowInternalWeightMatchesScalarSum) {
  constexpr std::size_t kDeg = 103;  // odd tail past the 4-wide rounds
  std::vector<std::uint32_t> adj(kDeg);
  std::vector<double> w(kDeg);
  std::vector<std::uint32_t> community(200);
  for (std::size_t i = 0; i < community.size(); ++i) {
    community[i] = static_cast<std::uint32_t>(i % 7);
  }
  double want = 0.0;
  for (std::size_t i = 0; i < kDeg; ++i) {
    adj[i] = static_cast<std::uint32_t>((i * 13) % community.size());
    w[i] = 1.0 + static_cast<double>(i % 5);  // small ints: sum is exact
    if (community[adj[i]] == 3u) want += w[i];
  }
  EXPECT_DOUBLE_EQ(
      vec::row_internal_weight(adj.data(), w.data(), kDeg, community.data(), 3),
      want);
  EXPECT_DOUBLE_EQ(
      vec::row_internal_weight(adj.data(), w.data(), 0, community.data(), 3),
      0.0);
}

}  // namespace
}  // namespace glouvain::simt
