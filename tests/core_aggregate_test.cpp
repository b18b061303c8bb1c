// Tests for the GPU-style aggregation phase (Algorithm 3): it must
// produce exactly the same contracted graph as the reference
// contraction, for arbitrary partitions. The reference itself, and the
// accumulator it sums with, are held against a std::map contraction.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <utility>

#include "core/aggregate.hpp"
#include "core/community_weights.hpp"
#include "core/workspace.hpp"
#include "gen/er.hpp"
#include "gen/lfr.hpp"
#include "gen/rmat.hpp"
#include "gen/road.hpp"
#include "gen/sbm.hpp"
#include "graph/builder.hpp"
#include "graph/ops.hpp"
#include "metrics/modularity.hpp"
#include "simt/thread_pool.hpp"
#include "util/prng.hpp"
#include "zg/zcsr.hpp"

namespace glouvain::core {
namespace {

using graph::Community;
using graph::Csr;
using graph::EdgeIdx;
using graph::VertexId;
using graph::Weight;

std::vector<Community> random_partition(VertexId n, Community blocks,
                                        std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<Community> part(n);
  for (auto& c : part) {
    // Labels must be < n; pick random representatives among [0, n).
    c = static_cast<Community>(rng.next_below(blocks) * (n / blocks));
  }
  return part;
}

class AggregateVsReference
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

INSTANTIATE_TEST_SUITE_P(
    Grid, AggregateVsReference,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),   // graph seed
                       ::testing::Values(4, 17, 64)));  // block count

TEST_P(AggregateVsReference, MatchesSequentialContraction) {
  const auto [seed, blocks] = GetParam();
  const Csr g = gen::erdos_renyi(400, 2400, 100 + seed);
  const auto part = random_partition(g.num_vertices(), blocks, 200 + seed);

  simt::Device device;
  const AggregationResult got = aggregate(device, g, part);
  std::vector<VertexId> ref_new_id;
  const Csr expect = contract_reference(PlainRows(g), part,
                                        simt::ThreadPool::global(), &ref_new_id);

  ASSERT_EQ(got.contracted.num_vertices(), expect.num_vertices());
  EXPECT_EQ(got.contracted, expect);  // identical arrays, rows sorted
  // new_id maps agree wherever defined.
  for (std::size_t c = 0; c < ref_new_id.size(); ++c) {
    if (ref_new_id[c] != graph::kInvalidVertex) {
      EXPECT_EQ(got.new_id[c], ref_new_id[c]) << c;
    }
  }
}

TEST(Aggregate, IdentityPartitionGivesIsomorphicGraph) {
  const Csr g = gen::erdos_renyi(200, 900, 5);
  std::vector<Community> identity(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) identity[v] = v;
  simt::Device device;
  const AggregationResult agg = aggregate(device, g, identity);
  EXPECT_EQ(agg.contracted, g);
}

TEST(Aggregate, AllOneCommunity) {
  const Csr g = gen::erdos_renyi(100, 500, 7);
  std::vector<Community> one(g.num_vertices(), 0);
  simt::Device device;
  const AggregationResult agg = aggregate(device, g, one);
  EXPECT_EQ(agg.contracted.num_vertices(), 1u);
  EXPECT_EQ(agg.contracted.num_loops(), 1u);
  EXPECT_NEAR(agg.contracted.total_weight(), g.total_weight(), 1e-9);
}

TEST(Aggregate, PreservesTotalWeight) {
  gen::RmatParams p;
  p.scale = 12;
  p.edge_factor = 8;
  const Csr g = gen::rmat(p, 11);
  const auto part = random_partition(g.num_vertices(), 97, 13);
  simt::Device device;
  const AggregationResult agg = aggregate(device, g, part);
  EXPECT_NEAR(agg.contracted.total_weight(), g.total_weight(), 1e-6);
  EXPECT_TRUE(graph::validate(agg.contracted).empty())
      << graph::validate(agg.contracted);
}

TEST(Aggregate, ModularityInvariantAcrossContraction) {
  const Csr g = gen::planted_partition({.num_vertices = 1000,
                                        .num_communities = 10,
                                        .seed = 17})
                    .graph;
  auto part = random_partition(g.num_vertices(), 25, 19);
  const double q_before = metrics::modularity(g, part);
  simt::Device device;
  const AggregationResult agg = aggregate(device, g, part);
  std::vector<Community> identity(agg.contracted.num_vertices());
  for (VertexId v = 0; v < agg.contracted.num_vertices(); ++v) identity[v] = v;
  EXPECT_NEAR(metrics::modularity(agg.contracted, identity), q_before, 1e-9);
}

TEST(Aggregate, SkewedCommunitySizesHitAllBuckets) {
  // One giant community (degree sum > 479 -> global bucket), several
  // mid-size ones (warp/block shared buckets).
  gen::RmatParams p;
  p.scale = 11;
  p.edge_factor = 16;
  const Csr g = gen::rmat(p, 23);
  std::vector<Community> part(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    part[v] = v < g.num_vertices() / 2 ? 0 : (v % 37) * 41 % g.num_vertices();
  }
  // Normalize labels to valid representatives.
  for (auto& c : part) c = c % g.num_vertices();
  simt::Device device;
  const AggregationResult got = aggregate(device, g, part);
  const Csr expect =
      contract_reference(PlainRows(g), part, simt::ThreadPool::global());
  EXPECT_EQ(got.contracted, expect);
}

TEST(Aggregate, NewIdIsDenseAndOrdered) {
  const Csr g = gen::erdos_renyi(150, 600, 29);
  const auto part = random_partition(g.num_vertices(), 10, 31);
  simt::Device device;
  const AggregationResult agg = aggregate(device, g, part);
  // Collect defined ids: must be exactly [0, k), increasing with label.
  VertexId expected = 0;
  for (std::size_t c = 0; c < agg.new_id.size(); ++c) {
    if (agg.new_id[c] != graph::kInvalidVertex) {
      EXPECT_EQ(agg.new_id[c], expected++);
    }
  }
  EXPECT_EQ(expected, agg.num_communities);
  EXPECT_EQ(expected, agg.contracted.num_vertices());
}

TEST(Aggregate, DenseLowLabelsContractLikeMinimumMemberLabels) {
  // A warm level's seed labels are dense low ids, so every live
  // community sits in the first few label slots; a cold level labels a
  // community by one of its members. One partition labelled both ways,
  // in the same community order, must contract to the same graph.
  const Csr g = gen::erdos_renyi(20000, 120000, 37);
  const VertexId n = g.num_vertices();
  const auto part = random_partition(n, 300, 41);
  std::vector<Community> min_member(n, graph::kInvalidVertex);
  std::vector<Community> rank(n, graph::kInvalidVertex);
  Community next = 0;
  for (VertexId v = 0; v < n; ++v) {  // ascending: v is a first member
    if (rank[part[v]] == graph::kInvalidVertex) {
      rank[part[v]] = next++;
      min_member[part[v]] = v;
    }
  }
  std::vector<Community> dense(n), by_min(n);
  for (VertexId v = 0; v < n; ++v) {
    dense[v] = rank[part[v]];
    by_min[v] = min_member[part[v]];
  }
  simt::Device device;
  const AggregationResult low = aggregate(device, g, dense);
  const AggregationResult high = aggregate(device, g, by_min);
  EXPECT_EQ(low.num_communities, next);
  EXPECT_EQ(high.num_communities, next);
  EXPECT_EQ(low.contracted, high.contracted);
}

TEST(Aggregate, EmptyGraph) {
  const Csr g = graph::build_csr(0, {});
  simt::Device device;
  const AggregationResult agg = aggregate(device, g, {});
  EXPECT_EQ(agg.contracted.num_vertices(), 0u);
}

TEST(Aggregate, GraphWithSelfLoopsContractsCorrectly) {
  // Self-loops must fold into the new vertex's loop once.
  const Csr g = graph::build_csr(
      4, {{0, 0, 2.0}, {0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}, {3, 3, 1.5}});
  const std::vector<Community> part{0, 0, 2, 2};
  simt::Device device;
  const AggregationResult agg = aggregate(device, g, part);
  const Csr expect =
      contract_reference(PlainRows(g), part, simt::ThreadPool::global());
  EXPECT_EQ(agg.contracted, expect);
  // New community {0,1}: loop = 2*1 (internal edge) + 2 (old loop) = 4.
  EXPECT_DOUBLE_EQ(agg.contracted.loop_weight(0), 4.0);
  EXPECT_DOUBLE_EQ(agg.contracted.loop_weight(1), 2.0 + 1.5);
}


// --- Communities of every shape, and rows on both sides of the merge's
// emission rule, against a std::map contraction.

/// Contraction through one std::map per new vertex: shares no code with
/// the merge kernel or with contract_reference.
Csr map_contraction(const Csr& g, const std::vector<Community>& part) {
  std::map<Community, VertexId> new_id;
  for (VertexId v = 0; v < g.num_vertices(); ++v) new_id.emplace(part[v], 0);
  VertexId next = 0;
  for (auto& entry : new_id) entry.second = next++;
  std::vector<std::map<VertexId, Weight>> rows(next);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto& row = rows[new_id[part[v]]];
    for (EdgeIdx e = g.offset(v); e < g.offset(v) + g.degree(v); ++e) {
      row[new_id[part[g.adjacency()[e]]]] += g.edge_weights()[e];
    }
  }
  std::vector<EdgeIdx> offsets{0};
  std::vector<VertexId> adj;
  std::vector<Weight> w;
  for (const auto& row : rows) {
    for (const auto& [u, x] : row) {
      adj.push_back(u);
      w.push_back(x);
    }
    offsets.push_back(adj.size());
  }
  return Csr(std::move(offsets), std::move(adj), std::move(w));
}

/// Groups vertices in id order, cycling through group shapes: a
/// singleton, a pair, and degree sums of 16, 17 and 40 arcs. A group
/// closes at its member count or arc sum, or before a vertex that would
/// overshoot the sum. Each group is labelled by its first member.
std::vector<Community> bound_partition(const Csr& g) {
  struct Shape {
    VertexId members;
    EdgeIdx arcs;
  };
  constexpr Shape kShapes[] = {{1, 1000}, {2, 1000}, {1000, 16}, {1000, 17},
                               {1000, 40}};
  std::vector<Community> part(g.num_vertices());
  std::size_t shape = 0;
  VertexId members = 0;
  EdgeIdx arcs = 0;
  Community label = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const Shape& sh = kShapes[shape];
    if (members > 0 && (members == sh.members || arcs >= sh.arcs ||
                        arcs + g.degree(v) > sh.arcs)) {
      shape = (shape + 1) % std::size(kShapes);
      members = 0;
      arcs = 0;
    }
    if (members == 0) label = v;
    part[v] = label;
    ++members;
    arcs += g.degree(v);
  }
  return part;
}

void expect_straddles_bound(const Csr& g, const std::vector<Community>& part) {
  // Every shape occurs: singletons, pairs, and communities of exactly
  // 16 and 17 arcs, plus larger ones.
  std::map<Community, std::pair<VertexId, EdgeIdx>> shape;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ++shape[part[v]].first;
    shape[part[v]].second += g.degree(v);
  }
  std::map<std::string, int> seen;
  for (const auto& [c, sz] : shape) {
    if (sz.first == 1) ++seen["singleton"];
    if (sz.first == 2) ++seen["pair"];
    if (sz.second == 16) ++seen["16 arcs"];
    if (sz.second == 17) ++seen["17 arcs"];
    if (sz.second > 17) ++seen["over 17 arcs"];
  }
  for (const char* kind :
       {"singleton", "pair", "16 arcs", "17 arcs", "over 17 arcs"}) {
    EXPECT_GT(seen[kind], 0) << kind;
  }
}

/// Contracts `g` from plain and from compressed rows on scalar and
/// vector devices of `workers` workers (0 = one per hardware thread)
/// and expects the std::map contraction bit for bit.
void expect_contracts_like_map(const Csr& g, const std::vector<Community>& part,
                               unsigned workers) {
  const Csr want = map_contraction(g, part);
  EXPECT_TRUE(graph::validate(want).empty());  // rows sorted
  const zg::ZCsr z = zg::ZCsr::encode(g);
  for (const simt::Backend backend :
       {simt::Backend::kScalar, simt::Backend::kVector}) {
    SCOPED_TRACE(simt::backend_name(backend));
    SCOPED_TRACE(workers);
    simt::Device device({.worker_threads = workers, .backend = backend});
    EXPECT_EQ(aggregate(device, g, part).contracted, want);
    ZRows rows(z, device.workers());
    Workspace ws;
    EXPECT_EQ(aggregate(device, rows, part, ws).contracted, want);
  }
}

/// Integer weights sum exactly in any order, so every device must match
/// the reference bitwise on one worker and on all of them.
void expect_integer_contraction_like_map(const Csr& g,
                                         const std::vector<Community>& part) {
  expect_contracts_like_map(g, part, 1);
  expect_contracts_like_map(g, part, 0);
}

/// The same graph with symmetric non-integer weights, whose sums depend
/// on the order they are added in.
Csr reweighted(const Csr& g) {
  std::vector<Weight> w(g.num_arcs());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (EdgeIdx e = g.offset(v); e < g.offset(v) + g.degree(v); ++e) {
      const VertexId u = g.adjacency()[e];
      w[e] = 1.0 / (3 + (std::min(u, v) * 7 + std::max(u, v)) % 11);
    }
  }
  return Csr({g.offsets().begin(), g.offsets().end()},
             {g.adjacency().begin(), g.adjacency().end()}, std::move(w));
}

TEST(Aggregate, SmallCommunityMergeMatchesMapContractionOnRoad) {
  const Csr g = gen::road_network({.grid_nx = 48, .grid_ny = 48, .seed = 3});
  const auto part = bound_partition(g);
  expect_straddles_bound(g, part);
  expect_integer_contraction_like_map(g, part);
  // One level up the rows carry self-loops (the merged internal weight).
  simt::Device device;
  const Csr up = aggregate(device, g, part).contracted;
  ASSERT_GT(up.num_loops(), 0u);
  const auto up_part = bound_partition(up);
  expect_straddles_bound(up, up_part);
  expect_integer_contraction_like_map(up, up_part);
}

TEST(Aggregate, SmallCommunityMergeMatchesMapContractionOnLfr) {
  const Csr g = gen::lfr({.num_vertices = 3000, .min_degree = 4,
                          .max_degree = 40, .min_community = 16,
                          .max_community = 200, .seed = 7})
                    .graph;
  const auto part = bound_partition(g);
  expect_straddles_bound(g, part);
  expect_integer_contraction_like_map(g, part);
}

TEST(Aggregate, MergeMatchesMapContractionOnPlantedPartition) {
  // 40 planted communities of about 7,000 arcs each.
  const gen::SbmResult sbm = gen::planted_partition(
      {.num_vertices = 20000, .num_communities = 40, .seed = 11});
  const Csr& g = sbm.graph;
  // The same with its last two communities split into singletons: 1,038
  // new ids. Planted labels are 0..39 over blocks of 500 ids, so a
  // singleton labelled by its own id (19,000 and up) joins no planted
  // community.
  std::vector<Community> split = sbm.ground_truth;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (split[v] >= 38) split[v] = v;
  }
  // Its one contraction has rows on both sides of the emission rule
  // (DESIGN §5.9: scan when the level has at most 16 ids per id the row
  // touches, else sort). A planted community's row touches the other
  // planted ones and the singletons its cut arcs reach, and scans; a
  // singleton's row touches its few neighbours' ids, and sorts.
  const Csr split_want = map_contraction(g, split);
  int scans = 0;
  int sorts = 0;
  for (VertexId c = 0; c < split_want.num_vertices(); ++c) {
    ++(split_want.num_vertices() <= 16 * split_want.degree(c) ? scans : sorts);
  }
  EXPECT_GT(scans, 0);
  EXPECT_GT(sorts, 0);

  const Csr fractional = reweighted(g);
  for (const std::vector<Community>& part : {sbm.ground_truth, split}) {
    expect_integer_contraction_like_map(g, part);
    // On one worker `com` holds each community's members in ascending
    // id order, the reference's order, so non-integer sums match
    // bitwise.
    expect_contracts_like_map(fractional, part, 1);
  }
  // One level up: 40 vertices with self-loops, merged into 8 communities.
  simt::Device device({.worker_threads = 1});
  const Csr up = aggregate(device, fractional, sbm.ground_truth).contracted;
  ASSERT_EQ(up.num_vertices(), 40u);
  ASSERT_EQ(up.num_loops(), 40u);
  std::vector<Community> up_part(up.num_vertices());
  for (VertexId v = 0; v < up.num_vertices(); ++v) up_part[v] = v / 5 * 5;
  expect_contracts_like_map(up, up_part, 1);
}

// --- The reference contraction and its accumulator.

/// The ids of `sums.touched()`, in order.
std::vector<Community> touched_ids(const CommunityWeights& sums) {
  return {sums.touched().begin(), sums.touched().end()};
}

/// Adds one row whose arc i has head ids[i] and weight w[i], each head
/// its own label; arcs to `skip` are left out.
void add_row(CommunityWeights& sums, std::vector<VertexId> ids,
             std::vector<Weight> w, VertexId skip = graph::kInvalidVertex) {
  const RowView r{ids.data(), w.data(), static_cast<std::uint32_t>(ids.size())};
  sums.add(r, skip, [](VertexId u) { return u; });
}

TEST(CommunityWeights, SumsInAddOrderAndClearsOnlyTouchedIds) {
  CommunityWeights sums(8, 9);
  const Weight a = 0.1;
  const Weight b = 0.2;
  const Weight c = 0.3;
  add_row(sums, {5, 2, 5, 3, 5}, {a, b, b, 1.0, c}, /*skip=*/3);
  EXPECT_EQ(touched_ids(sums), (std::vector<Community>{5, 2}));  // first touch
  EXPECT_EQ(sums[0], 0.0);  // untouched ids read 0
  EXPECT_EQ(sums[3], 0.0);  // the skipped head adds nothing
  EXPECT_EQ(sums[7], 0.0);
  // The sum is the left fold in add order, whose bits differ from
  // another association of the same three terms.
  ASSERT_NE((a + b) + c, a + (b + c));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sums[5]),
            std::bit_cast<std::uint64_t>((a + b) + c));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sums[2]), std::bit_cast<std::uint64_t>(b));

  // clear() zeroes the touched ids, so the next vertex starts clean:
  // every id reads 0 and a re-touched id is a first touch again.
  sums.clear();
  EXPECT_TRUE(sums.touched().empty());
  for (Community id = 0; id < 8; ++id) EXPECT_EQ(sums[id], 0.0) << id;
  add_row(sums, {2}, {c});
  add_row(sums, {5}, {a});  // rows accumulate until a clear
  EXPECT_EQ(touched_ids(sums), (std::vector<Community>{2, 5}));
  EXPECT_EQ(sums[2], c);
  EXPECT_EQ(sums[5], a);
}

TEST(CommunityWeights, DrainFoldsInFirstTouchOrderAndLeavesEverySumZero) {
  // Both touched-list sizes the class allows: 3 slots for 200 arcs over
  // two ids (one more than the distinct ids), and 200 slots for a row
  // of 200 arcs over 150 ids (the arcs added).
  for (const auto& [ids, slots] :
       {std::pair<Community, std::size_t>{2, 3}, {150, 200}}) {
    SCOPED_TRACE(ids);
    CommunityWeights sums(1000, slots);
    std::vector<VertexId> heads;
    std::vector<Weight> w;
    std::vector<Weight> want(1000, 0);
    for (std::uint32_t i = 0; i < 200; ++i) {
      heads.push_back(999 - (i * 7) % ids);
      w.push_back(0.1 + 0.01 * (i % 13));
      want[heads.back()] += w.back();
    }
    add_row(sums, heads, w);
    ASSERT_EQ(sums.touched().size(), ids);
    std::vector<Community> order;
    sums.drain([&](Community c, Weight sum) {
      order.push_back(c);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(sum),
                std::bit_cast<std::uint64_t>(want[c])) << c;
    });
    std::vector<Community> first_touch;
    for (const VertexId h : heads) {
      if (std::find(first_touch.begin(), first_touch.end(), h) ==
          first_touch.end()) {
        first_touch.push_back(h);
      }
    }
    EXPECT_EQ(order, first_touch);
    EXPECT_TRUE(sums.touched().empty());
    for (Community id = 0; id < 1000; ++id) ASSERT_EQ(sums[id], 0.0) << id;
  }
}

TEST(CommunityWeights, GrowsPastItsInitialTouchedCapacity) {
  CommunityWeights sums(1000, 4);
  sums.grow(1000, 600);
  std::vector<VertexId> heads;
  for (VertexId i = 0; i < 600; ++i) heads.push_back(i % 500 * 2);
  add_row(sums, heads, std::vector<Weight>(600, 1.0));
  ASSERT_EQ(sums.touched().size(), 500u);  // more than the first 4
  for (VertexId i = 0; i < 500; ++i) {
    EXPECT_EQ(sums.touched()[i], i * 2);
    EXPECT_EQ(sums[i * 2], i < 100 ? 2.0 : 1.0);
  }
  sums.clear();
  for (Community id = 0; id < 1000; ++id) ASSERT_EQ(sums[id], 0.0) << id;
}

TEST(CommunityWeights, GrowingTheIdsOfAUsedAccumulatorKeepsItsSums) {
  CommunityWeights sums(8, 9);
  add_row(sums, {6, 1, 6}, {0.25, 0.5, 0.75});
  sums.grow(64, 9);  // a larger phase hands the same accumulator out
  EXPECT_EQ(touched_ids(sums), (std::vector<Community>{6, 1}));
  EXPECT_EQ(sums[6], 1.0);
  EXPECT_EQ(sums[1], 0.5);
  for (Community id = 8; id < 64; ++id) ASSERT_EQ(sums[id], 0.0) << id;
  add_row(sums, {63, 6}, {2.0, 1.0});
  EXPECT_EQ(touched_ids(sums), (std::vector<Community>{6, 1, 63}));
  EXPECT_EQ(sums[63], 2.0);
  EXPECT_EQ(sums[6], 2.0);
  sums.clear();
  for (Community id = 0; id < 64; ++id) ASSERT_EQ(sums[id], 0.0) << id;
}

TEST(ReferenceContraction, MatchesMapContractionBitForBit) {
  // Members are summed in ascending id and each row in adjacency order,
  // the order map_contraction adds in, so even non-integer sums agree
  // bit for bit, on either row source and at any pool size.
  const Csr sbm = gen::planted_partition(
                      {.num_vertices = 20000, .num_communities = 40, .seed = 11})
                      .graph;
  const Csr road = gen::road_network({.grid_nx = 48, .grid_ny = 48, .seed = 3});
  simt::ThreadPool one(1);
  simt::ThreadPool four(4);
  for (const auto& [input, base] :
       {std::pair<const char*, const Csr*>{"sbm", &sbm}, {"road", &road}}) {
    for (const bool integer : {true, false}) {
      const Csr g = integer ? *base : reweighted(*base);
      const zg::ZCsr z = zg::ZCsr::encode(g);
      for (const bool bound : {true, false}) {
        const auto part = bound ? bound_partition(g)
                                : random_partition(g.num_vertices(), 17, 5);
        const Csr want = map_contraction(g, part);
        for (simt::ThreadPool* pool : {&one, &four}) {
          SCOPED_TRACE(std::string(input) + (integer ? " integer" : " reweighted") +
                       (bound ? " bound_partition" : " random_partition") +
                       " pool " + std::to_string(pool->size()));
          EXPECT_EQ(contract_reference(PlainRows(g), part, *pool), want);
          EXPECT_EQ(contract_reference(ZRows(z, pool->size()), part, *pool), want);
        }
      }
    }
  }
}

Csr random_graph(VertexId n, std::size_t m, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<graph::Edge> edges;
  for (std::size_t i = 0; i < m; ++i) {
    edges.push_back({static_cast<VertexId>(rng.next_below(n)),
                     static_cast<VertexId>(rng.next_below(n)),
                     1.0 + static_cast<double>(rng.next_below(5))});
  }
  return graph::build_csr(n, std::move(edges));
}

TEST(ReferenceContraction, MergesCommunities) {
  // Two triangles joined by one edge; contract each triangle.
  const Csr g = graph::build_csr(6, {{0, 1, 1}, {1, 2, 1}, {0, 2, 1},
                                     {3, 4, 1}, {4, 5, 1}, {3, 5, 1},
                                     {2, 3, 1}});
  const std::vector<Community> part{0, 0, 0, 1, 1, 1};
  const Csr c = contract_reference(PlainRows(g), part, simt::ThreadPool::global());
  EXPECT_EQ(c.num_vertices(), 2u);
  // Self-loop: 2 * 3 internal edges = 6; cross edge weight 1.
  EXPECT_DOUBLE_EQ(c.loop_weight(0), 6.0);
  EXPECT_DOUBLE_EQ(c.loop_weight(1), 6.0);
  EXPECT_NEAR(c.total_weight(), g.total_weight(), 1e-9);
  EXPECT_TRUE(graph::validate(c).empty()) << graph::validate(c);
}

TEST(ReferenceContraction, PreservesTotalWeightOnRandom) {
  const Csr g = random_graph(300, 2000, 4);
  util::Xoshiro256 rng(9);
  std::vector<Community> part(300);
  for (auto& c : part) c = static_cast<Community>(rng.next_below(17));
  std::vector<VertexId> new_id;
  const Csr c = contract_reference(PlainRows(g), part, simt::ThreadPool::global(),
                                   &new_id);
  EXPECT_NEAR(c.total_weight(), g.total_weight(), 1e-9);
  EXPECT_TRUE(graph::validate(c).empty()) << graph::validate(c);
  // Strength of each new vertex equals the summed member strengths.
  std::vector<Weight> expect(c.num_vertices(), 0);
  for (VertexId v = 0; v < 300; ++v) expect[new_id[part[v]]] += g.strength(v);
  for (VertexId nv = 0; nv < c.num_vertices(); ++nv) {
    EXPECT_NEAR(c.strength(nv), expect[nv], 1e-9) << nv;
  }
}

TEST(ReferenceContraction, IdentityPartition) {
  const Csr g = random_graph(50, 200, 5);
  std::vector<Community> part(50);
  for (VertexId v = 0; v < 50; ++v) part[v] = v;
  const Csr c = contract_reference(PlainRows(g), part, simt::ThreadPool::global());
  EXPECT_EQ(c, g);
}

}  // namespace
}  // namespace glouvain::core
