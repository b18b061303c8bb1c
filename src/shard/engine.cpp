#include "shard/engine.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>
#include <utility>

#include "obs/recorder.hpp"
#include "shard/halo.hpp"
#include "shard/plan_cache.hpp"
#include "simt/device_pool.hpp"
#include "util/timer.hpp"

namespace glouvain::shard {

namespace engine_detail {

using graph::Community;
using graph::Csr;
using graph::VertexId;
using graph::Weight;
using graph::kInvalidVertex;

/// Move/exchange rounds per level before aggregating. Round r+1
/// re-seeds every shard from the exchanged labels and only revisits the
/// change frontier, so rounds after the first are cheap; the round loop
/// additionally stops once a round's all-reduced moved count drops under
/// kRoundMoveFloor (cross-shard moves need tighter settling than
/// intra-phase sweeps, or the cut boundary freezes prematurely and
/// quality decays with 1/k).
constexpr int kRoundsPerLevel = 12;

/// Rounds during which dirty high-degree vertices (local degree >
/// Config::hub_degree) are re-scanned like everyone else. From this
/// round on a hub re-enters the frontier only by moving itself: on a
/// scale-free graph some neighbour of every hub moves every round, so
/// dirty-marking alone would re-scan each hub's full row per round
/// forever — the dominant term of the settle tail's critical path —
/// while the hubs themselves, holding the strongest community signal,
/// settle within the first rounds.
constexpr int kHubSettleRounds = 2;

/// Round stopping rule: stop the move/exchange rounds of a level once a
/// round migrates fewer than this fraction of the level's vertices
/// (floored at 16 absolute). It trades cut-boundary settling depth
/// against rounds on the critical path; with hubs settled the tail
/// rounds are cheap (non-hub frontier only), so a deep 0.1% floor buys
/// quality margin for a few M arcs.
constexpr double kRoundMoveFloor = 1e-3;

std::int64_t steady_now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-device-lane scratch of the concurrent rounds (and, as lane 0,
/// of the sequential simulation): the seed-marshal buffers and the
/// phase workspace one resident device would keep. The sequential
/// rounds sweep in the level loop's own workspace instead of `ws`.
struct Lane {
  std::vector<Community> seed;       ///< per-shard local seed labels
  std::vector<Community> rep_comm;   ///< local slot -> global community
  std::vector<Community> comm_slot;  ///< global community -> local slot
  std::vector<VertexId> slot_list;   ///< slots claimed by this shard
  std::vector<VertexId> frontier;    ///< the round's active set
  core::Workspace ws;
};

/// One buffered move: OWNED global vertex -> new global community.
/// Proposals are collected inside a sweep and applied at the barrier
/// (concurrent Jacobi) or immediately after the sweep (sequential
/// Gauss-Seidel) — by the driver thread in both cases. `gain` is the
/// sweep's predicted dQ of the move (against the snapshot it ran on);
/// the barrier commits best-first, so when two snapshot-scored moves
/// conflict the one worth more lands and the marginal one is the one
/// re-scored against it.
struct Proposal {
  VertexId v;
  Community c;
  double gain;
};

/// What one shard's sweep reports back to the driver.
struct SweepOutcome {
  bool ran = false;                ///< false = empty frontier, no work
  int sweeps = 0;
  double work = 0;                 ///< deterministic work units
  double first_sweep_seconds = 0;  ///< round 0 only
  std::int64_t start_raw = 0;      ///< raw steady-clock ns (trace rebase)
  std::int64_t dur_ns = 0;         ///< the sweep's wall time
};

/// One shard's restricted move sweep against the round-start global
/// snapshot: frontier selection, seed marshal, phase, proposal
/// collection. READS the shared round state (gs, last_moved,
/// dirty_round) and WRITES only lane-local scratch + this shard's
/// PhaseState/proposals — the property that makes the concurrent
/// rounds race-free (and that the tools/glint.py rule shard-barrier
/// enforces on the parallel_shards body below).
SweepOutcome run_shard_sweep(
    simt::Device& device, const Shard& sh, core::PhaseState& st,
    const core::Config& frontier_cfg, double threshold, int round,
    graph::EdgeIdx hub_degree, const GlobalState& gs,
    const std::vector<int>& last_moved, const std::vector<int>& dirty_round,
    Lane& lane, core::Workspace& ws, obs::Recorder* rec,
    std::vector<Proposal>& proposals) {
  SweepOutcome out;
  out.start_raw = steady_now_ns();
  const Csr& local = sh.local;
  const VertexId local_n = sh.num_local();
  const VertexId mapped_n = local_n - (sh.has_phantom ? 1 : 0);

  // Round 0 optimizes every owned vertex. Later rounds only revisit
  // the change frontier: owned vertices that moved since this shard
  // last ran, or whose neighbourhood changed (movers stamp their
  // neighbours dirty at publish time — push-based marking — so
  // membership is two O(1) reads per owned vertex, no adjacency
  // scan). Everything else sits at the local optimum it reached last
  // round, so re-sweeping it buys nothing; an idle shard skips even
  // the seed marshal.
  //
  // Hub settling (kHubSettleRounds): past the opening rounds a dirty
  // hub row is not re-scanned — on a scale-free cut every hub is
  // dirtied every round, and those full-degree re-scans would dominate
  // the settle tail. A hub that itself moved stays eligible.
  const bool settle_hubs = round >= kHubSettleRounds;
  lane.frontier.clear();
  double active_arcs = 0;
  for (VertexId i = 0; i < sh.num_owned; ++i) {
    const VertexId g = sh.global_of[i];
    if (round > 0 && last_moved[g] < round - 1 &&
        (dirty_round[g] < round - 1 ||
         (settle_hubs && local.degree(i) > hub_degree))) {
      continue;
    }
    lane.frontier.push_back(i);
    active_arcs += static_cast<double>(local.degree(i));
  }
  if (lane.frontier.empty()) return out;

  // Seed the local state from the exchanged global view: the slot of
  // community c is the first local vertex found in c, and rep_comm
  // remembers which global community a slot stands for.
  lane.seed.resize(local_n);
  lane.rep_comm.resize(local_n);
  lane.slot_list.clear();
  for (VertexId i = 0; i < mapped_n; ++i) {
    const Community c = gs.community_of(sh.global_of[i]);
    if (lane.comm_slot[c] == kInvalidVertex) {
      lane.comm_slot[c] = i;
      lane.rep_comm[i] = c;
      lane.slot_list.push_back(i);
    }
    lane.seed[i] = lane.comm_slot[c];
  }
  if (sh.has_phantom) lane.seed[local_n - 1] = local_n - 1;
  if (round == 0) {
    st.reset_from(local, device, lane.seed);
  } else {
    st.reseed(device, lane.seed);
  }
  // Exchanged community totals replace the locally-accumulated ones,
  // so gains computed inside the shard are GLOBAL gains. The phantom
  // keeps its reset total (its own pad strength — it is frozen and
  // adjacent to nothing, so it never appears as a move candidate).
  for (const VertexId slot : lane.slot_list) {
    st.tot[slot] = gs.tot_of(lane.rep_comm[slot]);
  }

  const PhaseResult phase = core::optimize_phase(
      device, local, frontier_cfg, st, lane.frontier, threshold, ws, rec);
  out.sweeps = phase.sweeps;
  out.first_sweep_seconds = phase.first_sweep_seconds;

  // Buffer the owned labels that changed against the snapshot this
  // sweep ran on; the driver publishes them (gs/apply_move is
  // barrier-protected state).
  proposals.clear();
  for (VertexId i = 0; i < sh.num_owned; ++i) {
    const Community c_new = lane.rep_comm[st.community[i]];
    const VertexId g = sh.global_of[i];
    if (c_new != gs.community_of(g)) {
      proposals.push_back({g, c_new, st.move_gain[i]});
    }
  }
  for (const VertexId slot : lane.slot_list) {
    lane.comm_slot[lane.rep_comm[slot]] = kInvalidVertex;
  }

  // Deterministic per-shard cost (engine.hpp Result doc): one arc
  // pass over the active set per sweep, the O(slots) seed marshal,
  // and the state transfer — full upload on round 0, label-derived
  // reseed after.
  out.work = active_arcs * static_cast<double>(std::max(phase.sweeps, 1)) +
             static_cast<double>(mapped_n) +
             (round == 0 ? static_cast<double>(local.num_arcs())
                         : static_cast<double>(local_n));
  out.dur_ns = steady_now_ns() - out.start_raw;
  out.ran = true;
  return out;
}

/// Run `lanes` host threads over fn(lane); the join IS the round
/// barrier. Cross-shard mutable state (gs writes, last_moved /
/// dirty_round stamps, rebuild_tot) is forbidden inside fn — the
/// glint shard-barrier rule flags it — so everything a lane
/// touches is private until the barrier publishes it.
template <typename Fn>
void run_lanes(unsigned lanes, Fn&& fn) {
  if (lanes <= 1) {
    fn(0u);
    return;
  }
  std::vector<std::exception_ptr> errors(lanes);
  std::vector<std::thread> threads;
  threads.reserve(lanes);
  for (unsigned lane = 0; lane < lanes; ++lane) {
    threads.emplace_back([&errors, &fn, lane] {
      try {
        fn(lane);
      } catch (...) {
        errors[lane] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

/// Publish one move into the global view (with incremental tot
/// updates), stamp the mover and dirty its global neighbourhood (the
/// targeting of a real halo message); false if the vertex was already
/// there. The delta-screening prune (Vite/GVE lineage): a neighbour
/// already in the mover's destination community saw its stay-put
/// option reinforced, not weakened — skip it. Both round protocols
/// publish through here, on the driver thread.
bool publish(VertexId v, Community c, GlobalState& gs, const Csr& global,
             std::span<const Weight> strengths, int round,
             std::vector<int>& last_moved, std::vector<int>& dirty_round) {
  if (!gs.apply_move(v, c, strengths)) return false;
  last_moved[v] = round;
  for (const VertexId u : global.neighbors(v)) {
    if (gs.community_of(u) != c) dirty_round[u] = round;
  }
  return true;
}

/// Driver-side scratch of the validated barrier commit: per-community
/// weight accumulators with a lazy-reset stamp (the standard CSR
/// neighbourhood-scan trick), sized to the level's vertex count on
/// first use and reused across rounds/levels.
struct CommitScratch {
  std::vector<Weight> comm_w;       ///< e_{v->c} of the current vertex
  std::vector<std::uint64_t> mark;  ///< lazy-reset stamp for comm_w
  std::uint64_t now = 0;
  std::vector<Community> cands;     ///< touched candidate communities
};

/// Validated barrier commit of the concurrent rounds. A Jacobi sweep's
/// proposals were all scored against the same round-start snapshot, so
/// publishing them blindly re-creates the classic parallel-Louvain
/// pathologies: adjacent vertices in different shards swap into each
/// other's OLD community, and thousands of vertices pile into the same
/// attractive community whose tot each of them priced as if it came
/// alone. Instead the driver RE-DECIDES every buffered move against the
/// CURRENT view — labels and tot of everything committed before it:
/// one scan of the proposer's neighbourhood rebuilds its per-community
/// weights and picks the fresh argmax destination with the exact core
/// gain rule (modopt.cpp: candidate e_{v->c} - k_v*a_c/2m vs. stay,
/// 1e-15 slack). The snapshot only nominates WHO wants to move (and in
/// what order — see the gain sort at the call site); WHERE it lands is
/// decided at commit time, so the commit sequence is a genuine
/// sequential-Louvain move sequence — every applied move is the
/// proposer's best profitable move at its application point, no matter
/// how many lanes raced. (Re-scoring only the snapshot-chosen target
/// was tried first and measurably lags Gauss-Seidel: stale targets get
/// dropped instead of redirected, and the cut settles ~3% short.)
/// O(deg(v)) per proposal on the driver; on a device deployment this
/// is the owner-side conflict-resolution pass folded into the
/// exchange.
std::uint64_t apply_proposals_validated(
    const std::vector<Proposal>& proposals, GlobalState& gs,
    const Csr& global, std::span<const Weight> strengths, int round,
    std::vector<int>& last_moved, std::vector<int>& dirty_round,
    CommitScratch& scratch, double& validate_arcs) {
  std::uint64_t moved = 0;
  const double inv_m2 = 1.0 / static_cast<double>(global.total_weight());
  if (scratch.comm_w.size() < global.num_vertices()) {
    scratch.comm_w.assign(global.num_vertices(), 0);
    scratch.mark.assign(global.num_vertices(), 0);
    scratch.now = 0;
  }
  for (const Proposal& p : proposals) {
    const Community from = gs.community_of(p.v);
    const std::span<const VertexId> adj = global.neighbors(p.v);
    const std::span<const Weight> w = global.weights(p.v);
    validate_arcs += static_cast<double>(adj.size());
    ++scratch.now;
    scratch.cands.clear();
    Weight d_old = 0;  // e_{v->C(v)\{v}}, as in the kernel's slot scan
    for (std::size_t e = 0; e < adj.size(); ++e) {
      const VertexId u = adj[e];
      if (u == p.v) continue;  // self-loop: equal for every candidate
      const Community cu = gs.community_of(u);
      if (cu == from) {
        d_old += w[e];
        continue;
      }
      if (scratch.mark[cu] != scratch.now) {
        scratch.mark[cu] = scratch.now;
        scratch.comm_w[cu] = 0;
        scratch.cands.push_back(cu);
      }
      scratch.comm_w[cu] += w[e];
    }
    const Weight kv = strengths[p.v];
    const double stay = d_old - kv * (gs.tot_of(from) - kv) * inv_m2;
    double best_gain = stay;
    Community best_c = from;
    for (const Community c : scratch.cands) {
      const double gain = scratch.comm_w[c] - kv * gs.tot_of(c) * inv_m2;
      // Strictly-greater keeps ties on the first candidate in adjacency
      // order — deterministic, the CSR fixes the order.
      if (gain > best_gain + 1e-15) {
        best_gain = gain;
        best_c = c;
      }
    }
    if (best_c == from) {
      // The world moved between the sweep and this commit point and no
      // destination pays any more. Mark the vertex dirty so its shard
      // re-scores it NEXT round against the exchanged labels — without
      // the stamp a rejected vertex whose neighbourhood then goes quiet
      // would drop out of the frontier and sit misplaced forever.
      dirty_round[p.v] = round;
      continue;
    }
    moved += publish(p.v, best_c, gs, global, strengths, round, last_moved,
                     dirty_round);
  }
  return moved;
}

}  // namespace engine_detail

namespace {
using engine_detail::kRoundMoveFloor;
using engine_detail::kRoundsPerLevel;
using engine_detail::Lane;
using engine_detail::Proposal;
using engine_detail::SweepOutcome;
using engine_detail::apply_proposals_validated;
using engine_detail::CommitScratch;
using engine_detail::publish;
using engine_detail::run_lanes;
using engine_detail::run_shard_sweep;
using engine_detail::steady_now_ns;
using graph::Community;
using graph::Csr;
using graph::VertexId;
using graph::Weight;
using graph::kInvalidVertex;
}  // namespace

/// What the sharded levels keep across rounds, levels and runs, as one
/// resident device per shard would.
struct Engine::State {
  GlobalState gs;
  std::vector<Weight> strengths;
  std::vector<int> last_moved;   ///< round a global vertex last moved
  std::vector<int> dirty_round;  ///< round a neighbour last moved
  /// One resident phase state per shard: round 0 of a level uploads
  /// the local graph (reset_from, O(arcs)); later rounds only reseed
  /// the label-derived state (O(n)), which is what a real device pays
  /// after a halo update.
  std::vector<core::PhaseState> shards;
  /// One marshal lane per leased device; lane 0 also serves the
  /// sequential rounds.
  std::vector<Lane> lanes;
  std::vector<std::vector<Proposal>> proposals;  ///< per-shard move buffer
  std::vector<Proposal> all_props;  ///< gain-ordered barrier commit queue
  std::vector<SweepOutcome> outcomes;            ///< per-shard, per round
  CommitScratch commit;
};

Engine::Engine(const Config& config)
    : config_(config),
      core_(core::to_config(config_)),
      state_(std::make_unique<State>()) {
  plan_cache().set_capacity(config_.plan_cache_capacity);
}

Engine::~Engine() = default;

void Engine::set_config(const Config& config) {
  config_ = config;
  core_.set_config(core::to_config(config_));
  pool_.reset();  // an engine-owned pool re-derives from the new shape
  plan_cache().set_capacity(config_.plan_cache_capacity);
}

simt::DevicePool& Engine::pool() {
  if (config_.device_pool) return *config_.device_pool;
  if (!pool_) {
    simt::DevicePoolConfig pc;
    pc.max_devices = std::max(1u, config_.shards);
    pc.total_threads = config_.threads;
    pc.device.backend = config_.device;
    pool_ = std::make_shared<simt::DevicePool>(pc);
  }
  return *pool_;
}

unsigned Engine::shards_for(VertexId n) const noexcept {
  const unsigned want = config_.shards == 0 ? 1 : config_.shards;
  if (want <= 1) return 1;
  const VertexId min_n = std::max<VertexId>(config_.min_shard_vertices, 1);
  const std::uint64_t fit = std::max<std::uint64_t>(n / min_n, 1);
  return static_cast<unsigned>(std::min<std::uint64_t>(want, fit));
}

std::shared_ptr<const Plan> Engine::plan_for(const Csr& graph, unsigned k,
                                             obs::Recorder* rec,
                                             Result& result) {
  const PartitionConfig pcfg{k, config_.partition, config_.partition_seed,
                             config_.hub_degree};
  // A disabled cache can never hit, so it costs no fingerprint pass.
  const bool cached = config_.plan_cache_capacity > 0;
  PlanKey key;
  if (cached) {
    key = plan_key(graph, pcfg);
    if (std::shared_ptr<const Plan> plan = plan_cache().get(key)) {
      ++result.plan_hits;
      if (rec) rec->count("cache/plan_hit", 1);
      return plan;
    }
  }
  ++result.plan_misses;
  if (rec) rec->count("cache/plan_miss", 1);
  auto built = std::make_shared<const Plan>(
      make_plan(graph, pcfg, core_.device().pool()));
  if (cached) plan_cache().put(key, built);
  return built;
}

Result Engine::run(const Csr& graph, obs::Recorder* rec) {
  Result result;
  core_.run_levels(
      graph,
      [&](int level, const Csr& current, double threshold) {
        const unsigned k = shards_for(current.num_vertices());
        if (k > 1) {
          return sharded_level(level, current, k, threshold, result, rec);
        }
        // ---- unsharded level: core's cold step verbatim, so shards <= 1
        // stays bitwise-identical to "core" and small contracted levels
        // get an exact finishing pass.
        util::Timer timer;
        const core::LevelPhase lp = core_.cold_phase(current, threshold, rec);
        const double crit = timer.seconds();
        result.critical_seconds += crit;
        // Work model (Result::critical_work): upload + one arc pass per
        // move sweep. The phase's own per-sweep modularity evaluations
        // are not charged — a deliberate bias AGAINST the sharded runs,
        // whose gates compare to this baseline.
        const double level_work =
            static_cast<double>(current.num_arcs()) *
            (1.0 + static_cast<double>(std::max(lp.phase.sweeps, 1)));
        result.critical_work += level_work;
        if (rec) {
          rec->count("shard/critical_ns", crit * 1e9);
          rec->count("shard/critical_work", level_work);
        }
        return lp;
      },
      result, rec);
  return result;
}

core::LevelPhase Engine::sharded_level(int level, const Csr& current,
                                       unsigned k, double threshold,
                                       Result& result, obs::Recorder* rec) {
  // Partition (through the plan cache), then alternate per-shard
  // restricted phases with halo exchanges of labels and community
  // totals. Sequential mode sweeps the shards Gauss-Seidel on the one
  // warm device; concurrent mode leases up to k pooled devices and
  // runs each round as a barrier-synchronized Jacobi step (see
  // engine.hpp).
  simt::Device& device = core_.device();
  core::Workspace& ws = core_.workspace();
  const VertexId n = current.num_vertices();
  State& st = *state_;
  GlobalState& gs = st.gs;
  std::vector<Weight>& strengths = st.strengths;
  std::vector<int>& last_moved = st.last_moved;
  std::vector<int>& dirty_round = st.dirty_round;
  std::vector<std::vector<Proposal>>& proposals = st.proposals;
  std::vector<SweepOutcome>& outcomes = st.outcomes;

  std::shared_ptr<const Plan> plan_ptr;
  {
    obs::Span span(rec, "shard/partition");
    plan_ptr = plan_for(current, k, rec, result);
  }
  const Plan& plan = *plan_ptr;
  if (level == 0) {
    result.partition = plan.stats;
    result.shards_used = k;
  }
  if (rec) {
    rec->count("shard/shards", static_cast<double>(k));
    rec->count("shard/cut_edges", static_cast<double>(plan.stats.cut_edges));
    rec->count("shard/ghost_ratio", plan.stats.ghost_ratio);
    rec->count("shard/imbalance", plan.stats.imbalance);
    rec->count("shard/replicated_hubs",
               static_cast<double>(plan.stats.replicated_hubs));
    rec->count("shard/halo_values",
               static_cast<double>(plan.exchange.values_per_round()));
  }

  strengths = current.compute_strengths();
  gs.reset(n);
  gs.rebuild_tot(strengths);
  last_moved.assign(n, -1);
  dirty_round.assign(n, -1);
  if (st.shards.size() < k) st.shards.resize(k);
  if (proposals.size() < k) proposals.resize(k);
  if (outcomes.size() < k) outcomes.resize(k);

  const bool concurrent = config_.concurrent_shards;
  simt::DeviceLease lease;
  unsigned lanes_n = 1;
  if (concurrent) {
    // One lease per level: the degradation ladder (k devices ->
    // fewer -> 1) happens here, inside acquire().
    lease = pool().acquire(k);
    lanes_n = lease.granted();
    result.devices_used = std::max(result.devices_used, lanes_n);
    if (rec) rec->count_max("shard/devices", lanes_n);
  }
  if (st.lanes.size() < lanes_n) st.lanes.resize(lanes_n);
  for (unsigned l = 0; l < lanes_n; ++l) {
    st.lanes[l].comm_slot.assign(n, kInvalidVertex);
  }

  // Every round (round 0 included) runs with the phase-internal
  // modularity machinery off and the sweep count capped: the round
  // loop is the outer iteration here (stopping on the all-reduced
  // moved count), each in-phase evaluation is a full O(|E_local|)
  // pass that would otherwise dominate the per-round critical path
  // at small k, and a shard-locally-converged deep phase is
  // redundant with the rounds themselves — moves its later sweeps
  // would make happen in the next round instead, against an
  // exchanged (fresher) boundary. Sweeps stop on the accumulated
  // predicted gain, bounded hard.
  core::Config frontier_cfg = core_.config();
  frontier_cfg.eval_phase_modularity = false;
  // ONE sweep per round: an in-phase second sweep would re-scan
  // the whole active set against the same stale boundary, while
  // the next round re-scans only the shrunken frontier against
  // exchanged labels — the round loop is the cheaper (and fresher)
  // iteration. This is the one-scan-per-exchange structure of
  // distributed Louvain.
  frontier_cfg.max_sweeps_per_level = 1;

  int sweeps = 0;
  double level_critical = 0;
  double level_work = 0;
  double first_sweep_max = 0;
  for (int round = 0; round < kRoundsPerLevel; ++round) {
    std::uint64_t moved = 0;
    double max_shard_seconds = 0;
    double max_shard_work = 0;
    double commit_seconds = 0;   ///< validated barrier commit (conc)
    double validate_arcs = 0;    ///< arcs re-scored by that commit
    const auto tally = [&](const SweepOutcome& o) {
      sweeps += o.sweeps;
      if (round == 0) {
        first_sweep_max = std::max(first_sweep_max, o.first_sweep_seconds);
      }
      max_shard_seconds =
          std::max(max_shard_seconds, static_cast<double>(o.dur_ns) * 1e-9);
      max_shard_work = std::max(max_shard_work, o.work);
    };
    if (!concurrent) {
      // Symmetric Gauss-Seidel over the shards: odd rounds sweep in
      // reverse, so no shard is permanently the leader (with a
      // fixed order the first shard always moves against a stale
      // boundary and the last always reacts — the cut settles
      // lopsided). Each sweep publishes before the next shard runs.
      for (unsigned si = 0; si < k; ++si) {
        const unsigned s = (round & 1) != 0 ? k - 1 - si : si;
        const Shard& sh = plan.shards[s];
        if (sh.num_owned == 0) continue;
        obs::Span shard_span(rec, "shard/phase");
        const SweepOutcome o = run_shard_sweep(
            device, sh, st.shards[s], frontier_cfg, threshold, round,
            config_.hub_degree, gs, last_moved, dirty_round, st.lanes[0], ws,
            rec, proposals[s]);
        if (!o.ran) continue;
        tally(o);
        for (const Proposal& p : proposals[s]) {
          moved += publish(p.v, p.c, gs, current, strengths, round, last_moved,
                           dirty_round);
        }
      }
    } else {
      // Jacobi round: every shard sweeps against the same
      // round-start snapshot of gs/last_moved/dirty_round, on its
      // leased device lane; the join below is the barrier, and
      // only then does the driver publish the buffered moves —
      // in fixed shard order, so the result is deterministic no
      // matter how many devices the lease granted.
      obs::Span round_span(rec, "shard/round");
      const std::int64_t anchor_raw = steady_now_ns();
      const std::int64_t anchor_rel = rec ? rec->elapsed_ns() : 0;
      run_lanes(lanes_n, [&](unsigned lane_id) {
        Lane& lane = st.lanes[lane_id];
        simt::Device& dev = lease.device(lane_id);
        for (unsigned s = lane_id; s < k; s += lanes_n) {
          const Shard& sh = plan.shards[s];
          outcomes[s] = SweepOutcome{};
          proposals[s].clear();
          if (sh.num_owned == 0) continue;
          outcomes[s] = run_shard_sweep(
              dev, sh, st.shards[s], frontier_cfg, threshold, round,
              config_.hub_degree, gs, last_moved, dirty_round, lane, lane.ws,
              nullptr, proposals[s]);
        }
      });
      // ---- barrier: publish timings, then moves, in shard order.
      for (unsigned s = 0; s < k; ++s) {
        const SweepOutcome& o = outcomes[s];
        if (!o.ran) continue;
        if (rec) {
          rec->add_timed_span("shard/phase",
                              anchor_rel + (o.start_raw - anchor_raw),
                              o.dur_ns, lease.lane_of(s) + 1);
        }
        tally(o);
      }
      // Validated commit (apply_proposals_validated): the round's
      // proposals merge into one best-first queue — predicted dQ
      // descending, vertex id breaking ties (each owned vertex
      // appears at most once, so the order is total and device-
      // count independent) — and each proposer gets a fresh
      // best-destination decision against the partially-committed
      // view before it lands. Cross-shard swap/overcrowding
      // oscillations die here rather than in the modularity, and
      // when two snapshot-scored moves conflict the more valuable
      // one decides first.
      util::Timer commit_timer;
      std::vector<Proposal>& all_props = st.all_props;
      all_props.clear();
      for (unsigned s = 0; s < k; ++s) {
        all_props.insert(all_props.end(), proposals[s].begin(),
                         proposals[s].end());
      }
      std::sort(all_props.begin(), all_props.end(),
                [](const Proposal& a, const Proposal& b) {
                  return a.gain != b.gain ? a.gain > b.gain : a.v < b.v;
                });
      moved += apply_proposals_validated(all_props, gs, current, strengths,
                                         round, last_moved, dirty_round,
                                         st.commit, validate_arcs);
      commit_seconds = commit_timer.seconds();
    }

    // Halo exchange: rebuild every community's total strength from
    // scratch (the O(|C|) all-reduce of a real deployment, and the
    // fp-drift hygiene for apply_move's incremental updates).
    util::Timer ex_timer;
    {
      obs::Span ex_span(rec, "shard/exchange");
      gs.rebuild_tot(strengths);
    }
    const double exchange_seconds = ex_timer.seconds();
    // The validated commit is driver-side serial work on the
    // concurrent critical path (sequential rounds publish inside
    // the per-shard sweep instead), so it is charged in full.
    level_critical += max_shard_seconds + commit_seconds + exchange_seconds;
    // The exchange is the O(n) label broadcast + tot all-reduce.
    level_work += max_shard_work + validate_arcs + static_cast<double>(n);
    ++result.exchange_rounds;
    if (rec) {
      rec->count("shard/rounds", 1);
      rec->count("shard/exchange_ns", exchange_seconds * 1e9);
      rec->count("shard/moved", static_cast<double>(moved), round);
    }
    // Round stopping rule: the all-reduced moved count, as
    // distributed Louvain does it — a global modularity evaluation
    // is a full O(|E|) pass and does NOT belong in the per-round
    // exchange (it would dominate the critical path at small k).
    // Rounds settle the cut boundary, so run them until migration
    // dries up; the frontier restriction above makes the trailing
    // rounds cheap.
    const auto move_floor = static_cast<std::uint64_t>(
        kRoundMoveFloor * static_cast<double>(n));
    if (moved < std::max<std::uint64_t>(move_floor, 16)) break;
  }
  // One global modularity evaluation per level (the figure a real
  // deployment computes alongside the final all-reduce), charged to
  // the critical path once.
  PhaseResult phase;
  phase.sweeps = sweeps;
  phase.first_sweep_seconds = first_sweep_max;
  util::Timer q_timer;
  {
    obs::Span q_span(rec, "shard/modularity");
    phase.modularity = core::device_modularity(device, current, gs.labels_raw,
                                               gs.tot_raw, ws);
  }
  level_critical += q_timer.seconds();
  // The level-end modularity evaluation is itself sharded in a
  // real deployment (each device reduces its local arcs, then an
  // all-reduce), so the critical path carries arcs / k of it.
  level_work += static_cast<double>(current.num_arcs()) / k;
  result.critical_seconds += level_critical;
  result.critical_work += level_work;
  if (rec) {
    rec->count("shard/critical_ns", level_critical * 1e9);
    rec->count("shard/critical_work", level_work);
  }
  return {phase, gs.labels()};
}

Result louvain(const Csr& graph, const Config& config, obs::Recorder* rec) {
  Engine engine(config);
  return engine.run(graph, rec);
}

}  // namespace glouvain::shard
