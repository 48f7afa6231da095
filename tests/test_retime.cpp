// Retiming tests: stage assignment legality and optimality on hand-checked
// netlists, T1 constraints (paper eqs. 3-5), DFF counting vs. the closed
// form, materialization consistency, and the independent timing validator.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "fuzz/fuzzer.hpp"
#include "fuzz/random_aig.hpp"
#include "gen/registry.hpp"
#include "retime/dff_insert.hpp"
#include "retime/stage_assign.hpp"
#include "retime/timing_check.hpp"
#include "sfq/netlist.hpp"
#include "t1/flow_engine.hpp"

namespace t1map::retime {
namespace {

using sfq::CellKind;
using sfq::Netlist;

/// a->x->y->po chain plus a short path a->z->po2 to force balancing.
Netlist make_unbalanced() {
  Netlist n;
  const auto a = n.add_pi();
  const auto b = n.add_pi();
  const auto x = n.add_cell(CellKind::kAnd2, {a, b});
  const auto y = n.add_cell(CellKind::kNot, {x});
  const auto z = n.add_cell(CellKind::kOr2, {y, a});
  n.add_po(z);
  return n;
}

TEST(StageAssign, SinglePhaseIsFullPathBalancing) {
  const Netlist n = make_unbalanced();
  const StageAssignment sa =
      assign_stages(n, StageParams{1, /*optimize=*/false});
  EXPECT_TRUE(assignment_is_legal(n, sa));
  // Nodes: a,b at 0; AND2 at 1; NOT at 2; OR2 at 3; sigma_po = 4.
  EXPECT_EQ(sa.sigma_po, 4);
  // Edge a->OR2 spans 3 stages -> 2 DFFs; b/a->AND2 0; x->NOT 0; NOT->OR 0;
  // OR->po 0.  With 1 phase every gap-1 edge is free, a's chain needs
  // max(ceil(3/1)-1, ceil(1/1)-1) = 2.
  const DffCount count = count_dffs(n, sa);
  EXPECT_EQ(count.total(), 2);
}

TEST(StageAssign, FourPhasesRemoveShortChainDffs) {
  const Netlist n = make_unbalanced();
  const StageAssignment sa =
      assign_stages(n, StageParams{4, /*optimize=*/false});
  EXPECT_TRUE(assignment_is_legal(n, sa));
  // All gaps <= 4: zero DFFs.
  EXPECT_EQ(count_dffs(n, sa).total(), 0);
}

TEST(StageAssign, OptimizeReducesDffs) {
  // Multiphase slack: gate g (ASAP stage 1) feeds a consumer at stage 10.
  // With n=4, ASAP costs ceil(9/4)-1 = 2 chain DFFs; moving g to stage 2-4
  // keeps the PI edge free and shrinks the chain to 1.
  Netlist n;
  const auto a = n.add_pi();
  const auto g = n.add_cell(CellKind::kNot, {a});
  std::uint32_t t = a;
  for (int i = 0; i < 9; ++i) t = n.add_cell(CellKind::kNot, {t});
  const auto w = n.add_cell(CellKind::kAnd2, {g, t});
  n.add_po(w);

  const StageAssignment asap = assign_stages(n, StageParams{4, false});
  EXPECT_EQ(count_dffs(n, asap).total(), 2);
  const StageAssignment opt = assign_stages(n, StageParams{4, true});
  EXPECT_TRUE(assignment_is_legal(n, opt));
  EXPECT_EQ(count_dffs(n, opt).total(), 1);
  // Depth must be preserved by optimization.
  EXPECT_EQ(opt.sigma_po, asap.sigma_po);
}

TEST(StageAssign, SharedChainCountsOnceMaxOverFanouts) {
  // One driver, consumers at stages 2 and 5 (1 phase): chain of max(1,4)=4.
  Netlist n;
  const auto a = n.add_pi();
  const auto b = n.add_pi();
  const auto x = n.add_cell(CellKind::kAnd2, {a, b});
  auto c1 = n.add_cell(CellKind::kNot, {x});
  const auto deep1 = n.add_cell(CellKind::kNot, {c1});
  const auto deep2 = n.add_cell(CellKind::kNot, {deep1});
  const auto deep3 = n.add_cell(CellKind::kNot, {deep2});
  const auto join = n.add_cell(CellKind::kAnd2, {x, deep3});
  n.add_po(join);

  const StageAssignment sa = assign_stages(n, StageParams{1, false});
  // x at 1; NOT chain 2,3,4,5; join at 6.  x's consumers: c1 (2) and join
  // (6): shared chain = ceil(5/1)-1 = 4 DFFs.  Other edges adjacent.
  const DffCount count = count_dffs(n, sa);
  EXPECT_EQ(count.regular, 4);
}

TEST(T1Constraints, MinStageMatchesEq3) {
  // σ_T1 >= max(σ(i1)+3, σ(i2)+2, σ(i3)+1), fanins sorted ascending.
  EXPECT_EQ(t1_min_stage({0, 0, 0}), 3);
  EXPECT_EQ(t1_min_stage({0, 1, 2}), 3);
  EXPECT_EQ(t1_min_stage({5, 1, 3}), 6);  // sorted 1,3,5: max(4,5,6)
  EXPECT_EQ(t1_min_stage({1, 3, 5}), 6);  // order-insensitive
  EXPECT_EQ(t1_min_stage({4, 4, 4}), 7);  // 4+3
  EXPECT_EQ(t1_min_stage({0, 4, 4}), 6);  // max(0+3, 4+2, 4+1)
}

TEST(T1Constraints, ReleaseSolverDistinctWindow) {
  // Producers all at 0, T1 at 3, n=4: window [-1..2] -> releases {0,1,2}
  // with costs 0,1,1 -> 2 DFFs.
  const T1Releases r = solve_t1_releases({0, 0, 0}, 3, 4);
  EXPECT_EQ(r.dffs, 2);
  std::array<int, 3> rel = r.release;
  std::sort(rel.begin(), rel.end());
  EXPECT_EQ(rel[0], 0);
  EXPECT_EQ(rel[1], 1);
  EXPECT_EQ(rel[2], 2);
}

TEST(T1Constraints, ReleaseSolverFreeWhenStagesDistinct) {
  // Producers at 1,2,3, T1 at 4, n=4: direct releases are distinct: free.
  const T1Releases r = solve_t1_releases({1, 2, 3}, 4, 4);
  EXPECT_EQ(r.dffs, 0);
  EXPECT_EQ(r.release[0], 1);
  EXPECT_EQ(r.release[1], 2);
  EXPECT_EQ(r.release[2], 3);
}

TEST(T1Constraints, ReleaseSolverFarProducerUsesWindow) {
  // Producer far in the past must be re-released inside [σ-n, σ-1].
  const T1Releases r = solve_t1_releases({0, 10, 11}, 12, 4);
  EXPECT_GE(r.release[0], 12 - 4);
  EXPECT_LE(r.release[0], 11);
  // Chain from 0 to r0: ceil(r0/4) = 2 DFFs minimum.
  EXPECT_EQ(r.dffs, 2);
}

TEST(T1Constraints, InfeasibleThrows) {
  // σ_T1 = 2 violates eq. (3) for three stage-0 producers.
  EXPECT_THROW(solve_t1_releases({0, 0, 0}, 2, 4), ContractError);
}

TEST(T1Constraints, NetlistWithT1RequiresThreePhases) {
  Netlist n;
  const auto a = n.add_pi();
  const auto b = n.add_pi();
  const auto c = n.add_pi();
  const auto t1 = n.add_t1(a, b, c);
  n.add_po(n.add_t1_tap(t1, CellKind::kT1TapS));
  EXPECT_THROW(assign_stages(n, StageParams{2, false}), ContractError);
  const StageAssignment sa = assign_stages(n, StageParams{4, false});
  EXPECT_TRUE(assignment_is_legal(n, sa));
  EXPECT_GE(sa.sigma[t1], 3);  // eq. (3) with PIs at 0
}

TEST(StageSentinels, UnplacedDriverContributesNoChainDffs) {
  // kNoStage (INT_MIN) leaking into `max_sv - su` used to be signed
  // overflow; the guard must treat an unplaced driver as chainless.  This
  // test is part of the UBSan CI leg — the old arithmetic trips it.
  constexpr int kNoStage = std::numeric_limits<int>::min();
  Netlist n;
  const auto a = n.add_pi();
  const auto x = n.add_cell(CellKind::kNot, {a});
  const auto y = n.add_cell(CellKind::kNot, {x});
  n.add_po(y);

  StageAssignment sa;
  sa.num_phases = 2;
  sa.sigma = {0, kNoStage, 5};  // x unplaced, y far away
  sa.sigma_po = 6;
  const DffCount count = count_dffs(n, sa);
  // x's chain (unplaced driver) contributes nothing; a's chain skips the
  // unplaced consumer x and costs nothing either.
  EXPECT_EQ(count.regular, 0);
  EXPECT_EQ(count.t1, 0);

  // Unplaced consumers must not stretch a placed driver's chain.
  sa.sigma = {0, 1, kNoStage};
  sa.sigma_po = 2;
  EXPECT_EQ(count_dffs(n, sa).regular, 0);
}

TEST(StageSentinels, T1MinStageMapsSentinelsAndRejectsOverflow) {
  constexpr int kNoStage = std::numeric_limits<int>::min();
  // Sentinels participate as stage 0 (constants still occupy a slot).
  EXPECT_EQ(t1_min_stage({kNoStage, kNoStage, kNoStage}), 3);
  EXPECT_EQ(t1_min_stage({kNoStage, 5, kNoStage}), 6);  // sorted 0,0,5
  // Near-sentinel garbage (not exactly kNoStage) must fail loudly instead
  // of overflowing the +3/+2/+1 offsets.
  EXPECT_THROW(t1_min_stage({kNoStage + 1, 0, 0}), ContractError);
  EXPECT_THROW(t1_min_stage({0, 0, std::numeric_limits<int>::max()}),
               ContractError);
}

TEST(StageSentinels, ReleaseSolverRejectsOutOfRangeStages) {
  constexpr int kNoStage = std::numeric_limits<int>::min();
  // The release window is sigma_t1 - n: sentinel-laden inputs would
  // underflow it.  Callers map kNoStage to 0 first; raw sentinels throw.
  EXPECT_THROW(solve_t1_releases({0, 0, 0}, kNoStage, 4), ContractError);
  EXPECT_THROW(solve_t1_releases({kNoStage, 0, 0}, 5, 4), ContractError);
}

TEST(Materialize, DffCountMatchesClosedForm) {
  const Netlist n = make_unbalanced();
  for (const int phases : {1, 2, 4}) {
    const StageAssignment sa = assign_stages(n, StageParams{phases, true});
    const MaterializeResult mat = insert_dffs(n, sa);
    EXPECT_EQ(mat.num_dffs, count_dffs(n, sa).total()) << phases;
    EXPECT_EQ(mat.netlist.count_kind(CellKind::kDff),
              static_cast<std::uint32_t>(mat.num_dffs));
    const TimingReport report = check_timing(mat.netlist, mat.stages);
    EXPECT_TRUE(report.ok) << (report.violations.empty()
                                   ? ""
                                   : report.violations[0]);
  }
}

TEST(Materialize, T1EdgesGetDistinctArrivals) {
  Netlist n;
  const auto a = n.add_pi();
  const auto b = n.add_pi();
  const auto c = n.add_pi();
  const auto t1 = n.add_t1(a, b, c);
  const auto s = n.add_t1_tap(t1, CellKind::kT1TapS);
  n.add_po(s);

  const StageAssignment sa = assign_stages(n, StageParams{4, false});
  const MaterializeResult mat = insert_dffs(n, sa);
  const TimingReport report = check_timing(mat.netlist, mat.stages);
  EXPECT_TRUE(report.ok) << (report.violations.empty()
                                 ? ""
                                 : report.violations[0]);
  // All three producers at 0: exactly 2 extra DFFs (releases 0,1,2).
  EXPECT_EQ(mat.num_dffs, 2);
}

TEST(TimingCheck, CatchesViolations) {
  Netlist n;
  const auto a = n.add_pi();
  const auto x = n.add_cell(CellKind::kNot, {a});
  n.add_po(x);
  StageAssignment sa;
  sa.num_phases = 2;
  sa.sigma = {0, 0};  // NOT at stage 0: illegal (gap 0)
  sa.sigma_po = 1;
  EXPECT_FALSE(check_timing(n, sa).ok);

  sa.sigma = {0, 1};
  sa.sigma_po = 2;
  EXPECT_TRUE(check_timing(n, sa).ok);

  // Gap beyond one cycle without a DFF.
  sa.sigma = {0, 5};
  sa.sigma_po = 6;
  EXPECT_FALSE(check_timing(n, sa).ok);
}

TEST(TimingCheck, CatchesT1ArrivalCollision) {
  Netlist n;
  const auto a = n.add_pi();
  const auto b = n.add_pi();
  const auto na = n.add_cell(CellKind::kNot, {a});
  const auto nb = n.add_cell(CellKind::kNot, {b});
  const auto nc = n.add_cell(CellKind::kNot, {na});
  const auto t1 = n.add_t1(na, nb, nc);
  n.add_po(n.add_t1_tap(t1, CellKind::kT1TapS));

  StageAssignment sa;
  sa.num_phases = 4;
  sa.sigma.assign(n.num_nodes(), 0);
  sa.sigma[na] = 1;
  sa.sigma[nb] = 1;  // collides with na
  sa.sigma[nc] = 2;
  sa.sigma[t1] = 4;
  sa.sigma[t1 + 1] = 4;  // tap
  sa.sigma_po = 5;
  EXPECT_FALSE(check_timing(n, sa).ok);

  sa.sigma[nb] = 3;  // distinct now
  EXPECT_TRUE(check_timing(n, sa).ok);
}

TEST(Materialize, FunctionPreserved) {
  const Netlist n = make_unbalanced();
  const StageAssignment sa = assign_stages(n, StageParams{1, true});
  const MaterializeResult mat = insert_dffs(n, sa);
  // DFFs are identity: simulation results must match the original netlist.
  const std::uint64_t words[] = {0xF0F0F0F0F0F0F0F0ull,
                                 0xCCCCCCCCCCCCCCCCull};
  EXPECT_EQ(n.simulate(words), mat.netlist.simulate(words));
}

TEST(Depth, CyclesIsCeilStagesOverPhases) {
  StageAssignment sa;
  sa.num_phases = 4;
  sa.sigma_po = 129;
  EXPECT_EQ(sa.depth_cycles(), 33);
  sa.sigma_po = 128;
  EXPECT_EQ(sa.depth_cycles(), 32);
  sa.num_phases = 1;
  EXPECT_EQ(sa.depth_cycles(), 128);
}

// --- Descent oracle ------------------------------------------------------------
//
// `assign_stages` scores a node's candidate stages against a window computed
// once per node.  The reference below is the per-candidate evaluation it
// replaced, kept verbatim in behaviour: every candidate re-checks every
// consumer (`move_is_legal`) and re-scans every fanin's consumers
// (`local_cost`).  Both must produce the same σ and σ_PO.

namespace oracle {

constexpr int kNoStage = std::numeric_limits<int>::min();

int producer_stage(const Netlist& ntk, const std::vector<int>& sigma,
                   std::uint32_t node) {
  return ntk.is_const(node) ? kNoStage : sigma[node];
}

struct Consumers {
  std::vector<std::vector<std::uint32_t>> regular;
  std::vector<std::vector<std::uint32_t>> t1;  // T1 cores reading the node
  std::vector<std::uint8_t> drives_po;
  std::vector<std::vector<std::uint32_t>> taps;
};

Consumers build_consumers(const Netlist& ntk) {
  const std::uint32_t n = ntk.num_nodes();
  Consumers c;
  c.regular.resize(n);
  c.t1.resize(n);
  c.taps.resize(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (ntk.is_tap(v)) c.taps[ntk.fanins(v)[0]].push_back(v);
    if (ntk.is_tap(v)) continue;
    for (const std::uint32_t u : ntk.fanins(v)) {
      if (ntk.is_const(u)) continue;
      if (ntk.is_t1(v)) {
        c.t1[u].push_back(v);
      } else {
        c.regular[u].push_back(v);
      }
    }
  }
  c.drives_po.assign(n, 0);
  for (const auto& po : ntk.pos()) c.drives_po[po.driver] = 1;
  return c;
}

long driver_chain_dffs(int su, const std::vector<std::uint32_t>& consumers,
                       bool drives_po, int sigma_po,
                       const std::vector<int>& sigma, int n) {
  if (su == kNoStage) return 0;
  int max_sv = drives_po ? sigma_po : kNoStage;
  for (const std::uint32_t v : consumers) {
    if (sigma[v] != kNoStage) max_sv = std::max(max_sv, sigma[v]);
  }
  if (max_sv == kNoStage) return 0;
  const long gap = static_cast<long>(max_sv) - su;
  if (gap <= 0) return 0;
  return std::max(0l, (gap + n - 1) / n - 1);
}

std::array<int, 3> t1_producers(const Netlist& ntk,
                                const std::vector<int>& sigma,
                                std::uint32_t t) {
  std::array<int, 3> s{};
  const auto f = ntk.fanins(t);
  for (int j = 0; j < 3; ++j) {
    const int ps = producer_stage(ntk, sigma, f[j]);
    s[j] = (ps == kNoStage) ? 0 : ps;
  }
  return s;
}

bool fanin_side_ok(const Netlist& ntk, const std::vector<int>& sigma,
                   std::uint32_t v, int n) {
  if (ntk.is_pi(v) || ntk.is_const(v)) return true;
  if (ntk.is_tap(v)) return sigma[v] == sigma[ntk.fanins(v)[0]];
  if (ntk.is_t1(v)) {
    return n >= 3 && sigma[v] >= t1_min_stage(t1_producers(ntk, sigma, v));
  }
  for (const std::uint32_t u : ntk.fanins(v)) {
    const int ps = producer_stage(ntk, sigma, u);
    if (ps != kNoStage && sigma[v] <= ps) return false;
  }
  return true;
}

long local_cost(const Netlist& ntk, const Consumers& cons,
                const std::vector<int>& sigma, int sigma_po, int n,
                std::uint32_t v, std::span<const std::uint32_t> taps) {
  const auto driver_cost = [&](std::uint32_t u) {
    if (ntk.is_const(u) || ntk.is_t1(u)) return 0l;
    return driver_chain_dffs(sigma[u], cons.regular[u],
                             cons.drives_po[u] != 0, sigma_po, sigma, n);
  };
  const auto t1_cost = [&](std::uint32_t t) {
    return solve_t1_releases(t1_producers(ntk, sigma, t), sigma[t], n).dffs;
  };
  long cost = 0;
  if (ntk.is_t1(v)) {
    cost += t1_cost(v);
    for (const std::uint32_t tap : taps) {
      cost += driver_cost(tap);
      for (const std::uint32_t t : cons.t1[tap]) cost += t1_cost(t);
    }
  } else {
    cost += driver_cost(v);
    for (const std::uint32_t t : cons.t1[v]) cost += t1_cost(t);
  }
  for (const std::uint32_t u : ntk.fanins(v)) {
    if (!ntk.is_const(u) && !ntk.is_t1(u)) cost += driver_cost(u);
  }
  return cost;
}

bool move_is_legal(const Netlist& ntk, const Consumers& cons,
                   std::vector<int>& sigma, int sigma_po, int n,
                   std::uint32_t v, std::span<const std::uint32_t> taps,
                   int s) {
  const int old = sigma[v];
  sigma[v] = s;
  for (const std::uint32_t tap : taps) sigma[tap] = s;
  const auto check_consumers = [&](std::uint32_t producer) {
    for (const std::uint32_t w : cons.regular[producer]) {
      if (!fanin_side_ok(ntk, sigma, w, n)) return false;
    }
    for (const std::uint32_t t : cons.t1[producer]) {
      if (!fanin_side_ok(ntk, sigma, t, n)) return false;
    }
    return cons.drives_po[producer] == 0 || sigma_po > sigma[producer];
  };
  bool ok = fanin_side_ok(ntk, sigma, v, n);
  if (ok) {
    if (ntk.is_t1(v)) {
      for (const std::uint32_t tap : taps) ok = ok && check_consumers(tap);
    } else {
      ok = check_consumers(v);
    }
  }
  if (!ok) {
    sigma[v] = old;
    for (const std::uint32_t tap : taps) sigma[tap] = old;
  }
  return ok;
}

/// ASAP from `assign_stages(optimize = false)`, then the frontier descent
/// with per-candidate `move_is_legal` + `local_cost`.
StageAssignment assign_stages(const Netlist& ntk, const StageParams& params) {
  StageParams asap = params;
  asap.optimize = false;
  StageAssignment sa = retime::assign_stages(ntk, asap);
  if (!params.optimize) return sa;

  const Consumers cons = build_consumers(ntk);
  const int n = params.num_phases;
  const std::uint32_t nn = ntk.num_nodes();
  std::vector<std::uint8_t> dirty_cur(nn, 1);
  std::vector<std::uint8_t> dirty_next(nn, 0);
  const auto canon = [&](std::uint32_t x) {
    return ntk.is_tap(x) ? ntk.fanins(x)[0] : x;
  };
  const auto mark = [&](std::uint32_t x) {
    x = canon(x);
    dirty_cur[x] = 1;
    dirty_next[x] = 1;
  };
  const auto for_each_consumer = [&](std::uint32_t x, auto&& fn) {
    const auto each_out = [&](std::uint32_t y) {
      for (const std::uint32_t w : cons.regular[y]) fn(w);
      for (const std::uint32_t t : cons.t1[y]) fn(t);
    };
    if (ntk.is_t1(x)) {
      for (const std::uint32_t tap : cons.taps[x]) each_out(tap);
    } else {
      each_out(x);
    }
  };
  const auto for_each_fanin = [&](std::uint32_t x, auto&& fn) {
    for (const std::uint32_t u : ntk.fanins(x)) {
      if (!ntk.is_const(u)) fn(canon(u));
    }
  };
  const auto mark_affected = [&](std::uint32_t v) {
    mark(v);
    for_each_fanin(v, [&](std::uint32_t u) {
      mark(u);
      for_each_consumer(u, [&](std::uint32_t w) { mark(w); });
    });
    for_each_consumer(v, [&](std::uint32_t w) {
      mark(w);
      for_each_fanin(w, [&](std::uint32_t u) { mark(u); });
    });
  };

  for (int sweep = 0; sweep < params.max_sweeps; ++sweep) {
    bool changed = false;
    for (std::uint32_t v = 0; v < nn; ++v) {
      if (!dirty_cur[v]) continue;
      dirty_cur[v] = 0;
      if (ntk.is_pi(v) || ntk.is_const(v) || ntk.is_tap(v)) continue;
      const std::span<const std::uint32_t> taps =
          ntk.is_t1(v) ? std::span<const std::uint32_t>(cons.taps[v])
                       : std::span<const std::uint32_t>();
      std::vector<int> candidates = {sa.sigma[v]};
      for (const std::uint32_t u : ntk.fanins(v)) {
        const int ps = producer_stage(ntk, sa.sigma, u);
        if (ps == kNoStage) continue;
        candidates.insert(candidates.end(), {ps + 1, ps + 1 + n, ps + 3});
      }
      const auto add_consumer_candidates = [&](std::uint32_t producer) {
        for (const std::uint32_t w : cons.regular[producer]) {
          candidates.insert(candidates.end(),
                            {sa.sigma[w] - 1, sa.sigma[w] - 1 - n});
        }
        for (const std::uint32_t t : cons.t1[producer]) {
          const int st = sa.sigma[t];
          candidates.insert(candidates.end(), {st - 1, st - 3, st - n});
        }
        if (cons.drives_po[producer] != 0) {
          candidates.insert(candidates.end(),
                            {sa.sigma_po - 1, sa.sigma_po - 1 - n});
        }
      };
      if (ntk.is_t1(v)) {
        for (const std::uint32_t tap : taps) add_consumer_candidates(tap);
      } else {
        add_consumer_candidates(v);
      }
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());

      const int original = sa.sigma[v];
      long best_cost =
          local_cost(ntk, cons, sa.sigma, sa.sigma_po, n, v, taps);
      int best_stage = original;
      for (const int s : candidates) {
        if (s == original || s < 1) continue;
        if (!move_is_legal(ntk, cons, sa.sigma, sa.sigma_po, n, v, taps, s)) {
          continue;
        }
        const long cost =
            local_cost(ntk, cons, sa.sigma, sa.sigma_po, n, v, taps);
        if (cost < best_cost) {
          best_cost = cost;
          best_stage = s;
        }
        sa.sigma[v] = original;
        for (const std::uint32_t tap : taps) sa.sigma[tap] = original;
      }
      if (best_stage != original) {
        EXPECT_TRUE(move_is_legal(ntk, cons, sa.sigma, sa.sigma_po, n, v,
                                  taps, best_stage));
        mark_affected(v);
        changed = true;
      }
    }
    if (!changed) break;
    dirty_cur.swap(dirty_next);
    std::fill(dirty_next.begin(), dirty_next.end(), 0);
  }
  return sa;
}

}  // namespace oracle

/// The mapped (and, for T1, rewritten) netlist `assign_stages` sees in the
/// flow, under 1φ, 4φ and T1 parameters.
struct StageCase {
  const char* config;
  int phases;
  bool use_t1;
};
constexpr StageCase kStageCases[] = {
    {"1phi", 1, false}, {"4phi", 4, false}, {"t1", 4, true}};

Netlist mapped_netlist(const Aig& aig, const StageCase& c) {
  t1::Pipeline pipeline;
  pipeline.add(std::make_unique<t1::MapPass>())
      .add(std::make_unique<t1::T1DetectPass>());
  t1::FlowEngine engine(std::move(pipeline));
  t1::FlowParams params;
  params.num_phases = c.phases;
  params.use_t1 = c.use_t1;
  t1::EngineResult r = engine.run(aig, params);
  EXPECT_TRUE(r.ok()) << r.diagnostics.first_error();
  return std::move(r.mapped);
}

/// Returns the number of nodes whose stage the descent moved off ASAP.
long expect_descent_matches_oracle(const Netlist& ntk, const StageCase& c,
                                   const std::string& label) {
  const StageParams params{c.phases};
  const StageAssignment got = assign_stages(ntk, params);
  const StageAssignment want = oracle::assign_stages(ntk, params);
  EXPECT_EQ(got.sigma, want.sigma) << label << " " << c.config;
  EXPECT_EQ(got.sigma_po, want.sigma_po) << label << " " << c.config;
  StageParams asap = params;
  asap.optimize = false;
  const StageAssignment start = assign_stages(ntk, asap);
  long moved = 0;
  for (std::size_t v = 0; v < got.sigma.size(); ++v) {
    moved += got.sigma[v] != start.sigma[v] ? 1 : 0;
  }
  return moved;
}

TEST(StageDescent, MatchesPerCandidateOracleOnCiFuzzSeeds) {
  // The netlists of `t1map --fuzz 300 --fuzz-seed 4` and `--fuzz-seed 7`.
  long moved = 0;
  long t1_cores = 0;
  for (const std::uint64_t seed : {4ull, 7ull}) {
    for (int iter = 0; iter < 300; ++iter) {
      const Aig aig = fuzz::random_aig(
          fuzz::iteration_aig_options(fuzz::FuzzOptions{}.aig, seed, iter));
      for (const StageCase& c : kStageCases) {
        const Netlist ntk = mapped_netlist(aig, c);
        t1_cores += ntk.num_t1();
        moved += expect_descent_matches_oracle(
            ntk, c,
            "seed " + std::to_string(seed) + " iter " + std::to_string(iter));
      }
    }
  }
  // Non-vacuous: the descent moved nodes, and T1 cores were in play.
  EXPECT_GT(moved, 0);
  EXPECT_GT(t1_cores, 0);
}

TEST(StageDescent, MatchesPerCandidateOracleOnGenerators) {
  long moved = 0;
  long t1_cores = 0;
  for (const char* name : {"adder16", "adder64", "mul8", "square12",
                           "voter25", "comparator16", "sin12", "log2_8"}) {
    const Aig aig = gen::make_named(name);
    for (const StageCase& c : kStageCases) {
      const Netlist ntk = mapped_netlist(aig, c);
      t1_cores += ntk.num_t1();
      moved += expect_descent_matches_oracle(ntk, c, name);
    }
  }
  EXPECT_GT(moved, 0);
  EXPECT_GT(t1_cores, 0);
}

}  // namespace
}  // namespace t1map::retime
