#include "retime/dff_insert.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <span>

namespace t1map::retime {

namespace {

using sfq::CellKind;
using sfq::Netlist;

constexpr int kNoStage = std::numeric_limits<int>::min();

}  // namespace

MaterializeResult insert_dffs(const Netlist& ntk, const StageAssignment& sa) {
  T1MAP_REQUIRE(assignment_is_legal(ntk, sa),
                "insert_dffs requires a legal stage assignment");
  const int n = sa.num_phases;

  MaterializeResult result;
  result.stages.num_phases = n;
  result.stages.sigma_po = sa.sigma_po;
  result.node_map.assign(ntk.num_nodes(), 0);

  Netlist& out = result.netlist;
  std::vector<int>& out_sigma = result.stages.sigma;
  const auto put = [&](std::uint32_t new_id, int stage) {
    if (new_id >= out_sigma.size()) out_sigma.resize(new_id + 1, 0);
    out_sigma[new_id] = stage;
    return new_id;
  };

  // Shared chain bookkeeping: per original driver, materialized ids of chain
  // elements 1..k (built lazily, in consumer order — topologically sound
  // because every consumer has a larger stage than any chain DFF it needs).
  std::vector<std::vector<std::uint32_t>> chain(ntk.num_nodes());

  const auto producer_sigma = [&](std::uint32_t u) {
    return ntk.is_const(u) ? kNoStage : sa.sigma[u];
  };

  /// Materialized signal for edge u -> (consumer at stage sv).
  const auto edge_signal = [&](std::uint32_t u, int sv) -> std::uint32_t {
    const int su = producer_sigma(u);
    if (su == kNoStage) return result.node_map[u];  // constants: direct
    const int d = std::max(0, ceil_div(sv - su, n) - 1);
    if (d == 0) return result.node_map[u];
    auto& c = chain[u];
    while (static_cast<int>(c.size()) < d) {
      const std::uint32_t prev =
          c.empty() ? result.node_map[u] : c.back();
      const std::uint32_t dff = out.add_cell(CellKind::kDff, {prev});
      const int stage = su + static_cast<int>(c.size() + 1) * n;
      put(dff, stage);
      ++result.num_dffs;
      c.push_back(dff);
    }
    return c[d - 1];
  };

  /// Dedicated chain for a T1 input released at stage r.
  const auto t1_edge_signal = [&](std::uint32_t u, int r) -> std::uint32_t {
    const int su = producer_sigma(u);
    if (su == kNoStage || r == su) return result.node_map[u];
    const int count = ceil_div(r - su, n);
    std::uint32_t prev = result.node_map[u];
    for (int k = 1; k <= count; ++k) {
      const int stage = (k == count) ? r : su + k * n;
      const std::uint32_t dff = out.add_cell(CellKind::kDff, {prev});
      put(dff, stage);
      ++result.num_dffs;
      prev = dff;
    }
    return prev;
  };

  std::uint32_t pi_index = 0;
  for (std::uint32_t v = 0; v < ntk.num_nodes(); ++v) {
    const CellKind k = ntk.kind(v);
    std::uint32_t new_id;
    switch (k) {
      case CellKind::kPi:
        new_id = out.add_pi(ntk.pi_name(pi_index++));
        break;
      case CellKind::kConst0:
        new_id = out.add_const(false);
        break;
      case CellKind::kConst1:
        new_id = out.add_const(true);
        break;
      case CellKind::kT1: {
        const auto f = ntk.fanins(v);
        std::array<int, 3> producers{};
        for (int j = 0; j < 3; ++j) {
          const int ps = producer_sigma(f[j]);
          producers[j] = (ps == kNoStage) ? 0 : ps;
        }
        const T1Releases rel = solve_t1_releases(producers, sa.sigma[v], n);
        std::array<std::uint32_t, 3> ins{};
        for (int j = 0; j < 3; ++j) {
          ins[j] = t1_edge_signal(f[j], rel.release[j]);
        }
        new_id = out.add_t1(ins[0], ins[1], ins[2]);
        break;
      }
      case CellKind::kT1TapS:
      case CellKind::kT1TapC:
      case CellKind::kT1TapQ:
      case CellKind::kT1TapCn:
      case CellKind::kT1TapQn:
        new_id = out.add_t1_tap(result.node_map[ntk.fanins(v)[0]], k);
        break;
      default: {
        // Logic cells and DFFs: rewire each fanin through the shared chain.
        const auto f = ntk.fanins(v);
        std::array<std::uint32_t, 3> ins{};
        for (std::size_t j = 0; j < f.size(); ++j) {
          ins[j] = edge_signal(f[j], sa.sigma[v]);
        }
        new_id = out.add_cell(
            k, std::span<const std::uint32_t>(ins.data(), f.size()));
        break;
      }
    }
    put(new_id, sa.sigma[v]);
    result.node_map[v] = new_id;
  }

  for (const auto& po : ntk.pos()) {
    out.add_po(edge_signal(po.driver, sa.sigma_po), po.name);
  }

  out_sigma.resize(out.num_nodes(), 0);
  return result;
}

}  // namespace t1map::retime
