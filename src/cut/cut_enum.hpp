/// \file cut_enum.hpp
/// \brief k-feasible cut enumeration with per-cut truth tables.
///
/// Implements the classic bottom-up cut enumeration of Cong et al. (paper
/// ref. [8]): the cut set of a node is the cross-merge of its fanins' cut
/// sets, keeping cuts with at most `k` leaves, plus the trivial cut {node}.
/// Each cut carries its function as a truth table over the (sorted) leaves,
/// which is what both the SFQ technology mapper and the T1 detector match
/// against.
///
/// Memory layout is flat for speed: leaves live in a fixed-capacity inline
/// array (k <= 4 is enforced), every cut carries a 64-bit leaf signature so
/// dominance and dedup checks reject most pairs in one AND, and all retained
/// cuts of an enumeration are pooled in a single arena (`CutSet`) instead of
/// one heap vector per node.
///
/// The enumerator is generic over a *network view* providing:
///   - `size()`                       — number of nodes, ids topological;
///   - `cut_is_leaf(id)`              — nodes at which cuts stop (PIs,
///                                      constants, unsupported nodes);
///   - `cut_fanins(id, out, n)`       — up to 3 fanin node ids;
///   - `cut_local_tt(id)`             — node function over those fanins.
/// `Aig` and `sfq::Netlist` both satisfy this interface.

#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/require.hpp"
#include "tt/truth_table.hpp"

namespace t1map {

/// Hard cap on leaves per cut; `CutParams::k` may not exceed it.
inline constexpr int kMaxCutLeaves = 4;

/// Sorted leaf ids of one cut, stored inline (no heap allocation).
class CutLeaves {
 public:
  using value_type = std::uint32_t;
  using const_iterator = const std::uint32_t*;

  CutLeaves() = default;
  CutLeaves(std::initializer_list<std::uint32_t> init) {
    T1MAP_ASSERT(init.size() <= static_cast<std::size_t>(kMaxCutLeaves));
    for (const std::uint32_t v : init) push_back(v);
  }

  const_iterator begin() const { return v_.data(); }
  const_iterator end() const { return v_.data() + n_; }
  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  std::uint32_t operator[](std::size_t i) const {
    T1MAP_ASSERT(i < n_);
    return v_[i];
  }
  std::uint32_t front() const { return (*this)[0]; }
  std::uint32_t back() const { return (*this)[n_ - 1]; }

  void clear() { n_ = 0; }
  void push_back(std::uint32_t x) {
    T1MAP_ASSERT(n_ < kMaxCutLeaves);
    v_[n_++] = x;
  }

  operator std::span<const std::uint32_t>() const { return {v_.data(), n_}; }

  bool operator==(const CutLeaves& o) const {
    if (n_ != o.n_) return false;
    for (std::uint8_t i = 0; i < n_; ++i) {
      if (v_[i] != o.v_[i]) return false;
    }
    return true;
  }
  /// Comparison against any contiguous id sequence (vectors in tests).
  friend bool operator==(const CutLeaves& a,
                         std::span<const std::uint32_t> b) {
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }
  /// Lexicographic, sizes first — the canonical cut-set order.
  bool lex_less(const CutLeaves& o) const {
    if (n_ != o.n_) return n_ < o.n_;
    for (std::uint8_t i = 0; i < n_; ++i) {
      if (v_[i] != o.v_[i]) return v_[i] < o.v_[i];
    }
    return false;
  }

 private:
  std::array<std::uint32_t, kMaxCutLeaves> v_{};
  std::uint8_t n_ = 0;
};

/// One cut: sorted leaf ids, a 64-bit leaf signature (bit `id mod 64` per
/// leaf) and the root's function over the leaves.
struct Cut {
  CutLeaves leaves;
  std::uint64_t sig = 0;
  Tt tt;

  bool is_trivial(std::uint32_t root) const {
    return leaves.size() == 1 && leaves[0] == root;
  }
};

/// Signature of a single leaf id.
inline std::uint64_t leaf_sig(std::uint32_t id) {
  return 1ull << (id & 63u);
}

/// Tuning knobs for enumeration.
struct CutParams {
  /// Maximum number of leaves per cut.
  int k = 3;
  /// Maximum cuts retained per node (smallest-leaf-count first).  The
  /// trivial cut does not count against this limit.
  int max_cuts = 16;
};

/// Merges two sorted leaf lists; returns false if the union exceeds `k`.
bool merge_leaves(std::span<const std::uint32_t> a,
                  std::span<const std::uint32_t> b, int k, CutLeaves& out);

/// True if `a`'s leaves are a subset of `b`'s (then `a` dominates `b`).
bool leaves_subset(std::span<const std::uint32_t> a,
                   std::span<const std::uint32_t> b);

/// All cuts of every node, pooled in one arena.  Indexed by node id; the
/// trivial cut is always the first entry of each non-empty set.
class CutSet {
 public:
  std::span<const Cut> operator[](std::size_t node) const {
    const Range& r = ranges_[node];
    return {pool_.data() + r.offset, r.count};
  }
  std::size_t size() const { return ranges_.size(); }
  /// Total cuts stored, all nodes included.
  std::size_t total_cuts() const { return pool_.size(); }

  // --- Builder interface (used by enumerate_cuts) --------------------------

  void reset(std::size_t num_nodes) {
    pool_.clear();
    pool_.reserve(num_nodes * 4);
    ranges_.assign(num_nodes, Range{});
  }
  /// Appends `cuts` as the cut set of `node`.  Nodes must be added at most
  /// once; un-added nodes read back as empty sets.
  void set_node_cuts(std::uint32_t node, std::span<const Cut> cuts) {
    ranges_[node] =
        Range{static_cast<std::uint32_t>(pool_.size()),
              static_cast<std::uint32_t>(cuts.size())};
    pool_.insert(pool_.end(), cuts.begin(), cuts.end());
  }

 private:
  struct Range {
    std::uint32_t offset = 0;
    std::uint32_t count = 0;
  };
  std::vector<Cut> pool_;
  std::vector<Range> ranges_;
};

namespace detail {

/// Scratch state reused across nodes of one enumeration.
struct CutScratch {
  std::vector<Cut> fresh;
  std::vector<Cut> kept;
};

/// Largest target leaf count `kExpandTable` covers (k <= 3 covers both the
/// mapper's and the T1 detector's cuts).
inline constexpr int kExpandTableLeaves = 3;

/// `kExpandTable[n][mask][bits]` is the function with truth table `bits`
/// over `popcount(mask)` variables re-expressed over `n` variables, source
/// variable i landing on the i-th set bit of `mask` — `expand_to_leaves`
/// for every target of at most 3 leaves, precomputed (8 KB).  Entries with
/// `mask >= 2^n` or `bits >= 2^(2^popcount(mask))` are unused zeros.
using ExpandTable = std::array<std::array<std::array<std::uint8_t, 256>, 8>,
                               kExpandTableLeaves + 1>;
extern const ExpandTable kExpandTable;

/// The cut function re-expressed over the superset leaf list `to`.  Both
/// lists are sorted (`cut.leaves` ⊆ `to`), so equal sizes mean identical
/// lists and the remap is skipped entirely.  Up to 3 target leaves one
/// merged walk finds where each leaf lands and `kExpandTable` does the rest;
/// larger targets fall back to `expand_to_leaves`.
inline Tt expand_cut_tt(const Cut& cut, const CutLeaves& to) {
  if (cut.leaves.size() == to.size()) return cut.tt;
  const int nto = static_cast<int>(to.size());
  if (nto > kExpandTableLeaves) {
    return expand_to_leaves(cut.tt, cut.leaves, to);
  }
  unsigned mask = 0;
  std::size_t j = 0;
  for (const std::uint32_t leaf : cut.leaves) {
    while (to[j] < leaf) ++j;
    T1MAP_ASSERT(to[j] == leaf);
    mask |= 1u << j++;
  }
  return Tt(nto, kExpandTable[nto][mask][cut.tt.bits()]);
}

/// Dominance filter: `scratch.fresh` (sorted by size then lex leaves) is
/// reduced into `scratch.kept`, dropping duplicates and dominated cuts.
/// The signature test rejects most pairs before any element compare.
void prune_dominated(CutScratch& scratch, int max_cuts);

/// Computes the cut set of one node into `scratch.kept`, reading only the
/// fanins' (already committed) sets from `cuts`.
template <class Ntk>
void enumerate_node_cuts(const Ntk& ntk, const CutParams& params,
                         const CutSet& cuts, std::uint32_t node,
                         CutScratch& scratch) {
  // Trivial cut first: the node itself as a single leaf.
  scratch.kept.clear();
  scratch.kept.push_back(Cut{{node}, leaf_sig(node), Tt::var(1, 0)});
  if (ntk.cut_is_leaf(node)) return;

  std::uint32_t fanin[3];
  int nf = 0;
  ntk.cut_fanins(node, fanin, nf);
  T1MAP_ASSERT(nf >= 1 && nf <= 3);
  const Tt local = ntk.cut_local_tt(node);
  // Checked once here, so the per-cut compose below can skip it.
  T1MAP_REQUIRE(local.num_vars() == nf,
                "compose: local arity must match fanin count");

  CutLeaves merged;
  CutLeaves all;
  scratch.fresh.clear();
  // Arity-specialized cross-merge of the fanins' cut sets.
  const std::span<const Cut> c0 = cuts[fanin[0]];
  switch (nf) {
    case 1: {
      // Single fanin: every cut carries over with the local function
      // (BUF/NOT) applied on top; the leaf set is unchanged.
      for (const Cut& a : c0) {
        const Tt fanin_tt[1] = {a.tt};
        scratch.fresh.push_back(
            Cut{a.leaves, a.sig,
                compose_unchecked(local, fanin_tt, a.tt.num_vars())});
      }
      break;
    }
    case 2: {
      const std::span<const Cut> c1 = cuts[fanin[1]];
      for (const Cut& a : c0) {
        for (const Cut& b : c1) {
          const std::uint64_t sig = a.sig | b.sig;
          if (__builtin_popcountll(sig) > params.k) continue;
          if (!merge_leaves(a.leaves, b.leaves, params.k, merged)) continue;
          const Tt fanin_tts[2] = {expand_cut_tt(a, merged),
                                   expand_cut_tt(b, merged)};
          scratch.fresh.push_back(
              Cut{merged, sig,
                  compose_unchecked(local, fanin_tts,
                                    static_cast<int>(merged.size()))});
        }
      }
      break;
    }
    default: {
      T1MAP_ASSERT(nf == 3);
      const std::span<const Cut> c1 = cuts[fanin[1]];
      const std::span<const Cut> c2 = cuts[fanin[2]];
      for (const Cut& a : c0) {
        for (const Cut& b : c1) {
          const std::uint64_t sig_ab = a.sig | b.sig;
          if (__builtin_popcountll(sig_ab) > params.k) continue;
          if (!merge_leaves(a.leaves, b.leaves, params.k, merged)) continue;
          for (const Cut& c : c2) {
            const std::uint64_t sig = sig_ab | c.sig;
            if (__builtin_popcountll(sig) > params.k) continue;
            if (!merge_leaves(merged, c.leaves, params.k, all)) continue;
            const Tt fanin_tts[3] = {expand_cut_tt(a, all),
                                     expand_cut_tt(b, all),
                                     expand_cut_tt(c, all)};
            scratch.fresh.push_back(
                Cut{all, sig,
                    compose_unchecked(local, fanin_tts,
                                      static_cast<int>(all.size()))});
          }
        }
      }
      break;
    }
  }

  prune_dominated(scratch, params.max_cuts);
}

}  // namespace detail

/// Reusable enumeration state: the result arena plus the per-node scratch
/// buffers.  `enumerate_cuts_into` resets the contents but keeps the heap
/// allocations, so a workspace reused across many enumerations (the
/// FlowEngine runs one per mapping and one per T1 detection, thousands of
/// times in batched serving) regrows its arena only for a network larger
/// than any it has held.
struct CutWorkspace {
  CutSet cuts;
  detail::CutScratch scratch;
};

/// As `enumerate_cuts`, but (re)builds into `ws.cuts`, reusing the arena and
/// scratch capacity of previous enumerations.  The result is identical to a
/// fresh `enumerate_cuts` call.
template <class Ntk>
void enumerate_cuts_into(const Ntk& ntk, const CutParams& params,
                         CutWorkspace& ws) {
  T1MAP_REQUIRE(params.k >= 1 && params.k <= kMaxCutLeaves,
                "cut size must be between 1 and 4");
  const std::size_t n = ntk.size();
  CutSet& cuts = ws.cuts;
  cuts.reset(n);

  detail::CutScratch& scratch = ws.scratch;
  scratch.fresh.reserve(
      static_cast<std::size_t>(params.max_cuts) * params.max_cuts + 1);
  scratch.kept.reserve(params.max_cuts + 1);

  for (std::uint32_t node = 0; node < n; ++node) {
    detail::enumerate_node_cuts(ntk, params, cuts, node, scratch);
    cuts.set_node_cuts(node, scratch.kept);
  }
}

/// All cuts of every node.  Result is indexed by node id; the trivial cut is
/// always the first entry of each non-empty set.
template <class Ntk>
CutSet enumerate_cuts(const Ntk& ntk, const CutParams& params = {}) {
  CutWorkspace ws;
  enumerate_cuts_into(ntk, params, ws);
  return std::move(ws.cuts);
}

}  // namespace t1map
