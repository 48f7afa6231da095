#include "cut/cut_enum.hpp"

namespace t1map {

bool merge_leaves(std::span<const std::uint32_t> a,
                  std::span<const std::uint32_t> b, int k, CutLeaves& out) {
  out.clear();
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t count = 0;
  while (i < a.size() || j < b.size()) {
    std::uint32_t next;
    if (j == b.size() || (i < a.size() && a[i] < b[j])) {
      next = a[i++];
    } else if (i == a.size() || b[j] < a[i]) {
      next = b[j++];
    } else {
      next = a[i];
      ++i;
      ++j;
    }
    if (static_cast<int>(++count) > k) return false;
    out.push_back(next);
  }
  return true;
}

bool leaves_subset(std::span<const std::uint32_t> a,
                   std::span<const std::uint32_t> b) {
  if (a.size() > b.size()) return false;
  std::size_t j = 0;
  for (const std::uint32_t x : a) {
    while (j < b.size() && b[j] < x) ++j;
    if (j == b.size() || b[j] != x) return false;
    ++j;
  }
  return true;
}

namespace detail {

namespace {

/// For each target size `n`, position mask `mask` < 2^n and source table
/// `bits` over the mask's popcount m: output row `i` reads source row
/// `src(i)`, whose bit v is bit `where[v]` of `i` (`where[v]` = the v-th set
/// bit of `mask`) — the same remap `expand_to_leaves` performs.
constexpr ExpandTable build_expand_table() {
  ExpandTable table{};
  for (int n = 1; n <= kExpandTableLeaves; ++n) {
    for (unsigned mask = 0; mask < (1u << n); ++mask) {
      int where[kExpandTableLeaves] = {};
      int m = 0;
      for (int p = 0; p < n; ++p) {
        if ((mask >> p) & 1u) where[m++] = p;
      }
      for (unsigned bits = 0; bits < (1u << (1u << m)); ++bits) {
        unsigned out = 0;
        for (unsigned i = 0; i < (1u << n); ++i) {
          unsigned src = 0;
          for (int v = 0; v < m; ++v) src |= ((i >> where[v]) & 1u) << v;
          out |= ((bits >> src) & 1u) << i;
        }
        table[n][mask][bits] = static_cast<std::uint8_t>(out);
      }
    }
  }
  return table;
}

}  // namespace

constinit const ExpandTable kExpandTable = build_expand_table();

void prune_dominated(CutScratch& scratch, int max_cuts) {
  auto& fresh = scratch.fresh;
  auto& kept = scratch.kept;  // kept[0] is the trivial cut, never dominated

  std::sort(fresh.begin(), fresh.end(), [](const Cut& x, const Cut& y) {
    return x.leaves.lex_less(y.leaves);
  });
  for (const Cut& cut : fresh) {
    if (static_cast<int>(kept.size()) - 1 >= max_cuts) break;
    bool dominated = false;
    for (std::size_t i = 1; i < kept.size(); ++i) {
      const Cut& prev = kept[i];
      // prev precedes cut in (size, lex) order, so prev can only dominate
      // (or duplicate) cut.  A leaf of prev missing from cut's signature
      // proves prev ⊄ cut without touching the leaf arrays.
      if ((prev.sig & ~cut.sig) != 0) continue;
      if (leaves_subset(prev.leaves, cut.leaves)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) kept.push_back(cut);
  }
}

}  // namespace detail

}  // namespace t1map
