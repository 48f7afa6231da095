/// \file truth_table.hpp
/// \brief Small truth tables (up to 6 variables) packed into one 64-bit word.
///
/// Truth tables are the lingua franca of the mapping flow: cut functions,
/// cell-library patterns and T1-matching targets are all expressed as `Tt`.
/// Bit `i` of the word stores f(x) for the input assignment whose binary
/// encoding is `i` (variable 0 is the least-significant input).
///
/// Six variables suffice for this library: cuts are enumerated with at most
/// 4 leaves and every SFQ library cell has at most 3 inputs.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/require.hpp"

namespace t1map {

/// A complete Boolean function of `num_vars()` <= 6 variables.
///
/// Invariant: bits above position 2^num_vars() are zero, so `==` is plain
/// word comparison between tables of equal arity.
class Tt {
 public:
  static constexpr int kMaxVars = 6;

  /// Constant-zero function of `nvars` variables.
  explicit Tt(int nvars = 0) : bits_(0), nvars_(check_arity(nvars)) {}

  /// Builds a table from raw bits; bits beyond the table width are masked.
  Tt(int nvars, std::uint64_t bits)
      : bits_(bits & mask(check_arity(nvars))), nvars_(nvars) {}

  /// Projection onto variable `var` within an `nvars`-variable space.
  static Tt var(int nvars, int var);

  /// Constant-one function.
  static Tt ones(int nvars) { return Tt(nvars, ~0ull); }

  /// Constant-zero function.
  static Tt zeros(int nvars) { return Tt(nvars); }

  int num_vars() const { return nvars_; }
  std::uint64_t bits() const { return bits_; }
  std::uint64_t num_bits() const { return 1ull << nvars_; }

  bool is_const0() const { return bits_ == 0; }
  bool is_const1() const { return bits_ == mask(nvars_); }

  /// Number of input assignments mapped to 1.
  int count_ones() const { return __builtin_popcountll(bits_); }

  /// Value of the function at input assignment `index`.
  bool bit(std::uint64_t index) const {
    T1MAP_ASSERT(index < num_bits());
    return (bits_ >> index) & 1u;
  }

  void set_bit(std::uint64_t index, bool value) {
    T1MAP_ASSERT(index < num_bits());
    if (value) {
      bits_ |= (1ull << index);
    } else {
      bits_ &= ~(1ull << index);
    }
  }

  /// True if the function's value depends on variable `var`.
  bool depends_on(int var) const;

  /// Bitmask of variables in the functional support.
  std::uint32_t support_mask() const;

  /// Negative cofactor f|_{var=0}, same arity (the freed variable becomes
  /// irrelevant).
  Tt cofactor0(int var) const;

  /// Positive cofactor f|_{var=1}.
  Tt cofactor1(int var) const;

  /// f with variable `var` complemented: g(..., x_var, ...) = f(..., !x_var, ...).
  Tt flip_var(int var) const;

  /// f with every variable in `polarity_mask` complemented.
  Tt apply_polarity(std::uint32_t polarity_mask) const;

  /// f with variables `a` and `b` exchanged.
  Tt swap_vars(int a, int b) const;

  /// f re-expressed over a larger variable space: old variable `i` becomes
  /// new variable `where[i]`.  `new_nvars` must accommodate every target.
  Tt remap(int new_nvars, std::span<const int> where) const;

  /// Binary string, most significant assignment first (e.g. "1000" for AND2).
  std::string to_string() const;

  Tt operator~() const { return Tt(nvars_, ~bits_); }
  Tt operator&(const Tt& o) const { return binary(o, bits_ & o.bits_); }
  Tt operator|(const Tt& o) const { return binary(o, bits_ | o.bits_); }
  Tt operator^(const Tt& o) const { return binary(o, bits_ ^ o.bits_); }

  bool operator==(const Tt& o) const {
    return nvars_ == o.nvars_ && bits_ == o.bits_;
  }
  bool operator!=(const Tt& o) const { return !(*this == o); }

  /// Total order usable as a map key.
  bool operator<(const Tt& o) const {
    return nvars_ != o.nvars_ ? nvars_ < o.nvars_ : bits_ < o.bits_;
  }

 private:
  static int check_arity(int nvars) {
    T1MAP_REQUIRE(nvars >= 0 && nvars <= kMaxVars,
                  "truth table arity out of range");
    return nvars;
  }

  static std::uint64_t mask(int nvars) {
    return nvars == 6 ? ~0ull : (1ull << (1u << nvars)) - 1;
  }

  Tt binary(const Tt& o, std::uint64_t bits) const {
    T1MAP_REQUIRE(nvars_ == o.nvars_,
                  "binary op requires equal truth-table arity");
    return Tt(nvars_, bits);
  }

  std::uint64_t bits_;
  int nvars_;
};

/// Evaluates `local` (a function of `fanins.size()` variables) on the given
/// fanin functions, producing a function over the fanins' shared variable
/// space.  All fanin tables must have equal arity.  This is how a cut's
/// function is computed from per-node local functions.
Tt compose(const Tt& local, std::span<const Tt> fanins);

namespace detail {

/// The kernel of `compose` without its checks: the caller guarantees
/// `local.num_vars() == fanins.size()` (>= 1) and that every fanin table
/// has `nvars` variables.  Cut enumeration calls this once per candidate
/// cut after checking the local arity once per node.
inline Tt compose_unchecked(const Tt& local, std::span<const Tt> fanins,
                            int nvars) {
  // Word-parallel Shannon expansion: every minterm of `local` contributes
  // the AND of its fanin tables (complemented where the minterm has a 0),
  // all 2^nvars result rows at once.
  const std::uint64_t full = Tt::ones(nvars).bits();
  const std::uint64_t lbits = local.bits();
  std::uint64_t result = 0;
  for (std::uint64_t row = 0; row < local.num_bits(); ++row) {
    if (((lbits >> row) & 1u) == 0) continue;
    std::uint64_t term = full;
    for (std::size_t k = 0; k < fanins.size() && term != 0; ++k) {
      const std::uint64_t f = fanins[k].bits();
      term &= ((row >> k) & 1u) != 0 ? f : ~f;
    }
    result |= term;
  }
  return Tt(nvars, result);
}

}  // namespace detail

/// The function of `tt` (over `from` leaves, ascending ids) re-expressed over
/// the superset leaf list `to` (ascending).  Every id in `from` must occur in
/// `to`.
Tt expand_to_leaves(const Tt& tt, std::span<const std::uint32_t> from,
                    std::span<const std::uint32_t> to);

/// Common 2- and 3-input functions used by the SFQ cell library and the T1
/// matcher.
namespace tts {
Tt and2();
Tt or2();
Tt xor2();
Tt and3();
Tt or3();
Tt xor3();
Tt maj3();
}  // namespace tts

}  // namespace t1map
