#include "sfq/cells.hpp"

#include "common/require.hpp"

namespace t1map::sfq {

namespace {

struct KindInfo {
  std::string_view name;
  int fanins;
  int area;
  bool clocked;
};

constexpr KindInfo kInfo[kNumCellKinds] = {
    /* kPi      */ {"PI", 0, 0, false},
    /* kConst0  */ {"CONST0", 0, 0, false},
    /* kConst1  */ {"CONST1", 0, 0, false},
    /* kBuf     */ {"BUF", 1, 2, true},   // JTL stage
    /* kNot     */ {"NOT", 1, 9, true},
    /* kAnd2    */ {"AND2", 2, 11, true},
    /* kOr2     */ {"OR2", 2, 9, true},
    /* kXor2    */ {"XOR2", 2, 11, true},
    /* kAnd3    */ {"AND3", 3, 13, true},
    /* kOr3     */ {"OR3", 3, 13, true},
    /* kXor3    */ {"XOR3", 3, 36, true},
    /* kMaj3    */ {"MAJ3", 3, 36, true},
    /* kDff     */ {"DFF", 1, 7, true},
    /* kT1      */ {"T1", 3, kT1AreaJj, true},
    /* kT1TapS  */ {"T1.S", 1, 0, false},
    /* kT1TapC  */ {"T1.C", 1, 0, false},
    /* kT1TapQ  */ {"T1.Q", 1, 0, false},
    /* kT1TapCn */ {"T1.C*", 1, 9, false},  // attached inverter
    /* kT1TapQn */ {"T1.Q*", 1, 9, false},  // attached inverter
};

const KindInfo& info(CellKind kind) {
  const int i = static_cast<int>(kind);
  T1MAP_ASSERT(i >= 0 && i < kNumCellKinds);
  return kInfo[i];
}

}  // namespace

std::string_view cell_name(CellKind kind) { return info(kind).name; }
int cell_fanin_count(CellKind kind) { return info(kind).fanins; }
int cell_area_jj(CellKind kind) { return info(kind).area; }
bool cell_is_clocked(CellKind kind) { return info(kind).clocked; }

Tt cell_tt(CellKind kind) {
  switch (kind) {
    case CellKind::kBuf:
      return Tt::var(1, 0);
    case CellKind::kNot:
      return ~Tt::var(1, 0);
    case CellKind::kAnd2:
      return tts::and2();
    case CellKind::kOr2:
      return tts::or2();
    case CellKind::kXor2:
      return tts::xor2();
    case CellKind::kAnd3:
      return tts::and3();
    case CellKind::kOr3:
      return tts::or3();
    case CellKind::kXor3:
      return tts::xor3();
    case CellKind::kMaj3:
      return tts::maj3();
    case CellKind::kDff:
      return Tt::var(1, 0);
    case CellKind::kT1TapS:
      return tts::xor3();
    case CellKind::kT1TapC:
      return tts::maj3();
    case CellKind::kT1TapQ:
      return tts::or3();
    case CellKind::kT1TapCn:
      return ~tts::maj3();
    case CellKind::kT1TapQn:
      return ~tts::or3();
    default:
      T1MAP_REQUIRE(false, "cell kind has no logic function");
  }
  return Tt(0);
}

}  // namespace t1map::sfq
