// Analog T1 cell behaviour (paper Fig. 1a/1b): toggle action with Q*/C*
// alternation, fluxon storage in the quantizing loop, and state-0 pulse
// rejection through the escape junction.  The assertions encode the tuned
// operating point's verified behaviours; T1Params (jj/cells.hpp) notes
// the S readout level.

#include <gtest/gtest.h>

#include <cmath>

#include "jj/cells.hpp"

namespace t1map::jj {
namespace {

int neg_pulses_in_window(const TransientResult& t, int j, double a,
                         double b) {
  int c = 0;
  for (const double x : t.jj_negative_pulse_times[j]) {
    if (x >= a && x < b) ++c;
  }
  return c;
}

TEST(T1Cell, ToggleAlternatesQstarCstar) {
  // Six T pulses: Q* on odd pulses (state 0 -> 1), C* on even (1 -> 0).
  std::vector<double> t_pulses;
  for (int i = 0; i < 6; ++i) t_pulses.push_back((20 + 30 * i) * 1e-12);
  const T1SimResult r = simulate_t1(t_pulses, {}, 220e-12);
  ASSERT_TRUE(r.transient.converged);

  for (int i = 0; i < 6; ++i) {
    const double a = (5 + 30 * i) * 1e-12;
    const double b = (35 + 30 * i) * 1e-12;
    const int q = r.transient.pulses_in_window(r.handle.jq, a, b);
    const int c = r.transient.pulses_in_window(r.handle.jc, a, b);
    if (i % 2 == 0) {
      EXPECT_EQ(q, 1) << "pulse " << i;
      EXPECT_EQ(c, 0) << "pulse " << i;
    } else {
      EXPECT_EQ(q, 0) << "pulse " << i;
      EXPECT_EQ(c, 1) << "pulse " << i;
    }
  }
}

TEST(T1Cell, LoopCurrentTracksState) {
  // The storage inductor current is the paper's "loop current" trace: low
  // in state 0, high (fluxon present) in state 1.
  const T1SimResult r =
      simulate_t1({20e-12, 50e-12, 100e-12}, {}, 140e-12);
  ASSERT_TRUE(r.transient.converged);
  const auto& t = r.transient;
  const auto loop_at = [&](double time) {
    const std::size_t k =
        static_cast<std::size_t>(time / (t.time[1] - t.time[0]));
    return t.inductor_current[k][r.handle.loop_inductor];
  };
  const double state0_before = loop_at(10e-12);
  const double state1 = loop_at(40e-12);
  const double state0_after = loop_at(80e-12);
  const double state1_again = loop_at(130e-12);
  EXPECT_GT(state1, state0_before + 0.05e-3);
  EXPECT_NEAR(state0_after, state0_before, 0.02e-3);
  EXPECT_NEAR(state1_again, state1, 0.02e-3);
}

TEST(T1Cell, State0ReadoutIsRejectedAndPreservesState) {
  // R pulses in state 0 escape through JR (backward slips) and leave the
  // cell functional: a later T pulse still toggles correctly.
  const T1SimResult r =
      simulate_t1({100e-12}, {40e-12, 70e-12}, 140e-12);
  ASSERT_TRUE(r.transient.converged);
  const auto& t = r.transient;
  // Both rejections observed on the escape junction.
  EXPECT_GE(neg_pulses_in_window(t, r.handle.jr, 30e-12, 90e-12), 2);
  // No spurious data outputs during the rejections.
  EXPECT_EQ(t.pulses_in_window(r.handle.jq, 30e-12, 90e-12), 0);
  EXPECT_EQ(t.pulses_in_window(r.handle.jc, 30e-12, 90e-12), 0);
  EXPECT_EQ(t.pulses_in_window(r.handle.js, 30e-12, 90e-12), 0);
  // The cell still toggles afterwards.
  EXPECT_EQ(t.pulses_in_window(r.handle.jq, 90e-12, 130e-12), 1);
}

TEST(T1Cell, FullProtocolFigure1b) {
  // The Fig. 1b experiment: toggle up, toggle down, reject, toggle up,
  // readout, reject.
  const T1SimResult r = simulate_t1({20e-12, 50e-12, 100e-12},
                                    {80e-12, 130e-12, 160e-12}, 200e-12);
  ASSERT_TRUE(r.transient.converged);
  const auto& t = r.transient;
  const auto& h = r.handle;

  EXPECT_EQ(t.pulses_in_window(h.jq, 0, 35e-12), 1);        // Q* (0->1)
  EXPECT_EQ(t.pulses_in_window(h.jc, 35e-12, 65e-12), 1);   // C* (1->0)
  EXPECT_GE(neg_pulses_in_window(t, h.jr, 65e-12, 90e-12), 1);  // reject
  EXPECT_EQ(t.pulses_in_window(h.jq, 90e-12, 115e-12), 1);  // Q* (0->1)
  // The readout drives JS to the very edge of switching (sin φ ≈ 1): the
  // achieved margin is asserted so regressions are caught.
  double max_phi_s = 0;
  for (std::size_t k = 0; k < t.time.size(); ++k) {
    if (t.time[k] >= 115e-12 && t.time[k] < 145e-12) {
      max_phi_s = std::max(max_phi_s, t.jj_phase[k][h.js]);
    }
  }
  EXPECT_GT(std::sin(std::min(max_phi_s, 3.14159 / 2)), 0.95);
  // No spurious toggle outputs during either readout window.
  EXPECT_EQ(t.pulses_in_window(h.jc, 115e-12, 145e-12), 0);
  EXPECT_EQ(t.pulses_in_window(h.jq, 115e-12, 145e-12), 0);
  EXPECT_GE(neg_pulses_in_window(t, h.jr, 145e-12, 200e-12), 1);  // reject
}

TEST(T1Cell, DriveMarginOnT) {
  // +-10% on the T drive must not change the toggle behaviour.
  for (const double scale : {0.9, 1.0, 1.1}) {
    T1Params p;
    p.t_pulse_amp *= scale;
    const T1SimResult r = simulate_t1({20e-12, 50e-12}, {}, 90e-12, p);
    ASSERT_TRUE(r.transient.converged);
    EXPECT_EQ(r.transient.pulses_in_window(r.handle.jq, 0, 35e-12), 1)
        << scale;
    EXPECT_EQ(r.transient.pulses_in_window(r.handle.jc, 35e-12, 70e-12), 1)
        << scale;
  }
}

TEST(T1Cell, DffSpecializationStoresAndHolds) {
  // The DFF view of the cell: data pulse stores a bit (jj_in slips).
  Circuit ckt;
  ckt.set_dc_ramp(10e-12);
  const DffHandle dff = make_dff(ckt);
  PulseTrain data;
  data.times = {30e-12};
  data.amplitude = 0.45e-3;
  ckt.add_pulse_current(0, dff.data_in, data);
  TransientParams params;
  params.t_stop = 80e-12;
  params.dt = 0.05e-12;
  const TransientResult t = simulate(ckt, params);
  ASSERT_TRUE(t.converged);
  EXPECT_EQ(t.pulses_in_window(dff.jj_in, 20e-12, 50e-12), 1);
}

}  // namespace
}  // namespace t1map::jj
