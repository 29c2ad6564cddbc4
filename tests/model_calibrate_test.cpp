// Tests of the serving-plane DES and its calibration loop: fit on one
// closed-loop "measurement", then predict a second, unseen configuration
// and assert the prediction error stays inside the tolerance band that
// scripts/check_paxkv.py gates on.
#include <gtest/gtest.h>

#include "pax/model/calibrate.hpp"

namespace pax::model {
namespace {

// The band check_paxkv.py enforces for the bench calibration row. Keep in
// sync with kCalibrationTolerance there.
constexpr double kTolerance = 0.25;

ServingMeasurement measure_with(const ServingParams& truth,
                                const ServingWorkload& workload) {
  const ServingPrediction sim = simulate_serving(truth, workload);
  ServingMeasurement m;
  m.workload = workload;
  m.throughput_ops_s = sim.throughput_ops_s;
  m.p50_us = sim.p50_us;
  m.p95_us = sim.p95_us;
  m.p99_us = sim.p99_us;
  m.read_floor_us = sim.read_floor_us;
  return m;
}

TEST(RelativeErrorTest, Basics) {
  EXPECT_DOUBLE_EQ(relative_error(110.0, 100.0), 0.1);
  EXPECT_DOUBLE_EQ(relative_error(90.0, 100.0), 0.1);
  EXPECT_DOUBLE_EQ(relative_error(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(relative_error(5.0, 0.0), 1.0);
}

TEST(SimulateServingTest, Deterministic) {
  ServingParams params;
  params.service_us = 6.0;
  params.base_rtt_us = 40.0;
  ServingWorkload wl;
  wl.connections = 8;
  wl.depth = 4;
  const ServingPrediction a = simulate_serving(params, wl);
  const ServingPrediction b = simulate_serving(params, wl);
  EXPECT_DOUBLE_EQ(a.throughput_ops_s, b.throughput_ops_s);
  EXPECT_DOUBLE_EQ(a.p50_us, b.p50_us);
  EXPECT_DOUBLE_EQ(a.p99_us, b.p99_us);
  EXPECT_GT(a.throughput_ops_s, 0.0);
  EXPECT_GE(a.p99_us, a.p95_us);
  EXPECT_GE(a.p95_us, a.p50_us);
}

TEST(SimulateServingTest, WaveCadenceDelaysWrites) {
  ServingWorkload wl;
  wl.connections = 4;
  wl.depth = 4;
  wl.write_frac = 1.0;  // every op parks on the wave boundary
  ServingParams fast;
  fast.service_us = 1.0;
  fast.base_rtt_us = 0.0;
  fast.wave_interval_us = 0.0;
  ServingParams waved = fast;
  waved.wave_interval_us = 500.0;
  const ServingPrediction free_run = simulate_serving(fast, wl);
  const ServingPrediction parked = simulate_serving(waved, wl);
  EXPECT_GT(parked.p50_us, free_run.p50_us);
}

TEST(CalibrateTest, RecoversGroundTruthParameters) {
  ServingParams truth;
  truth.service_us = 8.0;
  truth.base_rtt_us = 60.0;
  truth.wave_interval_us = 200.0;
  ServingWorkload fit_wl;
  fit_wl.connections = 8;
  fit_wl.depth = 8;
  fit_wl.write_frac = 0.5;

  const ServingMeasurement m = measure_with(truth, fit_wl);
  const ServingParams fitted =
      calibrate(m, truth.wave_interval_us);

  EXPECT_LT(relative_error(fitted.service_us, truth.service_us), 0.10);
  // base_rtt_us absorbs quantile noise; it only needs to be in the
  // right neighbourhood for predictions to land in band.
  EXPECT_NEAR(fitted.base_rtt_us, truth.base_rtt_us, 25.0);

  // The fit must reproduce its own training run tightly.
  const ServingPrediction replay = simulate_serving(fitted, fit_wl);
  EXPECT_LT(relative_error(replay.throughput_ops_s, m.throughput_ops_s),
            0.05);
  EXPECT_LT(relative_error(replay.p50_us, m.p50_us), 0.10);
}

// The acceptance criterion: calibrate on one configuration, predict a
// second unseen one, error within the tolerance band.
TEST(CalibrateTest, PredictsUnseenClosedLoopConfiguration) {
  ServingParams truth;
  truth.service_us = 7.0;
  truth.base_rtt_us = 45.0;
  truth.wave_interval_us = 200.0;

  ServingWorkload fit_wl;
  fit_wl.connections = 8;
  fit_wl.depth = 8;
  fit_wl.write_frac = 0.5;
  const ServingParams fitted =
      calibrate(measure_with(truth, fit_wl), truth.wave_interval_us);

  // Unseen: double the connections, shrink the depth.
  ServingWorkload unseen;
  unseen.connections = 16;
  unseen.depth = 4;
  unseen.write_frac = 0.5;
  const ServingMeasurement actual = measure_with(truth, unseen);
  const ServingPrediction pred = simulate_serving(fitted, unseen);

  EXPECT_LT(relative_error(pred.throughput_ops_s, actual.throughput_ops_s),
            kTolerance);
  EXPECT_LT(relative_error(pred.p50_us, actual.p50_us), kTolerance);
  EXPECT_LT(relative_error(pred.p95_us, actual.p95_us), kTolerance);
  EXPECT_LT(relative_error(pred.p99_us, actual.p99_us), kTolerance);
}

TEST(CalibrateTest, PredictsUnseenOpenLoopCurve) {
  ServingParams truth;
  truth.service_us = 10.0;
  truth.base_rtt_us = 30.0;
  truth.wave_interval_us = 200.0;

  ServingWorkload fit_wl;
  fit_wl.connections = 4;
  fit_wl.depth = 16;
  fit_wl.write_frac = 0.5;
  const ServingParams fitted =
      calibrate(measure_with(truth, fit_wl), truth.wave_interval_us);

  // Open loop at half the fitted capacity: latency should sit near the
  // rtt floor + wave parking, and the prediction should track the truth.
  ServingWorkload open_wl;
  open_wl.connections = 4;
  open_wl.write_frac = 0.5;
  open_wl.open_rate_ops_s = 0.5 * 1e6 / truth.service_us;
  open_wl.duration_s = 0.5;
  const ServingMeasurement actual = measure_with(truth, open_wl);
  const ServingPrediction pred = simulate_serving(fitted, open_wl);

  EXPECT_LT(relative_error(pred.throughput_ops_s, actual.throughput_ops_s),
            kTolerance);
  EXPECT_LT(relative_error(pred.p50_us, actual.p50_us), kTolerance);
  EXPECT_LT(relative_error(pred.p99_us, actual.p99_us), kTolerance);
}

}  // namespace
}  // namespace pax::model
