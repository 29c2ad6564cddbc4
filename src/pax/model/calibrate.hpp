// Serving-plane DES calibration: close the model-vs-reality loop.
//
// pax/model/throughput.hpp models the *device* path (paper Fig 2b). This
// module models the *serving* plane above it — the PaxKV event loop,
// pipelined connections, and the group-commit wave cadence — as a small
// deterministic discrete-event simulation, and fits its two free
// parameters to ONE measured closed-loop run from paxkv-loadgen:
//
//   service_us   effective per-op service time at the event loop (covers
//                syscall + parse + shard execution as seen end-to-end)
//   base_rtt_us  fixed client<->server round-trip floor (loopback / NIC)
//
// The fit: bisect service_us until simulated closed-loop throughput
// matches the measurement (throughput is monotone decreasing in
// service_us), then recover base_rtt_us from the measured *read floor* —
// the minimum GET latency across the run. In a saturated closed loop the
// percentiles are invariant to the round-trip floor (a later token return
// delays the next arrival by exactly the extra latency, cancelling it),
// so the floor is the only observable in a single closed-loop run that
// separates wire time from service time: an idle-server GET costs exactly
// service + rtt and never parks on a group-commit wave. Without a floor
// the p50 residual is used as a best-effort fallback.
//
// A calibrated model then *predicts* an unseen configuration — different
// connection count, depth, or an open-loop arrival rate — and
// `paxctl calibrate` (plus bench/abl_paxkv.cpp and scripts/check_paxkv.py)
// asserts the prediction error against a second real run. This mirrors
// the evaluation methodology of validating an analytical serving model
// against the real loop rather than trusting either alone.
//
// The DES is deterministic (no RNG): writes are thinned from write_frac by
// integer-crossing, open-loop arrivals sit on a fixed timeline, ties
// resolve by index — so calibrate() and the tests are bit-reproducible.
#pragma once

#include <cstddef>

namespace pax::model {

/// What the clients do — mirrors paxkv-loadgen's knobs.
struct ServingWorkload {
  std::size_t connections = 4;  // total concurrent connections
  std::size_t depth = 16;       // pipeline depth per connection (closed)
  double write_frac = 0.5;      // PUT/DEL fraction (parks on wave cadence)
  double open_rate_ops_s = 0;   // > 0: open loop at this aggregate rate
  double duration_s = 1.0;      // simulated horizon
};

/// The serving plane's fitted parameters. The event loop is one FIFO
/// service station.
struct ServingParams {
  double service_us = 5.0;        // fitted: per-op service time at the loop
  double base_rtt_us = 50.0;      // fitted: fixed round-trip floor
  double wave_interval_us = 200;  // group-commit cadence (from config)
};

struct ServingPrediction {
  double throughput_ops_s = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  // Minimum read (non-parking) latency, warmup included: service + rtt
  // plus whatever queueing the luckiest op still saw.
  double read_floor_us = 0;
};

/// One measured loadgen run (the "calibration" record in --json output).
struct ServingMeasurement {
  ServingWorkload workload;
  double throughput_ops_s = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  double read_floor_us = 0;  // min GET latency; 0 = not recorded
};

/// Runs the serving DES: closed loop when workload.open_rate_ops_s == 0,
/// open loop (latency from scheduled send time) otherwise.
ServingPrediction simulate_serving(const ServingParams& params,
                                   const ServingWorkload& workload);

/// Fits service_us and base_rtt_us so the DES reproduces `measured` (a
/// closed-loop run). `wave_interval_us` comes from the server
/// configuration, not the fit.
ServingParams calibrate(const ServingMeasurement& measured,
                        double wave_interval_us);

/// Relative error |predicted - measured| / measured (0 when measured
/// is 0): the quantity scripts/check_paxkv.py gates on.
double relative_error(double predicted, double measured);

}  // namespace pax::model
