#include "pax/model/calibrate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <queue>
#include <vector>

namespace pax::model {

namespace {

// Bounds the DES cost: enough ops for stable p99 at every workload size,
// small enough that a bisection fit stays well under a second.
constexpr std::size_t kMaxSimOps = 120000;
constexpr double kWarmupFrac = 0.1;  // ramp-up excluded from measurement

// Deterministic write thinning: op i is a write iff the cumulative write
// budget crosses an integer at i — reproduces write_frac exactly with no
// RNG.
bool is_write(std::uint64_t i, double write_frac) {
  const double before = static_cast<double>(i) * write_frac;
  const double after = static_cast<double>(i + 1) * write_frac;
  return std::floor(after) > std::floor(before);
}

// Deterministic service-time dispersion: real per-op service times are
// heavy-tailed (syscall batching, allocator hiccups, shard contention), and
// a constant-service DES would predict p99 ~ p50. Each op's service time is
// scaled by a fixed mean-1 profile — midpoint quantiles of a lognormal
// (sigma = 0.8) visited in a bit-reversed order so consecutive ops don't
// ramp monotonically. No RNG: the same op index always gets the same
// multiplier, keeping calibrate() and the tests bit-reproducible.
constexpr double kServiceProfile[16] = {
    0.1690, 0.2613, 0.3343, 0.4030, 0.4719, 0.5437, 0.6204, 0.7044,
    0.7986, 0.9068, 1.0347, 1.1920, 1.3958, 1.6826, 2.1528, 3.3286};

double service_jitter(std::uint64_t i) {
  // Bit-reverse the low 4 bits: 0,8,4,12,... interleaves short and long ops.
  const std::uint64_t r = ((i & 1) << 3) | ((i & 2) << 1) |
                          ((i & 4) >> 1) | ((i & 8) >> 3);
  return kServiceProfile[r];
}

// Ops deep in a pipelined window queue behind ~depth others, so iid per-op
// jitter averages out and would predict p99 ~ p50. Real tails are driven by
// *correlated* slowdowns (scheduler preemption, a wave of dirty-page diffs)
// that hit a stretch of consecutive ops. Blend per-op jitter with a
// block-level multiplier shared by kJitterBlock consecutive ops; 32 was
// fitted once against loopback loadgen runs and is not workload-tuned.
constexpr std::uint64_t kJitterBlock = 32;

double op_service_scale(std::uint64_t i) {
  return 0.5 * service_jitter(i) + 0.5 * service_jitter(i / kJitterBlock);
}

// Writes park until the next group-commit wave boundary (k * interval).
double ack_time(double finish_us, bool write, double wave_interval_us) {
  if (!write || wave_interval_us <= 0.0) return finish_us;
  const double waves = std::ceil(finish_us / wave_interval_us);
  return std::max(finish_us, waves * wave_interval_us);
}

struct Event {
  double time_us = 0;   // arrival at the serving plane
  double sched_us = 0;  // scheduled send time (open-loop latency origin)
  std::uint32_t conn = 0;
  std::uint64_t index = 0;  // tiebreak: deterministic ordering
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time_us != b.time_us) return a.time_us > b.time_us;
    return a.index > b.index;  // FIFO per timestamp
  }
};

ServingPrediction summarize(std::vector<double>& latencies, double span_us,
                            double read_floor_us) {
  ServingPrediction out;
  out.read_floor_us = read_floor_us;
  if (latencies.empty() || span_us <= 0.0) return out;
  out.throughput_ops_s =
      static_cast<double>(latencies.size()) / (span_us * 1e-6);
  std::sort(latencies.begin(), latencies.end());
  const auto at = [&latencies](double q) {
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(latencies.size() - 1) + 0.5);
    return latencies[std::min(rank, latencies.size() - 1)];
  };
  out.p50_us = at(0.50);
  out.p95_us = at(0.95);
  out.p99_us = at(0.99);
  return out;
}

}  // namespace

ServingPrediction simulate_serving(const ServingParams& params,
                                   const ServingWorkload& workload) {
  const std::size_t conns = std::max<std::size_t>(1, workload.connections);
  const double service = std::max(1e-3, params.service_us);
  const double rtt = std::max(0.0, params.base_rtt_us);
  const double horizon_us = std::max(1e3, workload.duration_s * 1e6);
  const bool open = workload.open_rate_ops_s > 0.0;

  std::priority_queue<Event, std::vector<Event>, EventLater> queue;
  std::uint64_t issued = 0;

  if (open) {
    // Fixed arrival timeline, round-robin over connections; latency is
    // measured from the scheduled time (no coordinated omission), exactly
    // like paxkv-loadgen's open mode.
    const double interval_us = 1e6 / workload.open_rate_ops_s;
    const std::uint64_t total = std::min<std::uint64_t>(
        kMaxSimOps, static_cast<std::uint64_t>(horizon_us / interval_us));
    for (std::uint64_t i = 0; i < total; ++i) {
      const double at = static_cast<double>(i) * interval_us;
      queue.push({at, at, static_cast<std::uint32_t>(i % conns), issued++});
    }
  } else {
    // Closed loop: connections * depth tokens, staggered by a fraction of
    // the service time so the start isn't one artificial mega-burst.
    const std::size_t tokens = conns * std::max<std::size_t>(1, workload.depth);
    for (std::size_t i = 0; i < tokens; ++i) {
      const double at = static_cast<double>(i % conns) * (service * 0.01);
      queue.push({at, at, static_cast<std::uint32_t>(i % conns), issued++});
    }
  }

  // The event loop is one FIFO station shared by every connection.
  double busy_until = 0.0;
  std::vector<double> latencies;
  latencies.reserve(kMaxSimOps);
  const std::uint64_t cap = open ? kMaxSimOps : kMaxSimOps;
  const std::uint64_t warmup =
      open ? 0 : static_cast<std::uint64_t>(kWarmupFrac * kMaxSimOps);
  std::uint64_t completed = 0;
  double measure_start_us = -1.0;
  double last_done_us = 0.0;
  double read_floor_us = 0.0;
  bool saw_read = false;

  while (!queue.empty()) {
    const Event ev = queue.top();
    queue.pop();
    const double start = std::max(ev.time_us, busy_until);
    const double finish = start + service * op_service_scale(completed);
    busy_until = finish;
    const bool write = is_write(completed, workload.write_frac);
    const double acked = ack_time(finish, write, params.wave_interval_us);
    const double done = acked + rtt;
    ++completed;
    if (!write) {
      // Reads never park: their minimum is the service + rtt floor the
      // calibration fit uses to split wire time from service time.
      const double lat = done - (open ? ev.sched_us : ev.time_us);
      if (!saw_read || lat < read_floor_us) read_floor_us = lat;
      saw_read = true;
    }

    if (open) {
      latencies.push_back(done - ev.sched_us);
      last_done_us = std::max(last_done_us, done);
    } else {
      if (completed == warmup) measure_start_us = done;
      if (completed > warmup) {
        latencies.push_back(done - ev.time_us);
        last_done_us = std::max(last_done_us, done);
      }
      // Token returns: the client immediately issues the next request.
      if (completed + queue.size() < cap && done < horizon_us) {
        queue.push({done, done, ev.conn, issued++});
      }
    }
  }

  double span_us = 0.0;
  if (open) {
    // Open-loop throughput is measured over the span the ops actually
    // took; a saturated server stretches it beyond the offered timeline.
    span_us = last_done_us;
  } else {
    span_us = last_done_us - std::max(0.0, measure_start_us);
  }
  return summarize(latencies, span_us, read_floor_us);
}

double relative_error(double predicted, double measured) {
  if (measured == 0.0) return predicted == 0.0 ? 0.0 : 1.0;
  return std::fabs(predicted - measured) / std::fabs(measured);
}

ServingParams calibrate(const ServingMeasurement& measured,
                        double wave_interval_us) {
  ServingParams params;
  params.wave_interval_us = wave_interval_us;
  params.base_rtt_us = 0.0;

  // Initial guess: one station, so capacity ~ 1 / service_us.
  const double measured_tput = std::max(1.0, measured.throughput_ops_s);
  params.service_us = 1e6 / measured_tput;

  for (int round = 0; round < 3; ++round) {
    // Bisect service_us: closed-loop throughput is strictly decreasing in
    // it, so the root is bracketed by [tiny, huge].
    double lo = 1e-3;
    double hi = std::max(1.0, params.service_us * 64.0);
    for (int it = 0; it < 40; ++it) {
      params.service_us = 0.5 * (lo + hi);
      const ServingPrediction sim =
          simulate_serving(params, measured.workload);
      if (sim.throughput_ops_s > measured.throughput_ops_s) {
        lo = params.service_us;  // too fast: slow the stations down
      } else {
        hi = params.service_us;
      }
    }
    params.service_us = 0.5 * (lo + hi);

    if (measured.read_floor_us > 0.0) {
      // The idle-path read floor is service + rtt (saturated-closed-loop
      // percentiles are rtt-invariant, so this is the only split signal).
      params.base_rtt_us =
          std::max(0.0, measured.read_floor_us - params.service_us);
    } else {
      // Fallback: every simulated latency contains base_rtt_us
      // additively, so the p50 residual shifts toward the measurement.
      const ServingPrediction sim =
          simulate_serving(params, measured.workload);
      const double residual = measured.p50_us - sim.p50_us;
      params.base_rtt_us = std::max(0.0, params.base_rtt_us + residual);
    }
  }
  return params;
}

}  // namespace pax::model
