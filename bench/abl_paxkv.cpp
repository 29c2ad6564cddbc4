// Ablation — PaxKV serving frontend: cross-shard epoch group commit vs
// per-shard independent commit, and DES calibration.
//
// PR "PaxKV": the serving layer batches durability. In independent mode
// every shard worker commits its own shard after each drained batch — at N
// shards a write burst costs up to N log-flush rounds. In group mode the
// commit coordinator accumulates dirty shards and issues ONE wave
// (persist_async per dirty shard, drains overlapped on each shard's epoch
// pipeline), so concurrent writes across all shards share a single
// log-flush round and durable acks release together.
//
// Calibration: pax::model::calibrate() fits the serving DES to the
// closed-loop group row (2 conns, depth 16), predicts an *unseen*
// closed-loop configuration (4 conns driven by the same 2 client threads,
// depth 8), and the predicted-vs-measured p50/p95/p99 + throughput land in
// a "calibration" object, gated by scripts/check_paxkv.py. The open-loop
// row's prediction is reported informationally (scheduled-send-time
// latency on an oversubscribed runner is dominated by client scheduling
// noise).
//
// The harness runs a real KvServer on loopback (the production path, not a
// mock) and drives it with in-process pipelined clients. Closed-loop rows
// sweep {2, 4} shards x {independent, group}; an open-loop row at 4 shards
// paces requests at half the measured closed-loop group throughput and
// measures from the scheduled send time (queueing delay included). The
// headline metric is log flushes per acknowledged write op, read from the
// shard devices' UndoLoggerStats — plus p50/p95/p99/p999 latency.
//
// Results land in BENCH_paxkv.json (cwd); scripts/check_paxkv.py asserts
// the acceptance thresholds (group < independent flushes/op at >= 2
// shards, calibration error in band, sane percentiles). The JSON records
// host_cpus so a reader can tell a 1-CPU run from a multi-core one.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "pax/kv/client.hpp"
#include "pax/kv/histogram.hpp"
#include "pax/kv/server.hpp"
#include "pax/model/calibrate.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using pax::kv::KvClient;
using pax::kv::KvServer;
using pax::kv::KvServerOptions;
using pax::kv::LatencyHistogram;
using pax::kv::RespStatus;

constexpr std::size_t kClients = 2;
constexpr std::size_t kDepth = 16;
constexpr std::uint64_t kOpsPerClient = 6000;
constexpr std::uint64_t kKeys = 2000;
constexpr std::size_t kValueBytes = 128;
constexpr double kGetFrac = 0.3;  // write-heavy: the group-commit regime
constexpr double kWaveIntervalUs = 200.0;  // KvServerOptions default

struct Row {
  std::string mode;
  std::string loop;
  std::size_t shards = 0;
  std::uint64_t ops = 0;
  double elapsed_s = 0;
  double throughput = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p95_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t p999_ns = 0;
  std::uint64_t read_floor_ns = 0;
  std::uint64_t log_flushes = 0;
  std::uint64_t acked_writes = 0;
  double flushes_per_op = 0;
  std::uint64_t waves = 0;
  std::size_t clients = kClients;
  std::size_t depth = kDepth;

  // The serving-DES view of this run, for pax::model::calibrate().
  pax::model::ServingMeasurement measurement(double open_rate) const {
    pax::model::ServingMeasurement m;
    m.workload.connections = clients;
    m.workload.depth = depth;
    m.workload.write_frac = 1.0 - kGetFrac;
    m.workload.open_rate_ops_s = open_rate;
    m.workload.duration_s = elapsed_s;
    m.throughput_ops_s = throughput;
    m.p50_us = p50_ns / 1e3;
    m.p95_us = p95_ns / 1e3;
    m.p99_us = p99_ns / 1e3;
    m.read_floor_us = read_floor_ns / 1e3;
    return m;
  }
};

// Returns true when the op was a GET (reads feed the calibration floor).
bool send_one(KvClient& c, std::mt19937_64& rng, const std::string& value) {
  std::uniform_int_distribution<std::uint64_t> key_dist(0, kKeys - 1);
  std::uniform_real_distribution<double> frac(0.0, 1.0);
  char key[24];
  std::snprintf(key, sizeof(key), "key-%06" PRIu64, key_dist(rng));
  if (frac(rng) < kGetFrac) {
    c.send_get(key);
    return true;
  }
  c.send_put(key, value);
  return false;
}

struct ClientResult {
  LatencyHistogram hist;
  std::uint64_t read_floor_ns = 0;

  void record(std::uint64_t ns, bool read) {
    hist.record(ns);
    if (read && (read_floor_ns == 0 || ns < read_floor_ns)) {
      read_floor_ns = ns;
    }
  }
};

struct Sent {
  Clock::time_point at;
  bool read;
};

// One thread drives `conns` pipelined connections (like paxkv-loadgen's
// --connections-per-thread), so the bench can vary the server-visible
// connection count without changing its own CPU footprint — essential for
// a fair calibration comparison on a small runner.
ClientResult closed_client(std::uint16_t port, std::uint64_t ops,
                           std::size_t depth, std::size_t conns,
                           std::uint64_t seed) {
  ClientResult result;
  struct Pipe {
    KvClient client;
    std::deque<Sent> pending;
    explicit Pipe(KvClient c) : client(std::move(c)) {}
  };
  std::vector<Pipe> pipes;
  pipes.reserve(conns);
  for (std::size_t i = 0; i < conns; ++i) {
    auto client = KvClient::connect("127.0.0.1", port);
    if (!client.ok()) return result;
    pipes.emplace_back(std::move(client).value());
  }
  std::mt19937_64 rng(seed);
  const std::string value(kValueBytes, 'v');
  std::uint64_t sent = 0;
  std::uint64_t done = 0;
  while (done < ops) {
    for (Pipe& pipe : pipes) {
      while (sent < ops && pipe.pending.size() < depth) {
        const bool read = send_one(pipe.client, rng, value);
        pipe.pending.push_back({Clock::now(), read});
        ++sent;
      }
      if (!pipe.pending.empty() && !pipe.client.flush().is_ok()) {
        return result;
      }
    }
    for (Pipe& pipe : pipes) {
      if (pipe.pending.empty()) continue;
      auto resp = pipe.client.recv_response();
      if (!resp.ok()) return result;
      result.record(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - pipe.pending.front().at)
                  .count()),
          pipe.pending.front().read);
      pipe.pending.pop_front();
      ++done;
    }
  }
  return result;
}

ClientResult open_client(std::uint16_t port, double rate_per_client,
                         double duration_s, std::uint64_t seed) {
  ClientResult result;
  auto client = KvClient::connect("127.0.0.1", port);
  if (!client.ok()) return result;
  KvClient& c = client.value();
  std::mt19937_64 rng(seed);
  const std::string value(kValueBytes, 'v');
  const auto interval = std::chrono::nanoseconds(
      static_cast<std::uint64_t>(1e9 / rate_per_client));
  const auto start = Clock::now();
  const auto deadline =
      start +
      std::chrono::nanoseconds(static_cast<std::uint64_t>(duration_s * 1e9));
  std::deque<Sent> scheduled;
  auto next_send = start;
  for (;;) {
    if (Clock::now() >= deadline && scheduled.empty()) break;
    std::size_t burst = 0;
    while (next_send <= Clock::now() && next_send < deadline &&
           burst < 1024) {
      const bool read = send_one(c, rng, value);
      scheduled.push_back({next_send, read});
      next_send += interval;
      ++burst;
    }
    if (burst > 0 && !c.flush().is_ok()) break;
    if (scheduled.empty()) {
      std::this_thread::sleep_until(std::min(next_send, deadline));
      continue;
    }
    auto resp = c.recv_response();
    if (!resp.ok()) break;
    result.record(static_cast<std::uint64_t>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - scheduled.front().at)
                          .count()),
                  scheduled.front().read);
    scheduled.pop_front();
  }
  return result;
}

Row run_config(std::size_t shards, KvServerOptions::CommitMode mode,
               const char* mode_name, double open_rate,
               std::size_t clients = kClients,
               std::size_t depth = kDepth,
               std::size_t conns_per_thread = 1) {
  KvServerOptions options;
  options.port = 0;
  options.commit_mode = mode;
  options.store.shards = shards;
  options.store.shard_pool_bytes = 16 << 20;
  auto server = KvServer::start(options);
  if (!server.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 server.status().to_string().c_str());
    std::exit(1);
  }
  const std::uint16_t port = server.value()->port();

  const bool open_loop = open_rate > 0;
  const auto start = Clock::now();
  std::vector<ClientResult> results(clients);
  {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t i = 0; i < clients; ++i) {
      threads.emplace_back([&results, i, port, open_loop, open_rate, clients,
                            depth, conns_per_thread] {
        results[i] =
            open_loop
                ? open_client(port, open_rate / clients, 2.0,
                              1000003 * (i + 1))
                : closed_client(port, kOpsPerClient * conns_per_thread,
                                depth, conns_per_thread, 1000003 * (i + 1));
      });
    }
    for (auto& t : threads) t.join();
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  LatencyHistogram hist;
  std::uint64_t read_floor_ns = 0;
  for (const auto& r : results) {
    hist.merge(r.hist);
    if (r.read_floor_ns != 0 &&
        (read_floor_ns == 0 || r.read_floor_ns < read_floor_ns)) {
      read_floor_ns = r.read_floor_ns;
    }
  }

  const auto gstats = server.value()->store().group().stats();
  Row row;
  row.mode = mode_name;
  row.loop = open_loop ? "open" : "closed";
  row.shards = shards;
  row.ops = hist.count();
  row.elapsed_s = elapsed;
  row.throughput = elapsed > 0 ? static_cast<double>(hist.count()) / elapsed
                               : 0.0;
  row.p50_ns = hist.percentile(0.50);
  row.p95_ns = hist.percentile(0.95);
  row.p99_ns = hist.percentile(0.99);
  row.p999_ns = hist.percentile(0.999);
  row.read_floor_ns = read_floor_ns;
  row.log_flushes = server.value()->store().total_log_flushes();
  row.acked_writes = gstats.wave_ops + gstats.independent_ops;
  row.flushes_per_op =
      row.acked_writes > 0 ? static_cast<double>(row.log_flushes) /
                                 static_cast<double>(row.acked_writes)
                           : 0.0;
  row.waves = gstats.waves;
  row.clients = clients * conns_per_thread;  // server-visible connections
  row.depth = depth;
  server.value()->stop();

  std::printf(
      "%-12s %-6s shards=%zu ops=%" PRIu64
      " thru=%.0f/s p50=%.0fus p99=%.0fus flushes/op=%.4f waves=%" PRIu64
      "\n",
      row.mode.c_str(), row.loop.c_str(), row.shards, row.ops, row.throughput,
      row.p50_ns / 1e3, row.p99_ns / 1e3, row.flushes_per_op, row.waves);
  return row;
}

void emit_row(std::FILE* out, const Row& r, bool last) {
  std::fprintf(
      out,
      "    {\"mode\": \"%s\", \"loop\": \"%s\", \"shards\": %zu, "
      "\"ops\": %" PRIu64 ", \"elapsed_s\": %.4f, "
      "\"throughput_ops_s\": %.1f, \"p50_ns\": %" PRIu64
      ", \"p95_ns\": %" PRIu64 ", \"p99_ns\": %" PRIu64
      ", \"p999_ns\": %" PRIu64 ", \"read_floor_ns\": %" PRIu64
      ", \"log_flushes\": %" PRIu64 ", \"acked_write_ops\": %" PRIu64
      ", \"flushes_per_op\": %.6f, \"waves\": %" PRIu64 "}%s\n",
      r.mode.c_str(), r.loop.c_str(), r.shards, r.ops, r.elapsed_s,
      r.throughput, r.p50_ns, r.p95_ns, r.p99_ns, r.p999_ns, r.read_floor_ns,
      r.log_flushes, r.acked_writes, r.flushes_per_op, r.waves,
      last ? "" : ",");
}

}  // namespace

int main() {
  std::vector<Row> rows;

  double group4_throughput = 0;
  Row fit_row;
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    rows.push_back(run_config(
        shards, KvServerOptions::CommitMode::kIndependent, "independent",
        0));
    rows.push_back(run_config(shards, KvServerOptions::CommitMode::kGroup,
                              "group", 0));
    if (shards == 4) {
      fit_row = rows.back();
      group4_throughput = fit_row.throughput;
    }
  }
  // Open-loop row: pace at half the measured closed-loop group throughput
  // so the server is loaded but not saturated — tail latency is then the
  // commit cadence, not a queueing explosion.
  rows.push_back(run_config(4, KvServerOptions::CommitMode::kGroup, "group",
                            group4_throughput / 2));
  const Row open_row = rows.back();
  const double open_rate = group4_throughput / 2;

  // Calibration: fit the serving DES to the closed-loop 4-shard group row
  // (2 connections, depth 16), then predict an *unseen* closed-loop
  // configuration — 4 connections (2 threads x 2 conns each) at depth 8 —
  // plus, informationally, the open-loop row. The unseen run keeps the SAME
  // number of client threads as the fit run so client-side CPU contention
  // on a small runner stays comparable; only the server-visible shape
  // (connections, pipeline depth) changes, which is exactly what the DES
  // models. The closed prediction is the gated one: open-loop latency
  // measured from scheduled send time on an oversubscribed runner is
  // dominated by client scheduling noise the server model cannot (and
  // should not) absorb.
  const pax::model::ServingMeasurement fit_m = fit_row.measurement(0);
  const pax::model::ServingParams fitted =
      pax::model::calibrate(fit_m, kWaveIntervalUs);

  const Row unseen_row =
      run_config(4, KvServerOptions::CommitMode::kGroup, "group", 0,
                 /*clients=*/2, /*depth=*/8, /*conns_per_thread=*/2);
  const pax::model::ServingMeasurement unseen_m = unseen_row.measurement(0);
  const pax::model::ServingPrediction pred =
      pax::model::simulate_serving(fitted, unseen_m.workload);

  const pax::model::ServingMeasurement open_m =
      open_row.measurement(open_rate);
  const pax::model::ServingPrediction open_pred =
      pax::model::simulate_serving(fitted, open_m.workload);
  std::printf(
      "calibration: service_us=%.2f base_rtt_us=%.2f | unseen closed "
      "tput %.0f vs %.0f (err %.1f%%), p50 %.0fus vs %.0fus (err %.1f%%), "
      "p99 %.0fus vs %.0fus (err %.1f%%)\n",
      fitted.service_us, fitted.base_rtt_us, pred.throughput_ops_s,
      unseen_m.throughput_ops_s,
      100 * pax::model::relative_error(pred.throughput_ops_s,
                                       unseen_m.throughput_ops_s),
      pred.p50_us, unseen_m.p50_us,
      100 * pax::model::relative_error(pred.p50_us, unseen_m.p50_us),
      pred.p99_us, unseen_m.p99_us,
      100 * pax::model::relative_error(pred.p99_us, unseen_m.p99_us));

  std::FILE* out = std::fopen("BENCH_paxkv.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_paxkv.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"paxkv\",\n");
  std::fprintf(out, "  \"clients\": %zu,\n  \"depth\": %zu,\n", kClients,
               kDepth);
  std::fprintf(out, "  \"value_bytes\": %zu,\n  \"get_frac\": %.2f,\n",
               kValueBytes, kGetFrac);
  std::fprintf(out, "  \"host_cpus\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    emit_row(out, rows[i], i + 1 == rows.size());
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(
      out,
      "  \"calibration\": {\n"
      "    \"fit\": {\"mode\": \"closed\", \"shards\": %zu, "
      "\"connections\": %zu, \"depth\": %zu, \"write_frac\": %.2f, "
      "\"throughput_ops_s\": %.1f, \"p50_us\": %.2f, \"p95_us\": %.2f, "
      "\"p99_us\": %.2f, \"read_floor_us\": %.2f},\n"
      "    \"fitted\": {\"service_us\": %.3f, "
      "\"base_rtt_us\": %.3f, \"wave_interval_us\": %.1f},\n"
      "    \"unseen\": {\"mode\": \"closed\", \"connections\": %zu, "
      "\"depth\": %zu},\n"
      "    \"predicted\": {\"throughput_ops_s\": %.1f, \"p50_us\": %.2f, "
      "\"p95_us\": %.2f, \"p99_us\": %.2f},\n"
      "    \"measured\": {\"throughput_ops_s\": %.1f, \"p50_us\": %.2f, "
      "\"p95_us\": %.2f, \"p99_us\": %.2f},\n"
      "    \"error\": {\"throughput\": %.4f, \"p50\": %.4f, "
      "\"p95\": %.4f, \"p99\": %.4f},\n"
      "    \"open_loop_informational\": {\"offered_load_ops_s\": %.1f, "
      "\"predicted\": {\"throughput_ops_s\": %.1f, \"p50_us\": %.2f, "
      "\"p99_us\": %.2f}, \"measured\": {\"throughput_ops_s\": %.1f, "
      "\"p50_us\": %.2f, \"p99_us\": %.2f}}\n"
      "  }\n",
      fit_row.shards, fit_m.workload.connections, fit_m.workload.depth,
      fit_m.workload.write_frac, fit_m.throughput_ops_s, fit_m.p50_us,
      fit_m.p95_us, fit_m.p99_us, fit_m.read_floor_us, fitted.service_us,
      fitted.base_rtt_us, fitted.wave_interval_us,
      unseen_m.workload.connections, unseen_m.workload.depth,
      pred.throughput_ops_s, pred.p50_us, pred.p95_us, pred.p99_us,
      unseen_m.throughput_ops_s, unseen_m.p50_us, unseen_m.p95_us,
      unseen_m.p99_us,
      pax::model::relative_error(pred.throughput_ops_s,
                                 unseen_m.throughput_ops_s),
      pax::model::relative_error(pred.p50_us, unseen_m.p50_us),
      pax::model::relative_error(pred.p95_us, unseen_m.p95_us),
      pax::model::relative_error(pred.p99_us, unseen_m.p99_us), open_rate,
      open_pred.throughput_ops_s, open_pred.p50_us, open_pred.p99_us,
      open_m.throughput_ops_s, open_m.p50_us, open_m.p99_us);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote BENCH_paxkv.json\n");
  return 0;
}
