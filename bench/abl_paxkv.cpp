// Ablation — PaxKV serving frontend: cross-shard epoch group commit vs
// per-shard independent commit.
//
// PR "PaxKV": the serving layer batches durability. In independent mode
// every shard worker commits its own shard after each drained batch — at N
// shards a write burst costs up to N log-flush rounds. In group mode the
// commit coordinator accumulates dirty shards and issues ONE wave
// (persist_async per dirty shard, drains overlapped on each shard's epoch
// pipeline), so concurrent writes across all shards share a single
// log-flush round and durable acks release together.
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
// shards, sane percentiles). The JSON records host_cpus so a reader can
// tell a 1-CPU run from a multi-core one.
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
  std::uint64_t log_flushes = 0;
  std::uint64_t acked_writes = 0;
  double flushes_per_op = 0;
  std::uint64_t waves = 0;
};

void send_one(KvClient& c, std::mt19937_64& rng, const std::string& value) {
  std::uniform_int_distribution<std::uint64_t> key_dist(0, kKeys - 1);
  std::uniform_real_distribution<double> frac(0.0, 1.0);
  char key[24];
  std::snprintf(key, sizeof(key), "key-%06" PRIu64, key_dist(rng));
  if (frac(rng) < kGetFrac) {
    c.send_get(key);
  } else {
    c.send_put(key, value);
  }
}

void record_since(LatencyHistogram& hist, Clock::time_point at) {
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - at);
  hist.record(static_cast<std::uint64_t>(ns.count()));
}

LatencyHistogram closed_client(std::uint16_t port, std::uint64_t ops,
                               std::uint64_t seed) {
  LatencyHistogram hist;
  auto client = KvClient::connect("127.0.0.1", port);
  if (!client.ok()) return hist;
  KvClient& c = client.value();
  std::mt19937_64 rng(seed);
  const std::string value(kValueBytes, 'v');
  std::deque<Clock::time_point> pending;
  std::uint64_t sent = 0;
  std::uint64_t done = 0;
  while (done < ops) {
    while (sent < ops && pending.size() < kDepth) {
      send_one(c, rng, value);
      pending.push_back(Clock::now());
      ++sent;
    }
    if (!c.flush().is_ok()) break;
    auto resp = c.recv_response();
    if (!resp.ok()) break;
    record_since(hist, pending.front());
    pending.pop_front();
    ++done;
  }
  return hist;
}

LatencyHistogram open_client(std::uint16_t port, double rate_per_client,
                             double duration_s, std::uint64_t seed) {
  LatencyHistogram hist;
  auto client = KvClient::connect("127.0.0.1", port);
  if (!client.ok()) return hist;
  KvClient& c = client.value();
  std::mt19937_64 rng(seed);
  const std::string value(kValueBytes, 'v');
  const auto interval = std::chrono::nanoseconds(
      static_cast<std::uint64_t>(1e9 / rate_per_client));
  const auto start = Clock::now();
  const auto deadline =
      start +
      std::chrono::nanoseconds(static_cast<std::uint64_t>(duration_s * 1e9));
  std::deque<Clock::time_point> scheduled;
  auto next_send = start;
  for (;;) {
    if (Clock::now() >= deadline && scheduled.empty()) break;
    std::size_t burst = 0;
    while (next_send <= Clock::now() && next_send < deadline &&
           burst < 1024) {
      send_one(c, rng, value);
      scheduled.push_back(next_send);
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
    record_since(hist, scheduled.front());
    scheduled.pop_front();
  }
  return hist;
}

Row run_config(std::size_t shards, KvServerOptions::CommitMode mode,
               const char* mode_name, double open_rate) {
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
  std::vector<LatencyHistogram> results(kClients);
  {
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (std::size_t i = 0; i < kClients; ++i) {
      threads.emplace_back([&results, i, port, open_loop, open_rate] {
        results[i] =
            open_loop ? open_client(port, open_rate / kClients, 2.0,
                                    1000003 * (i + 1))
                      : closed_client(port, kOpsPerClient, 1000003 * (i + 1));
      });
    }
    for (auto& t : threads) t.join();
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  LatencyHistogram hist;
  for (const auto& r : results) hist.merge(r);

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
  row.log_flushes = server.value()->store().total_log_flushes();
  row.acked_writes = gstats.wave_ops + gstats.independent_ops;
  row.flushes_per_op =
      row.acked_writes > 0 ? static_cast<double>(row.log_flushes) /
                                 static_cast<double>(row.acked_writes)
                           : 0.0;
  row.waves = gstats.waves;
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
      ", \"p999_ns\": %" PRIu64 ", \"log_flushes\": %" PRIu64
      ", \"acked_write_ops\": %" PRIu64
      ", \"flushes_per_op\": %.6f, \"waves\": %" PRIu64 "}%s\n",
      r.mode.c_str(), r.loop.c_str(), r.shards, r.ops, r.elapsed_s,
      r.throughput, r.p50_ns, r.p95_ns, r.p99_ns, r.p999_ns,
      r.log_flushes, r.acked_writes, r.flushes_per_op, r.waves,
      last ? "" : ",");
}

}  // namespace

int main() {
  std::vector<Row> rows;

  double group4_throughput = 0;
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    rows.push_back(run_config(
        shards, KvServerOptions::CommitMode::kIndependent, "independent",
        0));
    rows.push_back(run_config(shards, KvServerOptions::CommitMode::kGroup,
                              "group", 0));
    if (shards == 4) group4_throughput = rows.back().throughput;
  }
  // Open-loop row: pace at half the measured closed-loop group throughput
  // so the server is loaded but not saturated — tail latency is then the
  // commit cadence, not a queueing explosion.
  rows.push_back(run_config(4, KvServerOptions::CommitMode::kGroup, "group",
                            group4_throughput / 2));

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
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_paxkv.json\n");
  return 0;
}
