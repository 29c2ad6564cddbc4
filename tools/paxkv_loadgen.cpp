// paxkv-loadgen — load generator for the PaxKV server.
//
//   paxkv-loadgen [--host H] [--port P] [--clients N] [--depth D]
//                 [--ops N | --duration-s S] [--rate OPS_PER_SEC]
//                 [--keys K] [--value-bytes B] [--get-frac F] [--seed S]
//                 [--json FILE]
//
// Two modes:
//
//   * Closed loop (default): N client threads, each driving one
//     connection with a pipeline of D outstanding requests; --ops total
//     operations. Latency is measured send→response per request.
//   * Open loop (--rate R): requests are scheduled on a fixed timeline at
//     R ops/s aggregate and latency is measured from the *scheduled* send
//     time, so queueing delay when the server falls behind is charged to
//     the server, not silently absorbed (no coordinated omission). Runs
//     for --duration-s seconds.
//
// Workload: uniform keys "key-<n>" over --keys, --get-frac GETs, the rest
// PUTs of --value-bytes (a small fraction of DELs rides along: every 64th
// write). Reports throughput and p50/p95/p99/p999 to stdout; --json writes
// a machine-readable report including the server's own STATS document.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "pax/kv/client.hpp"
#include "pax/kv/histogram.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using pax::kv::KvClient;
using pax::kv::LatencyHistogram;
using pax::kv::RespStatus;

struct Config {
  std::string host = "127.0.0.1";
  std::uint16_t port = 7433;
  std::size_t clients = 4;
  std::size_t depth = 16;
  std::uint64_t ops = 100000;     // closed loop
  double duration_s = 5.0;        // open loop
  double rate = 0.0;              // aggregate ops/s; > 0 selects open loop
  std::uint64_t keys = 10000;
  std::size_t value_bytes = 128;
  double get_frac = 0.5;
  std::uint64_t seed = 42;
  std::string json_path;
};

struct ThreadResult {
  LatencyHistogram hist;
  std::uint64_t ops = 0;
  std::uint64_t errors = 0;
  bool connect_failed = false;

  void record_since(Clock::time_point at) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
        Clock::now() - at);
    hist.record(static_cast<std::uint64_t>(ns.count()));
  }
};

std::string make_key(std::uint64_t n) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "key-%08llu",
                static_cast<unsigned long long>(n));
  return buf;
}

// One op: GET with probability get_frac, else PUT (every 64th write a DEL).
void send_op(KvClient& client, std::mt19937_64& rng, const Config& cfg,
             const std::string& value, std::uint64_t op_index) {
  std::uniform_int_distribution<std::uint64_t> key_dist(0, cfg.keys - 1);
  std::uniform_real_distribution<double> frac(0.0, 1.0);
  const std::string key = make_key(key_dist(rng));
  if (frac(rng) < cfg.get_frac) {
    client.send_get(key);
  } else if (op_index % 64 == 63) {
    client.send_del(key);
  } else {
    client.send_put(key, value);
  }
}

ThreadResult run_closed(const Config& cfg, std::uint64_t thread_ops,
                        std::uint64_t seed) {
  ThreadResult result;
  auto connected = KvClient::connect(cfg.host, cfg.port);
  if (!connected.ok()) {
    result.connect_failed = true;
    return result;
  }
  KvClient& client = connected.value();
  std::mt19937_64 rng(seed);
  const std::string value(cfg.value_bytes, 'v');

  // Send times of the in-flight window; responses arrive in FIFO order.
  std::deque<Clock::time_point> pending;
  std::uint64_t sent = 0;
  std::uint64_t done = 0;
  while (done < thread_ops) {
    while (sent < thread_ops && pending.size() < cfg.depth) {
      send_op(client, rng, cfg, value, sent);
      pending.push_back(Clock::now());
      ++sent;
    }
    if (!client.flush().is_ok()) break;
    auto resp = client.recv_response();
    if (!resp.ok()) break;
    result.record_since(pending.front());
    pending.pop_front();
    ++done;
    if (resp.value().status == RespStatus::kError ||
        resp.value().status == RespStatus::kBadRequest) {
      ++result.errors;
    }
  }
  result.errors += thread_ops - done;
  result.ops = done;
  return result;
}

ThreadResult run_open(const Config& cfg, double thread_rate,
                      std::uint64_t seed) {
  ThreadResult result;
  auto connected = KvClient::connect(cfg.host, cfg.port);
  if (!connected.ok()) {
    result.connect_failed = true;
    return result;
  }
  KvClient& client = connected.value();
  std::mt19937_64 rng(seed);
  const std::string value(cfg.value_bytes, 'v');
  const auto interval = std::chrono::nanoseconds(
      static_cast<std::uint64_t>(1e9 / thread_rate));
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::nanoseconds(
                  static_cast<std::uint64_t>(cfg.duration_s * 1e9));

  // Scheduled send times — latency is measured from these, not from the
  // actual send, so a lagging server accrues queueing delay in the tail.
  std::deque<Clock::time_point> pending;
  auto next_send = start;
  std::uint64_t sent = 0;

  for (;;) {
    const auto now = Clock::now();
    if (now >= deadline && pending.empty()) break;

    // Send every op whose scheduled time has arrived (bounded burst).
    std::size_t burst = 0;
    while (next_send <= Clock::now() && next_send < deadline &&
           burst < 1024) {
      send_op(client, rng, cfg, value, sent);
      pending.push_back(next_send);
      next_send += interval;
      ++sent;
      ++burst;
    }
    if (burst > 0 && !client.flush().is_ok()) {
      result.errors += pending.size();
      return result;
    }
    if (pending.empty()) {
      std::this_thread::sleep_until(std::min(next_send, deadline));
      continue;
    }
    auto resp = client.recv_response();
    if (!resp.ok()) {
      result.errors += pending.size();
      return result;
    }
    result.record_since(pending.front());
    pending.pop_front();
    ++result.ops;
  }
  return result;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: paxkv-loadgen [--host H] [--port P] [--clients N] "
      "[--depth D]\n"
      "                     [--ops N | --duration-s S] [--rate OPS_S]\n"
      "                     [--keys K] [--value-bytes B] [--get-frac F]\n"
      "                     [--seed S] [--json FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--host" && i + 1 < argc) {
      cfg.host = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      cfg.port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
    } else if (arg == "--clients" && i + 1 < argc) {
      cfg.clients = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg == "--depth" && i + 1 < argc) {
      cfg.depth = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg == "--ops" && i + 1 < argc) {
      cfg.ops = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg == "--duration-s" && i + 1 < argc) {
      cfg.duration_s = std::atof(argv[++i]);
    } else if (arg == "--rate" && i + 1 < argc) {
      cfg.rate = std::atof(argv[++i]);
    } else if (arg == "--keys" && i + 1 < argc) {
      cfg.keys = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg == "--value-bytes" && i + 1 < argc) {
      cfg.value_bytes = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg == "--get-frac" && i + 1 < argc) {
      cfg.get_frac = std::atof(argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg == "--json" && i + 1 < argc) {
      cfg.json_path = argv[++i];
    } else {
      return usage();
    }
  }
  if (cfg.clients == 0 || cfg.depth == 0 || cfg.keys == 0) return usage();

  const bool open_loop = cfg.rate > 0.0;
  const auto start = Clock::now();
  std::vector<ThreadResult> results(cfg.clients);
  {
    std::vector<std::thread> threads;
    threads.reserve(cfg.clients);
    for (std::size_t i = 0; i < cfg.clients; ++i) {
      threads.emplace_back([&, i] {
        if (open_loop) {
          results[i] = run_open(cfg, cfg.rate / cfg.clients,
                                cfg.seed * 1000003 + i);
        } else {
          const std::uint64_t per = cfg.ops / cfg.clients +
                                    (i < cfg.ops % cfg.clients ? 1 : 0);
          results[i] = run_closed(cfg, per, cfg.seed * 1000003 + i);
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  LatencyHistogram hist;
  std::uint64_t total_ops = 0;
  std::uint64_t errors = 0;
  for (const ThreadResult& r : results) {
    if (r.connect_failed) {
      std::fprintf(stderr, "paxkv-loadgen: connect failed (%s:%u)\n",
                   cfg.host.c_str(), cfg.port);
      return 1;
    }
    hist.merge(r.hist);
    total_ops += r.ops;
    errors += r.errors;
  }
  const double throughput = elapsed_s > 0 ? total_ops / elapsed_s : 0.0;

  std::printf(
      "paxkv-loadgen: mode=%s conns=%zu ops=%llu elapsed=%.2fs "
      "throughput=%.0f ops/s\n"
      "  latency p50=%.1fus p95=%.1fus p99=%.1fus p999=%.1fus mean=%.1fus "
      "max=%.1fus errors=%llu\n",
      open_loop ? "open" : "closed", cfg.clients,
      static_cast<unsigned long long>(total_ops), elapsed_s, throughput,
      hist.percentile(0.50) / 1e3, hist.percentile(0.95) / 1e3,
      hist.percentile(0.99) / 1e3, hist.percentile(0.999) / 1e3,
      hist.mean_ns() / 1e3, hist.max_ns() / 1e3,
      static_cast<unsigned long long>(errors));

  // Scrape the server's own stats (per-shard runtime + group-commit view).
  std::string server_stats = "{}";
  if (auto c = KvClient::connect(cfg.host, cfg.port); c.ok()) {
    if (auto s = c.value().stats();
        s.ok() && s.value().status == RespStatus::kOk) {
      server_stats = s.value().value;
    }
  }

  if (!cfg.json_path.empty()) {
    FILE* f = std::fopen(cfg.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "paxkv-loadgen: cannot write %s\n",
                   cfg.json_path.c_str());
      return 1;
    }
    std::fprintf(
        f,
        "{\n"
        "  \"mode\": \"%s\",\n"
        "  \"clients\": %zu,\n"
        "  \"depth\": %zu,\n"
        "  \"target_rate\": %.1f,\n"
        "  \"ops\": %llu,\n"
        "  \"errors\": %llu,\n"
        "  \"elapsed_s\": %.4f,\n"
        "  \"throughput_ops_s\": %.1f,\n"
        "  \"latency_ns\": {\"p50\": %llu, \"p95\": %llu, \"p99\": %llu, "
        "\"p999\": %llu, \"mean\": %.1f, \"max\": %llu},\n",
        open_loop ? "open" : "closed", cfg.clients, cfg.depth, cfg.rate,
        static_cast<unsigned long long>(total_ops),
        static_cast<unsigned long long>(errors), elapsed_s, throughput,
        static_cast<unsigned long long>(hist.percentile(0.50)),
        static_cast<unsigned long long>(hist.percentile(0.95)),
        static_cast<unsigned long long>(hist.percentile(0.99)),
        static_cast<unsigned long long>(hist.percentile(0.999)),
        hist.mean_ns(), static_cast<unsigned long long>(hist.max_ns()));
    std::fprintf(f, "  \"server\": %s\n}\n", server_stats.c_str());
    std::fclose(f);
  }
  return errors == 0 ? 0 : 1;
}
