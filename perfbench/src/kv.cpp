// The PaxKV workloads: an in-process KvServer on loopback with default
// KvServerOptions (group commit, epoll, one loop, serving runtime
// defaults) except 2 shards, driven closed-loop by one client thread over
// 4 connections of depth 16, 128 B values.
//
//   kv_write_hot  70% PUT / 30% GET over 2,000 keys (~4k lines, which fits
//                 the two shards' 4,096-line HBM buffers).
//   kv_read_wide  95% GET / 5% PUT over 200,000 keys preloaded at set-up.
//
// Keys are partitioned by connection, and the server keeps each
// connection's order, so every GET's value and every key's final value is
// known: each value carries its key and the op sequence number.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <deque>

#include "bench.hpp"
#include "pax/kv/client.hpp"
#include "pax/kv/server.hpp"

namespace perfbench {

using namespace pax;
using kv::KvClient;
using kv::KvServer;
using kv::KvServerOptions;
using kv::KvStore;
using kv::RespStatus;

namespace {

constexpr std::size_t kConns = 4;
constexpr std::size_t kDepth = 16;
constexpr std::size_t kValueBytes = 128;
constexpr std::size_t kShards = 2;

struct Shape {
  std::size_t keys = 0;  // a multiple of kConns
  double get_frac = 0;
  int setups = 0;  // untraced runs; the 200,000-key preload takes seconds
};

Shape shape_of(const RunOptions& opt) {
  const bool wide = opt.workload == "kv_read_wide";
  if (opt.short_mode) return wide ? Shape{4000, 0.95, 2} : Shape{400, 0.30, 2};
  return wide ? Shape{200000, 0.95, 2} : Shape{2000, 0.30, 9};
}

std::string key_name(std::uint32_t k) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "key-%08u", k);
  return buf;
}

/// The value of key `k` after its PUT number `seq` (0 = preloaded).
void make_value(std::uint32_t k, std::uint64_t seq, std::string& out) {
  char head[40];
  const int n = std::snprintf(head, sizeof(head), "k%08u.s%012llu.", k,
                              static_cast<unsigned long long>(seq));
  out.assign(head, static_cast<std::size_t>(n));
  out.resize(kValueBytes, static_cast<char>('a' + (k * 31 + seq) % 26));
}

/// One connection's op stream, a pure function of (seed, connection).
class OpStream {
 public:
  struct Op {
    bool get = false;
    std::uint32_t key = 0;
    std::uint64_t seq = 0;  // ordinal within the connection, from 1
  };

  OpStream(std::uint64_t seed, std::size_t conn, const Shape& s)
      : rng_(seed * 1000003 + conn), conn_(conn), s_(s) {}

  Op next() {
    Op op;
    op.seq = ++issued_;
    op.get = static_cast<double>(splitmix(rng_) >> 11) * 0x1.0p-53 <
             s_.get_frac;
    op.key = static_cast<std::uint32_t>(
        conn_ + kConns * (splitmix(rng_) % (s_.keys / kConns)));
    return op;
  }
  std::uint64_t issued() const { return issued_; }

 private:
  std::uint64_t rng_;
  std::size_t conn_;
  Shape s_;
  std::uint64_t issued_ = 0;
};

// One wave per 256 puts, the server's own group_max_ops: much larger waves
// overflow the undo log when every map slice rehashes in the same epoch.
Status preload(KvStore& store, const Shape& s) {
  std::string value;
  for (std::uint32_t k = 0; k < s.keys; ++k) {
    make_value(k, 0, value);
    store.put(key_name(k), value);
    if ((k + 1) % 256 == 0 || k + 1 == s.keys) {
      auto wave = store.group().commit_wave();
      if (!wave.ok()) return wave.status();
    }
  }
  return Status::ok();
}

struct Pending {
  Clock::time_point sent;
  std::uint32_t key = 0;
  std::uint64_t seq = 0;  // PUT: its seq; GET: the seq it must read
  bool get = false;
};

struct Pipe {
  KvClient client;
  OpStream stream;
  std::deque<Pending> inflight;
};

struct Load {
  Load(Clock::time_point start, double seconds)
      : all(start, seconds), put(start, seconds), get(start, seconds) {}
  Series all, put, get;  // latencies of ops completed in the measured phase
  double get_floor_ns = 0;
  std::uint64_t sent = 0;
  std::uint64_t acked_puts = 0;
  std::array<std::uint64_t, kConns> issued{};
};

/// Closed loop for warm_s + seconds; every response is checked against the
/// value its key must hold. `last_seq[k]` ends as the last acked PUT of k.
Load drive(std::uint16_t port, const Shape& s, const RunOptions& opt,
          double warm_s, std::vector<std::uint64_t>& last_seq, RunResult& r) {
  auto after = [](Clock::time_point t, double sec) {
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(sec));
  };
  const Clock::time_point t_measure = after(Clock::now(), warm_s);
  const Clock::time_point t_end = after(t_measure, opt.seconds);
  Load load(t_measure, opt.seconds);
  std::vector<Pipe> pipes;
  pipes.reserve(kConns);
  for (std::size_t c = 0; c < kConns; ++c) {
    auto client = KvClient::connect("127.0.0.1", port);
    if (!client.ok()) {
      r.fail("kv: connect: " + client.status().to_string());
      return load;
    }
    pipes.push_back({std::move(client).value(), OpStream(opt.seed, c, s), {}});
  }

  std::string expect;
  for (;;) {
    const bool issuing = Clock::now() < t_end;
    for (Pipe& pipe : pipes) {
      if (!issuing || pipe.inflight.size() >= kDepth) continue;
      while (pipe.inflight.size() < kDepth) {
        const OpStream::Op op = pipe.stream.next();
        const std::string key = key_name(op.key);
        Pending p{Clock::now(), op.key, op.seq, op.get};
        if (op.get) {
          p.seq = last_seq[op.key];
          pipe.client.send_get(key);
        } else {
          last_seq[op.key] = op.seq;
          make_value(op.key, op.seq, expect);
          pipe.client.send_put(key, expect);
        }
        pipe.inflight.push_back(p);
        ++load.sent;
      }
      const Status st = pipe.client.flush();
      if (!st.is_ok()) {
        r.fail("kv: send: " + st.to_string());
        return load;
      }
    }
    bool pending = false;
    for (std::size_t c = 0; c < kConns; ++c) {
      Pipe& pipe = pipes[c];
      if (pipe.inflight.empty()) continue;
      pending = true;
      auto resp = pipe.client.recv_response();
      const Clock::time_point done = Clock::now();
      if (!resp.ok()) {
        r.fail("kv: receive: " + resp.status().to_string());
        return load;
      }
      const Pending p = pipe.inflight.front();
      pipe.inflight.pop_front();
      bool good = resp.value().status == RespStatus::kOk;
      if (good && p.get) {
        make_value(p.key, p.seq, expect);
        good = resp.value().value == expect;
      }
      if (!good) {
        r.fail("kv: connection " + std::to_string(c) + " " +
               (p.get ? "GET " : "PUT ") + key_name(p.key) +
               " answered wrongly (status " +
               std::to_string(static_cast<int>(resp.value().status)) + ")");
        continue;
      }
      if (!p.get) ++load.acked_puts;
      if (done < t_measure || done >= t_end) continue;
      const double ns = ns_between(p.sent, done);
      load.all.add(done, ns);
      if (p.get) {
        load.get.add(done, ns);
        if (load.get_floor_ns == 0 || ns < load.get_floor_ns) {
          load.get_floor_ns = ns;
        }
      } else {
        load.put.add(done, ns);
      }
    }
    if (!issuing && !pending) break;
  }
  for (std::size_t c = 0; c < kConns; ++c) {
    load.issued[c] = pipes[c].stream.issued();
  }
  return load;
}

/// Reads every key back and compares it with its last acked value.
void read_back(std::uint16_t port, const Shape& s,
               const std::vector<std::uint64_t>& last_seq, RunResult& r) {
  auto client = KvClient::connect("127.0.0.1", port);
  if (!client.ok()) {
    r.fail("kv read-back: connect: " + client.status().to_string());
    return;
  }
  KvClient& c = client.value();
  std::string expect;
  constexpr std::uint32_t kBatch = 64;
  for (std::uint32_t first = 0; first < s.keys; first += kBatch) {
    const std::uint32_t last =
        std::min<std::uint32_t>(first + kBatch, static_cast<std::uint32_t>(s.keys));
    for (std::uint32_t k = first; k < last; ++k) c.send_get(key_name(k));
    const Status st = c.flush();
    if (!st.is_ok()) {
      r.fail("kv read-back: send: " + st.to_string());
      return;
    }
    for (std::uint32_t k = first; k < last; ++k) {
      ++r.attempted;
      auto resp = c.recv_response();
      if (!resp.ok()) {
        r.fail("kv read-back: receive: " + resp.status().to_string());
        return;
      }
      make_value(k, last_seq[k], expect);
      if (resp.value().status != RespStatus::kOk ||
          resp.value().value != expect) {
        r.fail("kv read-back: " + key_name(k) +
               " does not hold its last acked value (seq " +
               std::to_string(last_seq[k]) + ")");
      }
    }
  }
}

Counters sum_counters(KvStore& store, std::vector<Counters>* per_shard) {
  Counters total;
  for (std::size_t i = 0; i < store.shard_count(); ++i) {
    Counters c = read_counters(store.shard_runtime(i));
    total += c;
    if (per_shard != nullptr) per_shard->push_back(std::move(c));
  }
  return total;
}

struct Replay {
  double get_ns = 0, gets = 0, put_ns = 0, puts = 0;
  double wave_ns = 0, waves = 0;
  double fault_ns = 0, faults = 0;
  double pages = 0, lines = 0;
  double dev_runtime_ns = 0;
  std::vector<CapturedEpoch> captured;
};

/// Replays the op stream the real run issued (up to `cap` ops, connections
/// interleaved) against an in-process KvStore with the same options, firing
/// a wave every `ops_per_wave` writes. Spans: wave_window > put/get/
/// commit_wave.
Replay replay(const KvServerOptions& so, const Shape& s, const RunOptions& opt,
              const Load& load, std::uint64_t ops_per_wave, std::uint64_t cap,
              Tracer& tracer, RunResult& r) {
  Replay out;
  CommitCapture capture;  // declared first: outlives the store's devices
  auto created = KvStore::create_in_memory(so.store);
  if (!created.ok()) {
    r.fail("kv replay: " + created.status().to_string());
    return out;
  }
  KvStore& store = *created.value();
  if (const Status st = preload(store, s); !st.is_ok()) {
    r.fail("kv replay preload: " + st.to_string());
    return out;
  }
  for (std::size_t i = 0; i < store.shard_count(); ++i) {
    capture.attach(store.shard_runtime(i).device());
  }
  const std::uint64_t capture_waves = opt.short_mode ? 16 : 256;
  const Counters before = sum_counters(store, nullptr);

  std::vector<OpStream> streams;
  for (std::size_t c = 0; c < kConns; ++c) streams.emplace_back(opt.seed, c, s);
  std::vector<std::uint64_t> last_seq(s.keys, 0);
  std::string value, got;
  double nofault_ns = 0, nofault_puts = 0, fault_puts_ns = 0, fault_puts = 0;
  std::uint64_t done = 0, wave = 0;
  std::size_t conn = 0;
  auto remaining = [&](std::size_t c) {
    return streams[c].issued() < load.issued[c];
  };
  auto any_remaining = [&] {
    for (std::size_t c = 0; c < kConns; ++c) {
      if (remaining(c)) return true;
    }
    return false;
  };
  while (done < cap && any_remaining()) {
    capture.set_enabled(wave < capture_waves);
    const std::uint32_t window = tracer.begin("wave_window", wave);
    std::uint64_t writes = 0;
    while (writes < ops_per_wave && done < cap && any_remaining()) {
      while (!remaining(conn)) conn = (conn + 1) % kConns;
      const OpStream::Op op = streams[conn].next();
      const std::uint64_t id = (std::uint64_t{conn} << 48) | op.seq;
      conn = (conn + 1) % kConns;
      ++done;
      const std::string key = key_name(op.key);
      if (op.get) {
        const std::uint32_t span = tracer.begin("get", id, window);
        const bool found = store.get(key, &got);
        tracer.end(span);
        out.get_ns += tracer.duration_ns(span);
        out.gets += 1;
        make_value(op.key, last_seq[op.key], value);
        if (!found || got != value) {
          r.fail("kv replay: GET " + key + " read a wrong value");
        }
        continue;
      }
      last_seq[op.key] = op.seq;
      make_value(op.key, op.seq, value);
      libpax::VpmRegion& region =
          store.shard_runtime(store.shard_for(key)).region();
      const std::uint64_t f0 = region.fault_count();
      const std::uint32_t span = tracer.begin("put", id, window);
      store.put(key, value);
      tracer.end(span);
      const double ns = tracer.duration_ns(span);
      const auto faults = static_cast<double>(region.fault_count() - f0);
      out.put_ns += ns;
      out.puts += 1;
      if (faults > 0) {
        fault_puts_ns += ns;
        fault_puts += 1;
        out.faults += faults;
      } else {
        nofault_ns += ns;
        nofault_puts += 1;
      }
      ++writes;
    }
    const std::uint32_t span = tracer.begin("commit_wave", wave, window);
    const auto committed = store.group().commit_wave();
    tracer.end(span);
    tracer.end(window);
    if (!committed.ok()) {
      r.fail("kv replay: wave " + std::to_string(wave) + ": " +
             committed.status().to_string());
      break;
    }
    out.wave_ns += tracer.duration_ns(span);
    out.waves += 1;
    if (wave < capture_waves) out.dev_runtime_ns += tracer.duration_ns(span);
    ++wave;
  }
  capture.set_enabled(false);
  r.attempted += done;

  // Fault time: what faulting PUTs took beyond a PUT that did not fault.
  out.fault_ns = fault_puts_ns - fault_puts * ratio(nofault_ns, nofault_puts);
  const Counters delta = sum_counters(store, nullptr) - before;
  out.pages = delta.at("sync.pages_scanned");
  out.lines = delta.at("sync.lines_synced");
  out.captured = capture.take();
  return out;
}

}  // namespace

RunResult run_kv(const RunOptions& opt) {
  RunResult r;
  const Shape s = shape_of(opt);
  KvServerOptions so;
  so.store.shards = kShards;

  // Set-up = server start + preload, several times; the last one is used.
  // A traced run reports no setup_s and sets up once.
  std::vector<double> setup_s;
  std::unique_ptr<KvServer> server;
  for (int i = 0; i < (opt.trace ? 1 : s.setups); ++i) {
    server.reset();
    const auto t0 = Clock::now();
    auto started = KvServer::start(so);
    if (!started.ok()) {
      r.fail("server start: " + started.status().to_string());
      return r;
    }
    server = std::move(started).value();
    if (const Status st = preload(server->store(), s); !st.is_ok()) {
      r.fail("preload: " + st.to_string());
      return r;
    }
    setup_s.push_back(ns_between(t0, Clock::now()) / 1e9);
  }

  KvStore& store = server->store();
  std::vector<Counters> shards_before;
  const Counters before = sum_counters(store, &shards_before);
  const libpax::GroupCommitStats g0 = store.group().stats();

  std::vector<std::uint64_t> last_seq(s.keys, 0);
  const Load load = drive(server->port(), s, opt,
                          std::min(1.0, opt.seconds / 10), last_seq, r);
  r.attempted += load.sent;
  read_back(server->port(), s, last_seq, r);
  server->stop();

  // Counter identities over the run (after preload, through the last ack).
  std::vector<Counters> shards_after;
  const Counters delta = sum_counters(store, &shards_after) - before;
  for (std::size_t i = 0; i < kShards; ++i) {
    check_log_identity(r, opt.workload, i, shards_after[i] - shards_before[i]);
  }
  const libpax::GroupCommitStats g1 = store.group().stats();
  const double waves = static_cast<double>(g1.waves - g0.waves);
  const double wave_ops = static_cast<double>(g1.wave_ops - g0.wave_ops);
  const double seals =
      static_cast<double>(g1.wave_shard_seals - g0.wave_shard_seals);
  auto broken = [&](const std::string& what, double a, double b) {
    r.fail("identity broken: workload=" + opt.workload + " shard=all counter=" +
           what + " (" + std::to_string(a) + " vs " + std::to_string(b) + ")");
  };
  if (seals != delta.at("pipe.async_persists")) {
    broken("group.wave_shard_seals == sum(pipeline.async_persists)", seals,
           delta.at("pipe.async_persists"));
  }
  if (wave_ops != static_cast<double>(load.acked_puts)) {
    broken("group.wave_ops == acked PUTs", wave_ops,
           static_cast<double>(load.acked_puts));
  }
  if (delta.at("rt.persists") != delta.at("pipe.async_persists")) {
    r.known.push_back("RuntimeStats::persists counts only blocking persist(): " +
                      std::to_string(delta.at("rt.persists")) + " vs " +
                      std::to_string(delta.at("pipe.async_persists")) +
                      " pipelined seals");
  }
  r.info.push_back({"setups", static_cast<double>(setup_s.size())});
  r.info.push_back({"ops_sent", static_cast<double>(load.sent)});
  r.info.push_back({"put_samples", static_cast<double>(load.put.count())});
  r.info.push_back({"get_samples", static_cast<double>(load.get.count())});
  r.info.push_back({"waves", waves});

  if (!opt.trace) {
    r.metric("ops_per_s", load.all.fast_rate(), "1/s");
    r.metric("durable_p50_us", load.put.fast_quantile(0.50) / 1e3, "us");
    r.metric("access_p50_us", load.get.fast_quantile(0.50) / 1e3, "us");
    r.metric("setup_s", median(setup_s), "s");
    return r;
  }

  server.reset();  // the replay builds its own store
  Tracer tracer;
  const auto per_wave = static_cast<std::uint64_t>(
      std::max(1.0, std::round(ratio(wave_ops, waves))));
  const Replay rep = replay(so, s, opt, load, per_wave,
                            opt.short_mode ? 20000 : 200000, tracer, r);

  LayerInputs in;
  in.durable_p99_ns = load.put.median_window_quantile(0.99);
  in.access_p99_ns = load.get.median_window_quantile(0.99);
  in.get_floor_ns = load.get_floor_ns;
  in.store_get_ns = ratio(rep.get_ns, rep.gets);
  in.store_put_ns = ratio(rep.put_ns, rep.puts);
  in.wave_ns = ratio(rep.wave_ns, rep.waves);
  in.waves = waves;
  in.wave_ops = wave_ops;
  in.wave_shard_seals = seals;
  in.acked_puts = static_cast<double>(load.acked_puts);
  in.delta = delta;
  in.epochs = delta.at("pipe.async_persists");
  in.user_bytes = in.acked_puts * static_cast<double>(12 + kValueBytes);
  in.fault_ns = rep.fault_ns;
  in.faults = rep.faults;
  in.persist_ns = rep.wave_ns;
  in.persist_pages = rep.pages;
  in.persist_lines = rep.lines;

  const libpax::RuntimeOptions& ro = so.store.runtime;
  in.dev = replay_on_device(rep.captured, so.store.shard_pool_bytes,
                            ro.log_size, device_config_of(ro),
                            ro.sync_batch_lines, tracer);
  if (!in.dev.ok) r.fail("device replay: a device call failed");
  in.dev_runtime_ns = rep.dev_runtime_ns;
  in.fail_frac = ratio(static_cast<double>(r.failed),
                       static_cast<double>(r.attempted));
  add_layer_metrics(r, in);
  finish_trace(r, tracer, opt.trace_file);
  return r;
}

}  // namespace perfbench
