// KvServer over loopback: basic ops, pipelined ordering, commit modes, the
// STATS surface, protocol-error handling, connection lifetime on the epoll
// loop (a reader that stalls mid-send, a lone slow reader of pipelined
// responses, accept-side fd exhaustion), closed-loop pipelined PUTs
// against the wave counters, and a concurrent torture run. This test rides
// in the TSan CI job: the torture case is the data-race check for the
// loop / shard worker / coordinator handoffs.
#include <arpa/inet.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "pax/kv/client.hpp"
#include "pax/kv/server.hpp"
#include "test_util.hpp"

namespace pax::kv {
namespace {

using testing::cat;

KvServerOptions small_options(KvServerOptions::CommitMode mode) {
  KvServerOptions options;
  options.port = 0;  // ephemeral
  options.commit_mode = mode;
  options.store.shards = 2;
  options.store.shard_pool_bytes = 8 << 20;
  options.store.map_shards = 4;
  return options;
}

Result<KvClient> connect_to(const KvServer& server) {
  return KvClient::connect("127.0.0.1", server.port());
}

// A blocking raw socket to the server; `rcvbuf` > 0 shrinks the receive
// buffer before connecting. Returns -1 on failure.
int raw_connect(const KvServer& server, int rcvbuf = 0) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (rcvbuf > 0) {
    setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::vector<std::byte>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// Polls `done` every millisecond for up to five seconds.
template <typename Pred>
bool eventually(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// Per-shard values of `"<key>": N` in a STATS document, in order.
std::vector<std::uint64_t> shard_counter(const std::string& json,
                                         const std::string& key) {
  std::vector<std::uint64_t> out;
  const std::string needle = "\"" + key + "\": ";
  for (std::size_t at = json.find(needle); at != std::string::npos;
       at = json.find(needle, at + 1)) {
    out.push_back(std::stoull(json.substr(at + needle.size(), 24)));
  }
  return out;
}

TEST(KvServerTest, BasicOps) {
  auto server = KvServer::start(
      small_options(KvServerOptions::CommitMode::kGroup));
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  auto client = connect_to(*server.value());
  ASSERT_TRUE(client.ok()) << client.status().to_string();
  KvClient& c = client.value();

  auto miss = c.get("absent");
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss.value().status, RespStatus::kNotFound);

  auto put = c.put("alpha", "1");
  ASSERT_TRUE(put.ok());
  EXPECT_EQ(put.value().status, RespStatus::kOk);

  auto hit = c.get("alpha");
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.value().status, RespStatus::kOk);
  EXPECT_EQ(hit.value().value, "1");

  auto del = c.del("alpha");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del.value().status, RespStatus::kOk);

  auto gone = c.get("alpha");
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(gone.value().status, RespStatus::kNotFound);

  auto del_miss = c.del("alpha");
  ASSERT_TRUE(del_miss.ok());
  EXPECT_EQ(del_miss.value().status, RespStatus::kNotFound);
}

TEST(KvServerTest, OverwriteReturnsLatest) {
  auto server = KvServer::start(
      small_options(KvServerOptions::CommitMode::kGroup));
  ASSERT_TRUE(server.ok());
  auto client = connect_to(*server.value());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 16; ++i) {
    auto put = client.value().put("k", cat("v", std::to_string(i)));
    ASSERT_TRUE(put.ok());
    ASSERT_EQ(put.value().status, RespStatus::kOk);
  }
  auto got = client.value().get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().value, "v15");
}

TEST(KvServerTest, PipelinedResponsesArriveInRequestOrder) {
  auto server = KvServer::start(
      small_options(KvServerOptions::CommitMode::kGroup));
  ASSERT_TRUE(server.ok());
  auto client = connect_to(*server.value());
  ASSERT_TRUE(client.ok());
  KvClient& c = client.value();

  constexpr int kN = 200;  // keys spray across both shards
  for (int i = 0; i < kN; ++i) {
    c.send_put(cat("pipe-", std::to_string(i)), cat("v", std::to_string(i)));
  }
  for (int i = 0; i < kN; ++i) c.send_get(cat("pipe-", std::to_string(i)));
  ASSERT_TRUE(c.flush().is_ok());

  for (int i = 0; i < kN; ++i) {
    auto resp = c.recv_response();
    ASSERT_TRUE(resp.ok()) << i;
    EXPECT_EQ(resp.value().status, RespStatus::kOk) << i;
  }
  for (int i = 0; i < kN; ++i) {
    auto resp = c.recv_response();
    ASSERT_TRUE(resp.ok()) << i;
    ASSERT_EQ(resp.value().status, RespStatus::kOk) << i;
    EXPECT_EQ(resp.value().value, cat("v", std::to_string(i))) << i;
  }
}

TEST(KvServerTest, IndependentAndVolatileModes) {
  for (auto mode : {KvServerOptions::CommitMode::kIndependent,
                    KvServerOptions::CommitMode::kVolatile}) {
    auto server = KvServer::start(small_options(mode));
    ASSERT_TRUE(server.ok());
    auto client = connect_to(*server.value());
    ASSERT_TRUE(client.ok());
    for (int i = 0; i < 50; ++i) {
      auto put =
          client.value().put(cat("m", std::to_string(i)), std::to_string(i));
      ASSERT_TRUE(put.ok());
      ASSERT_EQ(put.value().status, RespStatus::kOk);
    }
    auto got = client.value().get("m7");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().value, "7");
  }
}

TEST(KvServerTest, StatsExposesShardRuntimeAndGroupCommit) {
  auto server = KvServer::start(
      small_options(KvServerOptions::CommitMode::kGroup));
  ASSERT_TRUE(server.ok());
  auto client = connect_to(*server.value());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(client.value().put(cat("s", std::to_string(i)), "x").ok());
  }
  auto stats = client.value().stats();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats.value().status, RespStatus::kOk);
  const std::string& json = stats.value().value;
  // Spot checks of the observability surface (scripts/check_paxkv.py and
  // the loadgen parse this for real).
  for (const char* needle :
       {"\"commit_mode\": \"group\"", "\"log_flushes_total\"",
        "\"acked_write_ops\"", "\"group_commit\"", "\"waves\"",
        "\"shard_stats\"", "\"sync\"", "\"pages_scanned\"",
        "\"lines_synced\"", "\"digest_rebuilds\"", "\"pipeline\"",
        "\"ring_appends\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle << "\n"
                                                    << json;
  }
  // Every sealed epoch is counted once on both sides of the runtime: the
  // group-commit waves seal with persist_async() on the pipeline.
  const std::vector<std::uint64_t> persists = shard_counter(json, "persists");
  const std::vector<std::uint64_t> async =
      shard_counter(json, "async_persists");
  ASSERT_EQ(persists.size(), 2u) << json;
  ASSERT_EQ(async.size(), 2u) << json;
  for (std::size_t i = 0; i < persists.size(); ++i) {
    EXPECT_EQ(persists[i], async[i]) << "shard " << i << "\n" << json;
  }
  EXPECT_GT(persists[0] + persists[1], 0u) << json;

  // Counter identities. Each wave seals a shard with exactly one
  // persist_async(), and the stats are updated before the wave's acks are
  // released, so after 64 acked PUTs every identity is exact.
  const std::vector<std::uint64_t> seals =
      shard_counter(json, "wave_shard_seals");
  ASSERT_EQ(seals.size(), 1u) << json;
  EXPECT_EQ(seals[0], async[0] + async[1]) << json;
  const std::vector<std::uint64_t> acked_puts{64};
  EXPECT_EQ(shard_counter(json, "wave_ops"), acked_puts) << json;
  EXPECT_EQ(shard_counter(json, "acked_write_ops"), acked_puts) << json;
  // Every synced line is one undo record on its shard's device log.
  const std::vector<std::uint64_t> records = shard_counter(json, "records");
  const std::vector<std::uint64_t> synced =
      shard_counter(json, "lines_synced");
  ASSERT_EQ(records.size(), 2u) << json;
  ASSERT_EQ(synced.size(), 2u) << json;
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i], synced[i]) << "shard " << i << "\n" << json;
  }
}

TEST(KvServerTest, MalformedFrameClosesConnection) {
  auto server = KvServer::start(
      small_options(KvServerOptions::CommitMode::kVolatile));
  ASSERT_TRUE(server.ok());

  // Raw socket: an oversized length word is unrecoverable framing — the
  // server must close the connection (recv sees EOF), not hang or crash.
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.value()->port());
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const unsigned char garbage[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(send(fd, garbage, sizeof(garbage), MSG_NOSIGNAL), 4);
  char buf[16];
  EXPECT_EQ(recv(fd, buf, sizeof(buf), 0), 0);  // orderly EOF
  ::close(fd);

  // The server keeps serving healthy connections afterwards.
  auto client = connect_to(*server.value());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value().put("ok", "1").ok());
  EXPECT_GE(server.value()->stats().protocol_errors, 1u);
}

// A client pipelines GETs of a large value and stops reading: the
// responses overrun the socket buffers, so the server's send comes up short
// and parks on EPOLLOUT with more responses queued behind it. The client
// then closes. The server must drop that connection (its late completions
// included) and keep serving everyone else.
TEST(KvServerTest, StalledReaderClosesWhileSendParked) {
  auto server = KvServer::start(
      small_options(KvServerOptions::CommitMode::kVolatile));
  ASSERT_TRUE(server.ok());
  KvServer& srv = *server.value();
  auto other = connect_to(srv);
  ASSERT_TRUE(other.ok());

  const std::string big(256 << 10, 'b');
  ASSERT_EQ(other.value().put("big", big).value().status, RespStatus::kOk);

  const int fd = raw_connect(srv, /*rcvbuf=*/4096);
  ASSERT_GE(fd, 0);
  constexpr int kGets = 64;  // 16 MiB of responses, far past any buffer
  std::vector<std::byte> frames;
  for (int i = 0; i < kGets; ++i) append_request(frames, OpCode::kGet, "big");
  ASSERT_TRUE(send_all(fd, frames));

  // Sending starts, then stalls well short of the total.
  ASSERT_TRUE(eventually([&] { return srv.stats().bytes_out > big.size(); }));
  std::uint64_t parked = 0;
  ASSERT_TRUE(eventually([&] {
    const std::uint64_t now = srv.stats().bytes_out;
    const bool settled = now == parked;
    parked = now;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return settled;
  }));
  EXPECT_LT(parked, static_cast<std::uint64_t>(kGets) * big.size());

  // Reading some of the backlog makes the socket writable again. Nothing
  // else is in flight, so only EPOLLOUT can resume the parked send.
  std::vector<std::byte> sink(64 << 10);
  for (std::size_t read = 0; read < (1u << 20);) {
    const ssize_t n = recv(fd, sink.data(), sink.size(), 0);
    ASSERT_GT(n, 0);
    read += static_cast<std::size_t>(n);
  }
  EXPECT_TRUE(eventually([&] { return srv.stats().bytes_out > parked; }));

  // Served while the stalled connection is parked again…
  auto got = other.value().get("big");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().value.size(), big.size());

  ::close(fd);  // unread data: the peer resets
  ASSERT_TRUE(eventually([&] { return srv.stats().conns_closed == 1; }));

  // …and after it is gone.
  ASSERT_TRUE(other.value().put("after", "1").ok());
  auto fresh = connect_to(srv);
  ASSERT_TRUE(fresh.ok());
  auto after = fresh.value().get("after");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().value, "1");
}

// One connection, no other clients: pipelined GETs of a large value overrun
// the socket buffers, so sends park on EPOLLOUT while the remaining
// responses become ready behind them. Nothing else wakes the loop, so each
// EPOLLOUT resume must keep refilling from the ready responses until a send
// comes up short again. A slow reader still gets every response.
TEST(KvServerTest, SlowReaderReceivesEveryPipelinedResponse) {
  auto server = KvServer::start(
      small_options(KvServerOptions::CommitMode::kVolatile));
  ASSERT_TRUE(server.ok());
  KvServer& srv = *server.value();

  const std::string big(256 << 10, 'b');
  {
    auto writer = connect_to(srv);
    ASSERT_TRUE(writer.ok());
    ASSERT_EQ(writer.value().put("big", big).value().status, RespStatus::kOk);
  }
  ASSERT_TRUE(eventually([&] { return srv.stats().conns_closed == 1; }));

  const int fd = raw_connect(srv, /*rcvbuf=*/4096);
  ASSERT_GE(fd, 0);
  const timeval timeout{5, 0};  // a lost response fails instead of hanging
  ASSERT_EQ(setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)),
            0);
  constexpr int kGets = 64;  // 16 MiB of responses, far past any buffer
  std::vector<std::byte> frames;
  for (int i = 0; i < kGets; ++i) append_request(frames, OpCode::kGet, "big");
  ASSERT_TRUE(send_all(fd, frames));

  FrameParser parser;
  std::vector<std::byte> buf(64 << 10);
  for (int got = 0; got < kGets;) {
    auto resp = parser.next_response();
    ASSERT_TRUE(resp.ok());
    if (resp.value().has_value()) {
      ASSERT_EQ(resp.value()->status, RespStatus::kOk) << got;
      ASSERT_EQ(resp.value()->value.size(), big.size()) << got;
      ++got;
      continue;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    const ssize_t n = recv(fd, buf.data(), buf.size(), 0);
    ASSERT_GT(n, 0) << "stalled after " << got << " of " << kGets
                    << " responses";
    parser.feed(buf.data(), static_cast<std::size_t>(n));
  }
  ::close(fd);
}

// Accept-side fd exhaustion: with the process fd table full, accept4 fails
// (EMFILE) and the loop deregisters its listener instead of spinning on
// it. Closing a served connection frees an fd and re-arms the listener, and
// the connection that waited in the backlog is then served.
TEST(KvServerTest, AcceptResumesAfterFdExhaustion) {
  auto server = KvServer::start(
      small_options(KvServerOptions::CommitMode::kVolatile));
  ASSERT_TRUE(server.ok());
  KvServer& srv = *server.value();
  auto first = connect_to(srv);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first.value().put("k", "v").ok());

  // Lower the soft fd limit just above the fds in use, then fill it. The
  // guard undoes both however the test exits.
  struct FdTableFill {
    rlimit saved{};
    std::vector<int> fds;
    ~FdTableFill() {
      for (const int f : fds) ::close(f);
      setrlimit(RLIMIT_NOFILE, &saved);
    }
  } fill;
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &fill.saved), 0);
  const int probe = open("/dev/null", O_RDONLY | O_CLOEXEC);
  ASSERT_GE(probe, 0);
  ::close(probe);
  rlimit low = fill.saved;
  low.rlim_cur = static_cast<rlim_t>(probe) + 16;
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &low), 0);
  for (int f; (f = open("/dev/null", O_RDONLY | O_CLOEXEC)) >= 0;) {
    fill.fds.push_back(f);
  }
  ASSERT_FALSE(fill.fds.empty());

  // One fd for the waiting client; the table is full again after it.
  ::close(fill.fds.back());
  fill.fds.pop_back();
  const int waiting = raw_connect(srv);
  ASSERT_GE(waiting, 0);
  std::vector<std::byte> frame;
  append_request(frame, OpCode::kGet, "k");
  ASSERT_TRUE(send_all(waiting, frame));

  // The kernel finished the handshake, but the server cannot accept.
  pollfd pfd{waiting, POLLIN, 0};
  EXPECT_EQ(poll(&pfd, 1, 300), 0);
  EXPECT_EQ(srv.stats().conns_accepted, 1u);

  { KvClient done = std::move(first).value(); }  // frees a server-side fd
  ASSERT_EQ(poll(&pfd, 1, 5000), 1);

  FrameParser parser;
  for (;;) {
    auto resp = parser.next_response();
    ASSERT_TRUE(resp.ok());
    if (resp.value().has_value()) {
      EXPECT_EQ(resp.value()->status, RespStatus::kOk);
      EXPECT_EQ(resp.value()->value, "v");
      break;
    }
    std::byte buf[256];
    const ssize_t n = recv(waiting, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    parser.feed(buf, static_cast<std::size_t>(n));
  }
  ::close(waiting);
  EXPECT_EQ(srv.stats().conns_accepted, 2u);
}

// Closed-loop pipelined PUTs from several connections, the shape of the
// benchmark's write load: waves fire back-to-back with no timer, every
// acked PUT rides exactly one wave, and a wave never holds more acks than
// the clients can have in flight.
TEST(KvServerTest, PipelinedPutsRideOneWaveEach) {
  auto server =
      KvServer::start(small_options(KvServerOptions::CommitMode::kGroup));
  ASSERT_TRUE(server.ok());

  constexpr int kConns = 4;
  constexpr int kDepth = 16;
  constexpr int kPutsPerConn = 400;
  std::vector<std::thread> threads;
  std::vector<char> success(kConns, 0);
  for (int t = 0; t < kConns; ++t) {
    threads.emplace_back([t, &success, &server] {
      auto client = connect_to(*server.value());
      if (!client.ok()) return;
      KvClient& c = client.value();
      int sent = 0;
      auto send_one = [&] {
        c.send_put(cat("c", std::to_string(t), "-", std::to_string(sent % 50)),
                   std::to_string(sent));
        ++sent;
      };
      while (sent < kDepth) send_one();
      if (!c.flush().is_ok()) return;
      for (int acked = 0; acked < kPutsPerConn; ++acked) {
        auto resp = c.recv_response();
        if (!resp.ok() || resp.value().status != RespStatus::kOk) return;
        if (sent < kPutsPerConn) {
          send_one();
          if (!c.flush().is_ok()) return;
        }
      }
      success[t] = 1;
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kConns; ++t) ASSERT_TRUE(success[t]) << t;

  auto client = connect_to(*server.value());
  ASSERT_TRUE(client.ok());
  auto stats = client.value().stats();
  ASSERT_TRUE(stats.ok());
  const std::string& json = stats.value().value;
  const std::vector<std::uint64_t> acked{kConns * kPutsPerConn};
  EXPECT_EQ(shard_counter(json, "acked_write_ops"), acked) << json;
  EXPECT_EQ(shard_counter(json, "wave_ops"), acked) << json;
  const std::vector<std::uint64_t> async =
      shard_counter(json, "async_persists");
  ASSERT_EQ(async.size(), 2u) << json;
  EXPECT_EQ(shard_counter(json, "wave_shard_seals"),
            std::vector<std::uint64_t>{async[0] + async[1]})
      << json;
  const std::vector<std::uint64_t> max_ops =
      shard_counter(json, "max_wave_ops");
  ASSERT_EQ(max_ops.size(), 1u) << json;
  EXPECT_LE(max_ops[0], static_cast<std::uint64_t>(kConns * kDepth)) << json;
}

// The TSan torture: concurrent clients hammer both shards through every
// handoff (event loop → worker → coordinator → event loop) while STATS
// reads the runtime counters.
TEST(KvServerTest, ConcurrentTorture) {
  auto server =
      KvServer::start(small_options(KvServerOptions::CommitMode::kGroup));
  ASSERT_TRUE(server.ok());

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 500;
  std::vector<std::thread> threads;
  // vector<char>, not vector<bool>: each thread owns a distinct byte.
  std::vector<char> success(kThreads, 0);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &success, &server] {
      auto client = connect_to(*server.value());
      if (!client.ok()) return;
      KvClient& c = client.value();
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key =
            cat("t", std::to_string(t), "-", std::to_string(i % 37));
        if (i % 3 == 0) {
          auto r = c.put(key, std::to_string(i));
          if (!r.ok() || r.value().status != RespStatus::kOk) return;
        } else if (i % 3 == 1) {
          auto r = c.get(key);
          if (!r.ok()) return;
        } else if (i % 16 == 2) {
          auto r = c.del(key);
          if (!r.ok()) return;
        } else {
          auto r = c.stats();
          if (!r.ok() || r.value().status != RespStatus::kOk) return;
        }
      }
      success[t] = 1;
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_TRUE(success[t]) << t;

  // Every thread's last-written key must be readable afterwards.
  auto client = connect_to(*server.value());
  ASSERT_TRUE(client.ok());
  const KvServerStats stats = server.value()->stats();
  EXPECT_GE(stats.requests,
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(stats.protocol_errors, 0u);
  server.value()->stop();  // explicit stop before destruction: idempotent
}

}  // namespace
}  // namespace pax::kv
