// KvServer — the PaxKV network serving frontend.
//
// One event-loop thread owns every socket: a level-triggered epoll set
// holding the listener, a wake eventfd, and the accepted connections. M
// shard workers own the data plane; an optional commit coordinator owns
// durability. The request path:
//
//   socket bytes → FrameParser → per-connection in-flight slot (responses
//   are sent strictly in request order) → the owning shard's dispatch
//   queue → shard worker executes against KvStore → completion (response
//   bytes) flows back to the loop over one MPSC queue + eventfd wake →
//   ordered prefix of ready responses is flushed to the socket.
//
// The loop makes one recv per EPOLLIN, sends eagerly, and subscribes
// EPOLLOUT only after a send came up short; a resumed send that goes out
// whole refills from the responses that became ready meanwhile.
// epoll_ctl(MOD) runs only when a connection's interest mask actually
// changes. Connections are keyed by
// a server-assigned id (the epoll_event payload), never by fd, so an event
// or completion for a closed connection cannot alias a reused descriptor.
// One loop is enough: the socket layer runs several times faster than the
// durable data plane behind it (DESIGN.md, "Data-plane shape").
//
// Per-connection pipelining falls out of the in-flight deque: a client may
// write any number of request frames before reading; the server caps the
// in-flight window (max_inflight_per_conn) by dropping EPOLLIN from the
// connection's mask — TCP back-pressure does the rest.
//
// ── Durability: when is a write acknowledged? ─────────────────────────────
//
// GETs (and missed DELs) complete as soon as the shard worker executes
// them: they read the latest applied value. Successful PUT/DEL responses
// are governed by the commit mode:
//
//   kGroup        cross-shard epoch group commit. Writes are applied
//                 immediately but their responses are parked with the
//                 coordinator, which issues ONE commit wave — one
//                 persist_async() per dirty shard, drains overlapping on
//                 each shard's epoch pipeline — then releases every parked
//                 response at once. No timer: the next wave fires as soon
//                 as this one is durable, covering the acks parked while
//                 it ran. One log-flush round per WAVE, not per write.
//   kIndependent  per-shard commit: each worker commits its own shard
//                 after each drained batch, then releases that batch's
//                 write responses. The baseline group commit is measured
//                 against (bench/abl_paxkv.cpp): at N shards it issues up
//                 to N log-flush rounds where a wave issues one.
//   kVolatile     acknowledge on apply; no commits at all. Upper bound on
//                 throughput, no durability — for measurement only.
//
// In both durable modes a response leaving the socket implies the write
// (and, per epoch ordering, every earlier write on that shard) is durable
// on its shard's PM. The crash-consistency contract across shards is the
// wave cut: tests/kv_group_commit_crash_test.cpp.
//
// Threading summary: one event-loop thread (owns every Conn exclusively),
// one thread per shard (owns that shard's ops), coordinator thread
// (kGroup), all cross-thread traffic via mutex-guarded queues — TSan-clean
// by construction (tests/kv_server_test.cpp rides in the TSan CI job,
// including the concurrent torture case).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "pax/common/status.hpp"
#include "pax/kv/protocol.hpp"
#include "pax/kv/store.hpp"

namespace pax::kv {

struct KvServerOptions {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; read the bound port from port()
  KvStoreOptions store;

  enum class CommitMode { kGroup, kIndependent, kVolatile };
  CommitMode commit_mode = CommitMode::kGroup;

  /// Reads pause once a connection has this many responses outstanding.
  std::size_t max_inflight_per_conn = 1024;
};

struct KvServerStats {
  std::uint64_t conns_accepted = 0;
  std::uint64_t conns_closed = 0;
  std::uint64_t requests = 0;
  std::uint64_t gets = 0;
  std::uint64_t get_hits = 0;
  std::uint64_t puts = 0;
  std::uint64_t dels = 0;
  std::uint64_t stats_requests = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
};

class KvServer {
 public:
  /// Binds, listens, and spawns the event loop, shard workers, and (in
  /// kGroup mode) the commit coordinator. Returns with the server live.
  static Result<std::unique_ptr<KvServer>> start(
      const KvServerOptions& options);

  /// stop() + join everything.
  ~KvServer();

  KvServer(const KvServer&) = delete;
  KvServer& operator=(const KvServer&) = delete;

  /// The bound TCP port (useful with port = 0).
  std::uint16_t port() const { return port_; }

  /// Graceful shutdown: stops accepting, joins all threads, closes every
  /// connection. Idempotent. Parked write acks are completed (their wave
  /// is flushed) before the coordinator exits.
  void stop();

  KvStore& store() { return *store_; }
  KvServerStats stats() const;

  /// The STATS payload: server counters plus, per shard, the runtime's
  /// RuntimeStats/SyncStats, PipelineStats, device log-flush counters, and
  /// the group-commit wave stats — the observability surface under live
  /// traffic.
  std::string stats_json() const;

 private:
  struct Op {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    OpCode op = OpCode::kGet;
    std::string key;
    std::string value;
  };

  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    std::vector<std::byte> resp;
  };

  struct Pending {
    bool ready = false;
    std::vector<std::byte> resp;
  };

  // Owned exclusively by the event-loop thread.
  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    FrameParser parser;
    std::uint64_t next_seq = 0;  // seq of the next request parsed
    std::uint64_t base_seq = 0;  // seq of inflight.front()
    std::deque<Pending> inflight;
    std::vector<std::byte> out;  // ordered response bytes being sent
    std::size_t out_off = 0;
    std::uint32_t mask = 0;      // interest mask installed in epoll
    bool paused_read = false;    // in-flight cap reached: EPOLLIN dropped
    bool send_blocked = false;   // a send came up short: EPOLLOUT wanted
  };

  struct ShardWorker {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Op> queue;
    bool stop = false;
    std::thread thread;
  };

  KvServer() = default;

  Status setup_loop(const KvServerOptions& options);
  void event_loop();
  void accept_ready();
  void on_accepted(int fd);
  // The handlers below return false once they have closed `conn`; the
  // caller must not touch it afterwards.
  bool on_readable(Conn& conn);
  bool handle_request(Conn& conn, const Request& req);
  /// Moves the ready response prefix out and sends it eagerly, refilling
  /// after each whole send until a send comes up short or nothing is
  /// ready; then updates the connection's mask.
  bool try_flush(Conn& conn);
  /// Installs the mask `conn` wants (epoll_ctl only on a change).
  void update_mask(Conn& conn);
  void close_conn(std::uint64_t conn_id);
  void drain_completions();

  void worker_loop(std::size_t shard);
  void execute_op(const Op& op, std::vector<Completion>& immediate,
                  std::vector<Completion>& durable_writes);
  void coordinator_loop();

  /// Queues completions for the loop and wakes it once.
  void post_completions(std::vector<Completion> batch);
  void wake_loop();

  KvServerOptions options_;
  std::unique_ptr<KvStore> store_;
  std::uint16_t port_ = 0;

  // Event-loop state. Everything except comp_mu_/completions_ is owned by
  // the loop thread while it runs (no locks on the socket hot path).
  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int wake_fd_ = -1;
  bool accepts_paused_ = false;  // listener deregistered after EMFILE & co
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 2;  // 0/1 reserved (listener, wake)
  std::vector<std::byte> rbuf_;     // shared receive buffer
  std::thread loop_thread_;

  // The loop's MPSC completion queue: workers/coordinator → loop.
  std::mutex comp_mu_;
  std::vector<Completion> completions_;

  std::atomic<bool> stop_{false};
  bool stopped_ = false;  // join-once latch (main thread)

  std::vector<std::unique_ptr<ShardWorker>> workers_;

  // kGroup coordinator state: write acks parked until their wave commits.
  std::mutex co_mu_;
  std::condition_variable co_cv_;
  std::vector<Completion> parked_writes_;
  bool co_stop_ = false;
  std::thread co_thread_;

  // Counters (relaxed atomics: single-writer or monotonic).
  std::atomic<std::uint64_t> conns_accepted_{0};
  std::atomic<std::uint64_t> conns_closed_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> gets_{0};
  std::atomic<std::uint64_t> get_hits_{0};
  std::atomic<std::uint64_t> puts_{0};
  std::atomic<std::uint64_t> dels_{0};
  std::atomic<std::uint64_t> stats_requests_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> bytes_out_{0};
};

}  // namespace pax::kv
