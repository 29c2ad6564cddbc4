#include "pax/kv/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <utility>

#include "pax/common/check.hpp"
#include "pax/common/log.hpp"

namespace pax::kv {

namespace {

constexpr std::size_t kRecvBufBytes = 16 << 10;
constexpr std::uint64_t kListenerKey = 0;
constexpr std::uint64_t kWakeKey = 1;
constexpr std::uint32_t kReadMask = EPOLLIN | EPOLLRDHUP;
constexpr std::uint32_t kWriteMask = EPOLLOUT;

const char* commit_mode_name(KvServerOptions::CommitMode mode) {
  switch (mode) {
    case KvServerOptions::CommitMode::kGroup:
      return "group";
    case KvServerOptions::CommitMode::kIndependent:
      return "independent";
    case KvServerOptions::CommitMode::kVolatile:
      return "volatile";
  }
  return "?";
}

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, std::min<std::size_t>(n, sizeof(buf) - 1));
}

bool epoll_set(int epoll_fd, int op, int fd, std::uint32_t mask,
               std::uint64_t key) {
  epoll_event ev{};
  ev.events = mask;
  ev.data.u64 = key;
  return epoll_ctl(epoll_fd, op, fd, &ev) == 0;
}

bool would_block(int err) { return err == EAGAIN || err == EWOULDBLOCK; }

}  // namespace

Result<std::unique_ptr<KvServer>> KvServer::start(
    const KvServerOptions& options) {
  auto server = std::unique_ptr<KvServer>(new KvServer());
  server->options_ = options;

  auto store = KvStore::create_in_memory(options.store);
  if (!store.ok()) return store.status();
  server->store_ = std::move(store).value();

  PAX_RETURN_IF_ERROR(server->setup_loop(options));

  const std::size_t shards = server->store_->shard_count();
  server->workers_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    server->workers_.push_back(std::make_unique<ShardWorker>());
  }
  for (std::size_t i = 0; i < shards; ++i) {
    server->workers_[i]->thread =
        std::thread([srv = server.get(), i] { srv->worker_loop(i); });
  }
  if (options.commit_mode == KvServerOptions::CommitMode::kGroup) {
    server->co_thread_ =
        std::thread([srv = server.get()] { srv->coordinator_loop(); });
  }
  server->loop_thread_ =
      std::thread([srv = server.get()] { srv->event_loop(); });

  PAX_LOG_INFO("paxkv serving on %s:%u (%zu shards, %s commit)",
               options.bind_address.c_str(), server->port_, shards,
               commit_mode_name(options.commit_mode));
  return server;
}

Status KvServer::setup_loop(const KvServerOptions& options) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) != 1) {
    return invalid_argument("bad bind address: " + options.bind_address);
  }

  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return io_error("socket failed");
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return io_error(std::string("bind failed: ") + std::strerror(errno));
  }
  if (listen(listen_fd_, 128) < 0) return io_error("listen failed");
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    return io_error("getsockname failed");
  }
  port_ = ntohs(bound.sin_port);

  wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) return io_error("eventfd failed");
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return io_error("epoll_create1 failed");
  if (!epoll_set(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, EPOLLIN,
                 kListenerKey) ||
      !epoll_set(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, EPOLLIN, kWakeKey)) {
    return io_error("epoll_ctl(listener/wake) failed");
  }
  rbuf_.resize(kRecvBufBytes);
  return Status::ok();
}

KvServer::~KvServer() { stop(); }

void KvServer::stop() {
  if (stopped_) return;
  stopped_ = true;

  // Workers first: no new write acks get parked after they exit.
  for (auto& worker : workers_) {
    {
      std::lock_guard lock(worker->mu);
      worker->stop = true;
    }
    worker->cv.notify_all();
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  // Coordinator flushes any still-parked acks in a final wave, then exits.
  if (co_thread_.joinable()) {
    {
      std::lock_guard lock(co_mu_);
      co_stop_ = true;
    }
    co_cv_.notify_all();
    co_thread_.join();
  }
  stop_.store(true, std::memory_order_release);
  if (loop_thread_.joinable()) {
    wake_loop();
    loop_thread_.join();
  }
  // The loop thread has exited (or never started: a failed start() ends
  // here too); single-threaded now.
  for (auto& [id, conn] : conns_) ::close(conn->fd);
  conns_.clear();
  for (int* fd : {&epoll_fd_, &wake_fd_, &listen_fd_}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

void KvServer::wake_loop() {
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void KvServer::event_loop() {
  std::array<epoll_event, 64> events;
  while (!stop_.load(std::memory_order_acquire)) {
    const int n = epoll_wait(epoll_fd_, events.data(),
                             static_cast<int>(events.size()), 100);
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[static_cast<std::size_t>(i)];
      const std::uint64_t key = ev.data.u64;
      if (key == kListenerKey) {
        accept_ready();
        continue;
      }
      if (key == kWakeKey) {
        std::uint64_t drained = 0;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        drain_completions();
        continue;
      }
      // An earlier event in this batch may have closed the connection.
      auto it = conns_.find(key);
      if (it == conns_.end()) continue;
      Conn& conn = *it->second;
      if ((ev.events & (EPOLLHUP | EPOLLERR)) != 0) {
        close_conn(key);
        continue;
      }
      if ((ev.events & kReadMask) != 0 && !conn.paused_read &&
          !on_readable(conn)) {
        continue;
      }
      if ((ev.events & kWriteMask) != 0 && conn.send_blocked) {
        conn.send_blocked = false;
        try_flush(conn);
      }
    }
  }
}

void KvServer::accept_ready() {
  for (;;) {
    const int fd =
        accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
      on_accepted(fd);
      continue;
    }
    if (would_block(errno)) return;
    if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) {
      continue;  // per-connection hiccup: keep draining the backlog
    }
    // Persistent failure (EMFILE/ENFILE/ENOMEM/...): a level-triggered
    // listener would spin epoll_wait at 100% CPU. Deregister until
    // close_conn frees an fd and re-arms it.
    PAX_LOG_ERROR("accept4: %s; pausing accepts", std::strerror(errno));
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr) == 0) {
      accepts_paused_ = true;
    }
    return;
  }
}

void KvServer::on_accepted(int fd) {
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->id = next_conn_id_++;
  conn->mask = kReadMask;
  if (!epoll_set(epoll_fd_, EPOLL_CTL_ADD, fd, conn->mask, conn->id)) {
    ::close(fd);
    return;
  }
  conns_.emplace(conn->id, std::move(conn));
  conns_accepted_.fetch_add(1, std::memory_order_relaxed);
}

bool KvServer::on_readable(Conn& conn) {
  const ssize_t n = ::recv(conn.fd, rbuf_.data(), rbuf_.size(), 0);
  if (n < 0 && (would_block(errno) || errno == EINTR)) return true;
  if (n <= 0) {
    close_conn(conn.id);  // EOF or socket error
    return false;
  }
  bytes_in_.fetch_add(static_cast<std::uint64_t>(n),
                      std::memory_order_relaxed);
  conn.parser.feed(rbuf_.data(), static_cast<std::size_t>(n));
  for (;;) {
    auto req = conn.parser.next_request();
    if (!req.ok()) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      close_conn(conn.id);
      return false;
    }
    if (!req.value().has_value()) break;
    if (!handle_request(conn, *req.value())) return false;
  }
  if (conn.inflight.size() >= options_.max_inflight_per_conn) {
    conn.paused_read = true;  // try_flush resumes once below the cap
    update_mask(conn);
  }
  return true;
}

bool KvServer::handle_request(Conn& conn, const Request& req) {
  const std::uint64_t seq = conn.next_seq++;
  conn.inflight.emplace_back();
  requests_.fetch_add(1, std::memory_order_relaxed);

  if (req.op == OpCode::kStats) {
    stats_requests_.fetch_add(1, std::memory_order_relaxed);
    Pending& slot = conn.inflight.back();
    append_response(slot.resp, RespStatus::kOk, stats_json());
    slot.ready = true;
    return try_flush(conn);
  }

  Op op;
  op.conn_id = conn.id;
  op.seq = seq;
  op.op = req.op;
  op.key.assign(req.key);
  op.value.assign(req.value);

  ShardWorker& worker = *workers_[store_->shard_for(req.key)];
  {
    std::lock_guard lock(worker.mu);
    worker.queue.push_back(std::move(op));
  }
  worker.cv.notify_one();
  return true;
}

bool KvServer::try_flush(Conn& conn) {
  // While EPOLLOUT is pending the unsent bytes stay put and newly-ready
  // responses wait in their in-flight slots: a reader that stalls keeps
  // the window full, so reads pause and TCP pushes back on the client.
  if (conn.send_blocked) return true;

  for (;;) {
    if (conn.out_off == conn.out.size()) {
      conn.out.clear();
      conn.out_off = 0;
      // Move the ready prefix of the in-flight window into the output
      // buffer — responses leave in request order, whatever order shards
      // finished in.
      while (!conn.inflight.empty() && conn.inflight.front().ready) {
        Pending& front = conn.inflight.front();
        conn.out.insert(conn.out.end(), front.resp.begin(), front.resp.end());
        conn.inflight.pop_front();
        ++conn.base_seq;
      }
    }

    if (conn.paused_read &&
        conn.inflight.size() < options_.max_inflight_per_conn) {
      conn.paused_read = false;
    }
    if (conn.out_off == conn.out.size()) break;  // nothing ready to send

    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                             conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n < 0 && !would_block(errno) && errno != EINTR) {
      close_conn(conn.id);
      return false;
    }
    if (n > 0) {
      bytes_out_.fetch_add(static_cast<std::uint64_t>(n),
                           std::memory_order_relaxed);
      conn.out_off += static_cast<std::size_t>(n);
    }
    // A short send means the socket buffer is full: wait for EPOLLOUT
    // rather than spend a second send on EAGAIN.
    if (conn.out_off < conn.out.size()) {
      conn.send_blocked = true;
      break;
    }
    // The buffer went out whole. Responses that became ready while an
    // earlier send was parked are next; without a refill here nothing
    // would send them until some unrelated completion woke the loop.
  }
  update_mask(conn);
  return true;
}

void KvServer::update_mask(Conn& conn) {
  const std::uint32_t want = (conn.paused_read ? 0 : kReadMask) |
                             (conn.send_blocked ? kWriteMask : 0);
  if (want != conn.mask &&
      epoll_set(epoll_fd_, EPOLL_CTL_MOD, conn.fd, want, conn.id)) {
    conn.mask = want;
  }
}

void KvServer::close_conn(std::uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  // Closing the fd drops it from the epoll set.
  ::close(it->second->fd);
  conns_.erase(it);
  conns_closed_.fetch_add(1, std::memory_order_relaxed);
  // An fd just freed up: re-arm a listener paused by fd exhaustion.
  if (accepts_paused_ && epoll_set(epoll_fd_, EPOLL_CTL_ADD, listen_fd_,
                                   EPOLLIN, kListenerKey)) {
    accepts_paused_ = false;
  }
}

void KvServer::drain_completions() {
  std::vector<Completion> batch;
  {
    std::lock_guard lock(comp_mu_);
    batch.swap(completions_);
  }
  for (Completion& c : batch) {
    auto it = conns_.find(c.conn_id);
    if (it == conns_.end()) continue;  // connection died with ops in flight
    Conn& conn = *it->second;
    const std::uint64_t idx = c.seq - conn.base_seq;
    PAX_CHECK_MSG(idx < conn.inflight.size(),
                  "completion outside the in-flight window");
    Pending& slot = conn.inflight[static_cast<std::size_t>(idx)];
    slot.resp = std::move(c.resp);
    slot.ready = true;
  }
  // One flush pass per drained connection set (flushing per completion
  // would re-walk the deque needlessly). try_flush may close a connection,
  // so collect ids first rather than iterate the map it erases from.
  std::vector<std::uint64_t> to_flush;
  to_flush.reserve(conns_.size());
  for (auto& [id, conn] : conns_) {
    if (!conn->inflight.empty() && conn->inflight.front().ready) {
      to_flush.push_back(id);
    }
  }
  for (const std::uint64_t id : to_flush) {
    auto it = conns_.find(id);
    if (it != conns_.end()) try_flush(*it->second);
  }
}

void KvServer::post_completions(std::vector<Completion> batch) {
  if (batch.empty()) return;
  {
    std::lock_guard lock(comp_mu_);
    completions_.insert(completions_.end(),
                        std::make_move_iterator(batch.begin()),
                        std::make_move_iterator(batch.end()));
  }
  wake_loop();
}

void KvServer::worker_loop(std::size_t shard) {
  ShardWorker& worker = *workers_[shard];
  const bool durable =
      options_.commit_mode != KvServerOptions::CommitMode::kVolatile;

  std::unique_lock lock(worker.mu);
  for (;;) {
    worker.cv.wait(lock,
                   [&worker] { return worker.stop || !worker.queue.empty(); });
    if (worker.queue.empty()) {
      if (worker.stop) return;
      continue;
    }
    std::deque<Op> batch;
    batch.swap(worker.queue);
    lock.unlock();

    // Acked writes in durable modes wait for their commit; everything else
    // completes now, in one post for the batch.
    std::vector<Completion> immediate;
    std::vector<Completion> deferred;
    for (const Op& op : batch) {
      execute_op(op, immediate, durable ? deferred : immediate);
    }
    post_completions(std::move(immediate));

    if (!deferred.empty()) {
      if (options_.commit_mode == KvServerOptions::CommitMode::kIndependent) {
        // Per-shard commit: this shard alone, one log-flush round per
        // worker batch. The group-commit baseline.
        auto committed = store_->group().commit_one(shard);
        if (!committed.ok()) {
          for (Completion& c : deferred) {
            c.resp.clear();
            append_response(c.resp, RespStatus::kError);
          }
        }
        post_completions(std::move(deferred));
      } else {
        // Group mode: park the acks with the coordinator; the next wave
        // releases them.
        std::lock_guard glock(co_mu_);
        for (Completion& c : deferred) {
          parked_writes_.push_back(std::move(c));
        }
        co_cv_.notify_one();
      }
    }
    lock.lock();
  }
}

void KvServer::execute_op(const Op& op, std::vector<Completion>& immediate,
                          std::vector<Completion>& durable_writes) {
  Completion c;
  c.conn_id = op.conn_id;
  c.seq = op.seq;
  bool durable_write = false;

  switch (op.op) {
    case OpCode::kGet: {
      gets_.fetch_add(1, std::memory_order_relaxed);
      std::string value;
      if (store_->get(op.key, &value)) {
        get_hits_.fetch_add(1, std::memory_order_relaxed);
        append_response(c.resp, RespStatus::kOk, value);
      } else {
        append_response(c.resp, RespStatus::kNotFound);
      }
      break;
    }
    case OpCode::kPut: {
      puts_.fetch_add(1, std::memory_order_relaxed);
      store_->put(op.key, op.value);
      append_response(c.resp, RespStatus::kOk);
      durable_write = true;
      break;
    }
    case OpCode::kDel: {
      dels_.fetch_add(1, std::memory_order_relaxed);
      const bool removed = store_->erase(op.key);
      append_response(c.resp,
                      removed ? RespStatus::kOk : RespStatus::kNotFound);
      // A miss mutated nothing — nothing to make durable before the ack.
      durable_write = removed;
      break;
    }
    case OpCode::kStats:
      // Handled on the event loop; a shard worker never sees it.
      append_response(c.resp, RespStatus::kBadRequest);
      break;
  }

  (durable_write ? durable_writes : immediate).push_back(std::move(c));
}

void KvServer::coordinator_loop() {
  std::unique_lock lock(co_mu_);
  for (;;) {
    // No timer (§3.2): a wave covers the acks parked while the last one ran.
    co_cv_.wait(lock, [this] { return co_stop_ || !parked_writes_.empty(); });
    if (parked_writes_.empty()) return;  // stopping, nothing left to commit
    std::vector<Completion> batch;
    batch.swap(parked_writes_);
    lock.unlock();

    // One wave covers every shard these acks touched (and any other shard
    // dirtied meanwhile): a single cross-shard log-flush round.
    auto wave = store_->group().commit_wave();
    if (!wave.ok()) {
      for (Completion& c : batch) {
        c.resp.clear();
        append_response(c.resp, RespStatus::kError);
      }
    }
    post_completions(std::move(batch));
    lock.lock();
  }
}

KvServerStats KvServer::stats() const {
  KvServerStats s;
  s.conns_accepted = conns_accepted_.load(std::memory_order_relaxed);
  s.conns_closed = conns_closed_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.gets = gets_.load(std::memory_order_relaxed);
  s.get_hits = get_hits_.load(std::memory_order_relaxed);
  s.puts = puts_.load(std::memory_order_relaxed);
  s.dels = dels_.load(std::memory_order_relaxed);
  s.stats_requests = stats_requests_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  return s;
}

std::string KvServer::stats_json() const {
  const KvServerStats s = stats();
  const libpax::GroupCommitStats g = store_->group().stats();
  const std::uint64_t flushes = store_->total_log_flushes();
  const std::uint64_t acked = g.wave_ops + g.independent_ops;

  std::string out;
  out.reserve(2048);
  out += "{\n";
  appendf(out, "  \"commit_mode\": \"%s\",\n",
          commit_mode_name(options_.commit_mode));
  appendf(out, "  \"shards\": %zu,\n", store_->shard_count());
  appendf(out, "  \"log_flushes_total\": %llu,\n",
          static_cast<unsigned long long>(flushes));
  appendf(out, "  \"acked_write_ops\": %llu,\n",
          static_cast<unsigned long long>(acked));
  appendf(out, "  \"log_flushes_per_acked_op\": %.6f,\n",
          acked == 0 ? 0.0
                     : static_cast<double>(flushes) /
                           static_cast<double>(acked));
  appendf(out,
          "  \"server\": {\"conns_accepted\": %llu, \"conns_closed\": %llu, "
          "\"requests\": %llu, \"gets\": %llu, \"get_hits\": %llu, "
          "\"puts\": %llu, \"dels\": %llu, \"stats_requests\": %llu, "
          "\"protocol_errors\": %llu, \"bytes_in\": %llu, "
          "\"bytes_out\": %llu},\n",
          static_cast<unsigned long long>(s.conns_accepted),
          static_cast<unsigned long long>(s.conns_closed),
          static_cast<unsigned long long>(s.requests),
          static_cast<unsigned long long>(s.gets),
          static_cast<unsigned long long>(s.get_hits),
          static_cast<unsigned long long>(s.puts),
          static_cast<unsigned long long>(s.dels),
          static_cast<unsigned long long>(s.stats_requests),
          static_cast<unsigned long long>(s.protocol_errors),
          static_cast<unsigned long long>(s.bytes_in),
          static_cast<unsigned long long>(s.bytes_out));
  appendf(out,
          "  \"group_commit\": {\"waves\": %llu, \"empty_waves\": %llu, "
          "\"wave_shard_seals\": %llu, \"wave_ops\": %llu, "
          "\"max_wave_shards\": %llu, \"max_wave_ops\": %llu, "
          "\"independent_commits\": %llu, \"independent_ops\": %llu},\n",
          static_cast<unsigned long long>(g.waves),
          static_cast<unsigned long long>(g.empty_waves),
          static_cast<unsigned long long>(g.wave_shard_seals),
          static_cast<unsigned long long>(g.wave_ops),
          static_cast<unsigned long long>(g.max_wave_shards),
          static_cast<unsigned long long>(g.max_wave_ops),
          static_cast<unsigned long long>(g.independent_commits),
          static_cast<unsigned long long>(g.independent_ops));
  out += "  \"shard_stats\": [\n";
  for (std::size_t i = 0; i < store_->shard_count(); ++i) {
    auto& rt = const_cast<KvStore*>(store_.get())->shard_runtime(i);
    const libpax::RuntimeStats r = rt.stats();
    const libpax::SyncStats sync = rt.sync_stats();
    const libpax::PipelineStats pipe = rt.pipeline_stats();
    const device::UndoLoggerStats log = rt.device().log_stats();
    appendf(out,
            "    {\"shard\": %zu, \"committed_epoch\": %llu, "
            "\"persists\": %llu, "
            "\"device_calls\": %llu, \"sync_batches\": %llu,\n",
            i, static_cast<unsigned long long>(rt.committed_epoch()),
            static_cast<unsigned long long>(r.persists),
            static_cast<unsigned long long>(r.device_calls),
            static_cast<unsigned long long>(r.sync_batches));
    appendf(out,
            "     \"sync\": {\"pages_scanned\": %llu, \"lines_diffed\": "
            "%llu, \"lines_skipped\": %llu, \"lines_synced\": %llu, "
            "\"digest_rebuilds\": %llu},\n",
            static_cast<unsigned long long>(sync.pages_scanned),
            static_cast<unsigned long long>(sync.lines_diffed),
            static_cast<unsigned long long>(sync.lines_skipped),
            static_cast<unsigned long long>(sync.lines_synced),
            static_cast<unsigned long long>(sync.digest_rebuilds));
    appendf(out,
            "     \"pipeline\": {\"async_persists\": %llu, "
            "\"jobs_drained\": %llu, \"backpressure_waits\": %llu},\n",
            static_cast<unsigned long long>(pipe.async_persists),
            static_cast<unsigned long long>(pipe.jobs_drained),
            static_cast<unsigned long long>(pipe.backpressure_waits));
    appendf(out,
            "     \"log\": {\"flushes\": %llu, \"records\": %llu, "
            "\"ring_appends\": %llu, \"ring_full_stalls\": %llu}}%s\n",
            static_cast<unsigned long long>(log.flushes),
            static_cast<unsigned long long>(log.records),
            static_cast<unsigned long long>(log.ring_appends),
            static_cast<unsigned long long>(log.ring_full_stalls),
            i + 1 < store_->shard_count() ? "," : "");
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace pax::kv
