// paxkv — the PaxKV network server.
//
//   paxkv [--port P] [--bind ADDR] [--shards N] [--pool-mb MB]
//         [--commit group|independent|volatile]
//
// Serves the PaxKV binary protocol (GET/PUT/DEL/STATS) over TCP on top of
// N shard runtimes backed by in-memory simulated PM. Writes are made
// durable per the commit mode before they are acknowledged (see
// src/pax/kv/server.hpp); one epoll event loop serves every connection.
// SIGINT/SIGTERM shut down gracefully. With --port 0 the kernel picks a
// port; it is printed either way as
//   paxkv: listening on <port>
// so scripts can scrape it.
#include <semaphore.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "pax/kv/server.hpp"

namespace {

sem_t g_stop_sem;

void handle_signal(int) { sem_post(&g_stop_sem); }

int usage() {
  std::fprintf(
      stderr,
      "usage: paxkv [--port P] [--bind ADDR] [--shards N] [--pool-mb MB]\n"
      "             [--commit group|independent|volatile]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pax::kv::KvServerOptions options;
  options.port = 7433;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port" && i + 1 < argc) {
      options.port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
    } else if (arg == "--bind" && i + 1 < argc) {
      options.bind_address = argv[++i];
    } else if (arg == "--shards" && i + 1 < argc) {
      options.store.shards = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg == "--pool-mb" && i + 1 < argc) {
      options.store.shard_pool_bytes =
          std::strtoull(argv[++i], nullptr, 0) << 20;
    } else if (arg == "--commit" && i + 1 < argc) {
      const std::string mode = argv[++i];
      if (mode == "group") {
        options.commit_mode = pax::kv::KvServerOptions::CommitMode::kGroup;
      } else if (mode == "independent") {
        options.commit_mode =
            pax::kv::KvServerOptions::CommitMode::kIndependent;
      } else if (mode == "volatile") {
        options.commit_mode =
            pax::kv::KvServerOptions::CommitMode::kVolatile;
      } else {
        return usage();
      }
    } else {
      return usage();
    }
  }

  auto server = pax::kv::KvServer::start(options);
  if (!server.ok()) {
    std::fprintf(stderr, "paxkv: %s\n",
                 server.status().message().c_str());
    return 1;
  }
  std::printf("paxkv: listening on %u\n", server.value()->port());
  std::fflush(stdout);

  sem_init(&g_stop_sem, 0, 0);
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  while (sem_wait(&g_stop_sem) != 0 && errno == EINTR) {
  }

  server.value()->stop();
  std::fputs(server.value()->stats_json().c_str(), stderr);
  return 0;
}
