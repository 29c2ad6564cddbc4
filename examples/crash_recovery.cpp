// crash_recovery — a *real* crash, not a simulated one.
//
// The parent forks a child that maps a file-backed pool, inserts entries,
// persists a few epochs, writes a marker of what it committed, and then
// keeps mutating WITHOUT persisting until the parent SIGKILLs it mid-epoch.
// Killing the process destroys the child's DRAM state (the vPM region and
// the simulated PM's volatile write-pending overlay) while the pool file's
// durable media survives in the page cache — exactly the persistence split
// a power failure produces on ADR hardware.
//
// The parent then reopens the pool, lets recovery run, and verifies the map
// matches the last persisted epoch exactly: every committed entry present,
// zero uncommitted entries visible (§3.3/§3.4).
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>

#include "pax/libpax/persistent.hpp"

using pax::libpax::PaxRuntime;
using pax::libpax::PaxStlAllocator;
using pax::libpax::Persistent;

using HashMap =
    std::unordered_map<std::uint64_t, std::uint64_t, std::hash<std::uint64_t>,
                       std::equal_to<std::uint64_t>,
                       PaxStlAllocator<std::pair<const std::uint64_t,
                                                 std::uint64_t>>>;

namespace {

constexpr std::uint64_t kEntriesPerEpoch = 1000;
constexpr std::uint64_t kEpochs = 5;

[[noreturn]] void run_child(const std::string& pool, const std::string& mark) {
  auto rt = PaxRuntime::map_pool(pool, 64 << 20).value();
  auto map = Persistent<HashMap>::open(*rt).value();

  for (std::uint64_t e = 0; e < kEpochs; ++e) {
    for (std::uint64_t i = 0; i < kEntriesPerEpoch; ++i) {
      (*map)[e * kEntriesPerEpoch + i + 1] = e + 1;
    }
    if (!rt->persist().ok()) std::abort();
  }
  // Record what we committed, then signal readiness via the marker file.
  FILE* f = std::fopen(mark.c_str(), "w");
  std::fprintf(f, "%llu",
               static_cast<unsigned long long>(kEpochs * kEntriesPerEpoch));
  std::fclose(f);

  // Doomed epoch: mutate forever without persisting; some of it will be
  // pushed toward PM by sync_step(), all of it must roll back.
  std::uint64_t k = 1000000;
  while (true) {
    (*map)[++k] = 0xdead;
    (*map)[k % 5000 + 1] = 0xdead;  // also clobber committed entries
    rt->sync_step();
  }
}

}  // namespace

int main() {
  const std::string pool = "/tmp/pax_crash_demo.pool";
  const std::string mark = "/tmp/pax_crash_demo.mark";
  std::remove(pool.c_str());
  std::remove(mark.c_str());

  std::printf("forking a writer child against %s ...\n", pool.c_str());
  const pid_t pid = fork();
  if (pid == 0) run_child(pool, mark);

  // Wait until the child has committed its epochs and entered the doomed
  // loop, let it thrash for a moment, then kill it mid-mutation.
  while (access(mark.c_str(), F_OK) != 0) usleep(10000);
  usleep(200000);
  kill(pid, SIGKILL);
  waitpid(pid, nullptr, 0);
  std::printf("child SIGKILLed mid-epoch (volatile state destroyed).\n");

  // Reopen: recovery rolls the doomed epoch back.
  auto rt = PaxRuntime::map_pool(pool, 64 << 20).value();
  auto map = Persistent<HashMap>::open(*rt).value();
  const auto& report = rt->recovery_report();
  std::printf("recovered to epoch %llu (%llu undo records applied)\n",
              static_cast<unsigned long long>(report.recovered_epoch),
              static_cast<unsigned long long>(report.records_applied));

  std::uint64_t expected = kEpochs * kEntriesPerEpoch;
  std::uint64_t bad = 0;
  for (std::uint64_t key = 1; key <= expected; ++key) {
    auto it = map->find(key);
    if (it == map->end() ||
        it->second != (key - 1) / kEntriesPerEpoch + 1) {
      ++bad;
    }
  }
  std::uint64_t doomed_visible = 0;
  for (const auto& [k, v] : *map) {
    if (v == 0xdead) ++doomed_visible;
  }

  std::printf("committed entries present: %llu/%llu (%llu wrong)\n",
              static_cast<unsigned long long>(expected - bad),
              static_cast<unsigned long long>(expected),
              static_cast<unsigned long long>(bad));
  std::printf("uncommitted (doomed) entries visible: %llu\n",
              static_cast<unsigned long long>(doomed_visible));
  const bool ok = bad == 0 && doomed_visible == 0 &&
                  map->size() == expected &&
                  report.recovered_epoch == kEpochs;
  std::printf("%s\n", ok ? "CRASH RECOVERY OK" : "CRASH RECOVERY FAILED");
  std::remove(pool.c_str());
  std::remove(mark.c_str());
  return ok ? 0 : 1;
}
