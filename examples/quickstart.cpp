// Quickstart — the C++ rendition of the paper's Listing 1.
//
//   let mut allocator = HWSnapshotter<MyAllocator>::map_pool("./ht.pool");
//   let persistent_ht = Persistent<HashMap>::new(&allocator);
//   persistent_ht.insert(1, 100);
//   println!("Key 1 = {}", persistent_ht.get(1));
//   persistent_ht.insert(2, 200);
//   persistent_ht.persist();
//
// An *unmodified* std::unordered_map becomes a crash-consistent persistent
// structure: map a pool, open the root, mutate with ordinary code, call
// persist(). Run the program twice — the second run recovers the map.
#include <cstdio>
#include <string>
#include <unordered_map>

#include "pax/libpax/persistent.hpp"

using pax::libpax::PaxRuntime;
using pax::libpax::PaxStlAllocator;
using pax::libpax::Persistent;

// An ordinary standard hash map, parameterized only by allocator.
using HashMap =
    std::unordered_map<std::uint64_t, std::uint64_t, std::hash<std::uint64_t>,
                       std::equal_to<std::uint64_t>,
                       PaxStlAllocator<std::pair<const std::uint64_t,
                                                 std::uint64_t>>>;

int main(int argc, char** argv) {
  const std::string pool_path =
      argc > 1 ? argv[1] : "/tmp/pax_quickstart.pool";

  // 1. Map the pool (creating it on first run, recovering on later runs).
  auto runtime = PaxRuntime::map_pool(pool_path, /*pool_size=*/64 << 20);
  if (!runtime.ok()) {
    std::fprintf(stderr, "map_pool: %s\n",
                 runtime.status().to_string().c_str());
    return 1;
  }
  auto& rt = *runtime.value();
  std::printf("pool %s mapped, committed epoch %llu\n", pool_path.c_str(),
              static_cast<unsigned long long>(rt.committed_epoch()));

  // 2. Open the persistent hash map root (created empty on first run).
  auto map = Persistent<HashMap>::open(rt);
  if (!map.ok()) {
    std::fprintf(stderr, "open root: %s\n", map.status().to_string().c_str());
    return 1;
  }
  std::printf("map %s with %zu entries\n",
              map.value().recovered() ? "recovered" : "freshly created",
              map.value()->size());

  // 3. Mutate it like any volatile map.
  const std::uint64_t run = map.value()->size() / 2 + 1;
  map.value()->insert({run * 2 - 1, 100 * run});
  std::printf("key %llu = %llu\n",
              static_cast<unsigned long long>(run * 2 - 1),
              static_cast<unsigned long long>(map.value()->at(run * 2 - 1)));
  map.value()->insert({run * 2, 200 * run});

  // 4. Commit a crash-consistent snapshot.
  auto epoch = rt.persist();
  if (!epoch.ok()) {
    std::fprintf(stderr, "persist: %s\n", epoch.status().to_string().c_str());
    return 1;
  }
  std::printf("persisted epoch %llu; map now has %zu entries\n",
              static_cast<unsigned long long>(epoch.value()),
              map.value()->size());
  std::printf("run me again: the map comes back with these entries.\n");
  return 0;
}
