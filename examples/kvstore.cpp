// kvstore — a durable string key/value store CLI on libpax.
//
// Shows a realistic pattern beyond fixed-width integers: variable-length
// strings inside standard containers, all allocated from the persistent
// heap; group commit (persist every N mutations) with an explicit `sync`
// command; and recovery across process restarts.
//
// Usage:
//   kvstore [pool-file] <<'EOF'
//   set lang c++
//   set paper hotstorage22
//   get lang
//   del paper
//   list
//   sync
//   EOF
//
// Mutations since the last `sync` (or auto-group-commit boundary) are
// rolled back on crash, exactly like the paper's snapshot model (§3.3).
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "pax/libpax/persistent.hpp"

using pax::libpax::PaxRuntime;
using pax::libpax::PaxStlAllocator;
using pax::libpax::Persistent;

// Persistent string type: std::basic_string with the pool allocator.
using PString =
    std::basic_string<char, std::char_traits<char>, PaxStlAllocator<char>>;

// Sorted map so `list` output is deterministic; node-based, so it exercises
// scattered small allocations.
using KvMap = std::map<PString, PString, std::less<PString>,
                       PaxStlAllocator<std::pair<const PString, PString>>>;

namespace {

constexpr unsigned kGroupCommitEvery = 8;  // auto-sync every 8 mutations

PString make_pstring(pax::libpax::PaxRuntime& rt, const std::string& s) {
  return PString(s.begin(), s.end(), PaxStlAllocator<char>(&rt.heap()));
}

}  // namespace

int main(int argc, char** argv) {
  const std::string pool_path = argc > 1 ? argv[1] : "/tmp/pax_kvstore.pool";

  auto runtime = PaxRuntime::map_pool(pool_path, 64 << 20);
  if (!runtime.ok()) {
    std::fprintf(stderr, "map_pool: %s\n",
                 runtime.status().to_string().c_str());
    return 1;
  }
  auto& rt = *runtime.value();
  auto store = Persistent<KvMap>::open(rt);
  if (!store.ok()) {
    std::fprintf(stderr, "open: %s\n", store.status().to_string().c_str());
    return 1;
  }
  std::printf("# kvstore on %s — epoch %llu, %zu keys %s\n", pool_path.c_str(),
              static_cast<unsigned long long>(rt.committed_epoch()),
              store.value()->size(),
              store.value().recovered() ? "(recovered)" : "(new)");

  unsigned dirty_ops = 0;
  auto maybe_group_commit = [&] {
    if (++dirty_ops >= kGroupCommitEvery) {
      if (auto e = rt.persist(); e.ok()) {
        std::printf("# auto group-commit: epoch %llu\n",
                    static_cast<unsigned long long>(e.value()));
      }
      dirty_ops = 0;
    }
  };

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd, key, value;
    in >> cmd;
    if (cmd.empty() || cmd[0] == '#') continue;

    if (cmd == "set" && (in >> key) && (in >> value)) {
      // insert_or_assign rather than operator[]: the latter would
      // default-construct the mapped string without the pool allocator.
      store.value()->insert_or_assign(make_pstring(rt, key),
                                      make_pstring(rt, value));
      std::printf("ok\n");
      maybe_group_commit();
    } else if (cmd == "get" && (in >> key)) {
      auto it = store.value()->find(make_pstring(rt, key));
      if (it == store.value()->end()) {
        std::printf("(nil)\n");
      } else {
        std::printf("%.*s\n", static_cast<int>(it->second.size()),
                    it->second.data());
      }
    } else if (cmd == "del" && (in >> key)) {
      std::printf("%s\n",
                  store.value()->erase(make_pstring(rt, key)) ? "ok"
                                                              : "(nil)");
      maybe_group_commit();
    } else if (cmd == "list") {
      for (const auto& [k, v] : *store.value()) {
        std::printf("%.*s = %.*s\n", static_cast<int>(k.size()), k.data(),
                    static_cast<int>(v.size()), v.data());
      }
    } else if (cmd == "sync") {
      auto e = rt.persist();
      if (!e.ok()) {
        std::fprintf(stderr, "persist: %s\n",
                     e.status().to_string().c_str());
        return 1;
      }
      dirty_ops = 0;
      std::printf("epoch %llu\n",
                  static_cast<unsigned long long>(e.value()));
    } else if (cmd == "quit") {
      break;
    } else {
      std::printf(
          "? commands: set k v | get k | del k | list | sync | quit\n");
    }
  }
  // Note: no persist on exit — uncommitted mutations vanish, by design.
  return 0;
}
