// Recovery-equivalence property: every enumerated crash point of the demo
// libpax workloads (persistent-heap object chain, ShardedMap) must recover
// to exactly pre-epoch or post-epoch bytes under the line-tracked, batched
// sync path. The explorer's committed-image oracle is the property; these
// tests just pick representative workloads. Sampled (not k=1) to keep the
// suite quick; paxctl explore and the CI explore job run the exhaustive
// sweep.
#include <gtest/gtest.h>

#include <cstring>

#include "pax/check/crashpoint.hpp"
#include "pax/libpax/runtime.hpp"
#include "pax/libpax/sharded_map.hpp"

namespace pax::libpax {
namespace {

using check::CrashExplorer;
using check::CrashExplorerOptions;
using check::CrashOracle;

constexpr std::size_t kPoolBytes = 4 << 20;
constexpr Epoch kEpochs = 3;
// No fixed vPM base: each execution maps its region elsewhere, so the raw
// pointers PaxStlAllocator-backed containers store differ between
// executions, and recovery must match the crashing execution's own images.
RuntimeOptions explore_options() {
  RuntimeOptions o;
  o.log_size = 512 << 10;
  return o;
}

Status heap_workload(const RuntimeOptions& opts, pmem::PmemDevice& dev,
                     CrashOracle& oracle) {
  auto rt = PaxRuntime::attach(&dev, opts);
  if (!rt.ok()) return rt.status();
  auto& r = *rt.value();
  PAX_RETURN_IF_ERROR(oracle.note_commit(r.committed_epoch()));
  // A linked chain of heap blocks, head parked in the root offset: each
  // epoch prepends one block, so a wrong rollback breaks the chain bytes.
  for (Epoch e = 1; e <= kEpochs; ++e) {
    auto* block = static_cast<std::uint64_t*>(r.heap().allocate(256));
    if (block == nullptr) return failed_precondition("heap exhausted");
    block[0] = r.heap().root_offset();  // link to previous head
    std::memset(block + 1, static_cast<int>(e), 256 - sizeof(*block));
    r.heap().set_root_offset(r.heap().ptr_to_offset(block));
    auto committed = r.persist();
    if (!committed.ok()) return committed.status();
    PAX_RETURN_IF_ERROR(oracle.note_commit(committed.value()));
  }
  return Status::ok();
}

Status map_workload(const RuntimeOptions& opts, pmem::PmemDevice& dev,
                    CrashOracle& oracle) {
  auto rt = PaxRuntime::attach(&dev, opts);
  if (!rt.ok()) return rt.status();
  auto& r = *rt.value();
  auto map = ShardedMap<std::uint64_t, std::uint64_t>::open(r, 2);
  if (!map.ok()) return map.status();
  PAX_RETURN_IF_ERROR(oracle.note_commit(r.committed_epoch()));
  for (Epoch e = 1; e <= kEpochs; ++e) {
    for (std::uint64_t k = 0; k < 8; ++k) {
      map.value().put(e * 100 + k, e * 1000 + k);
    }
    if (e > 1) map.value().erase((e - 1) * 100);  // churn the free lists
    auto committed = r.persist();
    if (!committed.ok()) return committed.status();
    PAX_RETURN_IF_ERROR(oracle.note_commit(committed.value()));
  }
  return Status::ok();
}

TEST(RecoveryEquivalence, HeapChainRecoversToPreOrPostEpoch) {
  const RuntimeOptions opts = explore_options();
  CrashExplorerOptions options;
  options.max_crash_points = 32;  // evenly sampled, tail included
  options.seed = 0x9e1f;
  CrashExplorer explorer(
      kPoolBytes,
      [&opts](pmem::PmemDevice& dev, CrashOracle& oracle) {
        return heap_workload(opts, dev, oracle);
      },
      options);
  auto result = explorer.explore();
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_TRUE(result.value().clean()) << result.value().to_string();
  EXPECT_EQ(result.value().epochs, static_cast<std::uint64_t>(kEpochs) + 1);
}

TEST(RecoveryEquivalence, ShardedMapRecoversToPreOrPostEpoch) {
  const RuntimeOptions opts = explore_options();
  CrashExplorerOptions options;
  options.max_crash_points = 32;
  options.seed = 0x51ab;
  CrashExplorer explorer(
      kPoolBytes,
      [&opts](pmem::PmemDevice& dev, CrashOracle& oracle) {
        return map_workload(opts, dev, oracle);
      },
      options);
  auto result = explorer.explore();
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_TRUE(result.value().clean()) << result.value().to_string();
}

}  // namespace
}  // namespace pax::libpax
