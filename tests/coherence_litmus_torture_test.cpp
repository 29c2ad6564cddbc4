// Concurrent-dispatch equivalence torture (runs under TSan in CI): each
// litmus shape executes with *free-running* threads — one per core, racing
// through the domain's thread-safe dispatch entry points with no imposed
// schedule — and every observed outcome must lie inside the enumerated
// serialized (= sequentially consistent) outcome set. This is the
// linearizability claim of the per-address ordering point: a racy run may
// land on any SC interleaving, but never outside the set. TSan checks the
// locking that makes it true; the membership check catches protocol-level
// escapes TSan cannot see (a stale fill is not a data race).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "pax/device/pax_device.hpp"
#include "pax/litmus/runner.hpp"
#include "pax/pmem/pool.hpp"

namespace pax::litmus {
namespace {

class LitmusTortureTest : public ::testing::TestWithParam<const char*> {};

TEST_P(LitmusTortureTest, RacingOutcomesStayInsideTheSerializedSet) {
  const Shape* shape = find_shape(GetParam());
  ASSERT_NE(shape, nullptr);
  const std::vector<std::string> allowed_sorted = sc_outcome_set(*shape);
  const std::set<std::string> allowed(allowed_sorted.begin(),
                                      allowed_sorted.end());

  constexpr int kIterations = 48;
  for (int iter = 0; iter < kIterations; ++iter) {
    auto pm = pmem::PmemDevice::create_in_memory(kLitmusDeviceBytes);
    auto pool = pmem::PmemPool::create(pm.get(), kLitmusLogBytes);
    ASSERT_TRUE(pool.ok()) << pool.status().to_string();
    device::PaxDevice dev(&pool.value(), device::DeviceConfig{});
    coherence::CoherenceDomain domain(&dev, litmus_cache_config(),
                                      shape->core_count());
    const auto offsets = var_offsets(*shape, pool.value());

    std::vector<std::uint64_t> regs(shape->regs, 0);
    std::atomic<unsigned> start{0};
    std::vector<std::thread> threads;
    threads.reserve(shape->core_count());
    for (unsigned c = 0; c < shape->core_count(); ++c) {
      threads.emplace_back([&, c] {
        // Rendezvous so the per-core programs actually race.
        start.fetch_add(1, std::memory_order_acq_rel);
        while (start.load(std::memory_order_acquire) <
               shape->core_count()) {
        }
        for (const Op& op : shape->cores[c]) {
          if (op.kind == OpKind::kStore) {
            ASSERT_TRUE(
                domain.store_u64(c, offsets[op.var], op.value).is_ok());
          } else {
            // Each register has exactly one writer thread; joined below
            // before anyone reads.
            regs[op.reg] = domain.load_u64(c, offsets[op.var]);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();

    // Quiesced: commit through the all-core pull, then simulate power loss
    // and read the finals back — the same observation protocol the
    // serialized harness uses.
    ASSERT_TRUE(domain.persist(&dev).ok());
    domain.drop_all_without_writeback();
    Outcome outcome;
    outcome.regs = regs;
    outcome.finals.resize(shape->vars);
    for (unsigned v = 0; v < shape->vars; ++v) {
      outcome.finals[v] = domain.load_u64(0, offsets[v]);
    }

    EXPECT_TRUE(allowed.count(outcome.to_string()))
        << shape->name << " iteration " << iter
        << " escaped the SC outcome set: " << outcome.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, LitmusTortureTest,
                         ::testing::Values("SB", "LB", "MP", "IRIW",
                                           "2+2W"),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           for (char& ch : name) {
                             if (ch == '+') ch = 'p';
                           }
                           return name;
                         });

}  // namespace
}  // namespace pax::litmus
