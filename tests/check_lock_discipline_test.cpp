// Seeded-bug coverage for the PaxCheck lock-discipline rules (documented
// order: sync_mu < epoch gate < stripe < log_mu, at most one stripe, no
// re-entry, no host pull while holding a stripe or the log mutex), plus a
// silence test over the real PaxDevice locking paths.
#include <gtest/gtest.h>

#include <optional>
#include <thread>
#include <unordered_map>

#include "pax/check/checker.hpp"
#include "pax/device/pax_device.hpp"
#include "pax/pmem/pmem_device.hpp"
#include "test_util.hpp"

namespace pax::check {
namespace {

using pax::testing::patterned_line;
using pax::testing::TestPool;

// Injected bug: the log mutex taken before a stripe mutex — the reverse of
// the documented rank order, a latent ABBA deadlock.
TEST(PaxCheckLockDiscipline, LockOrderInversionFires) {
  Checker checker;
  checker.on_lock_acquire(LockClass::kLogMu, 0, /*shared=*/false);
  checker.on_lock_acquire(LockClass::kStripe, 3, /*shared=*/false);
  checker.on_lock_release(LockClass::kStripe, 3);
  checker.on_lock_release(LockClass::kLogMu, 0);
  checker.on_drain();

  auto report = checker.report();
  EXPECT_EQ(report.count(Rule::kLockOrderInversion), 1u);
  EXPECT_EQ(report.violations.size(), 1u);
}

// Injected bug: two stripe mutexes held at once — the striped data path
// promises at most one so stripes can't deadlock against each other.
TEST(PaxCheckLockDiscipline, DoubleStripeLockFires) {
  Checker checker;
  checker.on_lock_acquire(LockClass::kStripe, 1, false);
  checker.on_lock_acquire(LockClass::kStripe, 2, false);
  checker.on_lock_release(LockClass::kStripe, 2);
  checker.on_lock_release(LockClass::kStripe, 1);
  checker.on_drain();

  auto report = checker.report();
  EXPECT_EQ(report.count(Rule::kDoubleStripeLock), 1u);
  // The second stripe also outranks nothing: no spurious inversion.
  EXPECT_EQ(report.count(Rule::kLockOrderInversion), 0u);
}

// Injected bug: re-acquiring a non-recursive mutex on the same thread.
TEST(PaxCheckLockDiscipline, SelfDeadlockFires) {
  Checker checker;
  checker.on_lock_acquire(LockClass::kLogMu, 5, false);
  checker.on_lock_acquire(LockClass::kLogMu, 5, false);
  checker.on_lock_release(LockClass::kLogMu, 5);
  checker.on_lock_release(LockClass::kLogMu, 5);
  checker.on_drain();

  auto report = checker.report();
  EXPECT_EQ(report.count(Rule::kLockSelfDeadlock), 1u);
}

// The epoch gate is a shared_mutex: concurrent shared holders on distinct
// threads are normal and must not read as re-entry on one thread.
TEST(PaxCheckLockDiscipline, SharedEpochGateAcrossThreadsIsClean) {
  Checker checker;
  checker.on_lock_acquire(LockClass::kEpochGate, 0, /*shared=*/true);
  std::thread other([&] {
    checker.on_lock_acquire(LockClass::kEpochGate, 0, /*shared=*/true);
    checker.on_lock_release(LockClass::kEpochGate, 0);
  });
  other.join();
  checker.on_lock_release(LockClass::kEpochGate, 0);
  checker.on_drain();
  EXPECT_TRUE(checker.report().clean()) << checker.report().to_string();
}

// Injected bug: invoking the host pull callback while a stripe mutex is
// held — the pull re-enters libpax, which may persist() back into the
// device and block on that same stripe.
TEST(PaxCheckLockDiscipline, PullWhileLockedFires) {
  Checker checker;
  checker.on_lock_acquire(LockClass::kStripe, 4, false);
  checker.on_pull_invoke(17);
  checker.on_lock_release(LockClass::kStripe, 4);
  checker.on_drain();

  auto report = checker.report();
  EXPECT_EQ(report.count(Rule::kPullWhileLocked), 1u);
}

TEST(PaxCheckLockDiscipline, PullOutsideLocksIsClean) {
  Checker checker;
  checker.on_lock_acquire(LockClass::kStripe, 4, false);
  checker.on_lock_release(LockClass::kStripe, 4);
  checker.on_pull_invoke(17);
  checker.on_drain();
  EXPECT_TRUE(checker.report().clean()) << checker.report().to_string();
}

// The full documented order, one lock of every class, is silent.
TEST(PaxCheckLockDiscipline, DocumentedOrderIsClean) {
  Checker checker;
  checker.on_lock_acquire(LockClass::kSyncMu, 0, false);
  checker.on_lock_acquire(LockClass::kEpochGate, 0, /*shared=*/true);
  checker.on_lock_acquire(LockClass::kStripe, 2, false);
  checker.on_lock_release(LockClass::kStripe, 2);
  checker.on_lock_acquire(LockClass::kLogMu, 0, false);
  checker.on_lock_release(LockClass::kLogMu, 0);
  checker.on_lock_release(LockClass::kEpochGate, 0);
  checker.on_lock_release(LockClass::kSyncMu, 0);
  checker.on_drain();
  EXPECT_TRUE(checker.report().clean()) << checker.report().to_string();
}

// Two devices sharing one checker (the replication topology) each have a
// stripe 0 and a log mutex; the per-device lock ids must keep them from
// reading as double-stripe or re-entry.
TEST(PaxCheckLockDiscipline, TwoDevicesDoNotAliasLockIds) {
  auto tp = TestPool::create();
  Checker checker;
  tp.device->set_checker(&checker);

  device::DeviceConfig config;
  config.hbm.capacity_lines = 64;
  config.hbm.ways = 4;
  device::PaxDevice a(&tp.pool, config);
  device::PaxDevice b(&tp.pool, config);
  ASSERT_TRUE(a.write_intent(tp.data_line(0)).is_ok());
  a.writeback_line(tp.data_line(0), patterned_line(1));
  ASSERT_TRUE(b.write_intent(tp.data_line(1)).is_ok());
  b.writeback_line(tp.data_line(1), patterned_line(2));
  a.tick(/*force_flush=*/true);
  b.tick(/*force_flush=*/true);

  EXPECT_TRUE(checker.report().clean()) << checker.report().to_string();
  tp.device->set_checker(nullptr);
}

// The real device's full locking surface — write intents, write-backs,
// ticks, and persists with write-backs between them — must be silent under
// the discipline rules.
TEST(PaxCheckLockDiscipline, RealDevicePathsAreClean) {
  auto tp = TestPool::create();
  Checker checker;
  tp.device->set_checker(&checker);
  {
    device::DeviceConfig config;
    config.hbm.capacity_lines = 64;
    config.hbm.ways = 4;
    device::PaxDevice dev(&tp.pool, config);

    std::unordered_map<std::uint64_t, LineData> host;
    auto pull = [&](LineIndex line) -> std::optional<LineData> {
      auto it = host.find(line.value);
      if (it == host.end()) return std::nullopt;
      return it->second;
    };

    for (std::uint64_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(dev.write_intent(tp.data_line(i)).is_ok());
      dev.writeback_line(tp.data_line(i), patterned_line(i));
      host[tp.data_line(i).value] = patterned_line(100 + i);
    }
    dev.tick();
    ASSERT_TRUE(dev.persist(pull).ok());
    for (std::uint64_t i = 0; i < 4; ++i) {  // the next epoch's traffic
      ASSERT_TRUE(dev.write_intent(tp.data_line(8 + i)).is_ok());
      dev.writeback_line(tp.data_line(8 + i), patterned_line(8 + i));
    }
    ASSERT_TRUE(dev.persist(pull).ok());
    dev.tick(/*force_flush=*/true);
    (void)dev.stripe_stats();
    (void)dev.stats();
  }
  auto report = checker.report();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_GT(report.diagnostics.events, 0u);
  tp.device->set_checker(nullptr);
}

}  // namespace
}  // namespace pax::check
