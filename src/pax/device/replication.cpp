#include "pax/device/replication.hpp"

#include <algorithm>

#include "pax/common/check.hpp"
#include "pax/common/log.hpp"

namespace pax::device {

Result<std::unique_ptr<Replicator>> Replicator::create(
    pmem::PmemPool* backup, const DeviceConfig& backup_device_config,
    bool synchronous, const ReplicatorOptions& options) {
  PAX_CHECK(backup != nullptr);
  if (options.batched && options.batch_lines == 0) {
    return invalid_argument("batch_lines must be >= 1");
  }
  return std::unique_ptr<Replicator>(
      new Replicator(backup, backup_device_config, synchronous, options));
}

PaxDevice::CommitHook Replicator::commit_hook() {
  return [this](Epoch epoch,
                const std::vector<std::pair<LineIndex, LineData>>& lines) {
    {
      std::lock_guard lock(mu_);
      queue_.push_back({epoch, lines});
      ++stats_.epochs_enqueued;
    }
    if (synchronous_) {
      auto applied = apply_pending();
      if (!applied.ok()) {
        PAX_LOG_ERROR("synchronous replication failed: %s",
                      applied.status().to_string().c_str());
      }
    }
  };
}

Status Replicator::apply_one(const PendingEpoch& pending) {
  // Epochs must apply in order; duplicates (e.g. after a failover replay)
  // are skipped idempotently.
  const Epoch backup_epoch = backup_pool_->committed_epoch();
  if (pending.epoch <= backup_epoch) return Status::ok();
  if (pending.epoch != backup_epoch + 1) {
    return failed_precondition("replication gap: backup at epoch " +
                               std::to_string(backup_epoch) + ", got " +
                               std::to_string(pending.epoch));
  }

  // Drive the backup through the full device pipeline: undo-log the
  // pre-images, buffer the new values, then persist — so a crash anywhere
  // leaves the backup recoverable.
  if (options_.batched) {
    // sync_lines groups each batch by stripe itself: one stripe-mutex hold
    // and one log-mutex append per stripe group instead of per line.
    // Equivalent to the per-line path by sync_lines' contract (same undo
    // records, same buffered values).
    std::vector<LineUpdate> updates;
    updates.reserve(pending.lines.size());
    for (const auto& [line, data] : pending.lines) {
      updates.push_back({line, data});
    }
    for (std::size_t i = 0; i < updates.size(); i += options_.batch_lines) {
      const std::size_t n = std::min(options_.batch_lines, updates.size() - i);
      PAX_RETURN_IF_ERROR(backup_device_.sync_lines({updates.data() + i, n}));
      ++stats_.batches_shipped;
      stats_.lines_shipped += n;
    }
  } else {
    for (const auto& [line, data] : pending.lines) {
      PAX_RETURN_IF_ERROR(backup_device_.write_intent(line));
      backup_device_.writeback_line(line, data);
      ++stats_.lines_shipped;
    }
  }
  auto committed = backup_device_.persist(nullptr);
  if (!committed.ok()) return committed.status();
  PAX_CHECK_MSG(committed.value() == pending.epoch,
                "backup epoch diverged from primary");
  ++stats_.epochs_applied;
  return Status::ok();
}

Result<Epoch> Replicator::apply_pending() {
  std::lock_guard lock(mu_);
  while (!queue_.empty()) {
    PAX_RETURN_IF_ERROR(apply_one(queue_.front()));
    queue_.pop_front();
  }
  return backup_pool_->committed_epoch();
}

std::size_t Replicator::pending_epochs() const {
  std::lock_guard lock(mu_);
  return queue_.size();
}

}  // namespace pax::device
