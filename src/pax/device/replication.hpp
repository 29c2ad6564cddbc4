// Epoch replication to a backup pool — the "fault tolerance via remote
// memory" direction from §6 ("different applications can use our techniques
// e.g. … providing fault tolerance via remote memory [24, 29]").
//
// The Replicator subscribes to the primary PaxDevice's commit hook and
// ships each committed epoch (its number + the final values of its modified
// lines) to a backup pool. The backup is driven through its *own* PaxDevice,
// so every replicated epoch is applied with the full crash-consistency
// machinery: undo-logged, written back, and committed with the backup's
// epoch cell. Consequently the backup is always a valid PAX pool holding
// some committed prefix of the primary's history — a crash of the primary,
// the backup, or the replication channel at any instant leaves the backup
// recoverable to its latest applied epoch. Failover is just: open the
// backup pool with ordinary recovery and keep going.
//
// What the paper would use — FPGAs shipping coherence traffic over a fast
// network — is modelled by the in-process queue between the hook and
// apply_pending(): `synchronous` mode applies in the hook (zero lag, the
// primary's persist waits for the backup), asynchronous mode lets the
// backup trail by a bounded number of epochs, which the failover tests
// exercise.
#pragma once

#include <deque>
#include <mutex>
#include <vector>

#include "pax/common/status.hpp"
#include "pax/device/pax_device.hpp"

namespace pax::device {

struct ReplicatorStats {
  std::uint64_t epochs_enqueued = 0;
  std::uint64_t epochs_applied = 0;
  std::uint64_t lines_shipped = 0;
  /// sync_lines batches issued by the batched apply path (0 when per-line).
  std::uint64_t batches_shipped = 0;
};

struct ReplicatorOptions {
  /// Apply epochs through the backup device's batched frontend: lines are
  /// shipped as LineUpdate batches via sync_lines, which takes each stripe
  /// mutex once per batch and appends a stripe group's undo records under
  /// a single log-mutex hold. false keeps the original per-line
  /// write_intent + writeback_line calls (the reference the equivalence
  /// test compares against).
  bool batched = true;
  /// Max LineUpdates per sync_lines call in batched mode.
  std::size_t batch_lines = 256;
};

class Replicator {
 public:
  /// `backup` must be a formatted pool with a data extent at least as large
  /// as the primary's and the same data offset (same pool geometry).
  /// If `synchronous`, epochs are applied inside the commit hook (the
  /// primary's persist includes the backup's); otherwise they queue until
  /// apply_pending().
  static Result<std::unique_ptr<Replicator>> create(
      pmem::PmemPool* backup, const DeviceConfig& backup_device_config,
      bool synchronous, const ReplicatorOptions& options = {});

  /// The hook to install on the primary: primary.set_commit_hook(
  /// replicator->commit_hook()).
  PaxDevice::CommitHook commit_hook();

  /// Applies every queued epoch to the backup, in order. Returns the
  /// backup's committed epoch afterwards.
  Result<Epoch> apply_pending();

  /// Epochs sitting in the queue (asynchronous mode lag).
  std::size_t pending_epochs() const;

  Epoch backup_committed_epoch() const {
    return backup_pool_->committed_epoch();
  }

  const ReplicatorStats& stats() const { return stats_; }

 private:
  struct PendingEpoch {
    Epoch epoch;
    std::vector<std::pair<LineIndex, LineData>> lines;
  };

  Replicator(pmem::PmemPool* backup, const DeviceConfig& config,
             bool synchronous, const ReplicatorOptions& options)
      : backup_pool_(backup),
        backup_device_(backup, config),
        synchronous_(synchronous),
        options_(options) {}

  Status apply_one(const PendingEpoch& pending);

  pmem::PmemPool* backup_pool_;
  PaxDevice backup_device_;
  bool synchronous_;
  ReplicatorOptions options_;
  mutable std::mutex mu_;
  std::deque<PendingEpoch> queue_;
  ReplicatorStats stats_;
};

}  // namespace pax::device
