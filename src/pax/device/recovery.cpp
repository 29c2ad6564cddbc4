#include "pax/device/recovery.hpp"

#include <cstring>
#include <vector>

#include "pax/common/check.hpp"
#include "pax/common/log.hpp"
#include "pax/wal/wal.hpp"

namespace pax::device {

Result<RecoveryReport> recover_pool(pmem::PmemPool& pool) {
  pmem::PmemDevice* pm = pool.device();
  RecoveryReport report;
  report.recovered_epoch = pool.committed_epoch();

  // One log spans the whole extent. Every uncommitted record belongs to the
  // crashed epoch; undo runs in reverse append order, so a line logged more
  // than once ends at its earliest (epoch-boundary) pre-image.
  std::vector<wal::LineUndoPayload> to_undo;
  wal::LogReader reader(pm, pool.log_offset(), pool.log_size());
  while (auto rec = reader.next()) {
    ++report.records_scanned;
    if (rec->epoch <= report.recovered_epoch) {
      ++report.stale_records;
      continue;
    }
    if (rec->type != wal::RecordType::kLineUndo) {
      return corruption("unexpected record type in device undo log");
    }
    if (rec->payload.size() != sizeof(wal::LineUndoPayload)) {
      return corruption("undo record payload size mismatch");
    }
    wal::LineUndoPayload payload;
    std::memcpy(&payload, rec->payload.data(), sizeof(payload));

    const PoolOffset off = payload.line_index * kCacheLineSize;
    if (off < pool.data_offset() ||
        off + kCacheLineSize > pool.data_offset() + pool.data_size()) {
      return corruption("undo record references a line outside data extent");
    }
    to_undo.push_back(payload);
  }

  for (auto it = to_undo.rbegin(); it != to_undo.rend(); ++it) {
    const LineIndex line{it->line_index};
    pm->store_line(line, it->old_data);
    pm->flush_line(line);
    ++report.records_applied;
    ++report.lines_restored;
  }
  pm->drain();

  PAX_LOG_INFO(
      "recovery: epoch %llu restored (%llu records scanned, %llu applied)",
      static_cast<unsigned long long>(report.recovered_epoch),
      static_cast<unsigned long long>(report.records_scanned),
      static_cast<unsigned long long>(report.records_applied));
  return report;
}

}  // namespace pax::device
