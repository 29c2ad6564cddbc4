#include "pax/baselines/pagewal/pagewal.hpp"

#include <cstring>
#include <vector>

#include "pax/common/check.hpp"

namespace pax::baselines::pagewal {

Result<std::unique_ptr<PageWalRuntime>> PageWalRuntime::attach(
    pmem::PmemDevice* pm, std::size_t log_size) {
  PAX_CHECK(pm != nullptr);
  if (log_size % kPageSize != 0) {
    return invalid_argument("log size must be page-aligned");
  }

  auto rt = std::unique_ptr<PageWalRuntime>(new PageWalRuntime());
  rt->pm_ = pm;

  if (pm->load_u64(0) == 0) {
    auto created = pmem::PmemPool::create(pm, log_size);
    if (!created.ok()) return created.status();
    rt->pool_ = created.value();
  } else {
    auto opened = pmem::PmemPool::open(pm);
    if (!opened.ok()) return opened.status();
    rt->pool_ = opened.value();
  }

  PAX_RETURN_IF_ERROR(recover(*rt->pool_));
  rt->epoch_ = rt->pool_->committed_epoch() + 1;

  const std::size_t region_size = rt->pool_->data_size() & ~(kPageSize - 1);
  auto region = libpax::VpmRegion::create(region_size);
  if (!region.ok()) return region.status();
  rt->region_ = std::move(region).value();

  PAX_RETURN_IF_ERROR(rt->region_->seed(*pm, rt->pool_->data_offset()));

  rt->writer_ = std::make_unique<wal::LogWriter>(
      pm, rt->pool_->log_offset(), rt->pool_->log_size());
  return rt;
}

Status PageWalRuntime::recover(pmem::PmemPool& pool) {
  auto* pm = pool.device();
  const Epoch committed = pool.committed_epoch();
  auto records =
      wal::LogReader::read_all(pm, pool.log_offset(), pool.log_size());

  // Collect the uncommitted epoch's page pre-images, apply in reverse.
  std::vector<const wal::LogRecord*> to_undo;
  for (const auto& rec : records) {
    if (rec.epoch <= committed) continue;
    if (rec.type != wal::RecordType::kPageUndo) {
      return corruption("unexpected record type in page-WAL log");
    }
    if (rec.payload.size() != sizeof(wal::PageUndoHeader) + kPageSize) {
      return corruption("page undo record has wrong size");
    }
    to_undo.push_back(&rec);
  }
  for (auto it = to_undo.rbegin(); it != to_undo.rend(); ++it) {
    wal::PageUndoHeader h{};
    std::memcpy(&h, (*it)->payload.data(), sizeof(h));
    const PoolOffset at = pool.data_offset() + h.page_index * kPageSize;
    if (at + kPageSize > pool.data_offset() + pool.data_size()) {
      return corruption("page undo record out of range");
    }
    pm->store(at, {(*it)->payload.data() + sizeof(h), kPageSize});
    pm->flush_range(at, kPageSize);
  }
  pm->drain();
  return Status::ok();
}

Result<Epoch> PageWalRuntime::persist() {
  ++stats_.persists;
  // Re-protects the pages as it returns them; this runtime is quiesced
  // until the commit below.
  auto taken = region_->take_written();
  if (!taken.ok()) return taken.status();
  const std::vector<PageIndex>& dirty = taken.value();

  // 1. Log the PM pre-image of every dirty page; all records durable before
  //    any write-back.
  std::vector<std::byte> payload(sizeof(wal::PageUndoHeader) + kPageSize);
  for (PageIndex page : dirty) {
    wal::PageUndoHeader h{page.value};
    std::memcpy(payload.data(), &h, sizeof(h));
    pm_->load(pool_->data_offset() + page.byte_offset(),
              {payload.data() + sizeof(h), kPageSize});
    auto end = writer_->append(epoch_, wal::RecordType::kPageUndo, payload);
    if (!end.ok()) return end.status();
    ++stats_.pages_logged;
    stats_.log_bytes += wal::record_frame_size(payload.size());
  }
  writer_->flush();

  // 2. Write the new page contents back, whole pages.
  for (PageIndex page : dirty) {
    pm_->store(pool_->data_offset() + page.byte_offset(),
               region_->page_span(page));
    pm_->flush_range(pool_->data_offset() + page.byte_offset(), kPageSize);
    ++stats_.pages_written_back;
  }
  pm_->drain();

  // 3. Commit.
  const Epoch committed = epoch_;
  pool_->commit_epoch(committed);
  writer_->reset();
  epoch_ = committed + 1;
  return committed;
}

}  // namespace pax::baselines::pagewal
