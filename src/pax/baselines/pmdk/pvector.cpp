#include "pax/baselines/pmdk/pvector.hpp"

#include <cstring>

#include "pax/common/check.hpp"

namespace pax::baselines::pmdk {
namespace {

constexpr std::uint64_t kVecMagic = 0x524f544345565850ULL;  // "PXVECTOR"

// Header field offsets relative to the data extent start.
constexpr PoolOffset kMagicOff = 0;
constexpr PoolOffset kSizeOff = 8;
constexpr PoolOffset kCapacityOff = 16;
constexpr PoolOffset kArrayOff = 24;   // absolute pool offset of the array
constexpr PoolOffset kBumpOff = 32;    // next free offset for growth
constexpr PoolOffset kHeaderSize = 64;

}  // namespace

PoolOffset PVector::cell_at(std::uint64_t index) const {
  return pm_->load_u64(header_at() + kArrayOff) + index * 8;
}

Result<PVector> PVector::create(TxRuntime* tx,
                                std::uint64_t initial_capacity) {
  PAX_CHECK(tx != nullptr);
  if (initial_capacity == 0) {
    return invalid_argument("capacity must be positive");
  }
  auto* pool = tx->pool();
  if (pool->data_size() < kHeaderSize + initial_capacity * 8) {
    return out_of_space("data extent too small");
  }

  PVector vec(tx);
  const PoolOffset base = vec.header_at();
  auto* pm = pool->device();

  pm->store_u64(base + kSizeOff, 0);
  pm->store_u64(base + kCapacityOff, initial_capacity);
  pm->store_u64(base + kArrayOff, base + kHeaderSize);
  pm->store_u64(base + kBumpOff, kHeaderSize + initial_capacity * 8);
  pm->flush_range(base, kHeaderSize);
  pm->drain();
  pm->atomic_durable_store_u64(base + kMagicOff, kVecMagic);
  return vec;
}

Result<PVector> PVector::open(TxRuntime* tx) {
  PAX_CHECK(tx != nullptr);
  auto* pm = tx->pool()->device();
  const PoolOffset base = tx->pool()->data_offset();
  if (pm->load_u64(base + kMagicOff) != kVecMagic) {
    return not_found("no PVector in pool");
  }
  return PVector(tx);
}

Status PVector::grow_in_tx() {
  const PoolOffset base = header_at();
  const std::uint64_t size = pm_->load_u64(base + kSizeOff);
  const std::uint64_t capacity = pm_->load_u64(base + kCapacityOff);
  const std::uint64_t old_array = pm_->load_u64(base + kArrayOff);
  const std::uint64_t bump = pm_->load_u64(base + kBumpOff);
  const std::uint64_t new_capacity = capacity * 2;

  if (bump + new_capacity * 8 > tx_->pool()->data_size()) {
    return out_of_space("vector growth exceeds data extent");
  }
  const PoolOffset new_array = base + bump;

  // Copy payload into fresh (never-live) memory: no undo records needed for
  // the copied bytes, exactly pmemobj's fresh-allocation rule.
  for (std::uint64_t i = 0; i < size; ++i) {
    const std::uint64_t v = pm_->load_u64(old_array + i * 8);
    PAX_RETURN_IF_ERROR(
        tx_->tx_store(new_array + i * 8, std::as_bytes(std::span(&v, 1))));
  }

  // Flip the header fields under snapshots.
  PAX_RETURN_IF_ERROR(tx_->tx_snapshot(base + kArrayOff, 8));
  PAX_RETURN_IF_ERROR(tx_->tx_store(
      base + kArrayOff, std::as_bytes(std::span(&new_array, 1))));
  PAX_RETURN_IF_ERROR(tx_->tx_snapshot(base + kCapacityOff, 8));
  PAX_RETURN_IF_ERROR(tx_->tx_store(
      base + kCapacityOff, std::as_bytes(std::span(&new_capacity, 1))));
  PAX_RETURN_IF_ERROR(tx_->tx_snapshot(base + kBumpOff, 8));
  const std::uint64_t new_bump = bump + new_capacity * 8;
  PAX_RETURN_IF_ERROR(
      tx_->tx_store(base + kBumpOff, std::as_bytes(std::span(&new_bump, 1))));
  return Status::ok();
}

Status PVector::push_back(std::uint64_t value) {
  PAX_RETURN_IF_ERROR(tx_->tx_begin());
  auto run = [&]() -> Status {
    const PoolOffset base = header_at();
    const std::uint64_t size = pm_->load_u64(base + kSizeOff);
    if (size == pm_->load_u64(base + kCapacityOff)) {
      PAX_RETURN_IF_ERROR(grow_in_tx());
    }
    // The target cell is beyond `size`: not live, no snapshot required.
    PAX_RETURN_IF_ERROR(
        tx_->tx_store(cell_at(size), std::as_bytes(std::span(&value, 1))));
    PAX_RETURN_IF_ERROR(tx_->tx_snapshot(base + kSizeOff, 8));
    const std::uint64_t new_size = size + 1;
    PAX_RETURN_IF_ERROR(tx_->tx_store(base + kSizeOff,
                                      std::as_bytes(std::span(&new_size, 1))));
    return Status::ok();
  };
  Status s = run();
  if (!s.is_ok()) {
    (void)tx_->tx_abort();
    return s;
  }
  return tx_->tx_commit();
}

Status PVector::pop_back() {
  PAX_RETURN_IF_ERROR(tx_->tx_begin());
  auto run = [&]() -> Status {
    const PoolOffset base = header_at();
    const std::uint64_t size = pm_->load_u64(base + kSizeOff);
    if (size == 0) return failed_precondition("pop_back on empty vector");
    PAX_RETURN_IF_ERROR(tx_->tx_snapshot(base + kSizeOff, 8));
    const std::uint64_t new_size = size - 1;
    PAX_RETURN_IF_ERROR(tx_->tx_store(base + kSizeOff,
                                      std::as_bytes(std::span(&new_size, 1))));
    return Status::ok();
  };
  Status s = run();
  if (!s.is_ok()) {
    (void)tx_->tx_abort();
    return s;
  }
  return tx_->tx_commit();
}

Status PVector::set(std::uint64_t index, std::uint64_t value) {
  PAX_RETURN_IF_ERROR(tx_->tx_begin());
  auto run = [&]() -> Status {
    if (index >= pm_->load_u64(header_at() + kSizeOff)) {
      return invalid_argument("index out of range");
    }
    PAX_RETURN_IF_ERROR(tx_->tx_snapshot(cell_at(index), 8));
    PAX_RETURN_IF_ERROR(
        tx_->tx_store(cell_at(index), std::as_bytes(std::span(&value, 1))));
    return Status::ok();
  };
  Status s = run();
  if (!s.is_ok()) {
    (void)tx_->tx_abort();
    return s;
  }
  return tx_->tx_commit();
}

std::optional<std::uint64_t> PVector::get(std::uint64_t index) const {
  if (index >= size()) return std::nullopt;
  return pm_->load_u64(cell_at(index));
}

std::uint64_t PVector::size() const {
  return pm_->load_u64(header_at() + kSizeOff);
}

std::uint64_t PVector::capacity() const {
  return pm_->load_u64(header_at() + kCapacityOff);
}

}  // namespace pax::baselines::pmdk
