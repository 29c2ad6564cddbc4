// Coherence-trace capture and replay.
//
// The host-cache simulator can record the CXL message stream a workload
// generates (HostCacheConfig::record_trace). This module persists such
// traces to CRC-protected files and replays them against a PaxDevice —
// letting device-side design points (buffer sizes, eviction policies, log
// batching) be evaluated against *recorded* workloads without rerunning
// the workload, the standard methodology for trace-driven cache studies.
//
// Replay semantics: host-originated messages drive the device the same way
// the live frontend did (RdShared → read_line, RdOwn → write_intent,
// DirtyEvict → writeback_line with deterministic synthetic payloads — the
// trace records addresses, not data, which device-side metrics don't need).
// Device-originated messages (SnpData, GO) are skipped. An optional epoch
// interval inserts persist() calls, since persists are runtime decisions
// rather than coherence traffic.
#pragma once

#include <string>
#include <vector>

#include "pax/common/status.hpp"
#include "pax/coherence/cxl.hpp"
#include "pax/device/pax_device.hpp"

namespace pax::coherence {

/// Writes `events` to `path` (CRC-protected binary format).
Status save_trace(const std::string& path,
                  const std::vector<CxlEvent>& events);

/// Loads a trace; fails with kCorruption on bad magic/CRC/truncation.
Result<std::vector<CxlEvent>> load_trace(const std::string& path);

struct TraceSummary {
  std::uint64_t total = 0;
  std::uint64_t rd_shared = 0;
  std::uint64_t rd_own = 0;
  std::uint64_t dirty_evicts = 0;
  std::uint64_t clean_evicts = 0;
  std::uint64_t snoops = 0;
  std::uint64_t distinct_lines = 0;
};
TraceSummary summarize_trace(const std::vector<CxlEvent>& events);

struct ReplayOptions {
  /// Call persist() after this many host-originated messages (0 = never,
  /// one persist at the end).
  std::uint64_t persist_every = 0;
};

struct ReplayReport {
  std::uint64_t messages_replayed = 0;
  std::uint64_t messages_skipped = 0;  // device-originated
  std::uint64_t persists = 0;
};

/// Replays `events` against `device`. Returns kOutOfSpace etc. if the
/// device rejects an operation.
Result<ReplayReport> replay_trace(const std::vector<CxlEvent>& events,
                                  device::PaxDevice* device,
                                  const ReplayOptions& options = {});

}  // namespace pax::coherence
