#include "pax/check/repair.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <utility>

#include "pax/device/undo_logger.hpp"
#include "pax/pmem/pool.hpp"

namespace pax::check {
namespace {

constexpr std::size_t kScenarioDeviceBytes = 256 * 1024;
constexpr std::size_t kScenarioLogBytes = 32 * 1024;
constexpr Epoch kScenarioEpochs = 3;
constexpr std::uint64_t kScenarioLines = 2;

LineData patterned(std::uint64_t seed) {
  LineData d{};
  for (std::size_t i = 0; i < d.bytes.size(); ++i) {
    d.bytes[i] = static_cast<std::byte>((seed * 131 + i) & 0xff);
  }
  return d;
}

// "undo-flush": the §3.3 ordering bug the online checker cannot see. The
// undo record for each line is staged before the data store, but the log
// flush is deferred to the end of the epoch — after the data flushes. On
// the observed schedule everything still lands before the commit, so no
// online rule fires; yet a crash between a data flush and the deferred log
// flush leaves new data durable with no durable record to roll it back.
// The clean twin flushes the log (with its trailing drain) before each
// data store.
Status undo_flush_workload(pmem::PmemDevice& dev, CrashOracle& oracle,
                           bool buggy) {
  auto pool = pmem::PmemPool::create(&dev, kScenarioLogBytes);
  if (!pool.ok()) return pool.status();
  auto& p = pool.value();
  PAX_RETURN_IF_ERROR(oracle.note_commit(p.committed_epoch()));
  const std::size_t extent = p.log_size() & ~(kCacheLineSize - 1);
  device::UndoLogger logger(&dev, p.log_offset(), extent);
  for (Epoch e = 1; e <= kScenarioEpochs; ++e) {
    for (std::uint64_t i = 0; i < kScenarioLines; ++i) {
      const LineIndex line{p.data_offset() / kCacheLineSize + i};
      auto end = logger.log_line(e, line, dev.load_line(line));
      if (!end.ok()) return end.status();
      if (!buggy) logger.flush();  // record durable before the data flush
      dev.store_line(line, patterned(e * 16 + i));
      dev.flush_line(line);
    }
    logger.flush();  // buggy variant: records only become durable here
    dev.drain();
    p.commit_epoch(e);
    logger.reset_after_commit();
    PAX_RETURN_IF_ERROR(oracle.note_commit(e));
  }
  return Status::ok();
}

// "missing-flush": the undo protocol itself is correct (records durable
// before each data store), but the last line of every epoch is stored and
// never flushed before the commit — once the commit cell lands, the
// line's store is still in caches and a crash loses it with the epoch
// already durable. The online checker fires on this one
// (kUnflushedLineAtCommit); it exists to exercise the insert-flush repair
// action end to end.
Status missing_flush_workload(pmem::PmemDevice& dev, CrashOracle& oracle,
                              bool buggy) {
  auto pool = pmem::PmemPool::create(&dev, kScenarioLogBytes);
  if (!pool.ok()) return pool.status();
  auto& p = pool.value();
  PAX_RETURN_IF_ERROR(oracle.note_commit(p.committed_epoch()));
  const std::size_t extent = p.log_size() & ~(kCacheLineSize - 1);
  device::UndoLogger logger(&dev, p.log_offset(), extent);
  for (Epoch e = 1; e <= kScenarioEpochs; ++e) {
    for (std::uint64_t i = 0; i < kScenarioLines; ++i) {
      const LineIndex line{p.data_offset() / kCacheLineSize + i};
      auto end = logger.log_line(e, line, dev.load_line(line));
      if (!end.ok()) return end.status();
      logger.flush();  // record durable before the data store
      dev.store_line(line, patterned(e * 16 + i));
      if (!buggy || i + 1 != kScenarioLines) dev.flush_line(line);
    }
    dev.drain();
    p.commit_epoch(e);
    logger.reset_after_commit();
    PAX_RETURN_IF_ERROR(oracle.note_commit(e));
  }
  return Status::ok();
}

}  // namespace

const char* repair_action_kind_name(RepairActionKind k) {
  switch (k) {
    case RepairActionKind::kInsertFlushBeforeCommit:
      return "insert-flush-before-commit";
    case RepairActionKind::kHoistLogFlush:
      return "hoist-log-flush";
  }
  return "unknown";
}

std::string RepairAction::to_string() const {
  std::ostringstream os;
  os << repair_action_kind_name(kind);
  switch (kind) {
    case RepairActionKind::kInsertFlushBeforeCommit:
      os << ": flush line " << line << " + drain before commit of epoch "
         << epoch;
      break;
    case RepairActionKind::kHoistLogFlush:
      os << ": force log [" << logger << ", " << logger + log_end
         << ") durable before any flush of line " << line;
      break;
  }
  if (at_seq != 0) os << " (from trace seq " << at_seq << ")";
  return os.str();
}

std::string RepairPlan::to_string() const {
  if (actions.empty()) return "repair plan: nothing to repair\n";
  std::ostringstream os;
  os << "repair plan: " << actions.size() << " action(s)\n";
  for (const RepairAction& a : actions) {
    os << "  " << a.to_string() << "\n";
  }
  return os.str();
}

std::string RepairPlan::to_json() const {
  std::ostringstream os;
  os << "{\"actions\":[";
  for (std::size_t i = 0; i < actions.size(); ++i) {
    const RepairAction& a = actions[i];
    if (i != 0) os << ",";
    os << "{\"kind\":\"" << repair_action_kind_name(a.kind)
       << "\",\"line\":" << a.line << ",\"epoch\":" << a.epoch
       << ",\"logger\":" << a.logger << ",\"log_end\":" << a.log_end
       << ",\"at_seq\":" << a.at_seq << "}";
  }
  os << "]}";
  return os.str();
}

RepairPlan advise_repairs(const AnalysisReport& report) {
  RepairPlan plan;
  std::set<std::pair<std::uint64_t, std::uint64_t>> inserted;
  std::map<std::uint64_t, RepairAction> hoists;  // line → widest action
  for (const Finding& f : report.findings) {
    switch (f.kind) {
      case FindingKind::kCommitWindow:
        if (f.line != kNoLine && inserted.insert({f.epoch, f.line}).second) {
          RepairAction a;
          a.kind = RepairActionKind::kInsertFlushBeforeCommit;
          a.line = f.line;
          a.epoch = f.epoch;
          a.at_seq = f.seq;
          plan.actions.push_back(std::move(a));
        }
        break;
      case FindingKind::kUndoFlushWindow:
      case FindingKind::kWritebackWindow: {
        if (f.line == kNoLine) break;
        RepairAction& a = hoists[f.line];
        if (a.log_end == 0) {
          a.kind = RepairActionKind::kHoistLogFlush;
          a.line = f.line;
          a.logger = f.logger;
          a.at_seq = f.seq;
        }
        a.log_end = std::max(a.log_end, f.log_end);
        break;
      }
      case FindingKind::kLockCycle:
      case FindingKind::kLockRankViolation:
      case FindingKind::kOnlineViolation:
        break;  // no mechanical flush/fence repair
    }
  }
  for (auto& [line, action] : hoists) {
    plan.actions.push_back(std::move(action));
  }
  return plan;
}

RepairShim::RepairShim(const RepairPlan& plan) {
  for (const RepairAction& a : plan.actions) {
    switch (a.kind) {
      case RepairActionKind::kInsertFlushBeforeCommit: {
        auto it = std::find_if(
            insert_by_epoch_.begin(), insert_by_epoch_.end(),
            [&](const auto& entry) { return entry.first == a.epoch; });
        if (it == insert_by_epoch_.end()) {
          insert_by_epoch_.push_back({a.epoch, {a.line}});
        } else if (std::find(it->second.begin(), it->second.end(), a.line) ==
                   it->second.end()) {
          it->second.push_back(a.line);
        }
        break;
      }
      case RepairActionKind::kHoistLogFlush: {
        auto it = std::find_if(
            hoist_by_line_.begin(), hoist_by_line_.end(),
            [&](const auto& entry) { return entry.first == a.line; });
        if (it == hoist_by_line_.end()) {
          hoist_by_line_.push_back({a.line, {a.logger, a.log_end}});
        } else {
          it->second.log_end = std::max(it->second.log_end, a.log_end);
        }
        break;
      }
    }
  }
}

void RepairShim::before_epoch_commit(pmem::PmemDevice& dev,
                                     std::uint64_t epoch) {
  for (const auto& [plan_epoch, lines] : insert_by_epoch_) {
    if (plan_epoch != epoch) continue;
    for (std::uint64_t line : lines) {
      dev.flush_line(LineIndex{line});
    }
    dev.drain();
    activations_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
}

void RepairShim::before_flush(pmem::PmemDevice& dev, LineIndex line) {
  // The hoist's own flush_range re-enters this hook for each log line;
  // those lines carry no rules, so the recursion terminates immediately.
  for (const auto& [plan_line, hoist] : hoist_by_line_) {
    if (plan_line != line.value) continue;
    dev.flush_range(hoist.logger, hoist.log_end);
    dev.drain();
    activations_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
}

Result<RepairScenario> seeded_repair_scenario(const std::string& name,
                                              bool buggy) {
  RepairScenario s;
  s.name = name;
  s.device_bytes = kScenarioDeviceBytes;
  if (name == "undo-flush") {
    s.description =
        "undo-log flush deferred past the data flush (online-silent; a "
        "crash between them strands un-rollback-able data)";
    s.workload = [buggy](pmem::PmemDevice& dev, CrashOracle& oracle) {
      return undo_flush_workload(dev, oracle, buggy);
    };
    return s;
  }
  if (name == "missing-flush") {
    s.description = "one line per epoch is never flushed before the commit";
    s.workload = [buggy](pmem::PmemDevice& dev, CrashOracle& oracle) {
      return missing_flush_workload(dev, oracle, buggy);
    };
    return s;
  }
  return not_found("unknown repair scenario \"" + name +
                   "\" (try undo-flush or missing-flush)");
}

Result<std::vector<Event>> record_scenario_trace(const RepairScenario& s) {
  auto dev = pmem::PmemDevice::create_in_memory(s.device_bytes);
  CheckerOptions copts;
  copts.record_events = true;
  Checker checker(copts);
  dev->set_checker(&checker);
  CrashOracle oracle(dev.get());
  Status st = s.workload(*dev, oracle);
  dev->set_checker(nullptr);
  PAX_RETURN_IF_ERROR(st);
  return checker.recorded_events();
}

std::string RepairValidation::to_string() const {
  std::ostringstream os;
  os << "before repair: "
     << (before.clean() ? "clean" : std::to_string(before.findings.size()) +
                                        " crash finding(s), first bad point " +
                                        std::to_string(before.first_bad()))
     << "\n"
     << "after repair:  "
     << (after.clean() ? "clean" : std::to_string(after.findings.size()) +
                                       " crash finding(s), first bad point " +
                                       std::to_string(after.first_bad()))
     << "\n"
     << "repair actions fired " << activations << " time(s); verdict "
     << (flipped_clean() ? "FLIPPED CLEAN" : "unchanged") << "\n";
  return os.str();
}

Result<RepairValidation> validate_repair(const RepairScenario& scenario,
                                         const RepairPlan& plan,
                                         CrashExplorerOptions options) {
  RepairValidation v;
  {
    CrashExplorer explorer(scenario.device_bytes, scenario.workload, options);
    auto result = explorer.explore();
    if (!result.ok()) return result.status();
    v.before = std::move(result).value();
  }
  auto shim = std::make_shared<RepairShim>(plan);
  auto wrapped = [workload = scenario.workload, shim](
                     pmem::PmemDevice& dev, CrashOracle& oracle) {
    dev.set_repair_shim(shim.get());
    Status st = workload(dev, oracle);
    dev.set_repair_shim(nullptr);
    return st;
  };
  CrashExplorer explorer(scenario.device_bytes, std::move(wrapped), options);
  auto result = explorer.explore();
  if (!result.ok()) return result.status();
  v.after = std::move(result).value();
  v.activations = shim->activations();
  return v;
}

}  // namespace pax::check
