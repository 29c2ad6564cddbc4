#include "pax/check/crashpoint.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "pax/check/trace_file.hpp"
#include "pax/device/recovery.hpp"

namespace pax::check {

// --- CrashOracle ---------------------------------------------------------

Status CrashOracle::note_commit(Epoch epoch) {
  if (!commits_.empty() && epoch <= commits_.back().epoch) {
    return invalid_argument(
        "oracle epochs must be strictly increasing (got " +
        std::to_string(epoch) + " after " +
        std::to_string(commits_.back().epoch) + ")");
  }
  commits_.push_back({epoch, device_->crash_events()});
  const std::size_t index = commits_.size() - 1;
  if (!pre_commit_.has_value() ||
      (index != *pre_commit_ && index != *pre_commit_ + 1)) {
    return Status::ok();
  }
  auto pool = pmem::PmemPool::open(device_);
  if (!pool.ok()) return pool.status();
  Image& image = index == *pre_commit_ ? pre_.emplace() : post_.emplace();
  image.epoch = epoch;
  image.data.resize(pool.value().data_size());
  device_->read_durable(pool.value().data_offset(), image.data);
  return Status::ok();
}

std::uint64_t CrashOracle::baseline_events() const {
  return commits_.empty() ? 0 : commits_.front().events_at;
}

std::size_t CrashOracle::commit_before(std::uint64_t crash_after) const {
  std::size_t pre = 0;
  for (std::size_t i = 0; i < commits_.size(); ++i) {
    if (commits_[i].events_at <= crash_after) pre = i;
  }
  return pre;
}

Status CrashOracle::check_recovered(pmem::PmemPool& pool) const {
  if (!pre_.has_value()) {
    return failed_precondition("oracle holds no commit before the crash");
  }
  const Epoch recovered = pool.committed_epoch();

  // The pre epoch is the newest commit at or before the crash point. The
  // only other legal outcome is the next committed epoch: the crash landed
  // inside its persist, after the epoch cell became durable but before
  // note_commit observed it.
  const Image* expected = nullptr;
  if (recovered == pre_->epoch) {
    expected = &*pre_;
  } else if (post_.has_value() && recovered == post_->epoch) {
    expected = &*post_;
  }
  if (expected == nullptr) {
    const std::string post = post_.has_value()
                                 ? std::to_string(post_->epoch)
                                 : std::string("(none exists)");
    return corruption("recovered epoch " + std::to_string(recovered) +
                      " is neither pre-epoch " +
                      std::to_string(pre_->epoch) + " nor post-epoch " +
                      post);
  }

  // Compare a page at a time: copying the whole extent for every recovery
  // would cost more than the comparison itself.
  std::array<std::byte, kPageSize> chunk;
  for (std::size_t off = 0; off < expected->data.size(); off += kPageSize) {
    const std::span<std::byte> got = std::span(chunk).first(
        std::min(kPageSize, expected->data.size() - off));
    pool.device()->read_durable(pool.data_offset() + off, got);
    const auto mismatch =
        std::mismatch(got.begin(), got.end(), expected->data.begin() + off);
    if (mismatch.first != got.end()) {
      const std::size_t at =
          off + static_cast<std::size_t>(mismatch.first - got.begin());
      return corruption("recovered data extent diverges from epoch " +
                        std::to_string(expected->epoch) +
                        " image at data line " +
                        std::to_string(at / kCacheLineSize) + " (byte " +
                        std::to_string(at) + ")");
    }
  }
  return Status::ok();
}

// --- Options / results ---------------------------------------------------

std::vector<CrashMode> CrashExplorerOptions::default_modes(
    std::uint64_t seed) {
  return {
      {"drop_all", pmem::CrashConfig::drop_all()},
      {"random", pmem::CrashConfig::random(0.5, seed)},
      {"torn", pmem::CrashConfig::torn(0.5, seed)},
  };
}

std::string CrashFinding::to_string() const {
  std::string out = "crash after event " + std::to_string(crash_after) +
                    " [" + mode + "]: " + detail;
  if (!artifact.empty()) out += "\n    artifact: " + artifact;
  return out;
}

std::uint64_t ExplorationResult::first_bad() const {
  std::uint64_t best = kNoCrashPoint;
  for (const CrashFinding& f : findings) {
    best = std::min(best, f.crash_after);
  }
  return best;
}

std::string ExplorationResult::to_string() const {
  std::string out =
      "crash exploration: " + std::to_string(crash_points) +
      " crash point(s) of " + std::to_string(total_events) +
      " event(s), " + std::to_string(epochs) + " committed epoch(s), " +
      std::to_string(executions) + " execution(s), " +
      std::to_string(recoveries) + " audited recovery/ies";
  if (findings.empty()) {
    out += "\n  clean: every recovery matched a committed image";
  } else {
    out += "\n  " + std::to_string(findings.size()) +
           " finding(s), first bad crash index " +
           std::to_string(first_bad());
    for (const CrashFinding& f : findings) {
      out += "\n  " + f.to_string();
    }
  }
  return out;
}

// --- Determinism drift diagnostics ---------------------------------------

namespace {

// A re-execution disagreed with the reference on the crash-countable event
// count. Diff the two countable subsequences and name the first diverging
// event, so the failure localizes the nondeterminism instead of reporting
// bare counts.
std::string describe_event_drift(std::span<const Event> reference,
                                 std::span<const Event> redo,
                                 std::uint64_t expected,
                                 std::uint64_t observed) {
  const auto countable = [](std::span<const Event> events) {
    std::vector<Event> kept;
    for (const Event& e : events) {
      if (is_crash_countable(e.type)) kept.push_back(e);
    }
    return kept;
  };
  const auto describe = [](const Event& e) {
    std::string out = event_type_name(e.type);
    if (e.line != kNoLine) out += " line " + std::to_string(e.line);
    return out;
  };

  std::string out = "workload is not deterministic: reference run counted " +
                    std::to_string(expected) +
                    " crash-countable event(s), re-execution " +
                    std::to_string(observed);
  const std::vector<Event> ref = countable(reference);
  const std::vector<Event> got = countable(redo);
  const std::size_t common = std::min(ref.size(), got.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (ref[i].type == got[i].type && ref[i].line == got[i].line) continue;
    out += "; first divergence at countable event " + std::to_string(i + 1) +
           ": reference " + describe(ref[i]) + " vs re-execution " +
           describe(got[i]);
    return out;
  }
  if (ref.size() != got.size()) {
    const bool ref_longer = ref.size() > got.size();
    const Event& extra = ref_longer ? ref[common] : got[common];
    out += "; streams agree through countable event " +
           std::to_string(common) + ", then the re-execution " +
           (ref_longer ? "ends early (next reference event: " +
                             describe(extra) + ")"
                       : "appends extra " + describe(extra));
  } else {
    out += "; the recorded streams are identical — the drift arose outside "
           "the recorded window";
  }
  return out;
}

}  // namespace

// --- Stream truncation ---------------------------------------------------

std::span<const Event> truncate_at_crash_event(std::span<const Event> events,
                                               std::uint64_t n) {
  std::uint64_t counted = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (!is_crash_countable(events[i].type)) continue;
    if (++counted == n) return events.first(i + 1);
  }
  return events;
}

// --- CrashExplorer -------------------------------------------------------

CrashExplorer::CrashExplorer(std::size_t device_bytes, Workload workload,
                             CrashExplorerOptions options)
    : device_bytes_(device_bytes),
      workload_(std::move(workload)),
      options_(std::move(options)) {
  if (options_.modes.empty()) {
    options_.modes = CrashExplorerOptions::default_modes(options_.seed);
  }
  if (options_.every == 0) options_.every = 1;
}

Result<ExplorationResult> CrashExplorer::explore() {
  ExplorationResult result;

  // Reference pass: count events, record the stream, note each commit.
  auto ref_device = pmem::PmemDevice::create_in_memory(device_bytes_);
  CheckerOptions ref_options;
  ref_options.record_events = true;
  Checker ref_checker(ref_options);
  ref_device->set_checker(&ref_checker);
  CrashOracle oracle(ref_device.get());
  const Status ref_status = workload_(*ref_device, oracle);
  ref_device->set_checker(nullptr);
  PAX_RETURN_IF_ERROR(ref_status);
  if (oracle.commits_.empty()) {
    return failed_precondition(
        "workload never called CrashOracle::note_commit");
  }
  result.total_events = ref_device->crash_events();
  result.executions = 1;
  result.epochs = oracle.commits_.size();
  const std::vector<Event> reference = ref_checker.recorded_events();

  // Crash points: a stride-`every` grid over (baseline, total], evenly
  // resampled when max_crash_points bites — sampling must not silently
  // drop the tail, where teardown-adjacent bugs live.
  std::vector<std::uint64_t> points;
  for (std::uint64_t p = oracle.baseline_events() + 1;
       p <= result.total_events; p += options_.every) {
    points.push_back(p);
  }
  if (options_.max_crash_points > 0 &&
      points.size() > options_.max_crash_points) {
    std::vector<std::uint64_t> sampled;
    sampled.reserve(options_.max_crash_points);
    const std::size_t n = points.size();
    const std::size_t m = options_.max_crash_points;
    for (std::size_t i = 0; i < m; ++i) {
      sampled.push_back(points[i * (n - 1) / (m - 1 > 0 ? m - 1 : 1)]);
    }
    sampled.erase(std::unique(sampled.begin(), sampled.end()),
                  sampled.end());
    points = std::move(sampled);
  }

  for (std::uint64_t point : points) {
    PAX_RETURN_IF_ERROR(audit_crash_point(point, reference,
                                          oracle.commit_before(point),
                                          result));
    ++result.crash_points;
    if (options_.max_findings > 0 &&
        result.findings.size() >= options_.max_findings) {
      break;
    }
  }
  return result;
}

Status CrashExplorer::audit_crash_point(std::uint64_t point,
                                        std::span<const Event> reference,
                                        std::size_t pre_commit,
                                        ExplorationResult& result) {
  // Re-execute with a consistent-cut capture armed at `point`; the oracle
  // keeps this execution's images of the commits around the cut. The
  // stream is recorded (rules off — the reference pass already audited a
  // clean run) purely so a determinism drift can name its first diverging
  // event.
  auto device = pmem::PmemDevice::create_in_memory(device_bytes_);
  device->arm_crash_point(point);
  CheckerOptions redo_options;
  redo_options.rules = false;
  redo_options.record_events = true;
  Checker redo(redo_options);
  device->set_checker(&redo);
  CrashOracle oracle(device.get(), pre_commit);
  const Status rerun = workload_(*device, oracle);
  device->set_checker(nullptr);
  PAX_RETURN_IF_ERROR(rerun);
  ++result.executions;
  if (device->crash_events() != result.total_events) {
    return failed_precondition(
        describe_event_drift(reference, redo.recorded_events(),
                             result.total_events, device->crash_events()));
  }
  auto cut = device->take_crash_cut();
  if (!cut.has_value()) {
    return failed_precondition("armed crash cut at event " +
                               std::to_string(point) +
                               " was never captured");
  }
  const std::span<const Event> prefix =
      truncate_at_crash_event(reference, point);

  for (const CrashMode& mode : options_.modes) {
    auto crashed =
        pmem::PmemDevice::create_in_memory_from(cut->resolve(mode.config));

    CheckerOptions audit_options;
    audit_options.record_events = true;  // artifacts want the full stream
    Checker audit(audit_options);
    audit.replay(prefix);
    audit.on_crash();
    crashed->set_checker(&audit);

    std::string failure;
    auto pool = pmem::PmemPool::open(crashed.get());
    if (!pool.ok()) {
      failure = "pool unreadable after crash: " + pool.status().to_string();
    } else {
      auto recovery = device::recover_pool(pool.value());
      ++result.recoveries;
      if (!recovery.ok()) {
        failure = "recovery failed: " + recovery.status().to_string();
      } else {
        Status invariant = oracle.check_recovered(pool.value());
        if (invariant.is_ok() && invariant_) {
          invariant =
              invariant_(pool.value(), pool.value().committed_epoch());
        }
        if (!invariant.is_ok()) failure = invariant.to_string();
      }
    }
    crashed->set_checker(nullptr);

    Report report = audit.report();
    if (failure.empty() && report.clean()) continue;
    if (failure.empty()) {
      failure = "paxcheck: " + report.violations.front().to_string();
    }

    CrashFinding finding;
    finding.crash_after = point;
    finding.mode = mode.name;
    finding.detail = std::move(failure);
    finding.audit = std::move(report);
    if (!options_.artifact_dir.empty()) {
      const std::string path = options_.artifact_dir + "/crash-" +
                               std::to_string(point) + "-" + mode.name +
                               ".paxevt";
      const Status wrote = write_trace(path, audit.recorded_events());
      if (wrote.is_ok()) {
        finding.artifact = path;
      } else {
        finding.detail += " (artifact write failed: " + wrote.to_string() +
                          ")";
      }
    }
    result.findings.push_back(std::move(finding));
  }
  return Status::ok();
}

}  // namespace pax::check
