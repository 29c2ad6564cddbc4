#include "pax/litmus/runner.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "pax/check/trace_file.hpp"
#include "pax/common/check.hpp"
#include "pax/device/pax_device.hpp"
#include "pax/pmem/pool.hpp"

namespace pax::litmus {
namespace {

// Evenly sampled indices [0, n) of size <= cap (cap 0 = all), always
// keeping the first and last — the tail is where teardown-adjacent
// schedules live, mirroring the explorer's crash-point sampling.
std::vector<std::size_t> sample_indices(std::size_t n, std::size_t cap) {
  std::vector<std::size_t> picks;
  if (cap == 0 || n <= cap) {
    picks.resize(n);
    for (std::size_t i = 0; i < n; ++i) picks[i] = i;
    return picks;
  }
  picks.reserve(cap);
  for (std::size_t i = 0; i < cap; ++i) {
    picks.push_back(i * (n - 1) / (cap > 1 ? cap - 1 : 1));
  }
  picks.erase(std::unique(picks.begin(), picks.end()), picks.end());
  return picks;
}

}  // namespace

coherence::HostCacheConfig litmus_cache_config() {
  coherence::HostCacheConfig config;
  config.l1 = {1024, 2};
  config.l2 = {4 * 1024, 4};
  config.llc = {16 * 1024, 8};
  return config;
}

std::string LitmusFinding::to_string() const {
  std::string out = "[" + kind + "] " + shape + " interleaving " +
                    std::to_string(interleaving) + " (" + schedule + ")";
  if (crash_after != check::kNoCrashPoint) {
    out += ", crash after event " + std::to_string(crash_after) + " [" +
           mode + "]";
  } else {
    out += ", no crash (schedule pass)";
  }
  out += ": " + detail;
  return out;
}

std::string ShapeResult::to_string() const {
  std::string out =
      "litmus " + shape + ": " + std::to_string(interleavings) + "/" +
      std::to_string(interleavings_total) + " interleaving(s), " +
      std::to_string(outcomes.size()) + " distinct outcome(s), " +
      std::to_string(crash_points) + " crash point(s), " +
      std::to_string(executions) + " execution(s), " +
      std::to_string(recoveries) + " audited recovery/ies";
  if (findings.empty()) {
    out += "\n  clean: no forbidden outcome, every execution matched its SC "
           "schedule, all crash audits passed";
  } else {
    out += "\n  " + std::to_string(findings.size()) + " finding(s)";
    for (const LitmusFinding& f : findings) {
      out += "\n  " + f.to_string();
    }
  }
  return out;
}

std::vector<PoolOffset> var_offsets(const Shape& shape,
                                    const pmem::PmemPool& pool) {
  std::vector<PoolOffset> offsets(shape.vars, 0);
  for (unsigned v = 0; v < shape.vars; ++v) {
    const std::size_t stride =
        shape.same_line ? sizeof(std::uint64_t) : kCacheLineSize;
    offsets[v] = pool.data_offset() + v * stride;
    PAX_CHECK(offsets[v] + sizeof(std::uint64_t) <=
              pool.data_offset() + pool.data_size());
  }
  return offsets;
}

Status execute_interleaving(pmem::PmemDevice& device,
                            check::CrashOracle& oracle, const Shape& shape,
                            std::span<const unsigned> order,
                            const coherence::DomainFaults& faults,
                            Outcome* out) {
  auto pool = pmem::PmemPool::create(&device, kLitmusLogBytes);
  if (!pool.ok()) return pool.status();

  device::PaxDevice pax(&pool.value(), device::DeviceConfig{});
  PAX_RETURN_IF_ERROR(oracle.note_commit(pool.value().committed_epoch()));

  coherence::CoherenceDomain domain(&pax, litmus_cache_config(),
                                    shape.core_count());
  domain.set_faults(faults);

  const auto offsets = var_offsets(shape, pool.value());
  std::vector<std::uint64_t> regs(shape.regs, 0);
  std::vector<std::size_t> cursor(shape.cores.size(), 0);
  PAX_CHECK(order.size() == shape.op_count());
  for (unsigned core : order) {
    const Op& op = shape.cores.at(core).at(cursor[core]++);
    if (op.kind == OpKind::kStore) {
      PAX_RETURN_IF_ERROR(domain.store_u64(core, offsets[op.var], op.value));
    } else {
      regs[op.reg] = domain.load_u64(core, offsets[op.var]);
    }
  }

  auto committed = domain.persist(&pax);
  if (!committed.ok()) return committed.status();
  PAX_RETURN_IF_ERROR(oracle.note_commit(committed.value()));

  // Power loss: every core's volatile state vanishes. The finals are what
  // a fresh core then observes — exactly the durable post-recovery values,
  // so a persist that lost a host-cached update shows up right here.
  domain.drop_all_without_writeback();
  std::vector<std::uint64_t> finals(shape.vars, 0);
  for (unsigned v = 0; v < shape.vars; ++v) {
    finals[v] = domain.load_u64(0, offsets[v]);
  }

  if (out != nullptr) {
    out->regs = std::move(regs);
    out->finals = std::move(finals);
  }
  return Status::ok();
}

Result<ShapeResult> run_shape(const Shape& shape,
                              const LitmusOptions& options) {
  ShapeResult result;
  result.shape = shape.name;

  const auto orders = enumerate_interleavings(shape);
  result.interleavings_total = orders.size();
  const auto picks =
      sample_indices(orders.size(), options.max_interleavings);

  std::set<std::string> outcomes;
  for (std::size_t index : picks) {
    const std::vector<unsigned>& order = orders[index];
    const std::string schedule = schedule_string(order);
    const Outcome expected = simulate_sc(shape, order);

    const auto add_finding = [&](std::string kind, std::string detail,
                                 std::uint64_t crash_after,
                                 std::string mode) {
      LitmusFinding finding;
      finding.shape = shape.name;
      finding.interleaving = index;
      finding.schedule = schedule;
      finding.crash_after = crash_after;
      finding.mode = std::move(mode);
      finding.kind = std::move(kind);
      finding.detail = std::move(detail);
      result.findings.push_back(std::move(finding));
    };

    // --- Schedule pass ---------------------------------------------------
    {
      auto device = pmem::PmemDevice::create_in_memory(kLitmusDeviceBytes);
      check::CheckerOptions checker_options;
      checker_options.record_events = !options.trace_dir.empty();
      check::Checker checker(checker_options);
      device->set_checker(&checker);
      check::CrashOracle oracle(device.get());
      Outcome got;
      const Status executed = execute_interleaving(
          *device, oracle, shape, order, options.faults, &got);
      device->set_checker(nullptr);
      PAX_RETURN_IF_ERROR(executed);
      ++result.executions;
      outcomes.insert(got.to_string());

      if (shape.forbidden(got)) {
        add_finding("forbidden-outcome",
                    "outcome \"" + got.to_string() +
                        "\" matches forbidden predicate [" +
                        shape.forbidden_desc + "]",
                    check::kNoCrashPoint, "");
      }
      if (!(got == expected)) {
        add_finding("sc-divergence",
                    "observed \"" + got.to_string() +
                        "\" but this schedule's SC outcome is \"" +
                        expected.to_string() + "\"",
                    check::kNoCrashPoint, "");
      }
      const check::Report report = checker.report();
      if (!report.clean()) {
        add_finding("paxcheck",
                    "online rules fired: " +
                        report.violations.front().to_string(),
                    check::kNoCrashPoint, "");
      }
      if (!options.trace_dir.empty()) {
        const std::string path = options.trace_dir + "/litmus-" +
                                 shape.name + "-i" + std::to_string(index) +
                                 ".paxevt";
        PAX_RETURN_IF_ERROR(
            check::write_trace(path, checker.recorded_events()));
      }
    }

    // --- Crash product ---------------------------------------------------
    if (options.crash_every > 0 &&
        (options.max_findings == 0 ||
         result.findings.size() < options.max_findings)) {
      check::CrashExplorerOptions explorer_options;
      explorer_options.every = options.crash_every;
      explorer_options.max_crash_points = options.max_crash_points;
      explorer_options.seed = options.seed;
      explorer_options.modes = options.modes;
      explorer_options.max_findings =
          options.max_findings == 0
              ? 0
              : options.max_findings - result.findings.size();

      const coherence::DomainFaults faults = options.faults;
      check::CrashExplorer explorer(
          kLitmusDeviceBytes,
          [&shape, &order, faults](pmem::PmemDevice& device,
                                   check::CrashOracle& oracle) -> Status {
            return execute_interleaving(device, oracle, shape, order, faults,
                                        nullptr);
          },
          explorer_options);
      // Once the final epoch is the recovered one, the durable variables
      // must be the SC finals — this is what catches a persist that never
      // pulled (or a snoop that dropped) a host-Modified line, which the
      // explorer's own image audit cannot see (its committed images come
      // from the same buggy execution).
      explorer.set_invariant(
          [&shape, expected](pmem::PmemPool& pool,
                             Epoch recovered) -> Status {
            if (recovered < 1) return Status::ok();
            const auto offsets = var_offsets(shape, pool);
            for (unsigned v = 0; v < shape.vars; ++v) {
              std::uint64_t durable = 0;
              pool.device()->read_durable(
                  offsets[v],
                  std::as_writable_bytes(std::span(&durable, 1)));
              if (durable != expected.finals[v]) {
                return corruption(
                    "durable " + var_name(v) + " = " +
                    std::to_string(durable) +
                    " diverges from this schedule's SC final " +
                    std::to_string(expected.finals[v]));
              }
            }
            return Status::ok();
          });

      auto explored = explorer.explore();
      if (!explored.ok()) return explored.status();
      const check::ExplorationResult& r = explored.value();
      result.crash_points += r.crash_points;
      result.executions += r.executions;
      result.recoveries += r.recoveries;
      for (const check::CrashFinding& f : r.findings) {
        add_finding("crash-audit", f.detail, f.crash_after, f.mode);
      }
    }

    ++result.interleavings;
    if (options.max_findings > 0 &&
        result.findings.size() >= options.max_findings) {
      break;
    }
  }

  result.outcomes.assign(outcomes.begin(), outcomes.end());
  return result;
}

}  // namespace pax::litmus
