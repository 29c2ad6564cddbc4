#include "pax/check/analyze.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "pax/check/trace_file.hpp"

namespace pax::check {
namespace {

// Vector clock indexed by tid. Traces are small-tid (ring ids), so a dense
// vector beats a map; clocks grow lazily to the highest tid seen.
using Vc = std::vector<std::uint32_t>;

void vc_join(Vc& into, const Vc& other) {
  if (other.size() > into.size()) into.resize(other.size(), 0);
  for (std::size_t i = 0; i < other.size(); ++i) {
    into[i] = std::max(into[i], other[i]);
  }
}

// Did the event with clock value `idx` on thread `tid` happen-before the
// point whose clock is `at`? (Reflexive: an event HB-reaches itself.)
bool vc_covers(const Vc& at, std::uint16_t tid, std::uint32_t idx) {
  return tid < at.size() && at[tid] >= idx;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Lock-graph node: (LockClass, instance id) packed into one key.
std::uint64_t lock_node(std::uint8_t cls, std::uint64_t id) {
  return (static_cast<std::uint64_t>(cls) << 32) | (id & 0xffffffffull);
}

std::string lock_node_name(std::uint64_t node) {
  return describe_lock(static_cast<LockClass>(node >> 32),
                       node & 0xffffffffull);
}

}  // namespace

const char* finding_kind_name(FindingKind k) {
  switch (k) {
    case FindingKind::kLockCycle: return "lock-cycle";
    case FindingKind::kLockRankViolation: return "lock-rank-violation";
    case FindingKind::kCommitWindow: return "commit-window";
    case FindingKind::kWritebackWindow: return "writeback-window";
    case FindingKind::kUndoFlushWindow: return "undo-flush-window";
    case FindingKind::kOnlineViolation: return "online-violation";
  }
  return "unknown";
}

std::string Finding::to_string() const {
  std::ostringstream os;
  os << "[" << finding_kind_name(kind) << "] trace " << trace_index;
  if (seq != 0) os << " seq " << seq;
  os << ": " << detail;
  return os.str();
}

std::size_t AnalysisReport::count(FindingKind k) const {
  std::size_t n = 0;
  for (const auto& f : findings) {
    if (f.kind == k) ++n;
  }
  return n;
}

std::string AnalysisReport::to_string() const {
  std::ostringstream os;
  os << "paxscope: " << traces << " trace(s), " << stats.events
     << " events, " << stats.total_edges() << " hb edges ("
     << stats.program_edges << " program, " << stats.lock_edges << " lock, "
     << stats.gate_edges << " gate, " << stats.pipeline_edges
     << " pipeline)\n";
  if (findings.empty()) {
    os << "paxscope: clean — no predictive findings\n";
  } else {
    os << "paxscope: " << findings.size() << " finding(s)\n";
    for (const auto& f : findings) {
      os << "  " << f.to_string() << "\n";
    }
  }
  return os.str();
}

std::string AnalysisReport::to_json() const {
  std::ostringstream os;
  os << "{\"traces\":" << traces << ",\"events\":" << stats.events
     << ",\"hb_edges\":{\"total\":" << stats.total_edges()
     << ",\"program\":" << stats.program_edges
     << ",\"lock\":" << stats.lock_edges << ",\"gate\":" << stats.gate_edges
     << ",\"pipeline\":" << stats.pipeline_edges << "}"
     << ",\"clean\":" << (clean() ? "true" : "false") << ",\"findings\":[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i != 0) os << ",";
    os << "{\"kind\":\"" << finding_kind_name(f.kind) << "\",\"detail\":\""
       << json_escape(f.detail) << "\",\"trace\":" << f.trace_index
       << ",\"seq\":" << f.seq << ",\"line\":";
    if (f.line == kNoLine) {
      os << "null";
    } else {
      os << f.line;
    }
    os << ",\"epoch\":" << f.epoch << ",\"logger\":" << f.logger
       << ",\"log_end\":" << f.log_end << "}";
  }
  os << "]}";
  return os.str();
}

namespace internal {

// Aggregated lock graph. One node per (LockClass, instance); one directed
// edge per observed held→acquired pair, with the first observation kept as
// the diagnostic sample. Lives across add_trace calls.
struct LockGraph {
  struct EdgeInfo {
    std::uint64_t count = 0;
    std::size_t first_trace = 0;
    std::uint64_t first_seq = 0;
  };
  // Ordered map so reports are deterministic across runs.
  std::map<std::pair<std::uint64_t, std::uint64_t>, EdgeInfo> edges;

  void add_edge(std::uint64_t src, std::uint64_t dst, std::size_t trace,
                std::uint64_t seq) {
    if (src == dst) return;  // re-entry is the online checker's department
    EdgeInfo& info = edges[{src, dst}];
    if (info.count == 0) {
      info.first_trace = trace;
      info.first_seq = seq;
    }
    ++info.count;
  }
};

}  // namespace internal

namespace {

// Tarjan strongly-connected components over the aggregated lock graph.
// Graphs are tiny (a handful of lock instances), so clarity over speed.
struct SccFinder {
  const std::map<std::pair<std::uint64_t, std::uint64_t>,
                 internal::LockGraph::EdgeInfo>& edges;
  std::map<std::uint64_t, std::vector<std::uint64_t>> adj;
  std::map<std::uint64_t, int> index, lowlink;
  std::map<std::uint64_t, bool> on_stack;
  std::vector<std::uint64_t> stack;
  int next_index = 0;
  std::vector<std::vector<std::uint64_t>> sccs;

  explicit SccFinder(
      const std::map<std::pair<std::uint64_t, std::uint64_t>,
                     internal::LockGraph::EdgeInfo>& e)
      : edges(e) {
    for (const auto& [key, info] : edges) {
      adj[key.first].push_back(key.second);
      adj[key.second];  // ensure the sink exists as a node
    }
  }

  void run() {
    for (const auto& [node, _] : adj) {
      if (index.find(node) == index.end()) strongconnect(node);
    }
  }

  void strongconnect(std::uint64_t v) {
    index[v] = lowlink[v] = next_index++;
    stack.push_back(v);
    on_stack[v] = true;
    for (std::uint64_t w : adj[v]) {
      if (index.find(w) == index.end()) {
        strongconnect(w);
        lowlink[v] = std::min(lowlink[v], lowlink[w]);
      } else if (on_stack[w]) {
        lowlink[v] = std::min(lowlink[v], index[w]);
      }
    }
    if (lowlink[v] == index[v]) {
      std::vector<std::uint64_t> scc;
      for (;;) {
        std::uint64_t w = stack.back();
        stack.pop_back();
        on_stack[w] = false;
        scc.push_back(w);
        if (w == v) break;
      }
      if (scc.size() > 1) sccs.push_back(std::move(scc));
    }
  }
};

// ---- Per-trace happens-before pass -------------------------------------

struct HeldLock {
  std::uint8_t cls = 0;
  std::uint64_t id = 0;
  bool shared = false;
};

// Release history of one lock instance. An exclusive acquire ordered after
// every prior critical section joins the accumulated clock; a shared
// acquire is ordered only after the last exclusive section (concurrent
// readers don't order each other).
struct LockHistory {
  Vc all_releases;
  Vc last_exclusive;
  bool any_release = false;
  bool any_exclusive = false;
};

// One kLogFlush: the logger's durable watermark and the flushing point's
// clock, for gate edges and undo-coverage queries.
struct FlushMark {
  std::uint64_t durable = 0;
  std::uint64_t seq = 0;
  std::uint16_t tid = 0;
  std::uint32_t idx = 0;  // clock value of the flush on its own thread
  Vc vc;
};

struct DrainMark {
  std::uint16_t tid = 0;
  std::uint32_t idx = 0;
  Vc vc;
};

// Persist-order state of one data line within the current epoch.
struct LineWindow {
  bool stored = false;
  bool flushed = false;  // non-empty flush after the last store
  std::uint64_t store_seq = 0;
  std::uint64_t flush_seq = 0;
  std::uint16_t flush_tid = 0;
  std::uint32_t flush_idx = 0;
  // Outstanding undo record staged for this line (kLogAppend with no
  // HB-ordered covering kLogFlush yet).
  bool has_append = false;
  std::uint64_t append_logger = 0;
  std::uint64_t append_end = 0;
  std::uint64_t append_seq = 0;
};

struct TracePass {
  std::size_t trace_index;
  HbStats& stats;
  std::vector<Finding>& findings;
  internal::LockGraph& lock_graph;

  std::vector<Vc> clock;                 // per tid
  std::vector<bool> tid_seen;
  std::vector<std::vector<HeldLock>> held;  // per tid lock stack
  std::unordered_map<std::uint64_t, LockHistory> locks;
  std::unordered_map<std::uint64_t, std::vector<FlushMark>> log_flushes;
  std::unordered_map<std::uint64_t, Vc> pipeline_seal;  // epoch → seal clock
  std::unordered_map<std::uint64_t, LineWindow> lines;
  std::vector<std::uint64_t> epoch_lines;  // lines touched since last commit
  std::vector<DrainMark> drains;           // since last commit
  std::set<std::pair<std::uint64_t, std::uint64_t>> reported_windows;

  TracePass(std::size_t trace, HbStats& s, std::vector<Finding>& f,
            internal::LockGraph& graph)
      : trace_index(trace), stats(s), findings(f), lock_graph(graph) {}

  void ensure_tid(std::uint16_t tid) {
    if (tid >= clock.size()) {
      clock.resize(tid + 1);
      tid_seen.resize(tid + 1, false);
      held.resize(tid + 1);
    }
    if (tid >= clock[tid].size()) clock[tid].resize(tid + 1, 0);
  }

  Finding& add_finding(FindingKind kind, const Event& e, std::string detail) {
    Finding f;
    f.kind = kind;
    f.detail = std::move(detail);
    f.trace_index = trace_index;
    f.seq = e.seq;
    f.line = e.line;
    findings.push_back(std::move(f));
    return findings.back();
  }

  LineWindow& line(std::uint64_t l) { return lines[l]; }

  void track_epoch_line(std::uint64_t l) {
    if (std::find(epoch_lines.begin(), epoch_lines.end(), l) ==
        epoch_lines.end()) {
      epoch_lines.push_back(l);
    }
  }

  void process(const Event& e) {
    ensure_tid(e.tid);
    Vc& vc = clock[e.tid];
    ++vc[e.tid];
    if (tid_seen[e.tid]) {
      ++stats.program_edges;
    } else {
      tid_seen[e.tid] = true;
    }
    ++stats.events;

    switch (e.type) {
      case EventType::kLockAcquire: handle_lock_acquire(e, vc); break;
      case EventType::kLockRelease: handle_lock_release(e, vc); break;
      case EventType::kPipelineSeal:
        pipeline_seal[e.a] = vc;
        break;
      case EventType::kStore:
        if (e.line != kNoLine) {
          LineWindow& w = line(e.line);
          w.stored = true;
          w.flushed = false;
          w.store_seq = e.seq;
          track_epoch_line(e.line);
        }
        break;
      case EventType::kFlush:
        if (e.line != kNoLine && (e.flags & kFlagEmptyFlush) == 0) {
          handle_data_flush(e, vc);
        }
        break;
      case EventType::kDrain:
        drains.push_back({e.tid, vc[e.tid], vc});
        break;
      case EventType::kLogAppend:
        if (e.line != kNoLine) {
          LineWindow& w = line(e.line);
          w.has_append = true;
          w.append_logger = e.a;
          w.append_end = e.b;
          w.append_seq = e.seq;
          track_epoch_line(e.line);
        }
        break;
      case EventType::kLogFlush: {
        auto& marks = log_flushes[e.a];
        marks.push_back({e.b, e.seq, e.tid, vc[e.tid], vc});
        break;
      }
      case EventType::kLogReset:
        log_flushes.erase(e.a);
        for (auto& [l, w] : lines) {
          if (w.has_append && w.append_logger == e.a) w.has_append = false;
        }
        break;
      case EventType::kWriteback:
        handle_writeback(e, vc);
        break;
      case EventType::kEpochCommit: {
        auto it = pipeline_seal.find(e.a);
        if (it != pipeline_seal.end()) {
          vc_join(vc, it->second);
          pipeline_seal.erase(it);
          ++stats.pipeline_edges;
        }
        handle_commit(e, vc);
        break;
      }
      case EventType::kCrash:
        // Power loss: in-flight persist state is void. Locks and thread
        // clocks survive — the threads themselves did not restart.
        lines.clear();
        epoch_lines.clear();
        drains.clear();
        pipeline_seal.clear();
        break;
      case EventType::kPullInvoke:
      case EventType::kSyncPush:
      case EventType::kSyncBatchOk:
      case EventType::kSyncBatchFail:
      case EventType::kPipelinePage:
      case EventType::kEpochSubmit:
        break;
    }
  }

  void handle_lock_acquire(const Event& e, Vc& vc) {
    const auto cls = static_cast<std::uint8_t>(e.a);
    const bool shared = (e.flags & kFlagSharedLock) != 0;
    LockHistory& h = locks[lock_node(cls, e.b)];
    if (shared) {
      if (h.any_exclusive) {
        vc_join(vc, h.last_exclusive);
        ++stats.lock_edges;
      }
    } else if (h.any_release) {
      vc_join(vc, h.all_releases);
      ++stats.lock_edges;
    }
    const std::uint64_t dst = lock_node(cls, e.b);
    for (const HeldLock& held_lock : held[e.tid]) {
      lock_graph.add_edge(lock_node(held_lock.cls, held_lock.id), dst,
                          trace_index, e.seq);
    }
    held[e.tid].push_back({cls, e.b, shared});
  }

  void handle_lock_release(const Event& e, const Vc& vc) {
    const auto cls = static_cast<std::uint8_t>(e.a);
    bool shared = false;
    auto& stack = held[e.tid];
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (it->cls == cls && it->id == e.b) {
        shared = it->shared;
        stack.erase(std::next(it).base());
        break;
      }
    }
    LockHistory& h = locks[lock_node(cls, e.b)];
    vc_join(h.all_releases, vc);
    h.any_release = true;
    if (!shared) {
      h.last_exclusive = vc;
      h.any_exclusive = true;
    }
  }

  // A non-empty flush of a data line that still has an un-flushed undo
  // record staged: the flush makes the new data durable, so the record that
  // rolls it back must already be durable *and* ordered before this flush.
  void handle_data_flush(const Event& e, const Vc& vc) {
    LineWindow& w = line(e.line);
    if (w.has_append) {
      if (!undo_covered(w, vc, e.seq)) {
        if (reported_windows.insert({e.line, w.append_end}).second) {
          std::ostringstream os;
          os << "line " << e.line << " flushed (seq " << e.seq
             << ") while its undo record (logger " << w.append_logger
             << ", end " << w.append_end
             << ") has no happens-before-ordered durable log flush; a crash "
                "after this flush cannot roll the line back";
          Finding& f =
              add_finding(FindingKind::kUndoFlushWindow, e, os.str());
          f.logger = w.append_logger;
          f.log_end = w.append_end;
        }
      } else {
        w.has_append = false;  // covered; stop tracking this record
      }
    }
    w.flushed = true;
    w.flush_seq = e.seq;
    w.flush_tid = e.tid;
    w.flush_idx = vc[e.tid];
    track_epoch_line(e.line);
  }

  // Is there a kLogFlush of the record's logger whose durable watermark
  // covers `append_end` and that is ordered before the querying point?
  bool undo_covered(const LineWindow& w, const Vc& at,
                    std::uint64_t at_seq) const {
    auto it = log_flushes.find(w.append_logger);
    if (it == log_flushes.end()) return false;
    for (const FlushMark& m : it->second) {
      if (m.durable < w.append_end || m.seq > at_seq) continue;
      if (vc_covers(at, m.tid, m.idx)) return true;
    }
    return false;
  }

  void handle_writeback(const Event& e, Vc& vc) {
    if ((e.flags & kFlagGateObserved) != 0) {
      // The emitter observed the durable watermark: join the earliest
      // covering log flush (earliest is sound — later flushes of the same
      // logger are ordered after it by the log mutex, so transitively the
      // write-back is ordered after whichever flush actually published the
      // watermark it read).
      auto it = log_flushes.find(e.a);
      if (it != log_flushes.end()) {
        for (const FlushMark& m : it->second) {
          if (m.durable >= e.b) {
            vc_join(vc, m.vc);
            ++stats.gate_edges;
            break;
          }
        }
      }
      return;
    }
    if (e.b == 0) return;
    // Ungated write-back with a real undo dependency: some covering log
    // flush must be HB-before it. If none exists at all the online rule
    // (kWritebackBeforeUndoDurable) already fires — only the predictive
    // case (covered in seq order but not in HB order) is new information.
    auto it = log_flushes.find(e.a);
    if (it == log_flushes.end()) return;
    bool any_covering = false;
    for (const FlushMark& m : it->second) {
      if (m.durable < e.b || m.seq > e.seq) continue;
      any_covering = true;
      if (vc_covers(vc, m.tid, m.idx)) return;  // properly ordered
    }
    if (!any_covering) return;
    if (reported_windows.insert({e.line, e.b}).second) {
      std::ostringstream os;
      os << "write-back of line " << e.line << " (seq " << e.seq
         << ") depends on undo record end " << e.b << " of logger " << e.a
         << "; a covering log flush exists in sequence order but no "
            "happens-before edge enforces it";
      Finding& f = add_finding(FindingKind::kWritebackWindow, e, os.str());
      f.logger = e.a;
      f.log_end = e.b;
    }
  }

  void handle_commit(const Event& e, const Vc& vc) {
    for (std::uint64_t l : epoch_lines) {
      auto it = lines.find(l);
      if (it == lines.end()) continue;
      const LineWindow& w = it->second;
      if (!w.stored) continue;
      if (!w.flushed) {
        std::ostringstream os;
        os << "line " << l << " stored (seq " << w.store_seq
           << ") but never flushed before commit of epoch " << e.a << " (seq "
           << e.seq << ")";
        Finding& f = add_finding(FindingKind::kCommitWindow, e, os.str());
        f.line = l;
        f.epoch = e.a;
        continue;
      }
      if (!vc_covers(vc, w.flush_tid, w.flush_idx)) {
        std::ostringstream os;
        os << "flush of line " << l << " (seq " << w.flush_seq
           << ") is not happens-before the commit of epoch " << e.a
           << " (seq " << e.seq
           << "); the commit could legally overtake the flush";
        Finding& f = add_finding(FindingKind::kCommitWindow, e, os.str());
        f.line = l;
        f.epoch = e.a;
        continue;
      }
      if (!drain_covers(w, vc)) {
        std::ostringstream os;
        os << "no drain orders the flush of line " << l << " (seq "
           << w.flush_seq << ") before the commit of epoch " << e.a
           << " (seq " << e.seq << "); the flush may still be in flight";
        Finding& f = add_finding(FindingKind::kCommitWindow, e, os.str());
        f.line = l;
        f.epoch = e.a;
      }
    }
    // The epoch boundary: lines dirtied afterwards belong to the next
    // window, and pre-commit drains cannot fence post-commit flushes.
    for (std::uint64_t l : epoch_lines) {
      auto it = lines.find(l);
      if (it != lines.end() && !it->second.has_append) lines.erase(it);
      else if (it != lines.end()) it->second.stored = false;
    }
    epoch_lines.clear();
    drains.clear();
  }

  // Some drain must be ordered after the flush and before the commit.
  bool drain_covers(const LineWindow& w, const Vc& commit_vc) const {
    for (const DrainMark& d : drains) {
      if (vc_covers(d.vc, w.flush_tid, w.flush_idx) &&
          vc_covers(commit_vc, d.tid, d.idx)) {
        return true;
      }
    }
    return false;
  }
};

}  // namespace

TraceAnalyzer::TraceAnalyzer(AnalysisOptions options)
    : options_(options),
      lock_graph_(std::make_unique<internal::LockGraph>()) {}

TraceAnalyzer::~TraceAnalyzer() = default;

Status TraceAnalyzer::add_trace(std::span<const Event> events) {
  const std::size_t trace_index = traces_++;
  TracePass pass(trace_index, stats_, findings_, *lock_graph_);
  std::uint64_t prev_seq = 0;
  for (const Event& e : events) {
    if (e.seq < prev_seq) {
      return invalid_argument(
          "paxscope: trace is not in sequence order (seq " +
          std::to_string(e.seq) + " after " + std::to_string(prev_seq) + ")");
    }
    prev_seq = e.seq;
    pass.process(e);
  }
  if (options_.online_replay) {
    Checker checker;
    Report report = checker.replay(events);
    for (const Violation& v : report.violations) {
      Finding f;
      f.kind = FindingKind::kOnlineViolation;
      f.detail = std::string(rule_name(v.rule)) + ": " + v.detail;
      f.trace_index = trace_index;
      f.seq = v.backtrace.empty() ? 0 : v.backtrace.back().seq;
      f.line = v.line;
      findings_.push_back(std::move(f));
    }
  }
  return Status::ok();
}

AnalysisReport TraceAnalyzer::finish() {
  AnalysisReport report;
  report.findings = std::move(findings_);
  findings_.clear();
  report.stats = stats_;
  report.traces = traces_;
  // Rank pass: any aggregated edge from a higher rank to a lower one is
  // against the documented order, even if no single run blocked on it.
  for (const auto& [key, info] : lock_graph_->edges) {
    const std::uint64_t src_cls = key.first >> 32;
    const std::uint64_t dst_cls = key.second >> 32;
    if (src_cls > dst_cls) {
      Finding f;
      f.kind = FindingKind::kLockRankViolation;
      f.trace_index = info.first_trace;
      f.seq = info.first_seq;
      f.detail = "aggregated lock edge " + lock_node_name(key.first) +
                 " -> " + lock_node_name(key.second) +
                 " acquires against the documented order (seen " +
                 std::to_string(info.count) + "x, first at trace " +
                 std::to_string(info.first_trace) + " seq " +
                 std::to_string(info.first_seq) + ")";
      report.findings.push_back(std::move(f));
    }
  }
  // Cycle pass: strongly connected components of size > 1 are potential
  // deadlocks — even same-rank, same-class ones the online checker can
  // never flag, and even when the two halves of the inversion came from
  // different runs.
  SccFinder finder(lock_graph_->edges);
  finder.run();
  for (const auto& scc : finder.sccs) {
    std::set<std::uint64_t> members(scc.begin(), scc.end());
    std::ostringstream os;
    os << "potential deadlock cycle over " << scc.size() << " locks:";
    std::size_t first_trace = 0;
    std::uint64_t first_seq = 0;
    bool first = true;
    for (const auto& [key, info] : lock_graph_->edges) {
      if (members.count(key.first) == 0 || members.count(key.second) == 0) {
        continue;
      }
      os << " " << lock_node_name(key.first) << " -> "
         << lock_node_name(key.second) << " (trace "
         << info.first_trace << ", seq " << info.first_seq << ");";
      if (first) {
        first_trace = info.first_trace;
        first_seq = info.first_seq;
        first = false;
      }
    }
    os << " no single run blocked, but the orders compose into a cycle";
    Finding f;
    f.kind = FindingKind::kLockCycle;
    f.trace_index = first_trace;
    f.seq = first_seq;
    f.detail = os.str();
    report.findings.push_back(std::move(f));
  }
  // Severity order: cycles and rank problems first, then persist windows,
  // then what the online engine already knew.
  std::stable_sort(report.findings.begin(), report.findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return static_cast<int>(a.kind) <
                            static_cast<int>(b.kind);
                   });
  return report;
}

Result<AnalysisReport> analyze_trace_files(std::span<const std::string> paths,
                                           AnalysisOptions options) {
  TraceAnalyzer analyzer(options);
  for (const std::string& path : paths) {
    auto events = read_trace(path);
    if (!events.ok()) return events.status();
    PAX_RETURN_IF_ERROR(analyzer.add_trace(events.value()));
  }
  return analyzer.finish();
}

}  // namespace pax::check
