// perfbench — the pax benchmark binary. Runs one workload against the real
// stack and prints one JSON object: the metrics (end-to-end ones, or with
// --trace 1 the per-layer ones), attempted/failed counts, named
// correctness and counter-identity failures, and build facts.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--trace-file PATH] [--short]
//
// perfbench/run.py builds this binary and is the intended entry point.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

bool sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print(const RunResult& r) {
  std::string out = "{\"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out += (i ? ", " : "") + json_string(m.name) +
           ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  out += "}, \"errors\": [";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    out += (i ? ", " : "") + json_string(r.errors[i]);
  }
  out += "], \"known\": [";
  for (std::size_t i = 0; i < r.known.size(); ++i) {
    out += (i ? ", " : "") + json_string(r.known[i]);
  }
  out += "], \"info\": {";
  for (std::size_t i = 0; i < r.info.size(); ++i) {
    out += (i ? ", " : "") + json_string(r.info[i].first) + ": " +
           json_number(r.info[i].second);
  }
  out += "}, \"build\": {\"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
         ", \"compiler\": " + json_string(PERFBENCH_COMPILER) + "}}";
  std::printf("%s\n", out.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 [--trace-file PATH] [--short]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--trace-file" && has_value) {
      opt.trace_file = argv[++i];
    } else if (arg == "--short") {
      opt.short_mode = true;
    } else {
      return usage();
    }
  }
  if (!(opt.seconds > 0) || (opt.trace && opt.trace_file.empty())) {
    return usage();
  }

  // Timings from unoptimized or sanitizer builds are not comparable.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
  const bool debug = true;
#else
  const bool debug = build_type == "Debug";
#endif
  if (debug || sanitized()) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s%s build\n",
                 build_type.c_str(), sanitized() ? " sanitizer" : " debug");
    return 3;
  }

  RunResult r;
  if (opt.workload == "kv_write_hot" || opt.workload == "kv_read_wide") {
    r = run_kv(opt);
  } else if (opt.workload == "persist_sparse" ||
             opt.workload == "persist_dense") {
    r = run_persist(opt);
  } else {
    return usage();
  }
  if (!opt.trace) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    r.metric("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
  }
  print(r);
  return r.errors.empty() ? 0 : 1;
}
