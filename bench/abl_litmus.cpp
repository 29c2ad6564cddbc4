// Litmus harness throughput: schedule-enumeration rate over all eight
// shapes, and the full crash product (every=1, all three modes) on the
// core shapes. Writes BENCH_litmus.json, gated by scripts/check_litmus.py:
// zero findings everywhere, all shapes covered, and interleavings/s +
// crash points/s above conservative floors (the CI litmus job runs this
// under ASan).
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "pax/litmus/runner.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using pax::litmus::LitmusOptions;
using pax::litmus::Shape;
using pax::litmus::ShapeResult;

struct Row {
  std::string shape;
  std::string mode;  // "schedule" | "crash"
  std::uint64_t interleavings = 0;
  std::uint64_t outcomes = 0;
  std::uint64_t crash_points = 0;
  std::uint64_t executions = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t findings = 0;
  double wall_ms = 0;
  double interleavings_per_sec = 0;
  double crash_points_per_sec = 0;
};

bool run_one(const Shape& shape, const LitmusOptions& options,
             const std::string& mode, std::vector<Row>& rows) {
  const auto t0 = Clock::now();
  auto result = pax::litmus::run_shape(shape, options);
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  if (!result.ok()) {
    std::fprintf(stderr, "litmus %s failed: %s\n", shape.name.c_str(),
                 result.status().to_string().c_str());
    return false;
  }
  const ShapeResult& r = result.value();
  Row row;
  row.shape = shape.name;
  row.mode = mode;
  row.interleavings = r.interleavings;
  row.outcomes = r.outcomes.size();
  row.crash_points = r.crash_points;
  row.executions = r.executions;
  row.recoveries = r.recoveries;
  row.findings = r.findings.size();
  row.wall_ms = ms;
  row.interleavings_per_sec = r.interleavings / (ms / 1000.0);
  row.crash_points_per_sec =
      r.crash_points == 0 ? 0.0 : r.crash_points / (ms / 1000.0);
  rows.push_back(row);
  std::printf("%-8s %-8s: %4" PRIu64 " interleaving(s), %5" PRIu64
              " crash point(s), %2" PRIu64 " finding(s) in %8.1f ms "
              "(%.0f interleavings/s)\n",
              shape.name.c_str(), mode.c_str(), row.interleavings,
              row.crash_points, row.findings, ms,
              row.interleavings_per_sec);
  return true;
}

}  // namespace

int main() {
  std::vector<Row> rows;

  // Schedule enumeration only, every shape, every interleaving.
  for (const Shape& shape : pax::litmus::all_shapes()) {
    LitmusOptions options;
    options.crash_every = 0;
    if (!run_one(shape, options, "schedule", rows)) return 1;
  }

  // Full crash product (exhaustive points, all three modes) on the
  // acceptance-matrix shapes.
  for (const char* name : {"SB", "MP", "LB"}) {
    const Shape* shape = pax::litmus::find_shape(name);
    LitmusOptions options;
    options.crash_every = 1;
    if (!run_one(*shape, options, "crash", rows)) return 1;
  }

  std::FILE* out = std::fopen("BENCH_litmus.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_litmus.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"litmus\",\n");
  std::fprintf(out, "  \"host_cpus\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        out,
        "    {\"shape\": \"%s\", \"mode\": \"%s\", \"interleavings\": "
        "%" PRIu64 ", \"outcomes\": %" PRIu64 ", \"crash_points\": %" PRIu64
        ", \"executions\": %" PRIu64 ", \"recoveries\": %" PRIu64
        ", \"findings\": %" PRIu64
        ", \"wall_ms\": %.1f, \"interleavings_per_sec\": %.1f, "
        "\"crash_points_per_sec\": %.1f}%s\n",
        r.shape.c_str(), r.mode.c_str(), r.interleavings, r.outcomes,
        r.crash_points, r.executions, r.recoveries, r.findings, r.wall_ms,
        r.interleavings_per_sec, r.crash_points_per_sec,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_litmus.json\n");
  return 0;
}
