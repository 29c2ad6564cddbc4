// Integration test of the paxctl CLI: prepare pools/traces on disk, invoke
// the real binary, check exit codes and key output lines.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <string>

#include "pax/check/trace_file.hpp"
#include "pax/coherence/trace.hpp"
#include "pax/common/crc.hpp"
#include "pax/libpax/persistent.hpp"

#ifndef PAXCTL_PATH
#error "PAXCTL_PATH must be defined by the build"
#endif

namespace pax {
namespace {

struct CommandResult {
  int exit_code;
  std::string output;
};

CommandResult run(const std::string& args) {
  const std::string cmd = std::string(PAXCTL_PATH) + " " + args + " 2>&1";
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string output;
  std::array<char, 512> buf;
  while (std::fgets(buf.data(), buf.size(), pipe) != nullptr) {
    output += buf.data();
  }
  const int status = ::pclose(pipe);
  return {WEXITSTATUS(status), output};
}

const std::string kPool = "/tmp/paxctl_test.pool";

void make_pool(bool persist_something) {
  std::remove(kPool.c_str());
  auto rt = libpax::PaxRuntime::map_pool(kPool, 16 << 20).value();
  if (persist_something) {
    rt->vpm_base()[8192] = std::byte{0x7a};
    ASSERT_TRUE(rt->persist().ok());
  }
}

TEST(PaxctlTest, InfoOnValidPool) {
  make_pool(true);
  auto r = run("info " + kPool);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("committed epoch: 1"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("libpax heap:     present"), std::string::npos);
  EXPECT_EQ(r.output.find("banks"), std::string::npos) << r.output;
  std::remove(kPool.c_str());
}

TEST(PaxctlTest, VerifyCleanPool) {
  make_pool(true);
  auto r = run("verify " + kPool);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("OK   header"), std::string::npos);
  EXPECT_NE(r.output.find("pool is clean"), std::string::npos);
  std::remove(kPool.c_str());
}

TEST(PaxctlTest, LogDecodesRecords) {
  make_pool(true);
  auto r = run("log " + kPool);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("LINE_UNDO"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("stale"), std::string::npos);
  // One log over the whole extent: no second bank is listed.
  EXPECT_EQ(r.output.find("bank 1"), std::string::npos) << r.output;
  std::remove(kPool.c_str());
}

TEST(PaxctlTest, RecoverRunsOnPool) {
  make_pool(true);
  auto r = run("recover " + kPool);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("recovered to epoch 1"), std::string::npos)
      << r.output;
  std::remove(kPool.c_str());
}

TEST(PaxctlTest, HexdumpShowsBytes) {
  make_pool(true);
  auto r = run("hexdump " + kPool + " 0 32");
  EXPECT_EQ(r.exit_code, 0);
  // Pool magic "PAXPOOL1" appears in the ASCII column of the first line.
  EXPECT_NE(r.output.find("PAXPOOL1"), std::string::npos) << r.output;
  std::remove(kPool.c_str());
}

TEST(PaxctlTest, RejectsGarbageFile) {
  const std::string junk = "/tmp/paxctl_junk.bin";
  std::FILE* f = std::fopen(junk.c_str(), "wb");
  std::fputs("this is not a pool", f);
  std::fclose(f);
  auto r = run("info " + junk);
  EXPECT_NE(r.exit_code, 0);
  std::remove(junk.c_str());
}

TEST(PaxctlTest, TraceSummary) {
  const std::string trace_path = "/tmp/paxctl_test.trace";
  std::vector<coherence::CxlEvent> events = {
      {coherence::CxlOp::kRdShared, LineIndex{1}, false},
      {coherence::CxlOp::kRdOwn, LineIndex{2}, false},
      {coherence::CxlOp::kDirtyEvict, LineIndex{2}, true},
  };
  ASSERT_TRUE(coherence::save_trace(trace_path, events).is_ok());
  auto r = run("trace " + trace_path);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("3 messages"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("distinct lines touched: 2"), std::string::npos);
  std::remove(trace_path.c_str());
}

TEST(PaxctlTest, CheckRunsCleanWorkload) {
  auto r = run("check 32 4");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("paxcheck: clean"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("event(s)"), std::string::npos) << r.output;
}

TEST(PaxctlTest, ExploreCleanWorkloadSampled) {
  auto r = run("explore 2 2 --every 9");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("clean: every recovery matched"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("crash point(s)"), std::string::npos) << r.output;
}

TEST(PaxctlTest, CheckReplayRoundTrip) {
  // A .paxevt with one clean store/flush/drain sequence must replay clean.
  const std::string path = "/tmp/paxctl_test.paxevt";
  std::vector<check::Event> events;
  check::Event e;
  e.seq = 1;
  e.type = check::EventType::kStore;
  e.line = 42;
  events.push_back(e);
  e.seq = 2;
  e.type = check::EventType::kFlush;
  events.push_back(e);
  e.seq = 3;
  e.type = check::EventType::kDrain;
  e.line = check::kNoLine;
  events.push_back(e);
  ASSERT_TRUE(check::write_trace(path, events).is_ok());
  auto r = run("check --replay " + path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("replayed 3 event(s)"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("paxcheck: clean"), std::string::npos) << r.output;
  std::remove(path.c_str());
}

TEST(PaxctlTest, CheckReplayRejectsCorruptFile) {
  const std::string junk = "/tmp/paxctl_junk.paxevt";
  std::FILE* f = std::fopen(junk.c_str(), "wb");
  std::fputs("definitely not a paxevt trace", f);
  std::fclose(f);
  auto r = run("check --replay " + junk);
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find(".paxevt"), std::string::npos) << r.output;
  std::remove(junk.c_str());
}

TEST(PaxctlTest, AnalyzeFlagsRecordedUndoFlushTrace) {
  // Record the online-silent seeded bug via `fix --record`, then feed the
  // .paxevt back through `analyze`: nonzero exit, named finding kind.
  const std::string path = "/tmp/paxctl_scope.paxevt";
  auto rec = run("fix --scenario undo-flush --record " + path);
  ASSERT_NE(rec.output.find("undo-flush-window"), std::string::npos)
      << rec.output;

  auto r = run("analyze " + path);
  EXPECT_NE(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("undo-flush-window"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("hb edges"), std::string::npos) << r.output;

  auto j = run("analyze " + path + " --json");
  EXPECT_NE(j.exit_code, 0);
  EXPECT_NE(j.output.find("\"clean\":false"), std::string::npos) << j.output;
  EXPECT_NE(j.output.find("\"kind\":\"undo-flush-window\""),
            std::string::npos)
      << j.output;
  std::remove(path.c_str());
}

TEST(PaxctlTest, AnalyzeCleanReplayTraceExitsZero) {
  const std::string path = "/tmp/paxctl_scope_clean.paxevt";
  std::vector<check::Event> events;
  check::Event e;
  e.seq = 1;
  e.type = check::EventType::kStore;
  e.line = 42;
  events.push_back(e);
  e.seq = 2;
  e.type = check::EventType::kFlush;
  events.push_back(e);
  e.seq = 3;
  e.type = check::EventType::kDrain;
  e.line = check::kNoLine;
  events.push_back(e);
  ASSERT_TRUE(check::write_trace(path, events).is_ok());
  auto r = run("analyze " + path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("clean"), std::string::npos) << r.output;
  std::remove(path.c_str());
}

TEST(PaxctlTest, AnalyzeRejectsOlderTraceVersionByNumber) {
  // A well-formed trace whose header claims format v3 (CRC re-sealed):
  // the reader accepts only the current vocabulary and says which version
  // it refused.
  check::Event e;
  e.seq = 1;
  e.type = check::EventType::kDrain;
  const std::vector<check::Event> events{e};
  std::vector<std::byte> buf = check::encode_trace(events);
  const std::uint32_t version = 3;
  std::memcpy(buf.data() + 8, &version, sizeof(version));
  const std::uint32_t reseal = crc32c(buf.data(), 28);
  std::memcpy(buf.data() + 28, &reseal, sizeof(reseal));
  const std::string path = "/tmp/paxctl_scope_v3.paxevt";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(buf.data(), 1, buf.size(), f), buf.size());
  std::fclose(f);
  auto r = run("analyze " + path);
  EXPECT_NE(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("version 3"), std::string::npos) << r.output;
  std::remove(path.c_str());
}

TEST(PaxctlTest, FixValidateFlipsUndoFlushClean) {
  auto r = run("fix --scenario undo-flush --validate");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("FLIPPED CLEAN"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("hoist-log-flush"), std::string::npos) << r.output;
}

TEST(PaxctlTest, UsageOnBadInvocation) {
  auto r = run("frobnicate /tmp/x");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

}  // namespace
}  // namespace pax
