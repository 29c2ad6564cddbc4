// Corruption fuzzing of the .paxevt deserializer: truncated, bit-flipped,
// and other-version buffers must be rejected with a Status (never UB), and
// a clean round trip must replay to verdicts identical to the online
// checker's — the artifact a crash exploration leaves behind has to be
// trustworthy post-mortem evidence.
#include "pax/check/trace_file.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "pax/check/checker.hpp"
#include "pax/common/crc.hpp"
#include "pax/common/rng.hpp"
#include "pax/pmem/pmem_device.hpp"
#include "pax/pmem/pool.hpp"
#include "test_util.hpp"

namespace pax::check {
namespace {

// A short mixed workload with one seeded persist-order bug (a line stored
// but never flushed, present at commit), recorded by the online checker.
std::vector<Event> recorded_buggy_stream(Report* online_report) {
  auto tp = testing::TestPool::create();
  CheckerOptions options;
  options.record_events = true;
  Checker checker(options);
  tp.device->set_checker(&checker);

  tp.device->store_line(tp.data_line(3), testing::patterned_line(1));
  tp.device->store_line(tp.data_line(7), testing::patterned_line(2));
  tp.device->flush_line(tp.data_line(7));
  tp.device->drain();
  tp.pool.commit_epoch(1);  // line 3 was never flushed -> violation
  tp.device->store_line(tp.data_line(9), testing::patterned_line(3));
  tp.device->flush_line(tp.data_line(9));
  tp.device->drain();
  tp.pool.commit_epoch(2);

  *online_report = checker.report();
  auto events = checker.recorded_events();
  tp.device->set_checker(nullptr);
  return events;
}

TEST(PaxevtRoundTrip, ReplayVerdictsMatchOnlineChecker) {
  Report online;
  const std::vector<Event> events = recorded_buggy_stream(&online);
  ASSERT_FALSE(online.clean());
  ASSERT_FALSE(events.empty());

  const std::vector<std::byte> encoded = encode_trace(events);
  auto decoded = decode_trace(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  ASSERT_EQ(decoded.value().size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(decoded.value()[i].seq, events[i].seq) << "event " << i;
    EXPECT_EQ(decoded.value()[i].type, events[i].type) << "event " << i;
    EXPECT_EQ(decoded.value()[i].line, events[i].line) << "event " << i;
  }

  Checker offline;
  const Report replayed = offline.replay(decoded.value());
  ASSERT_EQ(replayed.violations.size(), online.violations.size());
  for (std::size_t i = 0; i < online.violations.size(); ++i) {
    EXPECT_EQ(replayed.violations[i].rule, online.violations[i].rule);
    EXPECT_EQ(replayed.violations[i].line, online.violations[i].line);
  }
  EXPECT_EQ(replayed.diagnostics.redundant_flushes,
            online.diagnostics.redundant_flushes);
}

TEST(PaxevtRoundTrip, FileRoundTripThroughDisk) {
  Report online;
  const std::vector<Event> events = recorded_buggy_stream(&online);
  const std::string path =
      ::testing::TempDir() + "/paxevt_roundtrip.paxevt";
  ASSERT_TRUE(write_trace(path, events).is_ok());
  auto reread = read_trace(path);
  ASSERT_TRUE(reread.ok()) << reread.status().to_string();
  Checker offline;
  EXPECT_EQ(offline.replay(reread.value()).violations.size(),
            online.violations.size());
  std::remove(path.c_str());
}

TEST(PaxevtFuzz, EveryTruncationIsRejectedCleanly) {
  Report online;
  const std::vector<Event> events = recorded_buggy_stream(&online);
  const std::vector<std::byte> encoded = encode_trace(events);
  // Every strict prefix must fail: either the header is short, the size
  // no longer matches the count, or the payload CRC breaks.
  for (std::size_t len = 0; len < encoded.size();
       len += 1 + len / 7) {  // dense near 0, sparser later
    auto decoded =
        decode_trace(std::span<const std::byte>(encoded.data(), len));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes accepted";
  }
}

class PaxevtBitFlip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PaxevtBitFlip, FlippedBytesNeverYieldAcceptedDifferingStream) {
  Report online;
  const std::vector<Event> events = recorded_buggy_stream(&online);
  const std::vector<std::byte> pristine = encode_trace(events);

  Xoshiro256 rng(GetParam());
  for (int round = 0; round < 64; ++round) {
    std::vector<std::byte> corrupt = pristine;
    const std::uint64_t flips = 1 + rng.next_below(8);
    for (std::uint64_t f = 0; f < flips; ++f) {
      const std::size_t at = rng.next_below(corrupt.size());
      corrupt[at] ^= static_cast<std::byte>(1 + rng.next_below(255));
    }
    auto decoded = decode_trace(corrupt);
    if (!decoded.ok()) continue;  // rejected, as it should be
    // Accepted means the flips cancelled back to the original bytes; the
    // CRCs make silently-different accepted streams unreachable.
    ASSERT_EQ(corrupt, pristine);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaxevtBitFlip,
                         ::testing::Values(1u, 2u, 3u, 0xdeadu, 0xbeefu));

// Rewrites the version field of an encoded trace and re-seals the header
// CRC, leaving the records untouched, so only the version check can reject
// the result.
std::vector<std::byte> with_version(std::vector<std::byte> buf,
                                    std::uint32_t version) {
  std::memcpy(buf.data() + 8, &version, sizeof(version));
  const std::uint32_t reseal = crc32c(buf.data(), 28);
  std::memcpy(buf.data() + 28, &reseal, sizeof(reseal));
  return buf;
}

TEST(PaxevtFuzz, VersionSkewIsRejectedWithClearMessage) {
  Report online;
  const std::vector<Event> events = recorded_buggy_stream(&online);
  const std::vector<std::byte> encoded = encode_trace(events);
  ASSERT_TRUE(decode_trace(encoded).ok());
  // Older vocabularies and a future one alike fail by number, not by a
  // coincidental CRC or type-byte mismatch.
  for (std::uint32_t version : {1u, 2u, 3u, 5u}) {
    SCOPED_TRACE(::testing::Message() << "version " << version);
    auto decoded = decode_trace(with_version(encoded, version));
    ASSERT_FALSE(decoded.ok());
    EXPECT_NE(decoded.status().to_string().find(
                  "version " + std::to_string(version)),
              std::string::npos)
        << decoded.status().to_string();
  }
}

TEST(PaxevtFuzz, UnknownEventTypeIsRejected) {
  Report online;
  const std::vector<Event> events = recorded_buggy_stream(&online);
  // Corrupt record 0's type to the first byte past the vocabulary, and to
  // the largest, re-sealing both CRCs; the per-record validation must
  // still reject it.
  const auto first_unknown =
      static_cast<std::uint8_t>(EventType::kEpochSubmit) + 1;
  ASSERT_EQ(first_unknown, 18);
  for (int type : {first_unknown, 0xff}) {
    std::vector<std::byte> bad = encode_trace(events);
    bad[kTraceHeaderSize + 32] = static_cast<std::byte>(type);
    const std::uint32_t reseal = crc32c(bad.data() + kTraceHeaderSize,
                                        bad.size() - kTraceHeaderSize);
    std::memcpy(bad.data() + 24, &reseal, sizeof(reseal));
    const std::uint32_t hseal = crc32c(bad.data(), 28);
    std::memcpy(bad.data() + 28, &hseal, sizeof(hseal));
    auto decoded = decode_trace(bad);
    ASSERT_FALSE(decoded.ok()) << "type " << type;
    EXPECT_NE(decoded.status().to_string().find("type"), std::string::npos);
  }
}

TEST(PaxevtFuzz, MissingFileIsAnIoError) {
  auto missing = read_trace("/nonexistent/paxevt/path.paxevt");
  ASSERT_FALSE(missing.ok());
}

// --- Format v4 record material -------------------------------------------

// Events exercising the record fields the buggy stream above leaves at
// zero: the gate-observed write-back flag and the emitting runtime's id on
// the sync and pipeline events, across two threads.
std::vector<Event> v4_feature_stream() {
  std::vector<Event> events;
  std::uint64_t seq = 0;
  auto push = [&](EventType type, std::uint64_t line, std::uint64_t a,
                  std::uint64_t b, std::uint8_t flags, std::uint16_t tid,
                  std::uint32_t runtime) {
    Event e;
    e.seq = ++seq;
    e.line = line;
    e.a = a;
    e.b = b;
    e.type = type;
    e.flags = flags;
    e.tid = tid;
    e.runtime = runtime;
    events.push_back(e);
  };
  push(EventType::kPipelineSeal, kNoLine, 1, 1, 0, 0, 7);
  push(EventType::kPipelinePage, 64, 1, 0, 0, 0, 7);
  push(EventType::kSyncPush, 65, 0, 0, 0, 1, 7);
  push(EventType::kSyncBatchOk, kNoLine, 0, 0, 0, 1, 7);
  push(EventType::kLogAppend, 65, 4096, 96, 0, 1, 0);
  push(EventType::kLogFlush, kNoLine, 4096, 96, 0, 1, 0);
  push(EventType::kWriteback, 65, 4096, 96, kFlagGateObserved, 1, 0);
  push(EventType::kEpochSubmit, kNoLine, 1, 0, 0, 1, 7);
  push(EventType::kEpochCommit, kNoLine, 1, 0, 0, 1, 0);
  return events;
}

TEST(PaxevtVersioning, WriterEmitsCurrentVersion) {
  EXPECT_EQ(kTraceVersion, 4u);
  const std::vector<std::byte> buf = encode_trace(v4_feature_stream());
  std::uint32_t version = 0;
  std::memcpy(&version, buf.data() + 8, sizeof(version));
  EXPECT_EQ(version, kTraceVersion);
}

TEST(PaxevtVersioning, RoundTripPreservesGateFlagsAndRuntimeIds) {
  const std::vector<Event> events = v4_feature_stream();
  auto decoded = decode_trace(encode_trace(events));
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  ASSERT_EQ(decoded.value().size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& got = decoded.value()[i];
    EXPECT_EQ(got.type, events[i].type) << "event " << i;
    EXPECT_EQ(got.flags, events[i].flags) << "event " << i;
    EXPECT_EQ(got.tid, events[i].tid) << "event " << i;
    EXPECT_EQ(got.a, events[i].a) << "event " << i;
    EXPECT_EQ(got.runtime, events[i].runtime) << "event " << i;
  }
  Checker checker;
  const Report report = checker.replay(decoded.value());
  EXPECT_TRUE(report.clean()) << report.to_string();
}

TEST(PaxevtFuzz, V4TruncationsAndBitFlipsRejectedCleanly) {
  // The corruption sweeps above run on a stream of device events; repeat
  // both over the gate flags and runtime ids.
  const std::vector<std::byte> pristine = encode_trace(v4_feature_stream());
  for (std::size_t len = 0; len < pristine.size(); ++len) {
    EXPECT_FALSE(
        decode_trace(std::span<const std::byte>(pristine.data(), len)).ok())
        << "prefix of " << len << " bytes accepted";
  }
  Xoshiro256 rng(0x5eedu);
  for (int round = 0; round < 128; ++round) {
    std::vector<std::byte> corrupt = pristine;
    const std::uint64_t flips = 1 + rng.next_below(4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      corrupt[rng.next_below(corrupt.size())] ^=
          static_cast<std::byte>(1 + rng.next_below(255));
    }
    auto decoded = decode_trace(corrupt);
    if (!decoded.ok()) continue;
    ASSERT_EQ(corrupt, pristine);
  }
}

}  // namespace
}  // namespace pax::check
