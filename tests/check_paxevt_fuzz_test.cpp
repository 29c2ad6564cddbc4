// Corruption fuzzing of the .paxevt deserializer: truncated, bit-flipped,
// and version-skewed buffers must be rejected with a Status (never UB), and
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

TEST(PaxevtFuzz, VersionSkewIsRejectedWithClearMessage) {
  Report online;
  const std::vector<Event> events = recorded_buggy_stream(&online);
  std::vector<std::byte> skewed = encode_trace(events);
  // Bump the version and re-seal the header CRC so ONLY the version check
  // can reject it — a future-format file must fail parse-proof, not
  // CRC-coincidentally.
  const std::uint32_t future = kTraceVersion + 1;
  std::memcpy(skewed.data() + 8, &future, sizeof(future));
  const std::uint32_t reseal = crc32c(skewed.data(), 28);
  std::memcpy(skewed.data() + 28, &reseal, sizeof(reseal));
  auto decoded = decode_trace(skewed);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().to_string().find("version"), std::string::npos)
      << decoded.status().to_string();
}

TEST(PaxevtFuzz, UnknownEventTypeIsRejected) {
  Report online;
  const std::vector<Event> events = recorded_buggy_stream(&online);
  std::vector<std::byte> bad = encode_trace(events);
  // Corrupt record 0's type to an out-of-range value and re-seal the
  // payload CRC; the per-record validation must still reject it.
  bad[kTraceHeaderSize + 32] = std::byte{0xff};
  const std::uint32_t reseal = crc32c(
      bad.data() + kTraceHeaderSize, bad.size() - kTraceHeaderSize);
  std::memcpy(bad.data() + 24, &reseal, sizeof(reseal));
  const std::uint32_t hseal = crc32c(bad.data(), 28);
  std::memcpy(bad.data() + 28, &hseal, sizeof(hseal));
  auto decoded = decode_trace(bad);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().to_string().find("type"), std::string::npos);
}

TEST(PaxevtFuzz, MissingFileIsAnIoError) {
  auto missing = read_trace("/nonexistent/paxevt/path.paxevt");
  ASSERT_FALSE(missing.ok());
}

// --- v1 ↔ v2 format compatibility ---------------------------------------

// Rewrites the version field of an encoded trace and re-seals the header
// CRC, leaving the records untouched — a byte-faithful stand-in for a file
// written by the previous release.
std::vector<std::byte> with_version(std::vector<std::byte> buf,
                                    std::uint32_t version) {
  std::memcpy(buf.data() + 8, &version, sizeof(version));
  const std::uint32_t reseal = crc32c(buf.data(), 28);
  std::memcpy(buf.data() + 28, &reseal, sizeof(reseal));
  return buf;
}

// Events exercising everything v2 added: fork/join brackets and the
// gate-observed write-back flag, interleaved with v1-era types.
std::vector<Event> v2_feature_stream() {
  std::vector<Event> events;
  std::uint64_t seq = 0;
  auto push = [&](EventType type, std::uint64_t line, std::uint64_t a,
                  std::uint64_t b, std::uint8_t flags, std::uint16_t tid) {
    Event e;
    e.seq = ++seq;
    e.line = line;
    e.a = a;
    e.b = b;
    e.type = type;
    e.flags = flags;
    e.tid = tid;
    events.push_back(e);
  };
  push(EventType::kLogAppend, 5, 4096, 96, 0, 0);
  push(EventType::kLogFlush, kNoLine, 4096, 96, 0, 0);
  push(EventType::kTaskDispatch, kNoLine, 42, 0, 0, 0);
  push(EventType::kTaskBegin, kNoLine, 42, 0, 0, 1);
  push(EventType::kWriteback, 5, 4096, 96, kFlagGateObserved, 1);
  push(EventType::kTaskEnd, kNoLine, 42, 0, 0, 1);
  push(EventType::kTaskJoin, kNoLine, 42, 0, 0, 0);
  push(EventType::kEpochCommit, kNoLine, 1, 0, 0, 0);
  return events;
}

TEST(PaxevtVersioning, WriterEmitsCurrentVersion) {
  const std::vector<std::byte> buf = encode_trace(v2_feature_stream());
  auto trace = decode_trace_versioned(buf);
  ASSERT_TRUE(trace.ok()) << trace.status().to_string();
  EXPECT_EQ(trace.value().version, kTraceVersion);
  EXPECT_EQ(kTraceVersion, 3u);
}

TEST(PaxevtVersioning, V2RoundTripPreservesTaskAndGateRecords) {
  const std::vector<Event> events = v2_feature_stream();
  auto trace = decode_trace_versioned(encode_trace(events));
  ASSERT_TRUE(trace.ok()) << trace.status().to_string();
  ASSERT_EQ(trace.value().events.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(trace.value().events[i].type, events[i].type) << "event " << i;
    EXPECT_EQ(trace.value().events[i].flags, events[i].flags)
        << "event " << i;
    EXPECT_EQ(trace.value().events[i].a, events[i].a) << "event " << i;
  }
}

TEST(PaxevtVersioning, V1FileDecodesByteForByte) {
  // A stream of v1-era event types only, stamped version 1: exactly what a
  // pre-v2 writer produced (the record layout never changed).
  Report online;
  const std::vector<Event> events = recorded_buggy_stream(&online);
  const std::vector<std::byte> v1 = with_version(encode_trace(events), 1);
  auto trace = decode_trace_versioned(v1);
  ASSERT_TRUE(trace.ok()) << trace.status().to_string();
  EXPECT_EQ(trace.value().version, 1u);
  ASSERT_EQ(trace.value().events.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(trace.value().events[i].seq, events[i].seq);
    EXPECT_EQ(trace.value().events[i].type, events[i].type);
    EXPECT_EQ(trace.value().events[i].line, events[i].line);
  }
  // The unversioned reader accepts it too.
  EXPECT_TRUE(decode_trace(v1).ok());
}

TEST(PaxevtVersioning, DigestApplyTracesStillDecodeAndReplayClean) {
  // The trailing-digest sync path emitted DIGEST_APPLY after each batch
  // outcome. No code emits it any more, but v1 and v2 files holding it
  // must still decode, and replay must not mistake it for a violation.
  std::vector<Event> events;
  for (EventType type : {EventType::kSyncPush, EventType::kSyncBatchOk,
                         EventType::kDigestApply, EventType::kEpochCommit}) {
    Event e;
    e.seq = events.size() + 1;
    e.type = type;
    e.line = type == EventType::kSyncBatchOk ||
                     type == EventType::kEpochCommit
                 ? kNoLine
                 : 9;
    e.a = type == EventType::kEpochCommit ? 1 : 0;
    events.push_back(e);
  }
  for (std::uint32_t version : {1u, 2u}) {
    SCOPED_TRACE(::testing::Message() << "version " << version);
    auto trace =
        decode_trace_versioned(with_version(encode_trace(events), version));
    ASSERT_TRUE(trace.ok()) << trace.status().to_string();
    ASSERT_EQ(trace.value().events.size(), events.size());
    EXPECT_EQ(trace.value().events[2].type, EventType::kDigestApply);
    Checker checker;
    const Report report = checker.replay(trace.value().events);
    EXPECT_TRUE(report.clean()) << report.to_string();
  }
}

TEST(PaxevtVersioning, PreV3BatchFailuresDoNotArmTheStickyRule) {
  // Before v3 the sync events carried no runtime id, and the runtime that
  // wrote them could retry after a failed batch. Replayed, a retry after a
  // failure must not read as a push or commit by a failed runtime.
  std::vector<Event> events;
  for (EventType type : {EventType::kSyncPush, EventType::kSyncBatchFail,
                         EventType::kSyncPush, EventType::kSyncBatchOk,
                         EventType::kEpochCommit}) {
    Event e;
    e.seq = events.size() + 1;
    e.type = type;
    e.line = type == EventType::kSyncPush ? 9 : kNoLine;
    e.a = type == EventType::kEpochCommit ? 1 : 0;
    events.push_back(e);
  }
  auto trace = decode_trace_versioned(with_version(encode_trace(events), 2));
  ASSERT_TRUE(trace.ok()) << trace.status().to_string();
  Checker checker;
  const Report report = checker.replay(trace.value().events);
  EXPECT_TRUE(report.clean()) << report.to_string();
}

TEST(PaxevtVersioning, V2RejectsV3EventTypes) {
  Event submit;
  submit.seq = 1;
  submit.type = EventType::kEpochSubmit;
  submit.a = 1;
  submit.b = 1;
  const std::vector<Event> events{submit};
  EXPECT_TRUE(decode_trace_versioned(encode_trace(events)).ok());
  auto trace = decode_trace_versioned(with_version(encode_trace(events), 2));
  ASSERT_FALSE(trace.ok());
  EXPECT_NE(trace.status().to_string().find("type"), std::string::npos)
      << trace.status().to_string();
}

TEST(PaxevtVersioning, V1RejectsV2EventTypes) {
  // A v1 file cannot contain fork/join records: a version-1 header over a
  // stream with kTaskDispatch must fail the per-record type check, not
  // silently misdecode.
  const std::vector<std::byte> skewed =
      with_version(encode_trace(v2_feature_stream()), 1);
  auto trace = decode_trace_versioned(skewed);
  ASSERT_FALSE(trace.ok());
  EXPECT_NE(trace.status().to_string().find("type"), std::string::npos)
      << trace.status().to_string();
}

TEST(PaxevtFuzz, V2TruncationsAndBitFlipsRejectedCleanly) {
  // The corruption sweeps above run on a v1-era stream; repeat both over
  // the new record material (task brackets, gate flags).
  const std::vector<std::byte> pristine = encode_trace(v2_feature_stream());
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
