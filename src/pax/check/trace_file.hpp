// .paxevt — versioned on-disk container for a PaxCheck event stream.
//
// A failing crash exploration (crashpoint.hpp) should leave behind
// something a developer can re-run the rule engines over without
// reconstructing the workload; this format is that artifact. The captured
// stream is everything the attached Checker processed (stores, flushes,
// drains, log/device/sync events, locks) — it deliberately does NOT carry
// data bytes, so a trace replays verdicts, not media contents.
//
// Layout (little-endian, fixed offsets):
//
//   [ 0..8)   magic "PAXEVT1\n"
//   [ 8..12)  format version (kTraceVersion)
//   [12..16)  reserved, zero
//   [16..24)  event count
//   [24..28)  CRC32C of the event payload
//   [28..32)  CRC32C of header bytes [0, 28)
//   [32.. )   events, 40 bytes each: seq, line, a, b (u64), type (u8),
//             flags (u8), tid (u16), runtime (u32; zero padding before v3)
//
// decode_trace rejects — with a Status, never UB — truncated buffers
// (size inconsistent with the count), bit flips (either CRC), unknown
// versions, and out-of-range event-type bytes. Bumping the format requires
// bumping kTraceVersion; old readers then refuse new files explicitly
// instead of misparsing them.
//
// Version history (records stay 40 bytes; the magic names the container,
// the version field the vocabulary):
//   v1 — event types through kPipelinePage.
//   v2 — adds the fork-join types (kTaskDispatch..kTaskJoin) and the
//        kFlagGateObserved flag on kWriteback. v1 files decode
//        byte-for-byte identically.
//   v3 — adds kEpochSubmit and the emitting runtime's id on the sync and
//        pipeline events (the old padding word, so v1/v2 files read as
//        runtime 0, which the push-after-failed-batch rule ignores). The
//        writer always emits v3.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "pax/check/event.hpp"
#include "pax/common/status.hpp"

namespace pax::check {

inline constexpr std::uint64_t kTraceMagic = 0x0a31545645584150ULL;  // "PAXEVT1\n"
inline constexpr std::uint32_t kTraceVersion = 3;
inline constexpr std::size_t kTraceHeaderSize = 32;
inline constexpr std::size_t kTraceRecordSize = 40;

/// A decoded trace plus the format version it was written with. Analyses
/// that depend on v2-only records (gate flags, fork-join brackets) use the
/// version to fall back to the lenient v1 interpretation on old artifacts.
struct Trace {
  std::uint32_t version = kTraceVersion;
  std::vector<Event> events;
};

/// Serializes an event stream into a .paxevt byte buffer (current version).
std::vector<std::byte> encode_trace(std::span<const Event> events);

/// Validates and decodes a .paxevt byte buffer back into events. Accepts
/// every version up to kTraceVersion, enforcing that version's event-type
/// range.
Result<std::vector<Event>> decode_trace(std::span<const std::byte> bytes);

/// decode_trace, but also reports the file's format version.
Result<Trace> decode_trace_versioned(std::span<const std::byte> bytes);

/// encode_trace + atomic-enough file write (whole buffer, one open).
Status write_trace(const std::string& path, std::span<const Event> events);

/// Reads and decode_trace's a .paxevt file.
Result<std::vector<Event>> read_trace(const std::string& path);

/// Reads a .paxevt file, keeping the version alongside the events.
Result<Trace> read_trace_versioned(const std::string& path);

}  // namespace pax::check
