// .paxevt — on-disk container for a PaxCheck event stream.
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
//             flags (u8), tid (u16), runtime (u32)
//
// The version names the event vocabulary (EventType, event.hpp): a reader
// accepts exactly kTraceVersion, so a change to the vocabulary or the
// record layout bumps it and files of any other version are refused by
// number. decode_trace rejects — with a Status, never UB — truncated
// buffers (size inconsistent with the count), bit flips (either CRC),
// other versions, and out-of-range event-type bytes.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "pax/check/event.hpp"
#include "pax/common/status.hpp"

namespace pax::check {

// "PAXEVT1\n"
inline constexpr std::uint64_t kTraceMagic = 0x0a31545645584150ULL;
inline constexpr std::uint32_t kTraceVersion = 4;
inline constexpr std::size_t kTraceHeaderSize = 32;
inline constexpr std::size_t kTraceRecordSize = 40;

/// Serializes an event stream into a .paxevt byte buffer.
std::vector<std::byte> encode_trace(std::span<const Event> events);

/// Validates and decodes a .paxevt byte buffer back into events. Accepts
/// only kTraceVersion.
Result<std::vector<Event>> decode_trace(std::span<const std::byte> bytes);

/// encode_trace + atomic-enough file write (whole buffer, one open).
Status write_trace(const std::string& path, std::span<const Event> events);

/// Reads and decode_trace's a .paxevt file.
Result<std::vector<Event>> read_trace(const std::string& path);

}  // namespace pax::check
