#include "pax/check/trace_file.hpp"

#include <cstdio>
#include <cstring>

#include "pax/common/crc.hpp"

namespace pax::check {
namespace {

// Field-by-field little-endian packing: the struct layout of Event is an
// in-memory concern and must not leak into the on-disk format.
template <typename T>
void put(std::byte* dst, std::size_t off, T value) {
  std::memcpy(dst + off, &value, sizeof(T));
}

template <typename T>
T get(const std::byte* src, std::size_t off) {
  T value;
  std::memcpy(&value, src + off, sizeof(T));
  return value;
}

// The last EventType: any type byte beyond it is corruption.
constexpr auto kMaxEventType =
    static_cast<std::uint8_t>(EventType::kEpochSubmit);

}  // namespace

std::vector<std::byte> encode_trace(std::span<const Event> events) {
  std::vector<std::byte> out(kTraceHeaderSize +
                             events.size() * kTraceRecordSize);
  std::byte* p = out.data() + kTraceHeaderSize;
  for (const Event& e : events) {
    put(p, 0, e.seq);
    put(p, 8, e.line);
    put(p, 16, e.a);
    put(p, 24, e.b);
    put(p, 32, static_cast<std::uint8_t>(e.type));
    put(p, 33, e.flags);
    put(p, 34, e.tid);
    put(p, 36, e.runtime);
    p += kTraceRecordSize;
  }
  std::byte* h = out.data();
  put(h, 0, kTraceMagic);
  put(h, 8, kTraceVersion);
  put(h, 12, std::uint32_t{0});
  put(h, 16, static_cast<std::uint64_t>(events.size()));
  put(h, 24, crc32c(out.data() + kTraceHeaderSize,
                    out.size() - kTraceHeaderSize));
  put(h, 28, crc32c(out.data(), 28));
  return out;
}

Result<std::vector<Event>> decode_trace(std::span<const std::byte> bytes) {
  if (bytes.size() < kTraceHeaderSize) {
    return corruption(".paxevt truncated: " + std::to_string(bytes.size()) +
                      " bytes, header needs " +
                      std::to_string(kTraceHeaderSize));
  }
  const std::byte* h = bytes.data();
  if (get<std::uint64_t>(h, 0) != kTraceMagic) {
    return corruption(".paxevt bad magic");
  }
  if (get<std::uint32_t>(h, 28) != crc32c(h, 28)) {
    return corruption(".paxevt header CRC mismatch");
  }
  const std::uint32_t version = get<std::uint32_t>(h, 8);
  if (version != kTraceVersion) {
    return invalid_argument(".paxevt version " + std::to_string(version) +
                            " not supported (this reader handles only " +
                            std::to_string(kTraceVersion) + ")");
  }
  const std::uint64_t count = get<std::uint64_t>(h, 16);
  // Overflow-safe size check: count came off disk, trust nothing.
  if (count > (bytes.size() - kTraceHeaderSize) / kTraceRecordSize ||
      bytes.size() != kTraceHeaderSize + count * kTraceRecordSize) {
    return corruption(".paxevt truncated: header claims " +
                      std::to_string(count) + " event(s), " +
                      std::to_string(bytes.size()) + " bytes present");
  }
  if (get<std::uint32_t>(h, 24) !=
      crc32c(h + kTraceHeaderSize, bytes.size() - kTraceHeaderSize)) {
    return corruption(".paxevt payload CRC mismatch");
  }

  std::vector<Event> events;
  events.reserve(count);
  const std::byte* p = h + kTraceHeaderSize;
  for (std::uint64_t i = 0; i < count; ++i, p += kTraceRecordSize) {
    const std::uint8_t raw_type = get<std::uint8_t>(p, 32);
    if (raw_type > kMaxEventType) {
      return corruption(".paxevt event " + std::to_string(i) +
                        " has unknown type " + std::to_string(raw_type));
    }
    Event e;
    e.seq = get<std::uint64_t>(p, 0);
    e.line = get<std::uint64_t>(p, 8);
    e.a = get<std::uint64_t>(p, 16);
    e.b = get<std::uint64_t>(p, 24);
    e.type = static_cast<EventType>(raw_type);
    e.flags = get<std::uint8_t>(p, 33);
    e.tid = get<std::uint16_t>(p, 34);
    e.runtime = get<std::uint32_t>(p, 36);
    events.push_back(e);
  }
  return events;
}

Status write_trace(const std::string& path, std::span<const Event> events) {
  const std::vector<std::byte> buf = encode_trace(events);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return io_error("cannot open " + path + " for writing");
  const std::size_t written = std::fwrite(buf.data(), 1, buf.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != buf.size() || !closed) {
    return io_error("short write to " + path);
  }
  return Status::ok();
}

Result<std::vector<Event>> read_trace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return io_error("cannot open " + path);
  std::vector<std::byte> buf;
  std::byte chunk[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    buf.insert(buf.end(), chunk, chunk + n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return io_error("read failed for " + path);
  return decode_trace(buf);
}

}  // namespace pax::check
