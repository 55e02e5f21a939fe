#include "comm/wire_format.hpp"

namespace dbfs::comm {

const char* to_string(WireFormat f) {
  switch (f) {
    case WireFormat::kRaw:
      return "raw";
    case WireFormat::kSieve:
      return "sieve";
    case WireFormat::kBitmap:
      return "bitmap";
    case WireFormat::kVarint:
      return "varint";
    case WireFormat::kAuto:
      return "auto";
  }
  return "?";
}

double WireStats::compression_ratio() const noexcept {
  if (raw_bytes == 0) return 1.0;
  return static_cast<double>(encoded_bytes) / static_cast<double>(raw_bytes);
}

double WireStats::raw_block_share() const noexcept {
  const std::uint64_t total = blocks_items + blocks_bitmap + blocks_varint;
  if (total == 0) return 0.0;
  return static_cast<double>(blocks_items) / static_cast<double>(total);
}

WireFormat parse_wire_format(const std::string& name) {
  if (name == "raw") return WireFormat::kRaw;
  if (name == "sieve") return WireFormat::kSieve;
  if (name == "bitmap") return WireFormat::kBitmap;
  if (name == "varint") return WireFormat::kVarint;
  if (name == "auto") return WireFormat::kAuto;
  throw std::invalid_argument("unknown wire format: " + name);
}

void put_uvarint(std::vector<std::uint8_t>& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

std::size_t uvarint_size(std::uint64_t value) noexcept {
  std::size_t bytes = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++bytes;
  }
  return bytes;
}

std::size_t get_uvarint(const std::uint8_t* data, std::size_t size,
                        std::uint64_t* value) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < size && i < 10; ++i) {
    v |= static_cast<std::uint64_t>(data[i] & 0x7F) << (7 * i);
    if ((data[i] & 0x80) == 0) {
      *value = v;
      return i + 1;
    }
  }
  throw WireDecodeError("wire: truncated or overlong varint");
}

namespace detail {

Frame read_frame(const std::uint8_t* data, std::size_t size) {
  if (size == 0) throw WireDecodeError("wire: empty frame");
  const std::uint8_t tag = data[0];
  if (tag > static_cast<std::uint8_t>(BlockEncoding::kVarint)) {
    throw WireDecodeError("wire: unknown block encoding tag");
  }
  Frame f;
  f.encoding = static_cast<BlockEncoding>(tag);
  std::size_t pos = 1;
  pos += get_uvarint(data + pos, size - pos, &f.count);
  pos += get_uvarint(data + pos, size - pos, &f.payload_bytes);
  f.header_bytes = pos;
  if (f.payload_bytes > size - pos) {
    throw WireDecodeError("wire: frame payload overruns buffer");
  }
  return f;
}

void write_frame(std::vector<std::uint8_t>& out, BlockEncoding encoding,
                 std::uint64_t count, std::uint64_t payload_bytes) {
  out.push_back(static_cast<std::uint8_t>(encoding));
  put_uvarint(out, count);
  put_uvarint(out, payload_bytes);
}

std::uint64_t bitmap_payload_size(std::uint64_t width, bool unique,
                                  std::uint64_t parent_varint_bytes) noexcept {
  // A duplicate target cannot be expressed as a presence bit; the caller
  // falls back to varint. Cap the range so one outlier vertex cannot
  // inflate the presence bitmap past any useful size.
  constexpr std::uint64_t kMaxWidth = std::uint64_t{1} << 32;
  if (!unique || width == 0 || width > kMaxWidth) return 0;
  return (width + 7) / 8 + parent_varint_bytes;
}

}  // namespace detail

void encode_vertex_bitmap(std::span<const vid_t> sorted, vid_t range_begin,
                          vid_t range_end, WireFormat format,
                          std::vector<std::uint8_t>& out, WireStats* stats) {
  if (sorted.empty()) return;
  const auto width =
      static_cast<std::uint64_t>(range_end) - static_cast<std::uint64_t>(
                                                  range_begin);
  // Fast path only when dense enough that a range-wide bitmap wins
  // against raw ids regardless of layout: count bits >= width/8 bits
  // means the bitmap's width/8 bytes <= 8*count bytes of raw items.
  if (!wire_compresses(format) || width == 0 ||
      static_cast<std::uint64_t>(sorted.size()) * 8 < width) {
    encode_vertex_list(sorted, format, out, stats);
    return;
  }
  const std::uint64_t raw_bytes =
      static_cast<std::uint64_t>(sorted.size()) * sizeof(vid_t);
  const std::size_t out_before = out.size();
  const auto base = static_cast<std::uint64_t>(range_begin);
  const std::uint64_t bitmap_payload =
      uvarint_size(base) + uvarint_size(width) + (width + 7) / 8;
  detail::write_frame(out, BlockEncoding::kBitmap,
                      static_cast<std::uint64_t>(sorted.size()),
                      bitmap_payload);
  detail::put_presence_bitmap(out, base, width, sorted);
  if (stats != nullptr) {
    ++stats->blocks_bitmap;
    stats->raw_bytes += raw_bytes;
    stats->encoded_bytes += out.size() - out_before;
    stats->items += sorted.size();
  }
}

}  // namespace dbfs::comm
