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

void check_item_block(std::uint64_t count, std::size_t payload_bytes,
                      std::size_t item_bytes) {
  // Divide, never multiply: count * item_bytes wraps for counts near
  // 2^64 / item_bytes and would pass an empty payload.
  if (payload_bytes % item_bytes != 0 || count != payload_bytes / item_bytes) {
    throw WireDecodeError("wire: item block size mismatch");
  }
}

BitmapBlock read_bitmap_block(const std::uint8_t* payload,
                              std::size_t payload_bytes, std::size_t& pos) {
  BitmapBlock block{};
  pos += get_uvarint(payload + pos, payload_bytes - pos, &block.base);
  pos += get_uvarint(payload + pos, payload_bytes - pos, &block.width);
  // Bound the width by the bits the payload has left before any
  // arithmetic on it: (width + 7) / 8 wraps for widths near 2^64.
  if (block.width > 8 * static_cast<std::uint64_t>(payload_bytes - pos)) {
    throw WireDecodeError("wire: bitmap block truncated");
  }
  block.bits = payload + pos;
  pos += static_cast<std::size_t>((block.width + 7) / 8);
  return block;
}

}  // namespace detail

namespace {

/// Whether a set of `count` vertices over a range of `width` ships as one
/// range-wide bitmap block: only when the format compresses and the set
/// is dense enough that the bitmap wins against raw ids regardless of
/// layout (count bits >= width/8 bits means the bitmap's width/8 bytes
/// <= 8*count bytes of raw items).
bool range_bitmap_wins(WireFormat format, std::uint64_t width,
                       std::uint64_t count) noexcept {
  return wire_compresses(format) && width != 0 && count * 8 >= width;
}

}  // namespace

void encode_vertex_bitmap(std::span<const vid_t> sorted, vid_t range_begin,
                          vid_t range_end, WireFormat format,
                          std::vector<std::uint8_t>& out, WireStats* stats) {
  const auto width =
      static_cast<std::uint64_t>(range_end) - static_cast<std::uint64_t>(
                                                  range_begin);
  if (!range_bitmap_wins(format, width, sorted.size())) {
    encode_vertex_list(sorted, format, out, stats);
    return;
  }
  std::vector<std::uint64_t> words(static_cast<std::size_t>((width + 63) / 64),
                                   0);
  for (vid_t v : sorted) {
    const auto bit = static_cast<std::uint64_t>(v - range_begin);
    words[static_cast<std::size_t>(bit >> 6)] |= std::uint64_t{1}
                                                 << (bit & 63);
  }
  encode_vertex_bits(words, sorted.size(), range_begin, range_end, format,
                     out, stats);
}

void encode_vertex_bits(std::span<const std::uint64_t> words,
                        std::uint64_t count, vid_t range_begin,
                        vid_t range_end, WireFormat format,
                        std::vector<std::uint8_t>& out, WireStats* stats) {
  const auto width =
      static_cast<std::uint64_t>(range_end) - static_cast<std::uint64_t>(
                                                  range_begin);
  if (range_end < range_begin || words.size() != (width + 63) / 64) {
    throw std::invalid_argument(
        "encode_vertex_bits: words do not cover the range");
  }
  if (count == 0) return;
  if (!range_bitmap_wins(format, width, count)) {
    std::vector<vid_t> sorted;
    sorted.reserve(static_cast<std::size_t>(count));
    for (std::size_t w = 0; w < words.size(); ++w) {
      for (std::uint64_t word = words[w]; word != 0; word &= word - 1) {
        sorted.push_back(range_begin + static_cast<vid_t>(64 * w) +
                         std::countr_zero(word));
      }
    }
    encode_vertex_list(sorted, format, out, stats);
    return;
  }
  const std::size_t out_before = out.size();
  const auto base = static_cast<std::uint64_t>(range_begin);
  const auto bytes = static_cast<std::size_t>((width + 7) / 8);
  detail::write_frame(out, BlockEncoding::kBitmap, count,
                      uvarint_size(base) + uvarint_size(width) + bytes);
  put_uvarint(out, base);
  put_uvarint(out, width);
  const std::size_t at = out.size();
  out.resize(at + bytes);
  std::memcpy(out.data() + at, words.data(), bytes);
  if (stats != nullptr) {
    ++stats->blocks_bitmap;
    stats->raw_bytes += count * sizeof(vid_t);
    stats->encoded_bytes += out.size() - out_before;
    stats->items += count;
  }
}

std::uint64_t decode_vertex_bits(const std::uint8_t* data, std::size_t size,
                                 vid_t range_begin, vid_t range_end,
                                 std::span<std::uint64_t> words) {
  const auto lo = static_cast<std::uint64_t>(range_begin);
  const auto width = static_cast<std::uint64_t>(range_end) - lo;
  if (range_end < range_begin || words.size() != (width + 63) / 64) {
    throw std::invalid_argument(
        "decode_vertex_bits: words do not cover the range");
  }
  const auto put = [&](std::uint64_t v) {
    const std::uint64_t off = v - lo;  // wraps for v < range_begin
    if (off >= width) {
      throw WireDecodeError("wire: vertex outside the decode range");
    }
    words[static_cast<std::size_t>(off >> 6)] |= std::uint64_t{1}
                                                 << (off & 63);
  };
  std::uint64_t items = 0;
  std::size_t offset = 0;
  while (offset < size) {
    const detail::Frame f = detail::read_frame(data + offset, size - offset);
    const std::uint8_t* payload = data + offset + f.header_bytes;
    const auto payload_bytes = static_cast<std::size_t>(f.payload_bytes);
    std::size_t pos = 0;
    switch (f.encoding) {
      case BlockEncoding::kItems: {
        detail::check_item_block(f.count, payload_bytes, sizeof(vid_t));
        for (; pos < payload_bytes; pos += sizeof(vid_t)) {
          std::uint64_t v;
          std::memcpy(&v, payload + pos, sizeof v);
          put(v);
        }
        break;
      }
      case BlockEncoding::kBitmap: {
        const detail::BitmapBlock block =
            detail::read_bitmap_block(payload, payload_bytes, pos);
        const std::uint64_t off = block.base - lo;
        // A block inside the range ORs in shifted words; one that leaves
        // it (never written by the encoders) is checked vertex by vertex.
        const bool inside = block.base >= lo && off <= width &&
                            block.width <= width - off;
        const auto shift = static_cast<unsigned>(off & 63);
        std::uint64_t found = 0;
        for (std::uint64_t w = 0; 64 * w < block.width; ++w) {
          std::uint64_t word = detail::bitmap_word(block.bits, block.width, w);
          found += static_cast<std::uint64_t>(std::popcount(word));
          if (!inside) {
            for (; word != 0; word &= word - 1) {
              put(block.base + 64 * w + std::countr_zero(word));
            }
            continue;
          }
          const auto at = static_cast<std::size_t>((off >> 6) + w);
          words[at] |= word << shift;
          if (shift != 0 && (word >> (64 - shift)) != 0) {
            words[at + 1] |= word >> (64 - shift);
          }
        }
        if (found != f.count) {
          throw WireDecodeError("wire: bitmap block count mismatch");
        }
        break;
      }
      case BlockEncoding::kVarint: {
        std::uint64_t prev = 0;
        for (std::uint64_t i = 0; i < f.count; ++i) {
          std::uint64_t delta = 0;
          pos += get_uvarint(payload + pos, payload_bytes - pos, &delta);
          prev += delta;
          put(prev);
        }
        break;
      }
      default:
        throw WireDecodeError("wire: unknown block encoding");
    }
    if (pos != payload_bytes) {
      throw WireDecodeError("wire: block size mismatch");
    }
    items += f.count;
    offset += f.header_bytes + payload_bytes;
  }
  return items;
}

}  // namespace dbfs::comm
