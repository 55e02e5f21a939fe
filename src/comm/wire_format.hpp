// Compressed wire formats for the per-level frontier/candidate exchanges
// (Lv et al. 2012, "Compression and Sieve"; Buluç et al. 2017): dense
// destination blocks ship as owner-range bitmaps, sparse blocks as
// delta-encoded varints, and the `auto` polyalgorithm picks the smaller
// encoding per (destination, level) from exact byte sizes — the same
// size-based switching idea as the SpMSV SPA/heap selector.
//
// Every encoded block is self-framing (tag byte + item count + payload
// length, all LEB128), so a stream formed by concatenating blocks — the
// receive side of an alltoallv or allgatherv — decodes unambiguously
// block by block. Encoded payloads travel through the existing simmpi
// collectives as std::uint8_t items, which keeps the traffic metering and
// the checked_* payload checksums working unchanged on the compressed
// bytes. An empty block encodes to zero bytes, matching the raw path.
//
// This header is deliberately independent of the bfs layer: one block
// codec serves both payloads, templated over the item — a bare vid_t
// (vertex lists) or any trivially-copyable item exposing
// `.vertex`/`.parent` members (bfs::Candidate in practice). Vertex sets
// whose owner range is known also encode from, and decode into, word
// bitmaps over that range (encode_vertex_bits / decode_vertex_bits).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "util/types.hpp"

namespace dbfs::comm {

/// CLI-selectable policy for the candidate/frontier exchanges.
enum class WireFormat {
  kRaw,     ///< legacy byte-for-byte path: no sieve, 16-byte candidates
  kSieve,   ///< sender-side visited sieve, raw item encoding
  kBitmap,  ///< sieve + owner-range bitmap blocks (varint fallback when a
            ///< block still carries duplicate targets)
  kVarint,  ///< sieve + delta-encoded varint blocks
  kAuto,    ///< sieve + per-block minimum of {items, bitmap, varint}
};

const char* to_string(WireFormat f);
/// Parse "raw|sieve|bitmap|varint|auto"; throws std::invalid_argument.
WireFormat parse_wire_format(const std::string& name);

/// True when the format filters candidates through the visited sieve.
inline bool wire_sieves(WireFormat f) noexcept {
  return f != WireFormat::kRaw;
}
/// True when the format compresses payload blocks (vs raw item bytes).
inline bool wire_compresses(WireFormat f) noexcept {
  return f == WireFormat::kBitmap || f == WireFormat::kVarint ||
         f == WireFormat::kAuto;
}

/// Per-block encoding actually chosen on the wire (the frame tag byte).
enum class BlockEncoding : std::uint8_t {
  kItems = 0,   ///< raw little-endian item bytes
  kBitmap = 1,  ///< base/width presence bitmap + varint parents
  kVarint = 2,  ///< varint vertex deltas + varint parents
};

/// Byte accounting for the metrics registry and the codec cost charges.
struct WireStats {
  std::uint64_t raw_bytes = 0;      ///< bytes the blocks would cost unencoded
  std::uint64_t encoded_bytes = 0;  ///< bytes actually shipped (incl. frames)
  std::uint64_t items = 0;
  std::uint64_t blocks_items = 0;
  std::uint64_t blocks_bitmap = 0;
  std::uint64_t blocks_varint = 0;

  void merge(const WireStats& o) noexcept {
    raw_bytes += o.raw_bytes;
    encoded_bytes += o.encoded_bytes;
    items += o.items;
    blocks_items += o.blocks_items;
    blocks_bitmap += o.blocks_bitmap;
    blocks_varint += o.blocks_varint;
  }

  /// encoded/raw shipped-byte ratio: < 1 means the codec pays for
  /// itself, ~1 means it is shipping raw blocks plus framing. 1.0 when
  /// nothing has been encoded yet. This is the definition the doctor's
  /// codec-fallback classifier and the wire.* metrics share.
  double compression_ratio() const noexcept;

  /// Share of emitted blocks that fell back to raw item lists (0 when no
  /// blocks were emitted).
  double raw_block_share() const noexcept;
};

/// Malformed frame or truncated payload. Checked collectives verify the
/// transported bytes, so hitting this indicates a codec bug, not a fault.
struct WireDecodeError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// ---------- LEB128 varints ----------

void put_uvarint(std::vector<std::uint8_t>& out, std::uint64_t value);
std::size_t uvarint_size(std::uint64_t value) noexcept;
/// Decode one varint from data[0..size); returns bytes consumed and
/// writes the value. Throws WireDecodeError on truncation or overflow.
std::size_t get_uvarint(const std::uint8_t* data, std::size_t size,
                        std::uint64_t* value);

namespace detail {

struct Frame {
  BlockEncoding encoding;
  std::uint64_t count;
  std::uint64_t payload_bytes;
  std::size_t header_bytes;
};

/// Parse one block frame; validates the payload fits in the buffer.
Frame read_frame(const std::uint8_t* data, std::size_t size);

void write_frame(std::vector<std::uint8_t>& out, BlockEncoding encoding,
                 std::uint64_t count, std::uint64_t payload_bytes);

/// Byte size of the bitmap payload for vertices spanning [base, last], or
/// 0 when the block is not bitmap-encodable (duplicates present).
std::uint64_t bitmap_payload_size(std::uint64_t width, bool unique,
                                  std::uint64_t parent_varint_bytes) noexcept;

/// A bare vid_t item is a vertex-list entry; any other item is a
/// candidate carrying `.vertex` and `.parent`.
template <typename T>
inline constexpr bool kCarriesParent = !std::is_same_v<T, vid_t>;

template <typename T>
vid_t item_vertex(const T& item) noexcept {
  if constexpr (kCarriesParent<T>) {
    return item.vertex;
  } else {
    return item;
  }
}

/// Append base, width and the presence bitmap of `items`' vertices, all
/// of which lie in [base, base + width).
template <typename T>
void put_presence_bitmap(std::vector<std::uint8_t>& out, std::uint64_t base,
                         std::uint64_t width, std::span<const T> items) {
  put_uvarint(out, base);
  put_uvarint(out, width);
  const std::size_t bits_at = out.size();
  out.resize(bits_at + static_cast<std::size_t>((width + 7) / 8), 0);
  for (const T& item : items) {
    const auto bit = static_cast<std::uint64_t>(item_vertex(item)) - base;
    out[bits_at + static_cast<std::size_t>(bit >> 3)] |=
        static_cast<std::uint8_t>(1u << (bit & 7));
  }
}

// The presence bitmap puts bit b at byte b / 8, bit b % 8: on a
// little-endian host that is the byte image of 64-bit words holding bit
// b at word b / 64, bit b % 64, so bitmap blocks are read — and range
// bitmaps written — a word at a time by plain copies.
static_assert(std::endian::native == std::endian::little,
              "the presence bitmap is the little-endian word layout");

/// Throws unless an item block of `count` items of `item_bytes` each
/// fills exactly `payload_bytes`.
void check_item_block(std::uint64_t count, std::size_t payload_bytes,
                      std::size_t item_bytes);

/// A bitmap block's base, width and presence bytes.
struct BitmapBlock {
  std::uint64_t base;
  std::uint64_t width;
  const std::uint8_t* bits;
};

/// Read a bitmap block's base and width from payload[pos..) and step
/// `pos` past its presence bytes; throws when they overrun the payload.
BitmapBlock read_bitmap_block(const std::uint8_t* payload,
                              std::size_t payload_bytes, std::size_t& pos);

/// Word w < (width + 63) / 64 of a presence bitmap of `width` bits;
/// bits past the width in the last byte read as 0, as if never sent.
inline std::uint64_t bitmap_word(const std::uint8_t* bits, std::uint64_t width,
                                 std::uint64_t w) noexcept {
  std::uint64_t word = 0;
  const std::uint64_t left = width - 64 * w;
  if (left >= 64) {
    std::memcpy(&word, bits + 8 * w, sizeof word);
    return word;
  }
  std::memcpy(&word, bits + 8 * w, static_cast<std::size_t>((left + 7) / 8));
  return word & ((std::uint64_t{1} << left) - 1);
}

}  // namespace detail

// ---------- blocks of candidates or vertices ----------

/// Encode one destination block as a framed block appended to `out`. The
/// item is a candidate (`.vertex`/`.parent`; parents ride after the
/// vertex stream) or a bare vid_t (a vertex list: the vertex stream
/// only). Compressing formats require the block sorted ascending by
/// vertex (the sieve pass guarantees this for candidates); kBitmap falls
/// back to varint per block when duplicate targets remain. kRaw/kSieve
/// ship raw item bytes. Empty input appends nothing.
template <typename C>
void encode_candidates(std::span<const C> block, WireFormat format,
                       std::vector<std::uint8_t>& out, WireStats* stats) {
  static_assert(std::is_trivially_copyable_v<C>,
                "wire items must be trivially copyable");
  if (block.empty()) return;
  const std::uint64_t raw_bytes =
      static_cast<std::uint64_t>(block.size()) * sizeof(C);
  const std::size_t out_before = out.size();
  const auto base =
      static_cast<std::uint64_t>(detail::item_vertex(block.front()));
  const auto width = static_cast<std::uint64_t>(
      detail::item_vertex(block.back()) - detail::item_vertex(block.front()) +
      1);

  BlockEncoding choice = BlockEncoding::kItems;
  std::uint64_t varint_payload = 0;
  std::uint64_t bitmap_payload = 0;
  if (wire_compresses(format)) {
    // Exact payload sizes, computed without writing: varint = delta (+
    // parent) per item; bitmap = base + width + presence bits (+ parents).
    bool unique = true;
    std::uint64_t parent_bytes = 0;
    vid_t prev = 0;
    for (std::size_t i = 0; i < block.size(); ++i) {
      const vid_t v = detail::item_vertex(block[i]);
      if (i > 0 && v == prev) unique = false;
      varint_payload += uvarint_size(static_cast<std::uint64_t>(v - prev));
      if constexpr (detail::kCarriesParent<C>) {
        const auto pb =
            uvarint_size(static_cast<std::uint64_t>(block[i].parent));
        varint_payload += pb;
        parent_bytes += pb;
      }
      prev = v;
    }
    bitmap_payload = detail::bitmap_payload_size(width, unique, parent_bytes);
    if (bitmap_payload > 0) {
      bitmap_payload += uvarint_size(base) + uvarint_size(width);
    }

    if (format == WireFormat::kVarint) {
      choice = BlockEncoding::kVarint;
    } else if (format == WireFormat::kBitmap) {
      choice = bitmap_payload > 0 ? BlockEncoding::kBitmap
                                  : BlockEncoding::kVarint;
    } else {  // kAuto: strict minimum, raw wins ties (cheapest to decode)
      std::uint64_t best = raw_bytes;
      if (bitmap_payload > 0 && bitmap_payload < best) {
        best = bitmap_payload;
        choice = BlockEncoding::kBitmap;
      }
      if (varint_payload < best) choice = BlockEncoding::kVarint;
    }
  }

  switch (choice) {
    case BlockEncoding::kItems: {
      detail::write_frame(out, BlockEncoding::kItems,
                          static_cast<std::uint64_t>(block.size()),
                          raw_bytes);
      const std::size_t at = out.size();
      out.resize(at + static_cast<std::size_t>(raw_bytes));
      std::memcpy(out.data() + at, block.data(),
                  static_cast<std::size_t>(raw_bytes));
      if (stats != nullptr) ++stats->blocks_items;
      break;
    }
    case BlockEncoding::kBitmap: {
      detail::write_frame(out, BlockEncoding::kBitmap,
                          static_cast<std::uint64_t>(block.size()),
                          bitmap_payload);
      detail::put_presence_bitmap(out, base, width, block);
      if constexpr (detail::kCarriesParent<C>) {
        for (const C& c : block) {
          put_uvarint(out, static_cast<std::uint64_t>(c.parent));
        }
      }
      if (stats != nullptr) ++stats->blocks_bitmap;
      break;
    }
    case BlockEncoding::kVarint: {
      detail::write_frame(out, BlockEncoding::kVarint,
                          static_cast<std::uint64_t>(block.size()),
                          varint_payload);
      vid_t prev = 0;
      for (const C& c : block) {
        const vid_t v = detail::item_vertex(c);
        put_uvarint(out, static_cast<std::uint64_t>(v - prev));
        if constexpr (detail::kCarriesParent<C>) {
          put_uvarint(out, static_cast<std::uint64_t>(c.parent));
        }
        prev = v;
      }
      if (stats != nullptr) ++stats->blocks_varint;
      break;
    }
  }

  if (stats != nullptr) {
    stats->raw_bytes += raw_bytes;
    stats->encoded_bytes += out.size() - out_before;
    stats->items += block.size();
  }
}

/// Decode a concatenation of framed blocks of `C` items, appending them
/// to `out` in stream order (bitmap blocks come back vertex-ascending,
/// exactly the order they were encoded in).
template <typename C>
void decode_candidate_stream(const std::uint8_t* data, std::size_t size,
                             std::vector<C>& out) {
  const auto make = [](vid_t v, std::uint64_t parent) {
    if constexpr (detail::kCarriesParent<C>) {
      C c{};
      c.vertex = v;
      c.parent = static_cast<vid_t>(parent);
      return c;
    } else {
      return v;
    }
  };
  std::size_t offset = 0;
  while (offset < size) {
    const detail::Frame f = detail::read_frame(data + offset, size - offset);
    const std::uint8_t* payload = data + offset + f.header_bytes;
    const auto payload_bytes = static_cast<std::size_t>(f.payload_bytes);
    std::size_t pos = 0;
    // Reads one varint payload field, or 0 for the parent a vertex-list
    // item does not carry.
    const auto get = [&](bool present) {
      std::uint64_t value = 0;
      if (present) {
        pos += get_uvarint(payload + pos, payload_bytes - pos, &value);
      }
      return value;
    };
    switch (f.encoding) {
      case BlockEncoding::kItems: {
        detail::check_item_block(f.count, payload_bytes, sizeof(C));
        const std::size_t at = out.size();
        out.resize(at + static_cast<std::size_t>(f.count));
        std::memcpy(out.data() + at, payload, payload_bytes);
        pos = payload_bytes;
        break;
      }
      case BlockEncoding::kBitmap: {
        const detail::BitmapBlock block =
            detail::read_bitmap_block(payload, payload_bytes, pos);
        std::uint64_t found = 0;
        for (std::uint64_t w = 0; 64 * w < block.width; ++w) {
          const std::uint64_t first = block.base + 64 * w;
          for (std::uint64_t word =
                   detail::bitmap_word(block.bits, block.width, w);
               word != 0; word &= word - 1) {
            out.push_back(
                make(static_cast<vid_t>(first + std::countr_zero(word)),
                     get(detail::kCarriesParent<C>)));
            ++found;
          }
        }
        if (found != f.count) {
          throw WireDecodeError("wire: bitmap block count mismatch");
        }
        break;
      }
      case BlockEncoding::kVarint: {
        vid_t prev = 0;
        for (std::uint64_t i = 0; i < f.count; ++i) {
          prev += static_cast<vid_t>(get(true));
          out.push_back(make(prev, get(detail::kCarriesParent<C>)));
        }
        break;
      }
      default:
        throw WireDecodeError("wire: unknown block encoding");
    }
    if (pos != payload_bytes) {
      throw WireDecodeError("wire: block size mismatch");
    }
    offset += f.header_bytes + payload_bytes;
  }
}

// ---------- frontier vertex lists (2D expand payloads) ----------

/// Encode one strictly-ascending vertex list as a framed block appended
/// to `out`. kRaw/kSieve ship raw 8-byte ids; compressing formats pick
/// per the policy. Empty input appends nothing.
inline void encode_vertex_list(std::span<const vid_t> sorted,
                               WireFormat format,
                               std::vector<std::uint8_t>& out,
                               WireStats* stats) {
  encode_candidates<vid_t>(sorted, format, out, stats);
}

/// Decode a concatenation of framed vertex-list blocks, appending the
/// vertices to `out` in stream order.
inline void decode_vertex_stream(const std::uint8_t* data, std::size_t size,
                                 std::vector<vid_t>& out) {
  decode_candidate_stream<vid_t>(data, size, out);
}

/// Dense-bitmap fast path for vertex lists whose owner range is known to
/// the caller (the bottom-up frontier/visited exchanges, where every
/// vertex falls in [range_begin, range_end)): when the format compresses
/// and the list fills at least 1/8 of the range — the density at which a
/// range-wide presence bitmap beats raw 8-byte ids outright — one bitmap
/// block spanning the whole range is emitted directly, with no per-item
/// sizing pass. Sparse lists and non-compressing formats delegate to
/// encode_vertex_list unchanged; either way the output decodes with
/// decode_vertex_stream. This is a separate entry point so the top-down
/// expand/fold byte streams stay byte-for-byte what they were.
void encode_vertex_bitmap(std::span<const vid_t> sorted, vid_t range_begin,
                          vid_t range_end, WireFormat format,
                          std::vector<std::uint8_t>& out, WireStats* stats);

// ---------- vertex sets held as word bitmaps over an owner range ----------
//
// A range bitmap of [range_begin, range_end) holds vertex v at bit
// (v - range_begin) % 64 of word (v - range_begin) / 64, in
// (range_end - range_begin + 63) / 64 words. The pair below lets a
// caller that keeps its sets in this form (the 2D bottom-up level) skip
// the sorted vertex list on both ends of the wire: the bytes are those
// of the list forms, so pricing, wire counters and the streams' decoding
// by decode_vertex_stream do not change.

/// encode_vertex_bitmap for the set held in `words`, a range bitmap of
/// [range_begin, range_end) with `count` bits set and none at or past
/// the range's width: appends exactly the bytes encode_vertex_bitmap
/// appends for the same set's sorted list. A dense set's range-wide block
/// is its frame, base and width followed by the words' bytes; sparse sets
/// and non-compressing formats go through encode_vertex_list, fed from
/// the set bits. count == 0 appends nothing; std::invalid_argument when
/// `words` is not the range's word count.
void encode_vertex_bits(std::span<const std::uint64_t> words,
                        std::uint64_t count, vid_t range_begin,
                        vid_t range_end, WireFormat format,
                        std::vector<std::uint8_t>& out, WireStats* stats);

/// decode_vertex_stream into a range bitmap: ORs every vertex of the
/// framed blocks in data[0..size) into `words`, a range bitmap of
/// [range_begin, range_end), and returns the number of items decoded
/// (what decode_vertex_stream would have appended). Bitmap blocks are
/// read a word at a time. Throws WireDecodeError wherever
/// decode_vertex_stream does — bad frame, item-size mismatch, truncated
/// bitmap, bitmap count mismatch — and for any vertex outside the range;
/// std::invalid_argument when `words` is not the range's word count.
std::uint64_t decode_vertex_bits(const std::uint8_t* data, std::size_t size,
                                 vid_t range_begin, vid_t range_end,
                                 std::span<std::uint64_t> words);

}  // namespace dbfs::comm
