// Unit tests for the wire-format codecs (comm/wire_format.hpp) and the
// sender-side visited sieve (comm/sieve.hpp).
#include "comm/wire_format.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bfs/frontier.hpp"
#include "comm/sieve.hpp"
#include "util/prng.hpp"

namespace dbfs::comm {
namespace {

using bfs::Candidate;

bool operator_eq(const Candidate& a, const Candidate& b) {
  return a.vertex == b.vertex && a.parent == b.parent;
}

std::vector<Candidate> roundtrip(const std::vector<Candidate>& block,
                                 WireFormat format,
                                 WireStats* stats = nullptr) {
  std::vector<std::uint8_t> bytes;
  encode_candidates<Candidate>(block, format, bytes, stats);
  std::vector<Candidate> out;
  decode_candidate_stream<Candidate>(bytes.data(), bytes.size(), out);
  return out;
}

void expect_equal(const std::vector<Candidate>& a,
                  const std::vector<Candidate>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(operator_eq(a[i], b[i]))
        << "i=" << i << " (" << a[i].vertex << "," << a[i].parent << ") vs ("
        << b[i].vertex << "," << b[i].parent << ")";
  }
}

TEST(Uvarint, RoundTripsBoundaryValues) {
  const std::uint64_t values[] = {0,     1,        127,        128,
                                  16383, 16384,    (1u << 21) - 1,
                                  1u << 21,        0x00FF00FF00FF00FFull,
                                  ~std::uint64_t{0}};
  for (std::uint64_t v : values) {
    std::vector<std::uint8_t> buf;
    put_uvarint(buf, v);
    EXPECT_EQ(buf.size(), uvarint_size(v)) << v;
    std::uint64_t back = 0;
    const std::size_t used = get_uvarint(buf.data(), buf.size(), &back);
    EXPECT_EQ(used, buf.size()) << v;
    EXPECT_EQ(back, v);
  }
}

TEST(Uvarint, ThrowsOnTruncation) {
  std::vector<std::uint8_t> buf;
  put_uvarint(buf, 300);  // two bytes
  std::uint64_t v = 0;
  EXPECT_THROW(get_uvarint(buf.data(), 1, &v), WireDecodeError);
  EXPECT_THROW(get_uvarint(buf.data(), 0, &v), WireDecodeError);
}

TEST(ParseWireFormat, NamesRoundTrip) {
  for (WireFormat f : {WireFormat::kRaw, WireFormat::kSieve,
                       WireFormat::kBitmap, WireFormat::kVarint,
                       WireFormat::kAuto}) {
    EXPECT_EQ(parse_wire_format(to_string(f)), f);
  }
  EXPECT_THROW(parse_wire_format("zstd"), std::invalid_argument);
}

TEST(WireStats, RatioHelpersHandleEmptyAndTypicalCounts) {
  WireStats empty;
  EXPECT_DOUBLE_EQ(empty.compression_ratio(), 1.0);
  EXPECT_DOUBLE_EQ(empty.raw_block_share(), 0.0);

  WireStats s;
  s.raw_bytes = 1000;
  s.encoded_bytes = 250;
  s.blocks_items = 1;
  s.blocks_bitmap = 2;
  s.blocks_varint = 1;
  EXPECT_DOUBLE_EQ(s.compression_ratio(), 0.25);
  EXPECT_DOUBLE_EQ(s.raw_block_share(), 0.25);
}

TEST(WireFormat, PredicatesMatchSemantics) {
  EXPECT_FALSE(wire_sieves(WireFormat::kRaw));
  EXPECT_TRUE(wire_sieves(WireFormat::kSieve));
  EXPECT_FALSE(wire_compresses(WireFormat::kSieve));
  EXPECT_TRUE(wire_compresses(WireFormat::kBitmap));
  EXPECT_TRUE(wire_compresses(WireFormat::kVarint));
  EXPECT_TRUE(wire_compresses(WireFormat::kAuto));
}

TEST(CandidateCodec, EmptyBlockEncodesToNothing) {
  std::vector<std::uint8_t> bytes;
  WireStats stats;
  encode_candidates<Candidate>(std::vector<Candidate>{}, WireFormat::kAuto,
                               bytes, &stats);
  EXPECT_TRUE(bytes.empty());
  EXPECT_EQ(stats.items, 0u);
  std::vector<Candidate> out;
  decode_candidate_stream<Candidate>(bytes.data(), bytes.size(), out);
  EXPECT_TRUE(out.empty());
}

TEST(CandidateCodec, RoundTripsEveryFormat) {
  // Sorted, unique targets — the shape sieve_and_dedup produces.
  const std::vector<Candidate> block = {
      {0, 7}, {1, 0}, {5, 900000}, {6, 6}, {1000, 3}, {1000000, 999999}};
  for (WireFormat f : {WireFormat::kRaw, WireFormat::kSieve,
                       WireFormat::kBitmap, WireFormat::kVarint,
                       WireFormat::kAuto}) {
    expect_equal(roundtrip(block, f), block);
  }
}

TEST(CandidateCodec, DenseBlockPrefersBitmap) {
  // 64 consecutive targets with small parents: the presence bitmap (8
  // bytes) plus one-byte parents beats both raw items and varints.
  std::vector<Candidate> block;
  for (vid_t v = 0; v < 64; ++v) block.push_back({v, 1});
  WireStats stats;
  const auto out = roundtrip(block, WireFormat::kAuto, &stats);
  expect_equal(out, block);
  EXPECT_EQ(stats.blocks_bitmap, 1u);
  EXPECT_LT(stats.encoded_bytes, stats.raw_bytes);
}

TEST(CandidateCodec, SparseBlockPrefersVarint) {
  // Widely-spaced targets: a bitmap over the range would dwarf the items.
  std::vector<Candidate> block;
  for (vid_t v = 0; v < 32; ++v) block.push_back({v * 1000003, 2});
  WireStats stats;
  const auto out = roundtrip(block, WireFormat::kAuto, &stats);
  expect_equal(out, block);
  EXPECT_EQ(stats.blocks_varint, 1u);
  EXPECT_LT(stats.encoded_bytes, stats.raw_bytes);
}

TEST(CandidateCodec, AutoNeverExceedsRawPlusFrame) {
  util::Xoshiro256 rng{42};
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Candidate> block;
    vid_t v = 0;
    const int len = 1 + static_cast<int>(rng.next_below(40));
    for (int i = 0; i < len; ++i) {
      v += 1 + static_cast<vid_t>(rng.next_below(1u << 16));
      block.push_back(
          {v, static_cast<vid_t>(rng.next_below(1u << 20))});
    }
    WireStats stats;
    expect_equal(roundtrip(block, WireFormat::kAuto, &stats), block);
    // Frame overhead: tag + count + payload length (few bytes).
    EXPECT_LE(stats.encoded_bytes, stats.raw_bytes + 12);
  }
}

TEST(CandidateCodec, BitmapFallsBackToVarintOnDuplicates) {
  // Duplicate targets cannot be expressed by a presence bitmap; the
  // kBitmap policy must fall back per block, not corrupt the stream.
  const std::vector<Candidate> block = {{3, 9}, {3, 5}, {4, 1}};
  WireStats stats;
  const auto out = roundtrip(block, WireFormat::kBitmap, &stats);
  expect_equal(out, block);
  EXPECT_EQ(stats.blocks_bitmap, 0u);
  EXPECT_EQ(stats.blocks_varint, 1u);
}

TEST(CandidateCodec, ConcatenatedBlocksDecodeInOrder) {
  const std::vector<Candidate> a = {{1, 2}, {3, 4}};
  const std::vector<Candidate> b = {{2, 8}, {100, 1}};
  std::vector<std::uint8_t> bytes;
  encode_candidates<Candidate>(a, WireFormat::kVarint, bytes, nullptr);
  encode_candidates<Candidate>(b, WireFormat::kBitmap, bytes, nullptr);
  encode_candidates<Candidate>(std::vector<Candidate>{}, WireFormat::kAuto,
                               bytes, nullptr);
  std::vector<Candidate> out;
  decode_candidate_stream<Candidate>(bytes.data(), bytes.size(), out);
  std::vector<Candidate> expected = a;
  expected.insert(expected.end(), b.begin(), b.end());
  expect_equal(out, expected);
}

TEST(CandidateCodec, TruncatedStreamThrows) {
  const std::vector<Candidate> block = {{1, 2}, {3, 4}, {5, 6}};
  for (WireFormat f :
       {WireFormat::kSieve, WireFormat::kBitmap, WireFormat::kVarint}) {
    std::vector<std::uint8_t> bytes;
    encode_candidates<Candidate>(block, f, bytes, nullptr);
    std::vector<Candidate> out;
    EXPECT_THROW(
        decode_candidate_stream<Candidate>(bytes.data(), bytes.size() - 1,
                                           out),
        WireDecodeError)
        << to_string(f);
  }
}

TEST(CandidateCodec, BitmapWidthBeyondThePayloadThrows) {
  // One kBitmap frame holding `count` items whose payload is base 0, the
  // given width and then `room` bytes of bitmap (and parents).
  const auto bitmap_frame = [](std::uint64_t count, std::uint64_t width,
                               std::size_t room) {
    std::vector<std::uint8_t> payload;
    put_uvarint(payload, 0);
    put_uvarint(payload, width);
    payload.resize(payload.size() + room, 0xFF);
    std::vector<std::uint8_t> bytes = {
        static_cast<std::uint8_t>(BlockEncoding::kBitmap)};
    put_uvarint(bytes, count);
    put_uvarint(bytes, payload.size());
    bytes.insert(bytes.end(), payload.begin(), payload.end());
    return bytes;
  };
  // (width + 7) / 8 wraps to 0 for this width: 14 bytes in all.
  const auto wrapping = bitmap_frame(1, ~std::uint64_t{0}, 0);
  ASSERT_EQ(wrapping.size(), 14u);
  // One bit more than the 2 bytes left after base and width hold.
  const auto one_bit_over = bitmap_frame(16, 17, 2);
  for (const auto& bytes : {wrapping, one_bit_over}) {
    std::vector<vid_t> vertices;
    EXPECT_THROW(decode_candidate_stream<vid_t>(bytes.data(), bytes.size(),
                                                vertices),
                 WireDecodeError);
    std::vector<Candidate> candidates;
    EXPECT_THROW(decode_candidate_stream<Candidate>(bytes.data(),
                                                    bytes.size(), candidates),
                 WireDecodeError);
  }
}

TEST(CandidateCodec, ItemCountBeyondThePayloadThrows) {
  // A kItems frame claiming `count` items over an empty payload; count *
  // sizeof(item) wraps to 0 for these counts.
  const auto items_frame = [](std::uint64_t count) {
    std::vector<std::uint8_t> bytes = {
        static_cast<std::uint8_t>(BlockEncoding::kItems)};
    put_uvarint(bytes, count);
    put_uvarint(bytes, 0);
    return bytes;
  };
  const auto candidates = items_frame(std::uint64_t{1} << 60);
  ASSERT_EQ(candidates.size(), 11u);
  ASSERT_EQ((std::uint64_t{1} << 60) * sizeof(Candidate), 0u);
  std::vector<Candidate> out;
  EXPECT_THROW(decode_candidate_stream<Candidate>(candidates.data(),
                                                  candidates.size(), out),
               WireDecodeError);
  const auto vertices = items_frame(std::uint64_t{1} << 61);
  ASSERT_EQ((std::uint64_t{1} << 61) * sizeof(vid_t), 0u);
  std::vector<vid_t> ids;
  EXPECT_THROW(
      decode_candidate_stream<vid_t>(vertices.data(), vertices.size(), ids),
      WireDecodeError);
}

TEST(CandidateCodec, GarbageTagThrows) {
  std::vector<std::uint8_t> bytes = {0xEE, 0x01, 0x01, 0x00};
  std::vector<Candidate> out;
  EXPECT_THROW(decode_candidate_stream<Candidate>(bytes.data(), bytes.size(),
                                                  out),
               WireDecodeError);
}

TEST(VertexListCodec, RoundTripsEveryFormat) {
  const std::vector<vid_t> list = {0, 1, 2, 3, 900, 901, 5000000};
  for (WireFormat f : {WireFormat::kRaw, WireFormat::kSieve,
                       WireFormat::kBitmap, WireFormat::kVarint,
                       WireFormat::kAuto}) {
    std::vector<std::uint8_t> bytes;
    WireStats stats;
    encode_vertex_list(list, f, bytes, &stats);
    std::vector<vid_t> out;
    decode_vertex_stream(bytes.data(), bytes.size(), out);
    EXPECT_EQ(out, list) << to_string(f);
    EXPECT_EQ(stats.items, list.size());
  }
}

TEST(VertexListCodec, DenseRangeCompressesHard) {
  std::vector<vid_t> list;
  for (vid_t v = 1000; v < 1512; ++v) list.push_back(v);
  std::vector<std::uint8_t> bytes;
  WireStats stats;
  encode_vertex_list(list, WireFormat::kAuto, bytes, &stats);
  std::vector<vid_t> out;
  decode_vertex_stream(bytes.data(), bytes.size(), out);
  EXPECT_EQ(out, list);
  // 512 consecutive ids: 64 presence bytes + header vs 4096 raw bytes.
  EXPECT_LT(stats.encoded_bytes, stats.raw_bytes / 10);
}

// ---------- golden wire bytes ----------

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static const char* const digits = "0123456789abcdef";
  std::string s;
  for (std::uint8_t b : bytes) {
    s += digits[b >> 4];
    s += digits[b & 15];
  }
  return s;
}

/// One block through one encoder, with the exact bytes it emits per
/// format. kRaw and kSieve ship the same raw item bytes (little-endian).
struct GoldenBlock {
  const char* name;
  std::function<void(WireFormat, std::vector<std::uint8_t>&)> encode;
  const char* items;
  const char* bitmap;
  const char* varint;
  const char* automatic;
};

TEST(WireGolden, EncodersEmitPinnedBytes) {
  // Every byte a level ships is metered and priced into virtual time, so
  // the encoders' output is pinned, not just their round trips. The hex
  // was captured from the separate candidate and vertex-list encoders
  // that the one codec template replaced. The duplicate vertex lists lie
  // outside those encoders' strictly-ascending contract; their bytes are
  // pinned all the same.
  std::vector<Candidate> dense;
  std::vector<vid_t> dense_list;
  for (vid_t v = 100; v < 108; ++v) {
    dense.push_back({v, v % 5});
    dense_list.push_back(v);
  }
  const std::vector<Candidate> sparse = {
      {5, 1}, {70, 300}, {140, 2}, {200, 99999}};
  const std::vector<vid_t> sparse_list = {5, 70, 140, 200};
  const std::vector<Candidate> dup = {{3, 9}, {3, 5}, {4, 1}, {10, 2}};
  const std::vector<vid_t> dup_list = {3, 3, 4, 10};

  const auto candidates = [](const std::vector<Candidate>& block) {
    return [&block](WireFormat f, std::vector<std::uint8_t>& out) {
      encode_candidates<Candidate>(block, f, out, nullptr);
    };
  };
  const auto list = [](const std::vector<vid_t>& block) {
    return [&block](WireFormat f, std::vector<std::uint8_t>& out) {
      encode_vertex_list(block, f, out, nullptr);
    };
  };
  const auto range_bitmap = [](const std::vector<vid_t>& block, vid_t begin,
                               vid_t end) {
    return [&block, begin, end](WireFormat f, std::vector<std::uint8_t>& out) {
      encode_vertex_bitmap(block, begin, end, f, out, nullptr);
    };
  };

  const std::vector<GoldenBlock> rows = {
      {"candidates dense", candidates(dense),
       "0008800164000000000000000000000000000000650000000000000001000000"
       "0000000066000000000000000200000000000000670000000000000003000000"
       "0000000068000000000000000400000000000000690000000000000000000000"
       "000000006a0000000000000001000000000000006b0000000000000002000000"
       "00000000",
       "01080b6408ff0001020304000102",
       "02081064000101010201030104010001010102",
       "01080b6408ff0001020304000102"},
      {"candidates sparse", candidates(sparse),
       "0004400500000000000000010000000000000046000000000000002c01000000"
       "0000008c000000000000000200000000000000c8000000000000009f86010000"
       "000000",
       "01042305c4010100000000000000020000000000000080000000000000000801"
       "ac02029f8d06",
       "02040b050141ac0246023c9f8d06",
       "02040b050141ac0246023c9f8d06"},
      {"candidates duplicate", candidates(dup),
       "0004400300000000000000090000000000000003000000000000000500000000"
       "000000040000000000000001000000000000000a000000000000000200000000"
       "000000",
       "0204080309000501010602",
       "0204080309000501010602",
       "0204080309000501010602"},
      {"vertex list dense", list(dense_list),
       "0008406400000000000000650000000000000066000000000000006700000000"
       "000000680000000000000069000000000000006a000000000000006b00000000"
       "000000",
       "0108036408ff",
       "0208086401010101010101",
       "0108036408ff"},
      {"vertex list sparse", list(sparse_list),
       "000420050000000000000046000000000000008c00000000000000c800000000"
       "000000",
       "01041c05c40101000000000000000200000000000000800000000000000008",
       "0204040541463c",
       "0204040541463c"},
      {"vertex list duplicate", list(dup_list),
       "0004200300000000000000030000000000000004000000000000000a00000000"
       "000000",
       "02040403000106",
       "02040403000106",
       "02040403000106"},
      {"range bitmap dense", range_bitmap(dense_list, 96, 128),
       "0008406400000000000000650000000000000066000000000000006700000000"
       "000000680000000000000069000000000000006a000000000000006b00000000"
       "000000",
       "0108066020f00f0000",
       "0108066020f00f0000",
       "0108066020f00f0000"},
      {"range bitmap sparse", range_bitmap(sparse_list, 0, 256),
       "000420050000000000000046000000000000008c00000000000000c800000000"
       "000000",
       "01041c05c40101000000000000000200000000000000800000000000000008",
       "0204040541463c",
       "0204040541463c"},
      {"range bitmap duplicate", range_bitmap(dup_list, 0, 16),
       "0004200300000000000000030000000000000004000000000000000a00000000"
       "000000",
       "01040400101804",
       "01040400101804",
       "01040400101804"},
  };
  for (const GoldenBlock& row : rows) {
    const std::pair<WireFormat, const char*> expected[] = {
        {WireFormat::kRaw, row.items},
        {WireFormat::kSieve, row.items},
        {WireFormat::kBitmap, row.bitmap},
        {WireFormat::kVarint, row.varint},
        {WireFormat::kAuto, row.automatic}};
    for (const auto& [format, want] : expected) {
      std::vector<std::uint8_t> bytes;
      row.encode(format, bytes);
      EXPECT_EQ(hex(bytes), want) << row.name << " / " << to_string(format);
    }
  }
}

// ---------- vertex sets as range bitmaps ----------

constexpr WireFormat kAllFormats[] = {WireFormat::kRaw, WireFormat::kSieve,
                                      WireFormat::kBitmap, WireFormat::kVarint,
                                      WireFormat::kAuto};

/// The range bitmap of [begin, begin + width) holding `sorted`.
std::vector<std::uint64_t> range_bits(const std::vector<vid_t>& sorted,
                                      vid_t begin, vid_t width) {
  std::vector<std::uint64_t> words(static_cast<std::size_t>((width + 63) / 64),
                                   0);
  for (vid_t v : sorted) {
    const vid_t off = v - begin;
    words[static_cast<std::size_t>(off / 64)] |= std::uint64_t{1}
                                                 << (off % 64);
  }
  return words;
}

/// `count` vertices of [begin, begin + width), the first at begin +
/// first and, from two on, the last at the range's end, spread evenly.
std::vector<vid_t> spread_set(vid_t begin, vid_t width, vid_t count,
                              vid_t first = 0) {
  std::vector<vid_t> set;
  for (vid_t k = 0; k < count; ++k) {
    set.push_back(begin + first +
                  (count == 1 ? 0 : k * (width - first - 1) / (count - 1)));
  }
  return set;
}

/// encode_vertex_bits must write encode_vertex_bitmap's bytes and stats,
/// and decode_vertex_bits must read back decode_vertex_stream's set and
/// count, for `sorted` over [begin, begin + width) in every format.
void expect_bits_match_lists(const std::vector<vid_t>& sorted, vid_t begin,
                             vid_t width) {
  const vid_t end = begin + width;
  const auto words = range_bits(sorted, begin, width);
  for (WireFormat f : kAllFormats) {
    SCOPED_TRACE(::testing::Message()
                 << to_string(f) << " begin=" << begin << " width=" << width
                 << " count=" << sorted.size()
                 << " first=" << (sorted.empty() ? -1 : sorted.front()));
    std::vector<std::uint8_t> from_list = {0xAB};  // appends, not assigns
    std::vector<std::uint8_t> from_bits = {0xAB};
    WireStats list_stats;
    WireStats bits_stats;
    encode_vertex_bitmap(sorted, begin, end, f, from_list, &list_stats);
    encode_vertex_bits(words, sorted.size(), begin, end, f, from_bits,
                       &bits_stats);
    ASSERT_EQ(hex(from_bits), hex(from_list));
    EXPECT_EQ(bits_stats.raw_bytes, list_stats.raw_bytes);
    EXPECT_EQ(bits_stats.encoded_bytes, list_stats.encoded_bytes);
    EXPECT_EQ(bits_stats.items, list_stats.items);
    EXPECT_EQ(bits_stats.blocks_items, list_stats.blocks_items);
    EXPECT_EQ(bits_stats.blocks_bitmap, list_stats.blocks_bitmap);
    EXPECT_EQ(bits_stats.blocks_varint, list_stats.blocks_varint);

    std::vector<vid_t> listed;
    decode_vertex_stream(from_list.data() + 1, from_list.size() - 1, listed);
    EXPECT_EQ(listed, sorted);
    std::vector<std::uint64_t> decoded(words.size(), 0);
    EXPECT_EQ(decode_vertex_bits(from_list.data() + 1, from_list.size() - 1,
                                 begin, end, decoded),
              listed.size());
    EXPECT_EQ(decoded, words);
  }
}

TEST(VertexBits, MatchTheListFormsAtEveryWidthAndDensity) {
  // Empty, one vertex, just under and exactly 1/8 of the range (where the
  // range-wide bitmap takes over), and full; widths around word and byte
  // edges; range begins with and without a word-aligned base.
  for (vid_t width : {1, 7, 8, 63, 64, 65, 4097}) {
    const vid_t eighth = (width + 7) / 8;
    for (vid_t begin : {vid_t{0}, vid_t{61}, vid_t{1000003}}) {
      for (vid_t count : {vid_t{0}, vid_t{1}, eighth - 1, eighth, width}) {
        expect_bits_match_lists(spread_set(begin, width, count), begin,
                                width);
      }
    }
  }
}

TEST(VertexBits, BlockBasesOffTheWordGrid) {
  // Sparse sets ship as blocks based at their first vertex; starting it
  // at offsets 57-63 of a word makes every decoded word straddle two.
  for (vid_t width : {vid_t{65}, vid_t{128}, vid_t{4097}}) {
    for (vid_t first = 57; first <= 63; ++first) {
      for (vid_t count : {vid_t{1}, vid_t{2}, vid_t{9}, (width - first) / 9}) {
        if (count > width - first) continue;  // not a set
        expect_bits_match_lists(spread_set(5, width, count, first), 5,
                                width);
      }
    }
  }
  // Random dense and sparse sets, seeded.
  util::Xoshiro256 rng(23);
  for (int trial = 0; trial < 200; ++trial) {
    const auto width = static_cast<vid_t>(1 + rng.next_below(300));
    const auto begin = static_cast<vid_t>(rng.next_below(1000));
    const std::uint64_t keep = 1 + rng.next_below(16);  // 1/keep density
    std::vector<vid_t> set;
    for (vid_t v = begin; v < begin + width; ++v) {
      if (rng.next_below(keep) == 0) set.push_back(v);
    }
    expect_bits_match_lists(set, begin, width);
  }
}

/// One kBitmap frame of `count` items: base, width, then `bits`.
std::vector<std::uint8_t> bitmap_block(std::uint64_t count, std::uint64_t base,
                                       std::uint64_t width,
                                       const std::vector<std::uint8_t>& bits) {
  std::vector<std::uint8_t> payload;
  put_uvarint(payload, base);
  put_uvarint(payload, width);
  payload.insert(payload.end(), bits.begin(), bits.end());
  std::vector<std::uint8_t> bytes = {
      static_cast<std::uint8_t>(BlockEncoding::kBitmap)};
  put_uvarint(bytes, count);
  put_uvarint(bytes, payload.size());
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  return bytes;
}

TEST(VertexBits, BitsPastTheWidthAreIgnored) {
  // Width 13 in a 64-vertex range: the last byte's top three bits are
  // set on the wire but lie past the block, so neither decoder sees them.
  const auto bytes = bitmap_block(13, 100, 13, {0xFF, 0xFF});
  std::vector<vid_t> listed;
  decode_vertex_stream(bytes.data(), bytes.size(), listed);
  ASSERT_EQ(listed.size(), 13u);
  std::vector<std::uint64_t> words(1, 0);
  EXPECT_EQ(decode_vertex_bits(bytes.data(), bytes.size(), 100, 164, words),
            13u);
  EXPECT_EQ(words[0], (std::uint64_t{1} << 13) - 1);
  EXPECT_EQ(words, range_bits(listed, 100, 64));
}

TEST(VertexBits, MalformedStreamsThrow) {
  const auto throws = [](const std::vector<std::uint8_t>& bytes, vid_t begin,
                         vid_t end) {
    std::vector<std::uint64_t> words(
        static_cast<std::size_t>((end - begin + 63) / 64), 0);
    EXPECT_THROW(
        decode_vertex_bits(bytes.data(), bytes.size(), begin, end, words),
        WireDecodeError);
  };
  // A bitmap that stops short: one bit more than the bytes sent, and a
  // dense range block cut by one byte.
  throws(bitmap_block(16, 0, 17, {0xFF, 0xFF}), 0, 64);
  std::vector<std::uint8_t> dense;
  encode_vertex_bits(std::vector<std::uint64_t>{~std::uint64_t{0}}, 64, 0, 64,
                     WireFormat::kAuto, dense, nullptr);
  throws(std::vector<std::uint8_t>(dense.begin(), dense.end() - 1), 0, 64);
  // A frame count the bits do not hold.
  throws(bitmap_block(5, 0, 16, {0x07, 0x00}), 0, 64);
  // Item blocks whose payload is not count whole vertex ids.
  std::vector<std::uint8_t> ragged = {
      static_cast<std::uint8_t>(BlockEncoding::kItems)};
  put_uvarint(ragged, 1);
  put_uvarint(ragged, 12);
  ragged.resize(ragged.size() + 12, 0);
  throws(ragged, 0, 64);
  std::vector<std::uint8_t> short_items = {
      static_cast<std::uint8_t>(BlockEncoding::kItems)};
  put_uvarint(short_items, 2);
  put_uvarint(short_items, 8);
  short_items.resize(short_items.size() + 8, 0);
  throws(short_items, 0, 64);
  // A vertex below or above the range, in every block encoding: {10, 40}
  // decodes into [0, 64) but not into [11, 64) or [0, 40).
  for (WireFormat f : kAllFormats) {
    SCOPED_TRACE(to_string(f));
    std::vector<std::uint8_t> bytes;
    encode_vertex_list(std::vector<vid_t>{10, 40}, f, bytes, nullptr);
    std::vector<std::uint64_t> words(1, 0);
    EXPECT_EQ(decode_vertex_bits(bytes.data(), bytes.size(), 0, 64, words),
              2u);
    throws(bytes, 11, 64);
    throws(bytes, 0, 40);
  }
  // The range-wide block itself must fit the range: a 64-wide block based
  // at 0 decoded into [0, 63) holds vertex 63 past it.
  throws(dense, 0, 63);
  // words must be exactly the range's word count.
  std::vector<std::uint64_t> two(2, 0);
  EXPECT_THROW(decode_vertex_bits(dense.data(), dense.size(), 0, 64, two),
               std::invalid_argument);
}

TEST(Sieve, MarkTestAndMarkAll) {
  Sieve sieve;
  sieve.reset(3, 200);
  EXPECT_FALSE(sieve.test(0, 150));
  sieve.mark(0, 150);
  EXPECT_TRUE(sieve.test(0, 150));
  EXPECT_FALSE(sieve.test(1, 150));  // rank-private bitmaps
  sieve.mark_all(7);
  for (int r = 0; r < 3; ++r) EXPECT_TRUE(sieve.test(r, 7));
  sieve.reset(3, 200);
  EXPECT_FALSE(sieve.test(0, 150));  // reset clears
}

TEST(Sieve, SieveAndDedupDropsVisitedAndMarksSurvivors) {
  Sieve sieve;
  sieve.reset(2, 100);
  sieve.mark(0, 10);
  std::vector<Candidate> block = {{10, 1}, {20, 2}, {30, 3}};
  const auto dropped = sieve_and_dedup(sieve, 0, block, false);
  EXPECT_EQ(dropped, 1u);
  ASSERT_EQ(block.size(), 2u);
  EXPECT_EQ(block[0].vertex, 20);
  EXPECT_EQ(block[1].vertex, 30);
  EXPECT_TRUE(sieve.test(0, 20));
  EXPECT_TRUE(sieve.test(0, 30));
  // A later level re-sending the survivors drops them entirely.
  std::vector<Candidate> again = {{20, 9}, {30, 9}};
  EXPECT_EQ(sieve_and_dedup(sieve, 0, again, false), 2u);
  EXPECT_TRUE(again.empty());
}

TEST(Sieve, DedupKeepsFirstOccurrenceFor1D) {
  // 1D owners take the first candidate in receive order, so the sender
  // must keep the first duplicate.
  Sieve sieve;
  sieve.reset(1, 100);
  std::vector<Candidate> block = {{5, 40}, {2, 7}, {5, 99}, {2, 1}};
  const auto dropped = sieve_and_dedup(sieve, 0, block, false);
  EXPECT_EQ(dropped, 2u);
  ASSERT_EQ(block.size(), 2u);
  EXPECT_EQ(block[0].vertex, 2);
  EXPECT_EQ(block[0].parent, 7);  // first occurrence of 2
  EXPECT_EQ(block[1].vertex, 5);
  EXPECT_EQ(block[1].parent, 40);  // first occurrence of 5
}

TEST(Sieve, DedupKeepsMaxParentFor2D) {
  // 2D owners combine duplicates by max parent.
  Sieve sieve;
  sieve.reset(1, 100);
  std::vector<Candidate> block = {{5, 40}, {2, 7}, {5, 99}, {2, 1}};
  const auto dropped = sieve_and_dedup(sieve, 0, block, true);
  EXPECT_EQ(dropped, 2u);
  ASSERT_EQ(block.size(), 2u);
  EXPECT_EQ(block[0].vertex, 2);
  EXPECT_EQ(block[0].parent, 7);
  EXPECT_EQ(block[1].vertex, 5);
  EXPECT_EQ(block[1].parent, 99);  // max parent kept
}

TEST(Sieve, OutputSortedForCompressingCodecs) {
  Sieve sieve;
  sieve.reset(1, 1000);
  std::vector<Candidate> block = {{500, 1}, {3, 2}, {77, 3}, {3, 9}};
  sieve_and_dedup(sieve, 0, block, true);
  for (std::size_t i = 1; i < block.size(); ++i) {
    EXPECT_LT(block[i - 1].vertex, block[i].vertex);
  }
  // Sorted + unique means the block is bitmap-encodable.
  WireStats stats;
  std::vector<std::uint8_t> bytes;
  encode_candidates<Candidate>(block, WireFormat::kBitmap, bytes, &stats);
  EXPECT_EQ(stats.blocks_bitmap, 1u);
}

}  // namespace
}  // namespace dbfs::comm
