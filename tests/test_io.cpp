#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>

#include "graph/generators.hpp"

namespace dbfs::graph {
namespace {

EdgeList sample_edges() {
  EdgeList e{6};
  e.add(0, 1);
  e.add(1, 2);
  e.add(5, 0);
  e.add(3, 3);
  return e;
}

TEST(TextIo, RoundTrip) {
  std::stringstream buffer;
  write_edge_list_text(buffer, sample_edges());
  const EdgeList back = read_edge_list_text(buffer);
  EXPECT_EQ(back.num_vertices(), 6);
  EXPECT_EQ(back.edges(), sample_edges().edges());
}

TEST(TextIo, InfersVertexCountWithoutHeader) {
  std::stringstream in("0 1\n4 2\n");
  const EdgeList e = read_edge_list_text(in);
  EXPECT_EQ(e.num_vertices(), 5);
  EXPECT_EQ(e.num_edges(), 2);
}

TEST(TextIo, HonorsHeaderAndComments) {
  std::stringstream in("# vertices 100\n% a comment\n# another\n3 7\n");
  const EdgeList e = read_edge_list_text(in);
  EXPECT_EQ(e.num_vertices(), 100);
  EXPECT_EQ(e.edges()[0], (Edge{3, 7}));
}

TEST(TextIo, RejectsGarbage) {
  std::stringstream in("0 1\nfoo bar\n");
  EXPECT_THROW(read_edge_list_text(in), std::runtime_error);
}

TEST(TextIo, RejectsNegativeIds) {
  std::stringstream in("0 -1\n");
  EXPECT_THROW(read_edge_list_text(in), std::runtime_error);
}

TEST(TextIo, RejectsIdBeyondDeclaredCount) {
  std::stringstream in("# vertices 3\n0 5\n");
  EXPECT_THROW(read_edge_list_text(in), std::runtime_error);
}

TEST(TextIo, EmptyInputGivesEmptyGraph) {
  std::stringstream in("");
  const EdgeList e = read_edge_list_text(in);
  EXPECT_EQ(e.num_vertices(), 0);
  EXPECT_EQ(e.num_edges(), 0);
}

TEST(BinaryIo, RoundTrip) {
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_edge_list_binary(buffer, sample_edges());
  const EdgeList back = read_edge_list_binary(buffer);
  EXPECT_EQ(back.num_vertices(), 6);
  EXPECT_EQ(back.edges(), sample_edges().edges());
}

TEST(BinaryIo, RoundTripLargeGenerated) {
  RmatParams params;
  params.scale = 10;
  params.edge_factor = 8;
  const EdgeList original = generate_rmat(params);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_edge_list_binary(buffer, original);
  const EdgeList back = read_edge_list_binary(buffer);
  EXPECT_EQ(back.num_vertices(), original.num_vertices());
  EXPECT_EQ(back.edges(), original.edges());
}

TEST(BinaryIo, RejectsBadMagic) {
  std::stringstream buffer("NOTMAGIC........");
  EXPECT_THROW(read_edge_list_binary(buffer), std::runtime_error);
}

TEST(BinaryIo, RejectsTruncation) {
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_edge_list_binary(buffer, sample_edges());
  const std::string full = buffer.str();
  std::stringstream cut(full.substr(0, full.size() - 8),
                        std::ios::in | std::ios::binary);
  EXPECT_THROW(read_edge_list_binary(cut), std::runtime_error);
}

// A header whose edge count no stream could hold is rejected as
// truncated before the edge array is sized from it. m is past
// std::vector<Edge>::max_size(), so even a reader that sized first
// throws without allocating.
TEST(BinaryIo, RejectsEdgeCountBeyondTheStream) {
  std::stringstream header(std::ios::in | std::ios::out | std::ios::binary);
  write_edge_list_binary(header, EdgeList{4});
  std::string bytes = header.str();
  ASSERT_EQ(bytes.size(), 24u);  // magic, n, m
  const std::int64_t m = std::numeric_limits<std::int64_t>::max();
  ASSERT_GT(static_cast<std::uint64_t>(m),
            std::vector<Edge>().max_size());
  bytes.replace(16, sizeof(m), reinterpret_cast<const char*>(&m), sizeof(m));
  std::stringstream in(bytes, std::ios::in | std::ios::binary);
  EXPECT_THROW(read_edge_list_binary(in), std::runtime_error);
}

TEST(FileIo, RoundTripsThroughDisk) {
  const std::string base = ::testing::TempDir() + "/distbfs_io_test";
  write_edge_list_text_file(base + ".txt", sample_edges());
  write_edge_list_binary_file(base + ".bin", sample_edges());
  EXPECT_EQ(read_edge_list_text_file(base + ".txt").edges(),
            sample_edges().edges());
  EXPECT_EQ(read_edge_list_binary_file(base + ".bin").edges(),
            sample_edges().edges());
  EXPECT_THROW(read_edge_list_text_file(base + ".missing"),
               std::runtime_error);
}

TEST(MatrixMarket, ReadsGeneralPattern) {
  std::stringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "% comment\n"
      "4 4 3\n"
      "1 2\n"
      "3 1\n"
      "4 4\n");
  const EdgeList e = read_matrix_market(in);
  EXPECT_EQ(e.num_vertices(), 4);
  ASSERT_EQ(e.num_edges(), 3);
  // Entry (r,c) -> edge c-1 -> r-1.
  EXPECT_EQ(e.edges()[0], (Edge{1, 0}));
  EXPECT_EQ(e.edges()[1], (Edge{0, 2}));
  EXPECT_EQ(e.edges()[2], (Edge{3, 3}));
}

TEST(MatrixMarket, SymmetricMirrorsOffDiagonal) {
  std::stringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 3\n"
      "2 1 1.5\n"
      "3 2 -2.0\n"
      "2 2 7.0\n");
  const EdgeList e = read_matrix_market(in);
  EXPECT_EQ(e.num_vertices(), 3);
  // Two off-diagonal entries mirrored + one diagonal kept once = 5.
  EXPECT_EQ(e.num_edges(), 5);
}

TEST(MatrixMarket, RectangularUsesMaxDimension) {
  std::stringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 5 1\n"
      "1 5\n");
  const EdgeList e = read_matrix_market(in);
  EXPECT_EQ(e.num_vertices(), 5);
}

TEST(MatrixMarket, RejectsBadBanner) {
  std::stringstream in("%%NotMatrixMarket nope\n1 1 0\n");
  EXPECT_THROW(read_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarket, RejectsNonCoordinate) {
  std::stringstream in("%%MatrixMarket matrix array real general\n");
  EXPECT_THROW(read_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarket, RejectsOutOfRangeEntry) {
  std::stringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 1\n"
      "3 1\n");
  EXPECT_THROW(read_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarket, RejectsTruncatedEntryList) {
  std::stringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "4 4 3\n"
      "1 2\n");
  EXPECT_THROW(read_matrix_market(in), std::runtime_error);
}

}  // namespace
}  // namespace dbfs::graph
