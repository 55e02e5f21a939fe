#include "graph/io.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace dbfs::graph {

namespace {

constexpr char kBinaryMagic[8] = {'D', 'B', 'F', 'S', 'E', 'D', 'G', '1'};

std::ifstream open_input(const std::string& path, bool binary) {
  std::ifstream in(path, binary ? std::ios::binary : std::ios::in);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  return in;
}

std::ofstream open_output(const std::string& path, bool binary) {
  std::ofstream out(path, binary ? std::ios::binary : std::ios::out);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  return out;
}

}  // namespace

EdgeList read_edge_list_text(std::istream& in) {
  std::vector<Edge> edges;
  vid_t declared_n = -1;
  vid_t max_id = -1;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (line[0] == '#' || line[0] == '%') {
      std::istringstream header(line.substr(1));
      std::string key;
      long long value = 0;
      if (header >> key >> value && key == "vertices") {
        declared_n = static_cast<vid_t>(value);
      }
      continue;
    }
    std::istringstream fields(line);
    long long u = 0;
    long long v = 0;
    if (!(fields >> u >> v)) {
      throw std::runtime_error("edge list parse error at line " +
                               std::to_string(lineno));
    }
    if (u < 0 || v < 0) {
      throw std::runtime_error("negative vertex id at line " +
                               std::to_string(lineno));
    }
    edges.push_back(Edge{static_cast<vid_t>(u), static_cast<vid_t>(v)});
    max_id = std::max({max_id, static_cast<vid_t>(u), static_cast<vid_t>(v)});
  }
  const vid_t n = declared_n >= 0 ? declared_n : max_id + 1;
  if (max_id >= n) {
    throw std::runtime_error("edge id exceeds declared vertex count");
  }
  return EdgeList{std::max<vid_t>(n, 0), std::move(edges)};
}

EdgeList read_edge_list_text_file(const std::string& path) {
  auto in = open_input(path, false);
  return read_edge_list_text(in);
}

void write_edge_list_text(std::ostream& out, const EdgeList& edges) {
  out << "# vertices " << edges.num_vertices() << "\n";
  for (const Edge& e : edges.edges()) {
    out << e.u << ' ' << e.v << '\n';
  }
}

void write_edge_list_text_file(const std::string& path,
                               const EdgeList& edges) {
  auto out = open_output(path, false);
  write_edge_list_text(out, edges);
}

EdgeList read_edge_list_binary(std::istream& in) {
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || !std::equal(std::begin(magic), std::end(magic),
                         std::begin(kBinaryMagic))) {
    throw std::runtime_error("bad binary edge-list magic");
  }
  std::int64_t n = 0;
  std::int64_t m = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  in.read(reinterpret_cast<char*>(&m), sizeof(m));
  if (!in || n < 0 || m < 0) {
    throw std::runtime_error("bad binary edge-list header");
  }
  static_assert(sizeof(Edge) == 2 * sizeof(std::int64_t));
  // Size the edge array only once the stream is known to hold m edges, so
  // a corrupt header cannot make the reader allocate gigabytes first. A
  // stream that cannot seek skips the check and fails on the read below.
  const std::istream::pos_type here = in.tellg();
  if (here != std::istream::pos_type(-1)) {
    in.seekg(0, std::ios::end);
    const auto left = static_cast<std::uint64_t>(in.tellg() - here);
    in.seekg(here);
    if (static_cast<std::uint64_t>(m) > left / sizeof(Edge)) {
      throw std::runtime_error("truncated binary edge list");
    }
  }
  std::vector<Edge> edges(static_cast<std::size_t>(m));
  in.read(reinterpret_cast<char*>(edges.data()),
          static_cast<std::streamsize>(edges.size() * sizeof(Edge)));
  if (!in) throw std::runtime_error("truncated binary edge list");
  return EdgeList{static_cast<vid_t>(n), std::move(edges)};
}

EdgeList read_edge_list_binary_file(const std::string& path) {
  auto in = open_input(path, true);
  return read_edge_list_binary(in);
}

void write_edge_list_binary(std::ostream& out, const EdgeList& edges) {
  out.write(kBinaryMagic, sizeof(kBinaryMagic));
  const std::int64_t n = edges.num_vertices();
  const std::int64_t m = edges.num_edges();
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.write(reinterpret_cast<const char*>(&m), sizeof(m));
  out.write(reinterpret_cast<const char*>(edges.edges().data()),
            static_cast<std::streamsize>(edges.edges().size() * sizeof(Edge)));
}

void write_edge_list_binary_file(const std::string& path,
                                 const EdgeList& edges) {
  auto out = open_output(path, true);
  write_edge_list_binary(out, edges);
}

EdgeList read_matrix_market(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error("empty MatrixMarket file");
  }
  std::istringstream banner(line);
  std::string mm, object, format, field, symmetry;
  banner >> mm >> object >> format >> field >> symmetry;
  if (mm != "%%MatrixMarket" || object != "matrix") {
    throw std::runtime_error("not a MatrixMarket matrix file");
  }
  if (format != "coordinate") {
    throw std::runtime_error("only coordinate MatrixMarket is supported");
  }
  const bool has_value = field != "pattern";
  const bool symmetric = symmetry == "symmetric" || symmetry == "skew-symmetric";
  if (symmetry == "hermitian") {
    throw std::runtime_error("hermitian matrices are not supported");
  }

  // Skip comments; read the size line.
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream sizes(line);
  long long rows = 0;
  long long cols = 0;
  long long nnz = 0;
  if (!(sizes >> rows >> cols >> nnz)) {
    throw std::runtime_error("bad MatrixMarket size line");
  }
  const vid_t n = static_cast<vid_t>(std::max(rows, cols));

  EdgeList edges{n};
  edges.reserve(static_cast<std::size_t>(symmetric ? 2 * nnz : nnz));
  long long seen = 0;
  while (seen < nnz && std::getline(in, line)) {
    if (line.empty() || line[0] == '%') continue;
    std::istringstream fields(line);
    long long r = 0;
    long long c = 0;
    if (!(fields >> r >> c)) {
      throw std::runtime_error("bad MatrixMarket entry: " + line);
    }
    if (has_value) {
      double value;
      fields >> value;  // discarded: BFS is structural
    }
    if (r < 1 || c < 1 || r > rows || c > cols) {
      throw std::runtime_error("MatrixMarket entry out of range: " + line);
    }
    // Entry (r, c) = edge c -> r in the pre-transposed convention; for
    // BFS interchange we emit it as an edge both ways when symmetric.
    edges.add(static_cast<vid_t>(c - 1), static_cast<vid_t>(r - 1));
    if (symmetric && r != c) {
      edges.add(static_cast<vid_t>(r - 1), static_cast<vid_t>(c - 1));
    }
    ++seen;
  }
  if (seen != nnz) {
    throw std::runtime_error("MatrixMarket file truncated: expected " +
                             std::to_string(nnz) + " entries, got " +
                             std::to_string(seen));
  }
  return edges;
}

EdgeList read_matrix_market_file(const std::string& path) {
  auto in = open_input(path, false);
  return read_matrix_market(in);
}

}  // namespace dbfs::graph
