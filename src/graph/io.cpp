#include "graph/io.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "graph/builder.hpp"

namespace glouvain::graph {

namespace {

using util::Status;
using util::StatusOr;

std::string msg(const std::string& path, const std::string& what) {
  return "graph io: " + path + ": " + what;
}

Status cannot_open(const std::string& path) {
  return Status::not_found(msg(path, "cannot open"));
}

Status malformed(const std::string& path, const std::string& what) {
  return Status::invalid_argument(msg(path, what));
}

Status io_failure(const std::string& path, const std::string& what) {
  return Status::io_error(msg(path, what));
}

Status vertex_overflow(const std::string& path, unsigned long long value) {
  return Status::invalid_argument(
      msg(path, "vertex id/count " + std::to_string(value) +
                    " exceeds the 32-bit vertex-id space"));
}

bool is_comment(const std::string& line) {
  for (char c : line) {
    if (std::isspace(static_cast<unsigned char>(c))) continue;
    return c == '#' || c == '%';
  }
  return true;  // blank
}

}  // namespace

StatusOr<Csr> try_load_edge_list(const std::string& path) {
  std::ifstream in(path);
  if (!in) return cannot_open(path);
  std::vector<Edge> edges;
  std::string line;
  while (std::getline(in, line)) {
    if (is_comment(line)) continue;
    std::istringstream ss(line);
    unsigned long long u, v;
    double w = 1.0;
    if (!(ss >> u >> v)) return malformed(path, "bad edge line: " + line);
    ss >> w;
    if (!valid_weight(w)) return malformed(path, "bad edge weight: " + line);
    if (!fits_vertex_id(u)) return vertex_overflow(path, u);
    if (!fits_vertex_id(v)) return vertex_overflow(path, v);
    edges.push_back({static_cast<VertexId>(u), static_cast<VertexId>(v), w});
  }
  if (in.bad()) return io_failure(path, "read error");
  return build_csr(std::move(edges));
}

StatusOr<Csr> try_load_matrix_market(const std::string& path) {
  std::ifstream in(path);
  if (!in) return cannot_open(path);
  std::string header;
  if (!std::getline(in, header) || header.rfind("%%MatrixMarket", 0) != 0) {
    return malformed(path, "missing MatrixMarket banner");
  }
  const bool pattern = header.find("pattern") != std::string::npos;

  std::string line;
  while (std::getline(in, line) && is_comment(line)) {
  }
  std::istringstream dims(line);
  unsigned long long rows, cols, nnz;
  if (!(dims >> rows >> cols >> nnz)) return malformed(path, "bad size line");
  if (rows != cols) return malformed(path, "matrix is not square");
  if (!fits_vertex_id(rows)) return vertex_overflow(path, rows);

  std::vector<Edge> edges;
  edges.reserve(nnz);
  while (std::getline(in, line)) {
    if (is_comment(line)) continue;
    std::istringstream ss(line);
    unsigned long long r, c;
    double w = 1.0;
    if (!(ss >> r >> c)) return malformed(path, "bad entry line: " + line);
    if (!pattern) ss >> w;
    if (r == 0 || c == 0 || r > rows || c > cols) {
      return malformed(path, "entry out of range");
    }
    // Graph use: take |value| as weight, ignore numerically-zero entries.
    w = std::abs(w);
    if (w == 0.0) w = 1.0;
    edges.push_back({static_cast<VertexId>(r - 1), static_cast<VertexId>(c - 1), w});
  }
  if (in.bad()) return io_failure(path, "read error");
  // Upper/lower duplicates in general matrices merge in the builder.
  return build_csr(static_cast<VertexId>(rows), std::move(edges));
}

StatusOr<Csr> try_load_metis(const std::string& path) {
  std::ifstream in(path);
  if (!in) return cannot_open(path);
  std::string line;
  while (std::getline(in, line) && is_comment(line)) {
  }
  std::istringstream hdr(line);
  unsigned long long n, m, fmt = 0;
  if (!(hdr >> n >> m)) return malformed(path, "bad METIS header");
  if (!fits_vertex_id(n)) return vertex_overflow(path, n);
  hdr >> fmt;
  const bool has_edge_weights = (fmt % 10) == 1;
  const bool has_vertex_weights = (fmt / 10 % 10) == 1;

  std::vector<Edge> edges;
  edges.reserve(2 * m);
  unsigned long long v = 0;
  while (v < n && std::getline(in, line)) {
    if (is_comment(line) && line.find_first_not_of(" \t\r") != std::string::npos &&
        line[line.find_first_not_of(" \t\r")] == '%') {
      continue;  // METIS allows % comment lines between rows
    }
    std::istringstream ss(line);
    if (has_vertex_weights) {
      unsigned long long vw;
      ss >> vw;  // vertex weights are ignored: Louvain weights live on edges
    }
    unsigned long long nb;
    while (ss >> nb) {
      double w = 1.0;
      if (has_edge_weights && !(ss >> w)) return malformed(path, "missing edge weight");
      if (!valid_weight(w)) return malformed(path, "bad edge weight: " + line);
      if (nb == 0 || nb > n) return malformed(path, "neighbor out of range");
      if (nb - 1 >= v) {  // keep each undirected edge once
        edges.push_back({static_cast<VertexId>(v), static_cast<VertexId>(nb - 1), w});
      }
    }
    ++v;
  }
  if (in.bad()) return io_failure(path, "read error");
  if (v != n) return malformed(path, "fewer adjacency rows than header promises");
  return build_csr(static_cast<VertexId>(n), std::move(edges));
}

StatusOr<Csr> try_load_auto(const std::string& path) {
  auto ends_with = [&](const char* suffix) {
    const std::size_t len = std::strlen(suffix);
    return path.size() >= len && path.compare(path.size() - len, len, suffix) == 0;
  };
  if (ends_with(".mtx")) return try_load_matrix_market(path);
  if (ends_with(".graph") || ends_with(".metis")) return try_load_metis(path);
  if (ends_with(".bin")) return try_load_binary(path);
  return try_load_edge_list(path);
}

namespace {
constexpr char kMagic[8] = {'G', 'L', 'O', 'U', 'B', 'I', 'N', '1'};

template <typename T>
void write_pod(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}
template <typename T>
void write_vec(std::ofstream& out, const std::vector<T>& v) {
  write_pod(out, static_cast<std::uint64_t>(v.size()));
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(T)));
}
template <typename T>
void read_pod(std::ifstream& in, T& v) {
  in.read(reinterpret_cast<char*>(&v), sizeof v);
}
/// Length-prefixed section read, bounded by the bytes actually left in
/// the file: a crafted or corrupt length prefix must fail with a
/// status instead of driving a multi-gigabyte allocation (or a silent
/// short read) off a 64-bit count.
template <typename T>
Status read_vec(std::ifstream& in, const std::string& path,
                std::uint64_t file_size, std::vector<T>& v) {
  std::uint64_t size = 0;
  read_pod(in, size);
  if (!in) return malformed(path, "truncated section header");
  const auto pos = static_cast<std::uint64_t>(in.tellg());
  const std::uint64_t remaining = file_size - pos;
  if (size > remaining / sizeof(T)) {
    // A count that could never have fit the file is a malformed
    // header; one that would fit the file but not the remainder looks
    // like a valid save that lost its tail.
    if (size <= file_size / sizeof(T)) {
      return io_failure(path, "truncated file");
    }
    return malformed(path, "section claims " + std::to_string(size) +
                               " entries but only " +
                               std::to_string(remaining) + " bytes remain");
  }
  v.resize(size);
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(size * sizeof(T)));
  if (!in) return io_failure(path, "truncated file");
  return Status::ok_status();
}
}  // namespace

Status try_save_binary(const Csr& graph, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return cannot_open(path);
  out.write(kMagic, sizeof kMagic);
  std::vector<EdgeIdx> offsets(graph.offsets().begin(), graph.offsets().end());
  std::vector<VertexId> adj(graph.adjacency().begin(), graph.adjacency().end());
  std::vector<Weight> weights(graph.edge_weights().begin(), graph.edge_weights().end());
  write_vec(out, offsets);
  write_vec(out, adj);
  write_vec(out, weights);
  if (!out) return io_failure(path, "write error");
  return Status::ok_status();
}

StatusOr<Csr> try_load_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return cannot_open(path);
  const auto file_size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  char magic[8];
  in.read(magic, sizeof magic);
  if (!in || std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    return malformed(path, "bad magic");
  }
  std::vector<EdgeIdx> offsets;
  std::vector<VertexId> adj;
  std::vector<Weight> weights;
  if (Status s = read_vec(in, path, file_size, offsets); !s.ok()) return s;
  if (Status s = read_vec(in, path, file_size, adj); !s.ok()) return s;
  if (Status s = read_vec(in, path, file_size, weights); !s.ok()) return s;
  if (offsets.empty()) return malformed(path, "empty offsets section");
  if (!fits_vertex_id(offsets.size() - 1)) {
    return vertex_overflow(path, offsets.size() - 1);
  }
  if (adj.size() != offsets.back() || weights.size() != adj.size()) {
    return malformed(path, "section sizes disagree with offsets");
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) {
      return malformed(path, "offsets are not monotone");
    }
  }
  const auto n = static_cast<VertexId>(offsets.size() - 1);
  for (const VertexId nb : adj) {
    if (nb >= n) return malformed(path, "neighbor id out of range");
  }
  for (const Weight w : weights) {
    if (!valid_weight(w)) return malformed(path, "bad edge weight");
  }
  return Csr(std::move(offsets), std::move(adj), std::move(weights));
}

Status try_save_edge_list(const Csr& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) return cannot_open(path);
  // Every bit of a weight survives the text round trip; unit weights
  // still print as "1".
  out << std::setprecision(std::numeric_limits<Weight>::max_digits10);
  for (VertexId u = 0; u < graph.num_vertices(); ++u) {
    auto nbrs = graph.neighbors(u);
    auto ws = graph.weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] >= u) {  // each undirected edge once; loops kept
        out << u << ' ' << nbrs[i] << ' ' << ws[i] << '\n';
      }
    }
  }
  if (!out) return io_failure(path, "write error");
  return Status::ok_status();
}

}  // namespace glouvain::graph
