#include "metrics/partition_io.hpp"

#include <cctype>
#include <fstream>
#include <sstream>

namespace glouvain::metrics {

namespace {

using util::Status;

bool is_comment(const std::string& line) {
  for (char ch : line) {
    if (std::isspace(static_cast<unsigned char>(ch))) continue;
    return ch == '#' || ch == '%';
  }
  return true;
}

Status invalid(const std::string& path, const std::string& what) {
  return Status::invalid_argument("partition " + path + ": " + what);
}

}  // namespace

util::StatusOr<std::vector<graph::Community>> load_partition(
    const std::string& path, graph::VertexId num_vertices) {
  std::ifstream in(path);
  if (!in) return Status::not_found("cannot open partition: " + path);
  std::vector<graph::Community> community(num_vertices, 0);
  std::vector<bool> seen(num_vertices, false);
  std::string line;
  while (std::getline(in, line)) {
    if (is_comment(line)) continue;
    std::istringstream ss(line);
    unsigned long long v = 0;
    unsigned long long c = 0;
    if (!(ss >> v >> c)) return invalid(path, "bad line: " + line);
    if (v >= num_vertices || c >= num_vertices) {
      return invalid(path, "vertex or label out of range for " +
                               std::to_string(num_vertices) +
                               " vertices: " + line);
    }
    community[v] = static_cast<graph::Community>(c);
    seen[v] = true;
  }
  if (in.bad()) return Status::io_error("cannot read partition: " + path);
  for (graph::VertexId v = 0; v < num_vertices; ++v) {
    if (!seen[v]) return invalid(path, "vertex " + std::to_string(v) + " missing");
  }
  return community;
}

Status save_partition(const std::vector<graph::Community>& community,
                      const std::string& path) {
  std::ofstream out(path);
  for (std::size_t v = 0; v < community.size(); ++v) {
    out << v << ' ' << community[v] << '\n';
  }
  out.flush();
  if (!out) return Status::io_error("cannot write partition: " + path);
  return Status::ok_status();
}

}  // namespace glouvain::metrics
