#include "stream/delta_io.hpp"

#include <cstdint>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>

namespace glouvain::stream {

namespace {

util::Status bad_line(std::size_t line_no, const std::string& line) {
  return util::Status::invalid_argument("delta file line " +
                                       std::to_string(line_no) +
                                       ": malformed: '" + line + "'");
}

util::Status vertex_overflow(std::size_t line_no, const std::string& line) {
  return util::Status::invalid_argument(
      "delta file line " + std::to_string(line_no) + ": vertex id exceeds "
      "the 32-bit vertex-id space: '" + line + "'");
}

}  // namespace

util::StatusOr<std::vector<Delta>> try_load_deltas(const std::string& path) {
  std::ifstream in(path);
  if (!in) return util::Status::not_found("cannot open " + path);

  std::vector<Delta> deltas;
  bool open_batch = false;  // the implicit batch 0 is created lazily
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream ls(line);
    std::string head;
    if (!(ls >> head)) continue;  // blank
    if (head[0] == '#' || head[0] == '%') continue;

    if (head == "batch") {
      Delta next;
      ls >> next.stamp;  // optional; default 0
      deltas.push_back(std::move(next));
      open_batch = true;
      continue;
    }

    if (head != "+" && head != "-") return bad_line(line_no, line);
    unsigned long long u = 0;
    unsigned long long v = 0;
    if (!(ls >> u >> v)) return bad_line(line_no, line);
    if (!graph::fits_vertex_id(u) || !graph::fits_vertex_id(v)) {
      return vertex_overflow(line_no, line);
    }
    graph::Edge e{static_cast<graph::VertexId>(u),
                  static_cast<graph::VertexId>(v)};
    if (head == "+") {  // optional weight (default 1), insertions only
      ls >> e.w;
      if (!graph::valid_weight(e.w)) return bad_line(line_no, line);
    }

    if (!open_batch) {
      deltas.emplace_back();
      open_batch = true;
    }
    if (head == "+") {
      deltas.back().insertions.push_back(e);
    } else {
      deltas.back().deletions.push_back(e);
    }
  }
  if (in.bad()) return util::Status::io_error("read failed on " + path);
  return deltas;
}

util::Status try_save_deltas(const std::vector<Delta>& deltas,
                             const std::string& path) {
  std::ofstream out(path);
  if (!out) return util::Status::io_error("cannot open " + path +
                                          " for writing");
  // Every bit of a weight survives the text round trip; unit weights
  // still print as "1".
  out << std::setprecision(std::numeric_limits<graph::Weight>::max_digits10);
  for (const Delta& d : deltas) {
    out << "batch " << d.stamp << "\n";
    for (const graph::Edge& e : d.deletions) {
      out << "- " << e.u << ' ' << e.v << "\n";
    }
    for (const graph::Edge& e : d.insertions) {
      out << "+ " << e.u << ' ' << e.v << ' ' << e.w << "\n";
    }
  }
  out.flush();
  if (!out) return util::Status::io_error("write failed on " + path);
  return util::Status::ok_status();
}

}  // namespace glouvain::stream
