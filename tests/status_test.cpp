// Tests for the util::Status error vocabulary and its adoption by the
// graph I/O layer (try_* loaders with distinct failure codes) and the
// delta parser.
#include "util/status.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "graph/builder.hpp"
#include "graph/io.hpp"
#include "stream/delta_io.hpp"

namespace glouvain {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(Status, OkByDefault) {
  util::Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), util::StatusCode::kOk);
  EXPECT_EQ(util::exit_code(s), 0);
}

TEST(Status, FactoriesCarryCodeAndMessage) {
  const util::Status s = util::Status::invalid_argument("bad flag");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad flag");
  EXPECT_NE(s.to_string().find("bad flag"), std::string::npos);
}

TEST(Status, ExitCodesAreDistinct) {
  EXPECT_EQ(util::exit_code(util::Status::invalid_argument("")), 2);
  EXPECT_EQ(util::exit_code(util::Status::not_found("")), 3);
  EXPECT_EQ(util::exit_code(util::Status::io_error("")), 4);
  EXPECT_NE(util::exit_code(util::Status::resource_exhausted("")),
            util::exit_code(util::Status::deadline_exceeded("")));
  EXPECT_NE(util::exit_code(util::Status::cancelled("")),
            util::exit_code(util::Status::internal("")));
}

TEST(StatusOr, HoldsValueOrStatus) {
  util::StatusOr<int> ok_value = 42;
  ASSERT_TRUE(ok_value.ok());
  EXPECT_EQ(*ok_value, 42);

  util::StatusOr<int> err = util::Status::not_found("missing");
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), util::StatusCode::kNotFound);
  EXPECT_THROW((void)err.value(), std::logic_error);
}

TEST(GraphIoStatus, MissingFileIsNotFound) {
  const auto r = graph::try_load_edge_list(temp_path("definitely_absent.txt"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kNotFound);
  EXPECT_NE(r.status().message().find("cannot open"), std::string::npos);
}

TEST(GraphIoStatus, MalformedEdgeLineIsInvalidArgument) {
  const std::string path = temp_path("bad_edges.txt");
  std::ofstream(path) << "0 1\nnot numbers\n";
  const auto r = graph::try_load_edge_list(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(GraphIoStatus, BadBinaryMagicIsInvalidArgument) {
  const std::string path = temp_path("bad_magic.bin");
  std::ofstream(path, std::ios::binary) << "NOTMAGIC and some bytes";
  const auto r = graph::try_load_binary(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(GraphIoStatus, TruncatedBinaryIsIoError) {
  const std::string good = temp_path("roundtrip.bin");
  graph::Csr g = graph::build_csr({{0, 1, 1.0}, {1, 2, 2.0}, {2, 0, 1.0}});
  ASSERT_TRUE(graph::try_save_binary(g, good).ok());

  const std::string cut = temp_path("truncated.bin");
  std::filesystem::copy_file(good, cut,
                             std::filesystem::copy_options::overwrite_existing);
  std::filesystem::resize_file(cut, std::filesystem::file_size(cut) - 8);

  const auto r = graph::try_load_binary(cut);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kIoError);
}

TEST(GraphIoStatus, BinaryRoundTripIsOk) {
  const std::string path = temp_path("ok_roundtrip.bin");
  graph::Csr g = graph::build_csr({{0, 1, 1.0}, {1, 2, 2.0}, {2, 0, 1.0}});
  ASSERT_TRUE(graph::try_save_binary(g, path).ok());
  const auto r = graph::try_load_binary(path);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r->num_vertices(), g.num_vertices());
  EXPECT_EQ(r->num_edges(), g.num_edges());
}

TEST(GraphIoStatus, AutoDispatchPropagatesStatus) {
  const auto missing = graph::try_load_auto(temp_path("absent.mtx"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), util::StatusCode::kNotFound);

  const std::string path = temp_path("not_mm.mtx");
  std::ofstream(path) << "this is not a MatrixMarket file\n";
  const auto bad = graph::try_load_auto(path);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), util::StatusCode::kInvalidArgument);
}

// Every backend assumes positive weights, so each reader of a weight
// rejects one that is not finite and > 0 on the line that carries it.
TEST(GraphIoStatus, NonPositiveEdgeListWeightIsInvalidArgument) {
  for (const std::string w : {"0", "-2"}) {
    // Two triangles joined by an edge of weight w.
    const std::string path = temp_path("weight_" + w + ".txt");
    std::ofstream(path) << "0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n2 3 " << w << "\n";
    const auto r = graph::try_load_edge_list(path);
    ASSERT_FALSE(r.ok()) << w;
    EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument) << w;
  }
}

TEST(GraphIoStatus, NegativeMetisWeightIsInvalidArgument) {
  const std::string path = temp_path("negative.graph");
  std::ofstream(path) << "3 2 1\n2 1\n1 1 3 -3\n2 -3\n";
  const auto r = graph::try_load_metis(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(GraphIoStatus, NegativeBinaryWeightIsInvalidArgument) {
  const std::string path = temp_path("negative.bin");
  graph::Csr g = graph::build_csr({{0, 1, 1.0}, {1, 2, 2.0}, {2, 0, 1.0}});
  ASSERT_TRUE(graph::try_save_binary(g, path).ok());
  // The weight section ends the file: overwrite its last entry.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(-static_cast<std::streamoff>(sizeof(double)), std::ios::end);
  const double negative = -1.0;
  f.write(reinterpret_cast<const char*>(&negative), sizeof negative);
  f.close();
  const auto r = graph::try_load_binary(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(DeltaIoStatus, NegativeInsertionWeightIsInvalidArgument) {
  const std::string path = temp_path("negative.deltas");
  std::ofstream(path) << "batch 1\n+ 0 1 -5\n";
  const auto r = stream::try_load_deltas(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace glouvain
