#include "data/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "data/generators.h"

namespace edr {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(IoTest, RoundTripPreservesEverything) {
  RandomWalkOptions options;
  options.count = 12;
  options.min_length = 3;
  options.max_length = 20;
  TrajectoryDataset db = GenRandomWalk(options);
  db[0].set_label(5);
  db[3].set_label(0);

  const std::string path = TempPath("roundtrip.csv");
  ASSERT_TRUE(SaveCsv(db, path).ok());
  const Result<TrajectoryDataset> loaded = LoadCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), db.size());
  for (size_t i = 0; i < db.size(); ++i) {
    EXPECT_TRUE((*loaded)[i] == db[i]) << i;
    EXPECT_EQ((*loaded)[i].label(), db[i].label());
    EXPECT_EQ((*loaded)[i].id(), db[i].id());
  }
  std::remove(path.c_str());
}

TEST(IoTest, MissingFileIsIoError) {
  const Result<TrajectoryDataset> r = LoadCsv("/nonexistent/file.csv");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(IoTest, MalformedLineIsInvalidArgument) {
  const std::string path = TempPath("malformed.csv");
  {
    std::ofstream out(path);
    out << "0,1,0.5,0.5\n";
    out << "not,a,valid line\n";
  }
  const Result<TrajectoryDataset> r = LoadCsv(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // The error message pinpoints the line.
  EXPECT_NE(r.status().message().find(":2"), std::string::npos);
  std::remove(path.c_str());
}

TEST(IoTest, CommentsAndBlankLinesSkipped) {
  const std::string path = TempPath("comments.csv");
  {
    std::ofstream out(path);
    out << "# header comment\n\n";
    out << "0,-1,1.0,2.0\n";
    out << "0,-1,3.0,4.0\n";
    out << "\n# trailing\n";
    out << "7,2,5.0,6.0\n";
  }
  const Result<TrajectoryDataset> r = LoadCsv(path);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[0].size(), 2u);
  EXPECT_EQ((*r)[0].label(), -1);
  EXPECT_EQ((*r)[1].size(), 1u);
  EXPECT_EQ((*r)[1].label(), 2);
  std::remove(path.c_str());
}

TEST(IoTest, EmptyFileGivesEmptyDataset) {
  const std::string path = TempPath("empty.csv");
  { std::ofstream out(path); }
  const Result<TrajectoryDataset> r = LoadCsv(path);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RoundTripPreservesEverything) {
  RandomWalkOptions options;
  options.count = 20;
  options.min_length = 1;
  options.max_length = 40;
  TrajectoryDataset db = GenRandomWalk(options);
  db[2].set_label(9);

  const std::string path = TempPath("roundtrip.edrt");
  ASSERT_TRUE(SaveBinary(db, path).ok());
  const Result<TrajectoryDataset> loaded = LoadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), db.size());
  for (size_t i = 0; i < db.size(); ++i) {
    EXPECT_TRUE((*loaded)[i] == db[i]) << i;  // Bit-exact doubles.
    EXPECT_EQ((*loaded)[i].label(), db[i].label());
  }
  std::remove(path.c_str());
}

TEST(BinaryIoTest, EmptyDatasetRoundTrips) {
  const std::string path = TempPath("empty.edrt");
  ASSERT_TRUE(SaveBinary(TrajectoryDataset(), path).ok());
  const Result<TrajectoryDataset> r = LoadBinary(path);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
  std::remove(path.c_str());
}

TEST(IoTest, NonFiniteCoordinateIsInvalidArgument) {
  const std::string path = TempPath("nonfinite.csv");
  for (const char* bad : {"nan", "-nan", "inf", "-inf", "1e999"}) {
    {
      std::ofstream out(path);
      out << "# traj_index,label,x,y\n";
      out << "0,1,0.5,0.5\n";
      out << "0,1," << bad << ",0.25\n";
      out << "1,1,0.5," << bad << "\n";
    }
    const Result<TrajectoryDataset> r = LoadCsv(path);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
    // The first bad line is named, not a later one.
    EXPECT_NE(r.status().message().find(":3"), std::string::npos)
        << r.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(BinaryIoTest, NonFiniteCoordinateRejected) {
  const std::string path = TempPath("nonfinite.edrt");
  const double bads[] = {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()};
  for (const double bad : bads) {
    TrajectoryDataset db;
    db.Add(Trajectory({{0.0, 0.0}, {1.0, 1.0}}));
    db.Add(Trajectory({{0.0, 0.0}}));
    db.Add(Trajectory({{0.0, 0.0}, {2.0, bad}}));
    db.Add(Trajectory({{bad, 0.0}}));
    ASSERT_TRUE(SaveBinary(db, path).ok());
    const Result<TrajectoryDataset> r = LoadBinary(path);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(r.status().message().find("trajectory 2 "), std::string::npos)
        << r.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(BinaryIoTest, BadMagicRejected) {
  const std::string path = TempPath("bad.edrt");
  {
    std::ofstream out(path, std::ios::binary);
    out << "JUNKJUNKJUNKJUNKJUNK";
  }
  const Result<TrajectoryDataset> r = LoadBinary(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, TruncationRejected) {
  RandomWalkOptions options;
  options.count = 5;
  TrajectoryDataset db = GenRandomWalk(options);
  const std::string path = TempPath("trunc.edrt");
  ASSERT_TRUE(SaveBinary(db, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size() / 2));
  }
  const Result<TrajectoryDataset> r = LoadBinary(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, CsvAndBinaryAgree) {
  RandomWalkOptions options;
  options.count = 10;
  options.seed = 77;
  const TrajectoryDataset db = GenRandomWalk(options);
  const std::string csv = TempPath("agree.csv");
  const std::string bin = TempPath("agree.edrt");
  ASSERT_TRUE(SaveCsv(db, csv).ok());
  ASSERT_TRUE(SaveBinary(db, bin).ok());
  const Result<TrajectoryDataset> a = LoadCsv(csv);
  const Result<TrajectoryDataset> b = LoadBinary(bin);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_TRUE((*a)[i] == (*b)[i]);
  }
  std::remove(csv.c_str());
  std::remove(bin.c_str());
}

TEST(IoTest, SaveToBadPathFails) {
  TrajectoryDataset db;
  db.Add(Trajectory({{0.0, 0.0}}));
  EXPECT_FALSE(SaveCsv(db, "/nonexistent/dir/file.csv").ok());
}

}  // namespace
}  // namespace edr
