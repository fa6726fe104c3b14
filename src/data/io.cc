#include "data/io.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

static_assert(sizeof(edr::Point2) == 2 * sizeof(double),
              "Point2 must be two packed doubles for binary I/O");

namespace edr {

Status SaveCsv(const TrajectoryDataset& db, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out << "# traj_index,label,x,y\n";
  char line[128];
  for (size_t i = 0; i < db.size(); ++i) {
    const Trajectory& t = db[i];
    for (const Point2& p : t) {
      std::snprintf(line, sizeof(line), "%zu,%d,%.17g,%.17g\n", i, t.label(),
                    p.x, p.y);
      out << line;
    }
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

Result<TrajectoryDataset> LoadCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);

  TrajectoryDataset db(path);
  bool have_current = false;
  long current_index = -1;
  Trajectory current;

  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    long index = 0;
    int label = -1;
    double x = 0.0;
    double y = 0.0;
    if (std::sscanf(line.c_str(), "%ld,%d,%lf,%lf", &index, &label, &x, &y) !=
        4) {
      return Status::InvalidArgument("malformed CSV at " + path + ":" +
                                     std::to_string(line_no) + ": " + line);
    }
    if (!std::isfinite(x) || !std::isfinite(y)) {
      return Status::InvalidArgument("non-finite coordinate at " + path +
                                     ":" + std::to_string(line_no) + ": " +
                                     line);
    }
    if (!have_current || index != current_index) {
      if (have_current) db.Add(std::move(current));
      current = Trajectory();
      current.set_label(label);
      current_index = index;
      have_current = true;
    }
    current.Append(x, y);
  }
  if (have_current) db.Add(std::move(current));
  return db;
}

namespace {
constexpr char kBinaryMagic[4] = {'E', 'D', 'R', 'T'};
constexpr uint32_t kBinaryVersion = 1;
}  // namespace

Status SaveBinary(const TrajectoryDataset& db, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open for writing: " + path);

  out.write(kBinaryMagic, sizeof(kBinaryMagic));
  out.write(reinterpret_cast<const char*>(&kBinaryVersion),
            sizeof(kBinaryVersion));
  const uint64_t count = db.size();
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const Trajectory& t : db) {
    const int32_t label = t.label();
    const uint64_t length = t.size();
    out.write(reinterpret_cast<const char*>(&label), sizeof(label));
    out.write(reinterpret_cast<const char*>(&length), sizeof(length));
    for (const Point2& p : t) {
      out.write(reinterpret_cast<const char*>(&p.x), sizeof(p.x));
      out.write(reinterpret_cast<const char*>(&p.y), sizeof(p.y));
    }
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

Result<TrajectoryDataset> LoadBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for reading: " + path);

  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kBinaryMagic, sizeof(kBinaryMagic)) != 0) {
    return Status::InvalidArgument("not a trajectory file: " + path);
  }
  uint32_t version = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!in || version != kBinaryVersion) {
    return Status::InvalidArgument("unsupported version in " + path);
  }
  uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in) return Status::IoError("truncated header: " + path);

  TrajectoryDataset db(path);
  for (uint64_t i = 0; i < count; ++i) {
    int32_t label = -1;
    uint64_t length = 0;
    in.read(reinterpret_cast<char*>(&label), sizeof(label));
    in.read(reinterpret_cast<char*>(&length), sizeof(length));
    if (!in) return Status::IoError("truncated trajectory header: " + path);
    // Cap per-trajectory allocations before trusting the header.
    constexpr uint64_t kMaxLength = 1ULL << 30;
    if (length > kMaxLength) {
      return Status::InvalidArgument("implausible trajectory length in " +
                                     path);
    }
    std::vector<Point2> points(length);
    in.read(reinterpret_cast<char*>(points.data()),
            static_cast<std::streamsize>(length * sizeof(Point2)));
    if (!in) return Status::IoError("truncated payload: " + path);
    for (const Point2& p : points) {
      if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
        return Status::InvalidArgument("non-finite coordinate in trajectory " +
                                       std::to_string(i) + " of " + path);
      }
    }
    db.Add(Trajectory(std::move(points), label));
  }
  return db;
}

}  // namespace edr
