#ifndef EDR_DATA_IO_H_
#define EDR_DATA_IO_H_

#include <string>

#include "core/dataset.h"
#include "core/status.h"

namespace edr {

/// Writes a dataset to a CSV file with one sample per line:
///
///   traj_index,label,x,y
///
/// Consecutive lines with the same traj_index form one trajectory; a label
/// of -1 means unlabeled. Values are written with enough precision to
/// round-trip doubles.
Status SaveCsv(const TrajectoryDataset& db, const std::string& path);

/// Reads a dataset written by SaveCsv (or produced externally in the same
/// format). Lines starting with '#' and blank lines are skipped.
/// Trajectory indexes must be grouped (all samples of a trajectory on
/// consecutive lines) but need not be dense or ordered. A NaN or infinite
/// coordinate fails with kInvalidArgument naming the line: the filters'
/// bounds assume finite points.
Result<TrajectoryDataset> LoadCsv(const std::string& path);

/// Writes a dataset in a compact little-endian binary format (roughly 3x
/// smaller and an order of magnitude faster to parse than CSV):
///
///   magic "EDRT"  u32 version  u64 count
///   per trajectory: i32 label  u64 length  f64 x,y pairs
Status SaveBinary(const TrajectoryDataset& db, const std::string& path);

/// Reads a dataset written by SaveBinary. Fails with kInvalidArgument on
/// a bad magic/version or a NaN/infinite coordinate (naming the
/// trajectory index) and kIoError on truncation.
Result<TrajectoryDataset> LoadBinary(const std::string& path);

}  // namespace edr

#endif  // EDR_DATA_IO_H_
