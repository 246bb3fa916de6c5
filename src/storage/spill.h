// Spill files: temporary on-disk row storage for operators that degrade
// gracefully under memory pressure (external sort runs, grace hash join
// partitions) instead of failing with kResourceExhausted.
//
// File format (binary, little-endian host order):
//   row   := u32 arity, then `arity` values
//   value := type tag byte (TypeId), then payload:
//              kNull            (no payload)
//              kBool            1 byte
//              kInt64 / kDouble 8 bytes
//              kString          u32 length + raw bytes
//
// A SpillFile is created, appended to, sealed with FinishWrite(), then read
// back with Rewind()/ReadNext(). The destructor closes and unlinks the file
// unconditionally, so spill files never outlive their operator — including
// on error paths (injected faults, cancelled queries): destroying the
// executor tree is enough to reclaim all spill disk space.
#ifndef QOPT_STORAGE_SPILL_H_
#define QOPT_STORAGE_SPILL_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/value.h"

namespace qopt {

/// User-facing spill knobs (QueryOptions::spill). Spilling arms when
/// `enabled` and some memory budget exists to degrade against — either an
/// explicit per-operator budget here or the governor's byte budget.
struct SpillOptions {
  /// Master switch. Disabled, materializing operators fail with
  /// kResourceExhausted when the governor's memory budget is exceeded
  /// (the pre-spill behavior).
  bool enabled = true;
  /// In-memory working-set budget per materializing operator, in modeled
  /// row bytes; 0 derives a budget from the governor's max_memory_bytes.
  uint64_t operator_budget_bytes = 0;
  /// Grace hash join fan-out (build/probe partition-file pairs).
  size_t partitions = 8;
  /// Maximum runs merged per external-sort merge pass.
  size_t merge_fanin = 16;
  /// Spill directory; empty means the system temp directory.
  std::string dir;
};

/// Resolved spill policy handed to executors via ExecContext (engine-built
/// from SpillOptions + governor budget; see ResolveSpill in database.cc).
struct SpillConfig {
  bool armed = false;
  uint64_t budget_bytes = 0;
  size_t partitions = 8;
  size_t merge_fanin = 16;
  std::string dir;
};

/// One temporary spill file holding serialized rows.
class SpillFile {
 public:
  /// Creates an empty spill file in `dir` (system temp dir when empty).
  /// Fault point "storage.spill.open".
  static Result<std::unique_ptr<SpillFile>> Create(const std::string& dir);

  /// Closes and unlinks the backing file.
  ~SpillFile();

  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  /// Serializes one row. Fault point "storage.spill.write".
  Status Append(const Row& row);

  /// Seals the write phase (flushes; further Appends are a bug).
  Status FinishWrite();

  /// Positions the read cursor at the first row.
  Status Rewind();

  /// Reads the next row into `*row`; returns false at end of file.
  Result<bool> ReadNext(Row* row);

  uint64_t rows() const { return rows_; }
  uint64_t bytes_written() const { return bytes_written_; }
  const std::string& path() const { return path_; }

 private:
  SpillFile(std::FILE* f, std::string path) : file_(f), path_(std::move(path)) {}

  Status WriteValue(const Value& v);
  Result<Value> ReadValue();

  std::FILE* file_ = nullptr;
  std::string path_;
  uint64_t rows_ = 0;
  uint64_t bytes_written_ = 0;
  uint64_t rows_read_ = 0;
};

}  // namespace qopt

#endif  // QOPT_STORAGE_SPILL_H_
