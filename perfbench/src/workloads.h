// The benchmark's four workloads. Each one is a data set built from the
// seed plus, per client session, a seeded stream of SQL statements; the
// engine sees only the generated data and SQL. README.md in this directory
// says why each workload exists and which layer it stresses.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "engine/database.h"

namespace perfbench {

/// One SELECT a client sends, with the options it sends it with.
struct Statement {
  std::string sql;
  qopt::QueryOptions options;
};

/// The open-loop writer: INSERT batches due every 1/rate_hz seconds, each
/// `analyze_every`-th one followed by an ANALYZE of `table`.
struct WriterSpec {
  double rate_hz = 0;
  int rows_per_write = 0;
  int analyze_every = 0;  ///< 0: never.
  std::string table;
};

struct TableSize {
  std::string table;
  int64_t rows = 0;
};

struct Workload {
  std::string name;
  int reader_sessions = 1;
  std::vector<TableSize> tables;
  WriterSpec writer;
  /// Statements the oracle re-runs after the measured window.
  int oracle_sample = 16;
  /// Statements each reader session sends during set-up, from a separate
  /// stream of the same mix: they fill the plan cache (the parametric plans
  /// need a second distinct literal per shape) and build the lazy indexes.
  /// Whole rounds of the workload's deck, so set-up work does not depend
  /// on the seed.
  size_t warmup_statements = 0;
  /// Creates, loads and analyzes the tables.
  std::function<qopt::Status(qopt::Database*)> setup;
  /// The statement stream of reader session `session`; `stream` selects an
  /// independent stream of the same mix (0 is the measured one).
  std::function<std::function<Statement()>(int session, int stream)> reads;
  /// The `i`-th writer statement (an INSERT). Without a writer
  /// (writer.rate_hz == 0) these are small INSERTs into a table no reader
  /// touches, which reader session 0 sends between its reads to time a
  /// write under the workload's load.
  std::function<std::string(uint64_t i)> write_sql;
};

/// Names of all workloads, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// The workload `name` generated from `seed`, or nullopt for an unknown name.
std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed);

/// SplitMix64 finalizer: decorrelates seeds derived from one another.
uint64_t MixSeed(uint64_t x);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
