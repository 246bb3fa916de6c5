// Runs one workload: set-up, the measured window of closed-loop readers and
// the open-loop writer, the traced run, and the correctness checks.
#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core.h"
#include "engine/session.h"
#include "workloads.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines); empty: nowhere.
  std::string trace_out;
  /// Directory for the engine's spill files (QueryOptions::spill.dir).
  std::string spill_dir;
  std::string git_sha = "unknown";
};

/// Operation accounting behind `attempted`, `failed` and `correct`.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  void AddOps(uint64_t ops, uint64_t failed_ops) {
    attempted += ops;
    failed += failed_ops;
  }
  /// One result compared against its reference; a mismatch is a failed
  /// operation and makes the run incorrect.
  void AddCheck(bool match) {
    ++attempted;
    if (!match) {
      ++failed;
      correct = false;
    }
  }
  double ok_frac() const {
    return attempted == 0
               ? 0
               : 1.0 - static_cast<double>(failed) /
                           static_cast<double>(attempted);
  }
};

/// Alters a result before it is compared (tests corrupt results with it).
using ResultTamper = std::function<void(std::vector<qopt::Row>*)>;

/// Runs `st` through `session` as the workload sends it and again with
/// QueryOptions::naive_execution (the oracle), and records whether the two
/// results are the same multiset. An error on either side is a mismatch.
void CheckAgainstOracle(qopt::Session* session, const Statement& st,
                        Outcome* outcome,
                        const ResultTamper& tamper = nullptr);

/// How the engine runs the hash joins of a sample of statements, and how
/// the traced path must arm spill to run them the same way.
struct ExecModeCheck {
  bool spill_armed = false;
  uint64_t hash_joins = 0;           ///< In the sample's EXPLAIN output.
  uint64_t row_mode_hash_joins = 0;  ///< Of those, without a mode marker.
  /// Statements whose hash joins the traced path would run in another mode
  /// than EXPLAIN shows, or that failed to plan.
  uint64_t mismatches = 0;
};

/// Sends `EXPLAIN <sql>` for each statement of `sample` through
/// Session::Query with the statement's options. The rendered markers are
/// the engine's own mode decision, spill arming included. Where arming
/// changes the mode of a hash join, the markers decide whether the traced
/// path arms spill; where no statement of the sample tells, it keeps
/// SpillArmedByRule.
ExecModeCheck CheckExecModes(qopt::Database* db, qopt::Session* session,
                             const std::vector<Statement>& sample);

/// The first `limit` statements of reader session 0's measured stream.
std::vector<Statement> StreamPrefix(const Workload& w, size_t limit);

/// A seeded sample of at most `n` distinct statements among `statements`,
/// in order of first appearance.
std::vector<Statement> SampleDistinct(const std::vector<Statement>& statements,
                                      size_t n, uint64_t seed);

/// Runs the configured workload, prints the environment line and the
/// result line, and returns the process exit code.
int Run(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_H_
