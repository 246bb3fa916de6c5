// Arithmetic the benchmark reports with: percentiles, span self time and
// the per-layer breakdown of one traced query, and the multiset comparison
// that checks results. Kept free of threads and I/O so tests can feed it
// hand-built inputs.
#ifndef PERFBENCH_CORE_H_
#define PERFBENCH_CORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/value.h"

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least `p` percent of
/// the samples at or below it. 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

/// Calls into the program that the traced run times, one span each.
enum class Layer : uint8_t {
  kQuery,        ///< Root: the whole Session::Query-equivalent call path.
  kAdmit,        ///< AdmissionController::AdmitShared.
  kSnapshot,     ///< Database::CatalogSnapshot.
  kParse,        ///< parser::Parse.
  kFingerprint,  ///< plan::FingerprintQuery.
  kPlanQuery,    ///< Database::PlanQuery (cache lookup; compile on misses).
  kRecompile,    ///< Groups the three repeated compile calls below.
  kBind,         ///< plan::Bind.
  kRewrite,      ///< opt::RuleEngine::Rewrite.
  kOptimize,     ///< opt::Optimizer::Optimize (rewrite + enumeration).
  kBuild,        ///< exec::BuildExecutor.
  kDrain,        ///< Executor Init + Next/NextBatch to end of stream.
  kTeardown,     ///< Destroying the executor tree.
  kWrite,        ///< Root of one writer statement.
  kAdmitExclusive,  ///< AdmissionController::AdmitExclusive.
  kExecute,      ///< Database::Execute (the INSERT).
  kAnalyze,      ///< Session::Analyze (stats rebuild + snapshot publish).
};

const char* LayerName(Layer layer);

/// One timed call. Spans of one query share `query_id`; `parent` indexes
/// the enclosing span in the same query's span list (-1 for the root).
struct Span {
  Layer layer = Layer::kQuery;
  int32_t parent = -1;
  uint64_t query_id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover (children clipped to the parent, and
/// overlapping children counted once).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Per-layer times of one traced read, in nanoseconds.
///
/// Database::PlanQuery repeats work that earlier spans already timed: it
/// acquires a snapshot, parses and fingerprints the statement again before
/// it looks up the plan cache. The cache path's own time on a hit is
/// therefore the PlanQuery span minus the snapshot, parse and fingerprint
/// spans of the same query. On a miss PlanQuery also binds and optimizes;
/// the traced run repeats Bind, Rewrite and Optimize afterwards, under a
/// kRecompile span, to time them one by one. Those repeated calls are not
/// on the user's path: `path_ns` (the traced latency) leaves them out.
/// Enumeration is Optimize minus Rewrite, since Optimize rewrites first.
struct QueryLayers {
  int64_t path_ns = 0;
  int64_t admit_ns = 0;
  int64_t snapshot_ns = 0;
  int64_t parse_ns = 0;
  int64_t fingerprint_ns = 0;
  int64_t plan_query_ns = 0;
  int64_t cache_path_ns = 0;  ///< PlanQuery minus the work it repeats.
  int64_t bind_ns = 0;
  int64_t rewrite_ns = 0;
  int64_t enumerate_ns = 0;
  int64_t build_ns = 0;
  int64_t drain_ns = 0;
  int64_t teardown_ns = 0;
  int64_t root_self_ns = 0;  ///< Root time outside every child span.
  bool compiled = false;     ///< A kRecompile span was present.
};

/// Breaks down one query's spans (see QueryLayers).
QueryLayers BreakDown(const std::vector<Span>& spans);

/// Order-insensitive comparison of two results as multisets of rows.
/// DOUBLE values compare with a relative tolerance of 1e-9, because a SUM
/// over doubles depends on the order the plan adds them in.
bool SameRows(std::vector<qopt::Row> a, std::vector<qopt::Row> b);

/// Escapes `s` for a JSON string literal (without the quotes).
std::string JsonEscape(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_CORE_H_
