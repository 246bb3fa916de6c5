// ResourceGovernor: per-query deadline and row/memory budgets with
// cooperative cancellation.
//
// A production optimizer must bound its own work (paper §4: join-order
// enumeration is combinatorial) and the executor must never hang or OOM on
// a pathological plan. One governor instance is created per query and
// carried through Optimizer::Optimize and every Executor::Next/NextBatch
// via the ExecContext. All checks are cooperative: hot loops call Tick()
// (amortized to one steady-clock read every `check_interval_rows` rows) and
// materializing operators charge their buffers as they grow. A tripped
// limit surfaces as Status::Cancelled / Status::ResourceExhausted, which
// propagates out of ExecuteAll / Database::Query as a clean Result error.
#ifndef QOPT_ENGINE_GOVERNOR_H_
#define QOPT_ENGINE_GOVERNOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/status.h"

namespace qopt {

/// Per-query resource limits. Zero / negative values disable a limit; the
/// default-constructed options impose no limits at all (zero overhead).
struct GovernorOptions {
  /// Wall-clock deadline in milliseconds from governor construction,
  /// measured on the steady clock. Negative: no deadline. 0: the query is
  /// cancelled at the first cooperative check.
  int64_t deadline_ms = -1;
  /// Budget on rows materialized by blocking operators (hash-join build
  /// sides, sorts, aggregation tables, set-op hash sets, subquery
  /// materialization) plus result rows. 0: unlimited. The charge is
  /// cumulative over the query's lifetime — rescans (e.g. an Apply inner
  /// subtree re-executed per outer row) re-charge, which deliberately
  /// bounds total work, not just peak footprint.
  uint64_t max_rows = 0;
  /// Budget on modeled bytes of the same materializations. 0: unlimited.
  uint64_t max_memory_bytes = 0;
  /// How many rows may pass between deadline checks on the hot path.
  uint64_t check_interval_rows = 1024;

  /// True when no per-query limit is configured — the default-constructed
  /// state. The session layer substitutes ServiceDefaults() for unlimited
  /// options, so an explicit per-query limit always wins over the serving
  /// defaults.
  bool Unlimited() const {
    return deadline_ms < 0 && max_rows == 0 && max_memory_bytes == 0;
  }

  /// Production-style limits used by services and the overhead benchmark:
  /// generous enough to never trip on a healthy query, tight enough to
  /// keep a runaway one bounded. Session-scoped queries get these by
  /// default (ServingOptions::query_defaults).
  static GovernorOptions ServiceDefaults() {
    GovernorOptions o;
    o.deadline_ms = 30'000;
    o.max_rows = 200'000'000;
    o.max_memory_bytes = 4ULL << 30;
    return o;
  }
};

/// Global in-flight resource budget shared by every admitted query of one
/// database. Per-query governors forward their materialization charges here
/// as reservations and release them when the query finishes (success or
/// failure), so the pool tracks the footprint of the queries currently
/// running — unlike per-query budgets, which are cumulative work bounds.
///
/// Reservations never block: a charge that would push the pool over budget
/// fails immediately with kUnavailable (server overload, retry-able), and
/// the accounting is rolled back so concurrent queries are unaffected.
/// fetch_add serializes concurrent reservations, so when N one-shot
/// reservations race a pool with room for N-1, exactly one observes an
/// over-budget total and fails (regression-tested).
class SharedResourcePool {
 public:
  SharedResourcePool() = default;

  /// Sets the budgets (0 disables a limit) and the retry hint attached to
  /// rejections. Not thread-safe: call before queries start.
  void Configure(uint64_t max_rows, uint64_t max_bytes,
                 int64_t retry_after_ms) {
    max_rows_ = max_rows;
    max_bytes_ = max_bytes;
    retry_after_ms_ = retry_after_ms;
  }

  bool enabled() const { return max_rows_ > 0 || max_bytes_ > 0; }

  /// Reserves `rows`/`bytes` against the global budget; on overflow the
  /// reservation is rolled back and kUnavailable (with the retry hint) is
  /// returned. Thread-safe.
  Status TryReserve(uint64_t rows, uint64_t bytes);

  /// Returns a reservation to the pool. Thread-safe.
  void Release(uint64_t rows, uint64_t bytes) {
    rows_.fetch_sub(rows, std::memory_order_relaxed);
    bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  uint64_t rows_reserved() const {
    return rows_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_reserved() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  /// Failed reservations. Each saturated query sheds exactly once: its
  /// governor trips sticky on the first rejection and stops reserving.
  uint64_t sheds() const { return sheds_.load(std::memory_order_relaxed); }

 private:
  uint64_t max_rows_ = 0;
  uint64_t max_bytes_ = 0;
  int64_t retry_after_ms_ = 0;
  std::atomic<uint64_t> rows_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> sheds_{0};
};

/// Cooperative per-query resource accounting. Thread-safe: one governor
/// belongs to exactly one query, but under ExecMode::kParallel every worker
/// of that query ticks and charges the same instance concurrently. Counters
/// are relaxed atomics (accounting needs no ordering, only eventual sums);
/// a budget trip is recorded exactly once via a compare-and-swap on
/// `tripped_`, and every charge ordered after the crossing one keeps
/// failing — sticky — so each worker unwinds with the same error code
/// regardless of which one crossed the budget.
class ResourceGovernor {
 public:
  ResourceGovernor() : ResourceGovernor(GovernorOptions{}) {}
  explicit ResourceGovernor(const GovernorOptions& options)
      : ResourceGovernor(options, nullptr) {}
  /// A governor wired to a shared pool forwards every materialization
  /// charge there as a reservation (released wholesale on destruction) and
  /// trips with kUnavailable when the pool rejects — the query is healthy,
  /// the server is saturated, so the client should back off and retry.
  ResourceGovernor(const GovernorOptions& options, SharedResourcePool* pool);
  ~ResourceGovernor();

  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

  /// True if any limit is configured (callers may skip charging entirely
  /// for an unlimited governor).
  bool enabled() const { return enabled_; }

  /// Immediate deadline check; kCancelled once the deadline has passed.
  Status CheckDeadline() const;

  /// Cooperative hot-path check: accounts `rows` processed and consults the
  /// deadline once per `check_interval_rows`. Cheap enough for per-row use.
  Status Tick(uint64_t rows = 1) {
    if (!has_deadline_) return Status::OK();
    uint64_t accum =
        tick_accum_.fetch_add(rows, std::memory_order_relaxed) + rows;
    if (accum < check_interval_) return Status::OK();
    // Concurrent workers crossing the interval together each reset and
    // check — at worst a few extra clock reads, never a missed check.
    tick_accum_.store(0, std::memory_order_relaxed);
    return CheckDeadline();
  }

  /// Charges `rows` materialized rows occupying ~`bytes` modeled bytes
  /// against the row and memory budgets; kResourceExhausted on overflow.
  Status ChargeMaterialized(uint64_t rows, uint64_t bytes);

  uint64_t rows_charged() const {
    return rows_charged_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_charged() const {
    return bytes_charged_.load(std::memory_order_relaxed);
  }

  /// True once a row/memory budget has tripped (sticky).
  bool tripped() const { return tripped_.load(std::memory_order_relaxed); }
  /// How many times a budget trip was *recorded* — exactly 1 after any
  /// number of concurrent over-budget charges (regression-tested).
  uint64_t trip_count() const {
    return trip_count_.load(std::memory_order_relaxed);
  }

 private:
  bool enabled_ = false;
  bool has_deadline_ = false;
  uint64_t check_interval_ = 1024;
  uint64_t max_rows_ = 0;
  uint64_t max_bytes_ = 0;
  std::chrono::steady_clock::time_point deadline_{};
  std::atomic<uint64_t> tick_accum_{0};
  std::atomic<uint64_t> rows_charged_{0};
  std::atomic<uint64_t> bytes_charged_{0};
  std::atomic<bool> tripped_{false};
  std::atomic<uint64_t> trip_count_{0};
  /// Shared in-flight pool (null when the query runs unpooled) and this
  /// query's outstanding reservations, refunded in the destructor.
  SharedResourcePool* pool_ = nullptr;
  std::atomic<uint64_t> pool_rows_{0};
  std::atomic<uint64_t> pool_bytes_{0};
  /// True when the sticky trip came from a pool rejection: sibling workers
  /// then unwind with the same kUnavailable the crossing worker saw.
  std::atomic<bool> pool_tripped_{false};
};

}  // namespace qopt

#endif  // QOPT_ENGINE_GOVERNOR_H_
