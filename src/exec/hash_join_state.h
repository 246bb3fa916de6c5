// JoinBuildState: the materialized build side of a hash join, separated
// from the probing executor so it can be (a) built once and probed by many
// worker threads under ExecMode::kParallel, or (b) owned privately by the
// serial BatchHashJoinExec — the engine's one hash join, which also builds
// a fresh state per partition pair when it spills — with identical layout
// and match semantics either way (DESIGN.md §3.8).
//
// The build store is columnar: values move straight out of the build-side
// child batches through Append, the one build loop of the serial join and
// the parallel gather's build phases. Int64-keyed joins use a chained
// head/next layout (one hash entry per distinct key, a flat next[] array,
// no per-row node allocation); other key types use a Value multimap. The
// structures are written by exactly one thread (Finalize, after all rows
// are appended) and read-only during probing, with one exception: a
// non-int64 probe key arriving at an int-keyed table lazily builds the
// generic multimap — under a mutex, so concurrent probers stay safe.
#ifndef QOPT_EXEC_HASH_JOIN_STATE_H_
#define QOPT_EXEC_HASH_JOIN_STATE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/value.h"
#include "exec/executors.h"

namespace qopt::exec::internal {

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

struct JoinBuildState {
  /// An empty store of `width` columns keyed on column `rk`, each column
  /// pre-sized for `reserve` rows.
  JoinBuildState(size_t width, size_t rk, size_t reserve = 0)
      : build_cols(width), rk(rk) {
    for (std::vector<Value>& col : build_cols) col.reserve(reserve);
  }

  std::vector<std::vector<Value>> build_cols;  ///< Columnar build store.
  size_t rk = 0;  ///< Build key column position in build_cols.

  /// Moves `batch`'s live rows into the store, skipping NULL keys (they
  /// never match). Each appended row is charged to `ctx`'s governor as one
  /// row of `row_bytes` modeled bytes; on exhaustion the error is recorded
  /// on `ctx` and the rest of the batch is dropped.
  void Append(RowBatch* batch, ExecContext* ctx, uint64_t row_bytes) {
    for (size_t k = 0; k < batch->ActiveSize(); ++k) {
      uint32_t r = batch->ActiveIndex(k);
      if (batch->At(rk, r).is_null()) continue;
      if (!ctx->GovernorCharge(1, row_bytes)) return;
      for (size_t c = 0; c < build_cols.size(); ++c) {
        build_cols[c].push_back(std::move(batch->column(c)[r]));
      }
    }
  }

  size_t num_build_rows() const {
    return build_cols.empty() ? 0 : build_cols[rk].size();
  }

  /// Builds the lookup structures over the appended rows. Single-threaded;
  /// must happen-before any ForEachMatch (the caller's phase barrier or
  /// serial Init provides the ordering).
  void Finalize(TypeId left_key_type, TypeId right_key_type) {
    const std::vector<Value>& keys = build_cols[rk];
    // The int table is valid only when both key columns are declared
    // kInt64 and every build key really is an int64 — Value equality
    // coerces across numeric types (3 == 3.0), which it cannot reproduce.
    int_path_ = left_key_type == TypeId::kInt64 &&
                right_key_type == TypeId::kInt64;
    for (size_t i = 0; int_path_ && i < keys.size(); ++i) {
      if (keys[i].type() != TypeId::kInt64) int_path_ = false;
    }
    if (int_path_) {
      iheads_.clear();
      iheads_.reserve(keys.size());
      inext_.assign(keys.size(), 0);
      for (size_t i = 0; i < keys.size(); ++i) {
        uint32_t& head = iheads_[keys[i].AsInt()];
        inext_[i] = head;
        head = static_cast<uint32_t>(i) + 1;  // 0 terminates the chain
      }
    } else {
      BuildGenericTable();
    }
  }

  /// Calls fn(build_index) for every build row whose key matches `key`
  /// (never called with a NULL key). A non-int64 probe key against the int
  /// table falls back to a lazily built generic table, preserving Value's
  /// cross-numeric equality.
  template <typename Fn>
  void ForEachMatch(const Value& key, Fn&& fn) {
    if (int_path_ && key.type() == TypeId::kInt64) {
      auto it = iheads_.find(key.AsInt());
      if (it == iheads_.end()) return;
      for (uint32_t i = it->second; i != 0; i = inext_[i - 1]) fn(i - 1);
      return;
    }
    if (!generic_built_.load(std::memory_order_acquire)) EnsureGeneric();
    auto [begin, end] = table_.equal_range(key);
    for (auto it = begin; it != end; ++it) fn(it->second);
  }

 private:
  void BuildGenericTable() {
    const std::vector<Value>& keys = build_cols[rk];
    table_.reserve(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) table_.emplace(keys[i], i);
    generic_built_.store(true, std::memory_order_release);
  }

  void EnsureGeneric() {
    std::lock_guard<std::mutex> lock(generic_mu_);
    if (!generic_built_.load(std::memory_order_relaxed)) BuildGenericTable();
  }

  bool int_path_ = false;
  std::unordered_map<int64_t, uint32_t> iheads_;  ///< key -> chain head + 1
  std::vector<uint32_t> inext_;  ///< Per-build-row chain link.
  std::unordered_multimap<Value, size_t, ValueHash> table_;
  std::atomic<bool> generic_built_{false};
  std::mutex generic_mu_;
};

}  // namespace qopt::exec::internal

#endif  // QOPT_EXEC_HASH_JOIN_STATE_H_
