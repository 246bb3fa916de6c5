// Vectorized (batch-at-a-time) implementations of the hot physical
// operators: table/index scan, filter, projection, and the engine's one
// hash join (which also serves row contexts and spills when armed).
//
// Each operator moves RowBatches instead of single Rows, eliminating the
// per-row virtual Next() call and the per-row std::vector<Value> copy of
// the Volcano path. Filters only shrink the batch's selection vector;
// projection and join output build compacted column vectors directly.
//
// Every batch executor also answers Next() by draining its current batch a
// row at a time, so row-mode parents (sort, aggregate, nested-loop joins,
// set operations, ...) consume batch subtrees transparently.
//
// ExecStats parity: batch operators increment rows_scanned / rows_joined /
// index_lookups per row and touch buffer-pool pages in exactly the order
// the row-mode operators do, so observed counters are identical in both
// modes (the cost-model validation experiment E17 depends on this). The
// only shortcut taken is coalescing *immediately adjacent* touches of the
// same data page during a table scan — a repeat touch of the page at the
// LRU front is a guaranteed hit and a no-op, so skipping the hash lookup
// preserves both the hit/miss accounting and the eviction order.
#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>

#include "exec/executors_internal.h"
#include "exec/expr_compile.h"
#include "exec/hash_join_state.h"
#include "exec/morsel.h"
#include "testing/fault_injection.h"

namespace qopt::exec::internal {

namespace {

using plan::JoinType;

/// Base for batch-native operators: implements Init()/Next() on top of the
/// subclass's InitBatch()/NextBatch() so row-mode consumers keep working.
class BatchExecutor : public Executor {
 public:
  using Executor::Executor;

  void InitImpl() final {
    InitBatch();
    drain_.Reset(0, 0);
    drain_pos_ = 0;
  }

  bool NextImpl(Row* out) final {
    for (;;) {
      if (drain_pos_ < drain_.ActiveSize()) {
        drain_.StealActive(drain_pos_++, out);
        return true;
      }
      // Bypass the instrumented NextBatch(): the drain is an internal
      // adapter, not an operator boundary, and must not double-count.
      if (!NextBatchImpl(&drain_)) return false;
      drain_pos_ = 0;
    }
  }

 protected:
  virtual void InitBatch() = 0;

 private:
  RowBatch drain_;   ///< Current batch being drained row-wise via Next().
  size_t drain_pos_ = 0;
};

/// Vectorized sequential / index-range scan with an optional residual
/// filter evaluated batch-at-a-time. With a MorselSource attached, the
/// sequential scan pulls page-aligned row ranges from the shared cursor
/// instead of walking the whole table — the parallel mode's morsel-driven
/// scan (index scans never run morsel-driven).
class BatchScanExec : public BatchExecutor {
 public:
  using BatchExecutor::BatchExecutor;
  BatchScanExec(const PhysicalPlan* plan, ExecContext* ctx,
                MorselSource* morsels)
      : BatchExecutor(plan, ctx), morsels_(morsels) {}

  bool NextBatchImpl(RowBatch* out) override {
    if (ctx_->Failed()) return false;
    QOPT_FAULT_POINT_CTX("exec.batch.alloc", ctx_, false);
    size_t n = use_ids_ ? row_ids_.size() : table_->num_rows();
    if (morsels_ != nullptr) {
      // A batch never spans morsels: the page-run accounting below stays
      // within the claimed page-aligned range.
      if (pos_ >= limit_ && !morsels_->Next(&pos_, &limit_)) return false;
    } else if (use_ids_) {
      limit_ = n;
      if (pos_ >= n) return false;
    } else {
      // Sequential scan over the surviving partitions' row ranges (one
      // full-table range when unpartitioned or unpruned). A batch never
      // spans ranges.
      while (pos_ >= limit_) {
        if (range_idx_ >= ranges_.size()) return false;
        pos_ = ranges_[range_idx_].first;
        limit_ = ranges_[range_idx_].second;
        ++range_idx_;
      }
    }
    const size_t batch_start = pos_;
    out->Reset(plan_->output_cols.size(), ctx_->batch_capacity);
    double rows = std::max<double>(1.0, static_cast<double>(table_->num_rows()));
    if (!use_ids_) {
      // Sequential scan: touches of the same data page are immediately
      // adjacent, so a repeat touch is a guaranteed LRU-front hit and can
      // skip the pool; stats are bulk-incremented after the loop. Rows
      // failing the constant-comparison prefilter are never copied —
      // exactly the rows the row-mode scan rejects before materializing.
      // Page numbers are monotone in rid, so the page formula runs once
      // per page run (the exact boundary is found with the same formula
      // the row-mode scan uses per row), not once per row.
      double pages = table_->num_pages();
      auto page_of = [&](size_t rid) {
        return static_cast<uint64_t>(static_cast<double>(rid) * pages / rows);
      };
      size_t start = pos_;
      size_t run_end = pos_;  // forces page lookup on the first row
      uint64_t cur_page = 0;
      while (pos_ < limit_ && !out->full()) {
        if (pos_ >= run_end) {
          cur_page = page_of(pos_);
          if (ctx_->buffer_pool.Touch(
                  BufferPoolSim::DataPage(plan_->table_id, cur_page))) {
            ctx_->stats.modeled_pages_read += 1;
          }
          size_t hi = pages > 0
                          ? static_cast<size_t>(
                                static_cast<double>(cur_page + 1) * rows /
                                pages)
                          : limit_;
          hi = std::clamp(hi, pos_ + 1, limit_);
          while (hi < limit_ && page_of(hi) == cur_page) ++hi;
          while (hi > pos_ + 1 && page_of(hi - 1) != cur_page) --hi;
          run_end = hi;
        }
        const Row& row = table_->row(static_cast<uint32_t>(pos_));
        ++pos_;
        if (FastPass(row)) out->AppendRow(row);
      }
      ctx_->stats.page_touches += pos_ - start;
      ctx_->stats.rows_scanned += pos_ - start;
    } else {
      // Index scan: leaf and data pages interleave, so every touch goes
      // through the pool in row order.
      while (pos_ < n && !out->full()) {
        uint32_t rid = row_ids_[pos_];
        ctx_->TouchPage(BufferPoolSim::IndexPage(
            plan_->index_id, 1000 + pos_ / 256));
        ctx_->TouchPage(BufferPoolSim::DataPage(
            plan_->table_id,
            static_cast<uint64_t>(
                static_cast<double>(rid) * table_->num_pages() / rows)));
        ++ctx_->stats.rows_scanned;
        ++pos_;
        const Row& row = table_->row(rid);
        if (FastPass(row)) out->AppendRow(row);
      }
    }
    if (!ctx_->GovernorTick(pos_ - batch_start)) return false;
    residual_expr_.Filter(out);
    return true;
  }

 protected:
  void InitBatch() override {
    QOPT_FAULT_POINT_CTX("storage.scan.open", ctx_, );
    table_ = ctx_->storage->GetTable(plan_->table_id);
    QOPT_DCHECK(table_ != nullptr);
    pos_ = 0;
    limit_ = 0;  // morsel/range mode claims a range on the first NextBatch
    ranges_.clear();
    range_idx_ = 0;
    if (plan_->total_partitions > 0 &&
        plan_->total_partitions == table_->num_partitions()) {
      for (int p : plan_->partitions) {
        ranges_.push_back(table_->PartitionRange(p));
      }
    } else {
      ranges_.push_back({0, table_->num_rows()});
    }
    // Split the scan predicate into `column <op> constant` conjuncts —
    // checked directly against storage rows before any copy — and a
    // residual evaluated batch-wise. Scalar comparison semantics are
    // Value::Compare with NULL rejecting, exactly what FastPass does.
    fast_preds_.clear();
    residual_ = plan_->predicate;
    if (plan_->predicate) {
      std::vector<plan::BExpr> conjuncts;
      plan::SplitConjuncts(plan_->predicate, &conjuncts);
      std::vector<plan::BExpr> rest;
      for (const plan::BExpr& c : conjuncts) {
        ColumnId col;
        ast::BinaryOp op;
        Value constant;
        if (plan::MatchColumnConstant(c, &col, &op, &constant) &&
            !constant.is_null()) {
          auto it = colmap_.find(col);
          if (it != colmap_.end()) {
            FastPred p{static_cast<size_t>(it->second), op,
                       std::move(constant)};
            TypeId col_type = plan_->output_cols[p.pos].type;
            if (col_type == TypeId::kInt64 &&
                p.constant.type() == TypeId::kInt64) {
              p.kind = CmpKind::kIntInt;
              p.iconst = p.constant.AsInt();
            } else if (IsNumeric(col_type) &&
                       IsNumeric(p.constant.type())) {
              p.kind = CmpKind::kNumeric;
              p.dconst = p.constant.AsNumeric();
            }
            fast_preds_.push_back(std::move(p));
            continue;
          }
        }
        rest.push_back(c);
      }
      if (fast_preds_.empty()) {
        residual_ = plan_->predicate;
      } else {
        residual_ =
            rest.empty() ? nullptr : plan::MakeConjunction(std::move(rest));
      }
    }
    // The FastPred split is deterministic per plan node, so the compiled
    // residual can be cached on the node and shared by every executor
    // instance (including morsel-parallel workers).
    if (residual_) {
      RecordExprMode(residual_expr_.Bind(
          plan_, expr::kSlotPredicate, residual_,
          expr::MakeCompileEnv(colmap_, plan_->output_cols),
          /*as_predicate=*/true, ctx_));
    }
    if (plan_->kind == PhysOpKind::kIndexScan) {
      QOPT_FAULT_POINT_CTX("storage.index.lookup", ctx_, );
      const SortedIndex* index = ctx_->storage->GetSortedIndex(plan_->index_id);
      QOPT_DCHECK(index != nullptr);
      std::optional<IndexBound> lo, hi;
      if (plan_->lo.has_value()) {
        lo = IndexBound{plan_->lo->value, plan_->lo->inclusive};
      }
      if (plan_->hi.has_value()) {
        hi = IndexBound{plan_->hi->value, plan_->hi->inclusive};
      }
      row_ids_ = index->RangeScan(lo, hi);
      use_ids_ = true;
      for (double level = 0; level < index->tree_height(); ++level) {
        ctx_->TouchPage(BufferPoolSim::IndexPage(
            plan_->index_id, static_cast<uint64_t>(level)));
      }
    } else {
      use_ids_ = false;
    }
  }

 private:
  /// How a FastPred's comparison executes. Specialized kinds inline the
  /// relevant branch of Value::Compare (same coercion rules, no dispatch).
  enum class CmpKind { kIntInt, kNumeric, kGeneric };

  struct FastPred {
    size_t pos;        ///< Column position in the storage row.
    ast::BinaryOp op;  ///< Comparison, normalized column-on-left.
    Value constant;
    CmpKind kind = CmpKind::kGeneric;
    int64_t iconst = 0;  ///< kIntInt
    double dconst = 0;   ///< kNumeric
  };

  static bool KeepByOp(ast::BinaryOp op, int c) {
    switch (op) {
      case ast::BinaryOp::kEq: return c == 0;
      case ast::BinaryOp::kNe: return c != 0;
      case ast::BinaryOp::kLt: return c < 0;
      case ast::BinaryOp::kLe: return c <= 0;
      case ast::BinaryOp::kGt: return c > 0;
      case ast::BinaryOp::kGe: return c >= 0;
      default: return false;  // unreachable: MatchColumnConstant filters ops
    }
  }

  /// True iff `row` passes every constant-comparison conjunct (NULL in the
  /// column rejects, matching three-valued comparison semantics).
  bool FastPass(const Row& row) const {
    for (const FastPred& p : fast_preds_) {
      const Value& v = row[p.pos];
      if (v.is_null()) return false;
      int c = 0;
      switch (p.kind) {
        case CmpKind::kIntInt: {
          int64_t a = v.AsInt();
          c = a < p.iconst ? -1 : (a > p.iconst ? 1 : 0);
          break;
        }
        case CmpKind::kNumeric: {
          double a = v.AsNumeric();
          c = a < p.dconst ? -1 : (a > p.dconst ? 1 : 0);
          break;
        }
        case CmpKind::kGeneric:
          c = v.Compare(p.constant);
          break;
      }
      if (!KeepByOp(p.op, c)) return false;
    }
    return true;
  }

  const Table* table_ = nullptr;
  std::vector<uint32_t> row_ids_;
  std::vector<FastPred> fast_preds_;
  plan::BExpr residual_;
  expr::BatchExpr residual_expr_;
  bool use_ids_ = false;
  size_t pos_ = 0;
  size_t limit_ = 0;  ///< Exclusive end of the current sequential range.
  /// Row ranges of the surviving partitions (serial sequential scan).
  std::vector<std::pair<size_t, size_t>> ranges_;
  size_t range_idx_ = 0;
  MorselSource* morsels_ = nullptr;  ///< Shared scan cursor (parallel mode).
};

/// Vectorized filter: refines the child batch's selection vector in place;
/// no data is copied or moved.
class BatchFilterExec : public BatchExecutor {
 public:
  BatchFilterExec(const PhysicalPlan* plan, ExecContext* ctx,
                  std::unique_ptr<Executor> child)
      : BatchExecutor(plan, ctx), child_(std::move(child)) {}

  bool NextBatchImpl(RowBatch* out) override {
    if (!child_->NextBatch(out)) return false;
    pred_.Filter(out);
    return true;
  }

 protected:
  void InitBatch() override {
    child_->Init();
    if (plan_->predicate) {
      RecordExprMode(pred_.Bind(
          plan_, expr::kSlotPredicate, plan_->predicate,
          expr::MakeCompileEnv(colmap_, plan_->output_cols),
          /*as_predicate=*/true, ctx_));
    }
  }

 private:
  std::unique_ptr<Executor> child_;
  expr::BatchExpr pred_;
};

/// Vectorized projection: evaluates each output expression over the whole
/// input batch, emitting a compacted batch.
class BatchProjectExec : public BatchExecutor {
 public:
  BatchProjectExec(const PhysicalPlan* plan, ExecContext* ctx,
                   std::unique_ptr<Executor> child)
      : BatchExecutor(plan, ctx), child_(std::move(child)) {}

  bool NextBatchImpl(RowBatch* out) override {
    do {
      if (!child_->NextBatch(&in_)) return false;
    } while (in_.ActiveSize() == 0);
    size_t n = in_.ActiveSize();
    // A compacted input batch (identity selection, guaranteed by join and
    // unfiltered scan outputs) lets pure column-ref projections move the
    // input column instead of gathering a copy — precomputed in InitBatch.
    bool identity = n == in_.num_rows();
    out->Reset(plan_->proj_exprs.size(), n);
    std::vector<Value> col;
    for (size_t c = 0; c < plan_->proj_exprs.size(); ++c) {
      if (identity && move_src_[c] >= 0) {
        out->AdoptColumn(c, std::move(in_.column(move_src_[c])));
        continue;
      }
      exprs_[c].EvalColumn(in_, &col);
      out->AdoptColumn(c, std::move(col));
      col.clear();
    }
    out->SetIdentitySelection(n);
    return true;
  }

 protected:
  void InitBatch() override {
    child_->Init();
    // move_src_[c] = input column position when proj_exprs[c] is a plain
    // column reference and no other output expression reads that column
    // (a column may be moved out only once); -1 otherwise.
    move_src_.assign(plan_->proj_exprs.size(), -1);
    std::map<ColumnId, int> referencing_exprs;
    for (const plan::BExpr& e : plan_->proj_exprs) {
      std::set<ColumnId> cols;
      plan::CollectColumns(e, &cols);
      for (ColumnId id : cols) ++referencing_exprs[id];
    }
    for (size_t c = 0; c < plan_->proj_exprs.size(); ++c) {
      const plan::BExpr& e = plan_->proj_exprs[c];
      if (e->kind != plan::BoundKind::kColumn) continue;
      if (referencing_exprs[e->column] != 1) continue;
      auto it = child_->colmap().find(e->column);
      if (it != child_->colmap().end()) move_src_[c] = it->second;
    }
    // One expression per output column, evaluated against the child's
    // column layout. Pure-move columns still bind: non-identity input
    // batches take the evaluation path.
    exprs_.resize(plan_->proj_exprs.size());
    const expr::CompileEnv env = expr::MakeCompileEnv(
        child_->colmap(), plan_->children[0]->output_cols);
    for (size_t c = 0; c < plan_->proj_exprs.size(); ++c) {
      RecordExprMode(exprs_[c].Bind(
          plan_, expr::kSlotProjBase + static_cast<int>(c),
          plan_->proj_exprs[c], env, /*as_predicate=*/false, ctx_));
    }
  }

 private:
  std::unique_ptr<Executor> child_;
  RowBatch in_;
  std::vector<int> move_src_;
  std::vector<expr::BatchExpr> exprs_;
};

/// The engine's one hash join: builds on the right input, probes with the
/// left, so left outer/semi/anti joins preserve the left side naturally.
/// In the probe-only variant the build side (a shared JoinBuildState) was
/// materialized elsewhere — the parallel gather's build phase — and this
/// executor only probes it.
///
/// In a row context (`row_context_`) the probe input is pulled with Next()
/// and an output batch holds one probe row's matches, so the join never
/// reads ahead of a consumer that stops early (Limit, Apply). A probe
/// input that produces rows is probed row by row in every context.
///
/// Spill-armed, the build side buffers in memory up to the spill budget;
/// past it, both inputs are hash-partitioned to `spill.partitions` file
/// pairs and each pair is joined in turn over a fresh JoinBuildState
/// (single level, no recursive repartitioning). Output order is then
/// partition-major, a documented difference from the in-memory probe
/// order — results are multiset-identical. The partition function mixes
/// Value::Hash with a splitmix64 finalizer so partition skew and hash-table
/// bucket skew stay uncorrelated.
class BatchHashJoinExec : public BatchExecutor {
 public:
  BatchHashJoinExec(const PhysicalPlan* plan, ExecContext* ctx,
                    std::unique_ptr<Executor> left,
                    std::unique_ptr<Executor> right, bool row_context)
      : BatchExecutor(plan, ctx),
        left_(std::move(left)),
        right_(std::move(right)),
        row_context_(row_context) {
    InitShape();
  }

  /// Probe-only: `state` holds a finalized build side shared with other
  /// probe workers.
  BatchHashJoinExec(const PhysicalPlan* plan, ExecContext* ctx,
                    std::unique_ptr<Executor> left,
                    std::shared_ptr<JoinBuildState> state)
      : BatchExecutor(plan, ctx),
        left_(std::move(left)),
        state_(std::move(state)) {
    InitShape();
  }

  bool NextBatchImpl(RowBatch* out) override {
    if (done_ || ctx_->Failed()) return false;
    bool left_only = plan_->join_type == JoinType::kSemi ||
                     plan_->join_type == JoinType::kAnti;
    out->Reset(left_only ? left_width_ : left_width_ + right_width_,
               ctx_->batch_capacity);
    // The probe position persists across calls so output batches stay near
    // capacity (one probe row's matches may overshoot slightly). In a row
    // context one probe row's matches end the batch.
    while (row_context_ ? out->num_rows() == 0 : !out->full()) {
      if (row_probe_ || spilled_) {
        if (!(spilled_ ? NextSpilledRow() : left_->Next(&probe_row_))) {
          done_ = true;
          break;
        }
        ProbeRow(probe_row_, out);
        continue;
      }
      if (probe_pos_ >= probe_.ActiveSize()) {
        if (!left_->NextBatch(&probe_)) {
          done_ = true;
          break;
        }
        probe_pos_ = 0;
        continue;
      }
      ProbeRow(BatchRow{&probe_, probe_.ActiveIndex(probe_pos_++)}, out);
    }
    return out->num_rows() > 0 || !done_;
  }

 protected:
  void InitBatch() override {
    left_->Init();
    probe_.Reset(0, 0);
    probe_pos_ = 0;
    done_ = false;
    spilled_ = false;
    build_parts_.clear();
    probe_parts_.clear();
    part_ = 0;
    auto lit = left_->colmap().find(plan_->left_key);
    QOPT_DCHECK(lit != left_->colmap().end());
    lk_ = static_cast<size_t>(lit->second);
    if (plan_->predicate) {
      expr::CompileEnv env;
      env.colmap = &combined_map_;
      for (const auto& c : plan_->children[0]->output_cols) {
        env.col_types.push_back(c.type);
      }
      for (const auto& c : plan_->children[1]->output_cols) {
        env.col_types.push_back(c.type);
      }
      RecordExprMode(residual_.Bind(plan_, expr::kSlotJoinResidual,
                                    plan_->predicate, env,
                                    /*as_predicate=*/true, ctx_));
    }
    if (right_ == nullptr) return;  // probe-only: shared state is ready
    right_->Init();
    auto rit = right_->colmap().find(plan_->right_key);
    QOPT_DCHECK(rit != right_->colmap().end());
    rk_ = static_cast<size_t>(rit->second);
    Build();
  }

 private:
  /// Drains the build input into a fresh state (fresh on rescan).
  /// Disarmed, each row is charged to the governor's row and byte budgets,
  /// preserving the fail-fast contract; armed, memory is bounded by the
  /// spill budget, so only rows are charged, and past the budget both
  /// inputs are partitioned to disk. The modeled working set is charged
  /// once: the whole build in memory, or when spilled the larger of the
  /// pre-spill buffer and the largest partition.
  void Build() {
    const SpillConfig& sp = ctx_->spill;
    const uint64_t row_bytes = ModeledRowBytes(right_width_);
    state_ = std::make_shared<JoinBuildState>(
        right_width_, rk_, ReserveHint(plan_->children[1]->est_rows));
    uint64_t peak = 0;
    RowBatch build;
    while (!ctx_->Failed() && right_->NextBatch(&build)) {
      if (spilled_) {
        Partition(&build, rk_, &build_parts_);
        continue;
      }
      state_->Append(&build, ctx_, sp.armed ? 0 : row_bytes);
      uint64_t buffered = state_->num_build_rows() * row_bytes;
      if (sp.armed && buffered > sp.budget_bytes &&
          state_->num_build_rows() > 1) {
        peak = buffered;
        BeginSpill();
      }
    }
    if (ctx_->Failed()) return;
    if (!spilled_) {
      ChargeMem(state_->num_build_rows() * row_bytes);
      state_->Finalize(KeyType(0, lk_), KeyType(1, rk_));
      return;
    }
    if (!SealParts(&build_parts_)) return;
    for (const std::unique_ptr<SpillFile>& f : build_parts_) {
      peak = std::max(peak, f->rows() * row_bytes);
    }
    ChargeMem(peak);
    // Partition the ENTIRE probe side: rows with NULL keys go to
    // partition 0 so left-outer/anti emission still sees them (they match
    // nothing there).
    RowBatch probe;
    while (!ctx_->Failed() && left_->NextBatch(&probe)) {
      Partition(&probe, lk_, &probe_parts_);
    }
    if (!ctx_->Failed() && SealParts(&probe_parts_)) LoadPartition(0);
  }

  /// A probe-batch row, indexed like a Row (see ProbeRow).
  struct BatchRow {
    const RowBatch* batch;
    uint32_t row;
    const Value& operator[](size_t c) const { return batch->At(c, row); }
  };

  TypeId KeyType(size_t child, size_t pos) const {
    return plan_->children[child]->output_cols[pos].type;
  }

  bool Ok(Status s) {
    if (s.ok()) return true;
    ctx_->Fail(std::move(s));
    return false;
  }

  size_t PartOf(const Value& v) const {
    uint64_t h = static_cast<uint64_t>(v.Hash()) + 0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    return (h ^ (h >> 31)) % build_parts_.size();
  }

  /// Opens the partition files and moves the buffered build rows into
  /// them, releasing the in-memory state.
  void BeginSpill() {
    size_t fanout = std::max<size_t>(2, ctx_->spill.partitions);
    for (auto* parts : {&build_parts_, &probe_parts_}) {
      for (size_t i = 0; i < fanout; ++i) {
        auto f = SpillFile::Create(ctx_->spill.dir);
        if (!Ok(f.status())) return;
        parts->push_back(std::move(f).value());
      }
    }
    spilled_ = true;
    Row r(right_width_);
    for (size_t i = 0; i < state_->num_build_rows(); ++i) {
      for (size_t c = 0; c < right_width_; ++c) {
        r[c] = std::move(state_->build_cols[c][i]);
      }
      if (!Ok(build_parts_[PartOf(r[rk_])]->Append(r))) return;
    }
    state_.reset();
  }

  /// Appends `b`'s live rows to the partition files of their key column
  /// `key`. Build rows with NULL keys are dropped (they never match); the
  /// rest are charged to the governor's row budget as the in-memory build
  /// charges them.
  void Partition(RowBatch* b, size_t key,
                 std::vector<std::unique_ptr<SpillFile>>* parts) {
    const bool build = parts == &build_parts_;
    Row r;
    for (size_t k = 0; k < b->ActiveSize(); ++k) {
      const Value& v = b->At(key, b->ActiveIndex(k));
      if (build) {
        if (v.is_null()) continue;
        if (!ctx_->GovernorCharge(1, 0)) return;
      }
      size_t p = v.is_null() ? 0 : PartOf(v);
      b->StealActive(k, &r);
      if (!Ok((*parts)[p]->Append(r))) return;
    }
  }

  /// Flushes every partition file and records the non-empty ones as spill
  /// runs.
  bool SealParts(std::vector<std::unique_ptr<SpillFile>>* parts) {
    for (std::unique_ptr<SpillFile>& f : *parts) {
      if (!Ok(f->FinishWrite())) return false;
      if (f->rows() > 0) RecordSpill(1, f->bytes_written());
    }
    return true;
  }

  /// Spilled: reads the current partition pair's next probe row into
  /// `probe_row_`, loading the next pair's build side into a fresh state
  /// when the current one is exhausted.
  bool NextSpilledRow() {
    for (;;) {
      auto more = probe_parts_[part_]->ReadNext(&probe_row_);
      if (!Ok(more.status())) return false;
      if (more.value()) return ctx_->GovernorTick();
      if (++part_ == build_parts_.size() || !LoadPartition(part_)) return false;
    }
  }

  /// Reads build partition `p` into a fresh state and rewinds its probe
  /// file.
  bool LoadPartition(size_t p) {
    SpillFile* f = build_parts_[p].get();
    if (!Ok(f->Rewind())) return false;
    state_ = std::make_shared<JoinBuildState>(right_width_, rk_, f->rows());
    Row r;
    for (;;) {
      auto more = f->ReadNext(&r);
      if (!Ok(more.status())) return false;
      if (!more.value()) break;
      for (size_t c = 0; c < right_width_; ++c) {
        state_->build_cols[c].push_back(std::move(r[c]));
      }
    }
    state_->Finalize(KeyType(0, lk_), KeyType(1, rk_));
    return Ok(probe_parts_[p]->Rewind());
  }

  /// Widths, the combined output column map and the probe style, derived
  /// from the plan's children so the probe-only variant (no right
  /// executor) agrees exactly with the self-building one.
  void InitShape() {
    row_probe_ = row_context_ ||
                 dynamic_cast<const BatchExecutor*>(left_.get()) == nullptr;
    const PhysicalPlan& lp = *plan_->children[0];
    const PhysicalPlan& rp = *plan_->children[1];
    left_width_ = lp.output_cols.size();
    right_width_ = rp.output_cols.size();
    for (size_t i = 0; i < left_width_; ++i) {
      combined_map_[lp.output_cols[i].id] = static_cast<int>(i);
    }
    for (size_t i = 0; i < right_width_; ++i) {
      combined_map_[rp.output_cols[i].id] =
          static_cast<int>(left_width_ + i);
    }
  }

  /// Emits all join output for one probe row (a Row or a BatchRow).
  template <typename ProbeT>
  void ProbeRow(const ProbeT& prow, RowBatch* out) {
    const Value& key = prow[lk_];
    bool inner = plan_->join_type == JoinType::kInner ||
                 plan_->join_type == JoinType::kCross;
    if (inner && !plan_->predicate) {
      // Hot path: emit matches directly, no intermediate match list.
      if (key.is_null()) return;
      state_->ForEachMatch(key,
                           [&](size_t b) { AppendCombined(prow, b, out); });
      return;
    }
    matches_.clear();
    if (!key.is_null()) {
      if (plan_->predicate) {
        // Gather the candidate matches into a scratch batch (only the
        // columns the residual reads) and filter them in one call.
        candidates_.clear();
        state_->ForEachMatch(key, [&](size_t b) { candidates_.push_back(b); });
        FilterCandidates(prow);
      } else {
        state_->ForEachMatch(key, [&](size_t b) { matches_.push_back(b); });
      }
    }
    switch (plan_->join_type) {
      case JoinType::kInner:
      case JoinType::kCross:
        for (size_t m : matches_) AppendCombined(prow, m, out);
        break;
      case JoinType::kLeftOuter:
        if (matches_.empty()) {
          AppendNullPadded(prow, out);
        } else {
          for (size_t m : matches_) AppendCombined(prow, m, out);
        }
        break;
      case JoinType::kSemi:
        if (!matches_.empty()) AppendLeft(prow, out);
        break;
      case JoinType::kAnti:
        if (matches_.empty()) AppendLeft(prow, out);
        break;
    }
  }

  /// Runs the residual over `candidates_`, appending survivors to
  /// `matches_` in candidate order.
  template <typename ProbeT>
  void FilterCandidates(const ProbeT& prow) {
    const size_t m = candidates_.size();
    if (m == 0) return;
    scratch_.Reset(left_width_ + right_width_, m);
    for (int pos : residual_.referenced_cols()) {
      std::vector<Value>& col = scratch_.column(static_cast<size_t>(pos));
      col.resize(m);
      if (static_cast<size_t>(pos) < left_width_) {
        // Left columns splat the probe row's value.
        const Value& v = prow[static_cast<size_t>(pos)];
        for (size_t k = 0; k < m; ++k) col[k] = v;
      } else {
        const std::vector<Value>& build =
            state_->build_cols[static_cast<size_t>(pos) - left_width_];
        for (size_t k = 0; k < m; ++k) col[k] = build[candidates_[k]];
      }
    }
    scratch_.SetIdentitySelection(m);
    residual_.Filter(&scratch_);
    for (uint32_t k : scratch_.selection()) {
      matches_.push_back(candidates_[k]);
    }
  }

  template <typename ProbeT>
  void AppendCombined(const ProbeT& prow, size_t bidx, RowBatch* out) {
    for (size_t c = 0; c < left_width_; ++c) {
      out->column(c).push_back(prow[c]);
    }
    for (size_t c = 0; c < right_width_; ++c) {
      out->column(left_width_ + c).push_back(state_->build_cols[c][bidx]);
    }
    out->CommitRow();
    ++ctx_->stats.rows_joined;
  }

  template <typename ProbeT>
  void AppendNullPadded(const ProbeT& prow, RowBatch* out) {
    for (size_t c = 0; c < left_width_; ++c) {
      out->column(c).push_back(prow[c]);
    }
    for (size_t c = 0; c < right_width_; ++c) {
      out->column(left_width_ + c).push_back(Value::Null());
    }
    out->CommitRow();
    ++ctx_->stats.rows_joined;
  }

  template <typename ProbeT>
  void AppendLeft(const ProbeT& prow, RowBatch* out) {
    for (size_t c = 0; c < left_width_; ++c) {
      out->column(c).push_back(prow[c]);
    }
    out->CommitRow();
    ++ctx_->stats.rows_joined;
  }

  std::unique_ptr<Executor> left_;
  std::unique_ptr<Executor> right_;  ///< Null in the probe-only variant.
  std::shared_ptr<JoinBuildState> state_;
  bool row_context_ = false;
  /// Probe with each pulled Row: in a row context, or when the probe input
  /// produces rows (row operators; the gather materializes rows), where
  /// moving each row into a batch first cost more than the probe.
  bool row_probe_ = false;
  size_t left_width_ = 0;
  size_t right_width_ = 0;
  ColMap combined_map_;
  std::vector<size_t> matches_;
  size_t lk_ = 0;  ///< Probe key column position.
  size_t rk_ = 0;  ///< Build key column position.
  RowBatch probe_;
  Row probe_row_;  ///< The probe row being joined, probing row by row.
  size_t probe_pos_ = 0;
  bool done_ = false;
  expr::BatchExpr residual_;
  std::vector<size_t> candidates_;
  RowBatch scratch_;
  // Grace spilling (armed joins past the budget only).
  bool spilled_ = false;
  std::vector<std::unique_ptr<SpillFile>> build_parts_;
  std::vector<std::unique_ptr<SpillFile>> probe_parts_;
  size_t part_ = 0;  ///< The partition pair being probed.
};

}  // namespace

std::unique_ptr<Executor> NewBatchScanExec(const PhysicalPlan* plan,
                                           ExecContext* ctx) {
  return std::make_unique<BatchScanExec>(plan, ctx);
}

std::unique_ptr<Executor> NewBatchFilterExec(const PhysicalPlan* plan,
                                             ExecContext* ctx,
                                             std::unique_ptr<Executor> child) {
  return std::make_unique<BatchFilterExec>(plan, ctx, std::move(child));
}

std::unique_ptr<Executor> NewBatchProjectExec(const PhysicalPlan* plan,
                                              ExecContext* ctx,
                                              std::unique_ptr<Executor> child) {
  return std::make_unique<BatchProjectExec>(plan, ctx, std::move(child));
}

std::unique_ptr<Executor> NewHashJoinExec(const PhysicalPlan* plan,
                                          ExecContext* ctx,
                                          std::unique_ptr<Executor> left,
                                          std::unique_ptr<Executor> right,
                                          bool row_context) {
  return std::make_unique<BatchHashJoinExec>(plan, ctx, std::move(left),
                                             std::move(right), row_context);
}

std::unique_ptr<Executor> NewMorselScanExec(const PhysicalPlan* plan,
                                            ExecContext* ctx,
                                            MorselSource* morsels) {
  return std::make_unique<BatchScanExec>(plan, ctx, morsels);
}

std::unique_ptr<Executor> NewBatchHashProbeExec(
    const PhysicalPlan* plan, ExecContext* ctx,
    std::unique_ptr<Executor> left, std::shared_ptr<JoinBuildState> state) {
  return std::make_unique<BatchHashJoinExec>(plan, ctx, std::move(left),
                                             std::move(state));
}

}  // namespace qopt::exec::internal
