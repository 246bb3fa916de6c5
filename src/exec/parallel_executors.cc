// Morsel-driven parallel execution (DESIGN.md §3.8).
//
// The builder wraps each maximal parallel-eligible subtree — table-scan
// leaves, filters, projections, hash joins whose probe side is eligible,
// optionally capped by one hash aggregate — in a ParallelGatherExec. The
// gather runs the region in phases over ctx->dop workers:
//
//   1. Build phases, deepest join first. An eligible build side is drained
//      morsel-parallel into per-worker columnar partitions that are
//      concatenated in worker order and finalized into a shared
//      JoinBuildState (partitioned build with merge); an ineligible build
//      side is drained serially on the calling thread with the ordinary
//      batch tree.
//   2. The final pipeline: every worker runs its own executor tree over
//      the region — morsel scans pulling page-aligned ranges from shared
//      cursors, probe-only hash joins over the shared build states — into
//      a per-worker output buffer (or per-worker partial aggregation
//      state), merged at the gather barrier.
//
// Each worker owns an ExecContext (stats, buffer-pool simulator, sticky
// status) and shares the query's governor; worker stats are summed into
// the main context at the barrier, so every ExecStats row counter is
// exactly equal to the serial modes' — each base row is scanned once, each
// probe row probed once. The only serial/parallel divergence is
// modeled_pages_read: per-worker LRU pools see different access orders.
// On any worker failure (governor trip, injected fault) a shared abort
// flag drains the morsel cursors so all workers unwind promptly; the first
// failing worker's status (in worker order) becomes the query error.
#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "engine/thread_pool.h"
#include "exec/agg_state.h"
#include "exec/executors_internal.h"
#include "exec/expr_compile.h"
#include "exec/hash_join_state.h"
#include "exec/morsel.h"

namespace qopt::exec::internal {

bool ParallelEligible(const PhysicalPlan& plan, bool spill_armed) {
  switch (plan.kind) {
    case PhysOpKind::kTableScan:
      return true;
    case PhysOpKind::kFilter:
    case PhysOpKind::kProject:
      return ParallelEligible(*plan.children[0], spill_armed);
    case PhysOpKind::kHashJoin:
      // A spill-armed hash join runs as a serial vectorized join, because
      // the partitioned parallel build cannot spill; otherwise the probe
      // side must be eligible (it carries the morsel scan) while the build
      // side is handled either way by a build phase.
      if (spill_armed) return false;
      return ParallelEligible(*plan.children[0], spill_armed);
    default:
      return false;
  }
}

namespace {

class ParallelGatherExec : public Executor {
 public:
  ParallelGatherExec(const PhysPtr& plan, ExecContext* ctx)
      : Executor(plan.get(), ctx),
        root_(plan),
        agg_root_(plan->kind == PhysOpKind::kHashAggregate),
        pipeline_root_(agg_root_ ? plan->children[0] : plan) {}

  void InitImpl() override {
    results_.clear();
    pos_ = 0;
    if (ctx_->Failed()) return;
    dop_ = std::clamp<size_t>(ctx_->dop, 1, ThreadPool::kMaxThreads);
    abort_.store(false, std::memory_order_relaxed);
    states_.clear();
    sources_.clear();
    wctx_.clear();
    for (size_t w = 0; w < dop_; ++w) {
      auto wc = std::make_unique<ExecContext>();
      wc->storage = ctx_->storage;
      wc->catalog = ctx_->catalog;
      wc->params = ctx_->params;
      wc->mode = ExecMode::kBatch;
      wc->batch_capacity = ctx_->batch_capacity;
      wc->morsel_rows = ctx_->morsel_rows;
      wc->analyze = ctx_->analyze;
      wc->governor = ctx_->governor;  // thread-safe; shared trip semantics
      wc->compile_expressions = ctx_->compile_expressions;
      wc->expr_compiled_metric = ctx_->expr_compiled_metric;
      wc->expr_fallback_metric = ctx_->expr_fallback_metric;
      wc->expr_compile_ns = ctx_->expr_compile_ns;
      wc->spill = ctx_->spill;
      wc->spill_runs_metric = ctx_->spill_runs_metric;
      wc->spill_bytes_metric = ctx_->spill_bytes_metric;
      wc->spill_run_bytes = ctx_->spill_run_bytes;
      wctx_.push_back(std::move(wc));
    }
    RunBuildPhases(pipeline_root_);
    if (!Aborted()) RunFinalPhase();
    for (const std::unique_ptr<ExecContext>& wc : wctx_) {
      ctx_->stats.modeled_pages_read += wc->stats.modeled_pages_read;
      ctx_->stats.page_touches += wc->stats.page_touches;
      ctx_->stats.rows_scanned += wc->stats.rows_scanned;
      ctx_->stats.index_lookups += wc->stats.index_lookups;
      ctx_->stats.rows_joined += wc->stats.rows_joined;
      ctx_->stats.subquery_executions += wc->stats.subquery_executions;
    }
    // Per-worker LRU pools see different access orders, so the summed
    // modeled_pages_read is not comparable to the serial modes' — surface
    // that explicitly rather than pretending the number reconciles.
    ctx_->stats.parallel_pages_divergent = true;
    if (ctx_->analyze) {
      // Worker trees share plan-node pointers with the main tree; merge
      // their per-operator stats into the worker_* side channel so the
      // gather's own (empty) counts are never conflated with them.
      for (const std::unique_ptr<ExecContext>& wc : wctx_) {
        for (const auto& [node, ws] : wc->op_stats) {
          OperatorStats& os = ctx_->op_stats[node];
          os.worker_rows_out += ws.rows_out;
          os.worker_wall_ns += ws.wall_ns;
          os.worker_peak_mem_bytes =
              std::max(os.worker_peak_mem_bytes, ws.peak_mem_bytes);
          // Every worker resolves the same (cached) programs, so a max —
          // not a sum — reflects the per-node expression mode.
          os.expr_compiled = std::max(os.expr_compiled, ws.expr_compiled);
          os.expr_fallback = std::max(os.expr_fallback, ws.expr_fallback);
          if (ws.inits > 0) ++os.workers;
        }
      }
    }
    for (const std::unique_ptr<ExecContext>& wc : wctx_) {
      if (!wc->status.ok()) {
        ctx_->Fail(wc->status);
        break;
      }
    }
    wctx_.clear();
  }

  bool NextImpl(Row* out) override {
    if (ctx_->Failed() || pos_ >= results_.size()) return false;
    *out = std::move(results_[pos_++]);
    return true;
  }

 private:
  bool Aborted() const {
    return abort_.load(std::memory_order_relaxed) || ctx_->Failed();
  }

  static int KeyPos(const PhysPtr& node, ColumnId key) {
    int pos = node->FindOutput(key);
    QOPT_DCHECK(pos >= 0);
    return pos;
  }

  static TypeId KeyType(const PhysPtr& node, ColumnId key) {
    return node->output_cols[static_cast<size_t>(KeyPos(node, key))].type;
  }

  /// Runs `body(w)` for every worker w with a barrier at the end, timing
  /// each worker's thread-CPU contribution (sum and per-phase max feed the
  /// parallel ExecStats fields).
  void RunPhase(const std::function<void(size_t)>& body) {
    if (Aborted()) return;
    std::vector<double> cpu(dop_, 0.0);
    auto timed = [&](size_t w) {
      double t0 = ThreadCpuMs();
      body(w);
      cpu[w] = ThreadCpuMs() - t0;
    };
    if (ctx_->pool != nullptr && dop_ > 1) {
      ctx_->pool->ParallelFor(dop_, timed);
    } else {
      for (size_t w = 0; w < dop_; ++w) timed(w);
    }
    double critical = 0;
    for (double c : cpu) {
      ctx_->stats.parallel_worker_cpu_ms += c;
      critical = std::max(critical, c);
    }
    ctx_->stats.parallel_critical_cpu_ms += critical;
  }

  /// Creates the shared morsel cursor of every table scan on `node`'s
  /// pipeline spine (filters, projections, join probe sides). Build sides
  /// get theirs when their own phase runs.
  void RegisterSources(const PhysPtr& node) {
    switch (node->kind) {
      case PhysOpKind::kTableScan: {
        const Table* table = ctx_->storage->GetTable(node->table_id);
        QOPT_DCHECK(table != nullptr);
        std::unique_ptr<MorselSource> src;
        if (node->total_partitions > 0 &&
            node->total_partitions == table->num_partitions()) {
          // Pruned partitioned scan: morsels cover only the surviving
          // partitions' row ranges (partition-major clustering makes each
          // partition a contiguous range).
          std::vector<std::pair<size_t, size_t>> ranges;
          ranges.reserve(node->partitions.size());
          for (int p : node->partitions) {
            ranges.push_back(table->PartitionRange(p));
          }
          src = std::make_unique<MorselSource>(ranges, table->num_rows(),
                                               table->num_pages(),
                                               ctx_->morsel_rows);
        } else {
          src = std::make_unique<MorselSource>(
              table->num_rows(), table->num_pages(), ctx_->morsel_rows);
        }
        src->set_abort_flag(&abort_);
        sources_[node.get()] = std::move(src);
        break;
      }
      case PhysOpKind::kFilter:
      case PhysOpKind::kProject:
      case PhysOpKind::kHashJoin:
        RegisterSources(node->children[0]);
        break;
      default:
        break;
    }
  }

  /// One worker's executor tree over a region pipeline: morsel scans over
  /// the shared cursors, probe-only joins over the shared build states.
  std::unique_ptr<Executor> BuildWorkerTree(const PhysPtr& node,
                                            ExecContext* wc) {
    switch (node->kind) {
      case PhysOpKind::kTableScan:
        return NewMorselScanExec(node.get(), wc,
                                 sources_.at(node.get()).get());
      case PhysOpKind::kFilter:
        return NewBatchFilterExec(node.get(), wc,
                                  BuildWorkerTree(node->children[0], wc));
      case PhysOpKind::kProject:
        return NewBatchProjectExec(node.get(), wc,
                                   BuildWorkerTree(node->children[0], wc));
      case PhysOpKind::kHashJoin:
        return NewBatchHashProbeExec(node.get(), wc,
                                     BuildWorkerTree(node->children[0], wc),
                                     states_.at(node.get()));
      default:
        QOPT_DCHECK(false);
        return nullptr;
    }
  }

  /// Materializes the build sides of every hash join in the region,
  /// deepest first, into shared JoinBuildStates.
  void RunBuildPhases(const PhysPtr& node) {
    if (Aborted()) return;
    switch (node->kind) {
      case PhysOpKind::kFilter:
      case PhysOpKind::kProject:
        RunBuildPhases(node->children[0]);
        break;
      case PhysOpKind::kHashJoin: {
        RunBuildPhases(node->children[0]);
        const PhysPtr& build = node->children[1];
        auto state = std::make_shared<JoinBuildState>(
            build->output_cols.size(),
            static_cast<size_t>(KeyPos(build, node->right_key)),
            ReserveHint(build->est_rows));
        if (ParallelEligible(*build)) {
          RunBuildPhases(build);  // nested joins inside the build side
          ParallelBuild(build, state.get());
        } else {
          SerialBuild(build, state.get());
        }
        if (!Aborted()) {
          state->Finalize(KeyType(node->children[0], node->left_key),
                          KeyType(build, node->right_key));
        }
        if (ctx_->analyze) {
          // The shared build happens outside any single worker's executor
          // tree; attribute its modeled footprint to the join node so
          // EXPLAIN ANALYZE shows the build memory in parallel mode too.
          uint64_t bytes = state->num_build_rows() *
                           ModeledRowBytes(build->output_cols.size());
          OperatorStats& os = ctx_->op_stats[node.get()];
          os.peak_mem_bytes = std::max(os.peak_mem_bytes, bytes);
        }
        states_[node.get()] = std::move(state);
        break;
      }
      default:
        break;
    }
  }

  /// Partitioned parallel build: workers drain morsels of the eligible
  /// build subtree into private columnar partitions, concatenated in
  /// worker order at the barrier (so the merged layout is a permutation of
  /// the serial build only across workers, never within one).
  void ParallelBuild(const PhysPtr& build, JoinBuildState* state) {
    if (Aborted()) return;
    size_t rwidth = build->output_cols.size();
    RegisterSources(build);
    std::deque<JoinBuildState> parts;
    for (size_t w = 0; w < dop_; ++w) parts.emplace_back(rwidth, state->rk);
    RunPhase([&](size_t w) {
      ExecContext* wc = wctx_[w].get();
      std::unique_ptr<Executor> tree = BuildWorkerTree(build, wc);
      tree->Init();
      RowBatch b;
      while (!wc->Failed() && tree->NextBatch(&b)) {
        parts[w].Append(&b, wc, ModeledRowBytes(rwidth));
      }
      if (wc->Failed()) abort_.store(true, std::memory_order_relaxed);
    });
    for (size_t w = 0; w < dop_; ++w) {
      for (size_t c = 0; c < rwidth; ++c) {
        std::vector<Value>& dst = state->build_cols[c];
        dst.insert(dst.end(),
                   std::make_move_iterator(parts[w].build_cols[c].begin()),
                   std::make_move_iterator(parts[w].build_cols[c].end()));
      }
    }
  }

  /// Serial drain of an ineligible build side on the calling thread, with
  /// the ordinary batch tree (stats land directly on the main context).
  void SerialBuild(const PhysPtr& build, JoinBuildState* state) {
    std::unique_ptr<Executor> tree = BuildBatchTree(build, ctx_);
    tree->Init();
    RowBatch b;
    while (!ctx_->Failed() && tree->NextBatch(&b)) {
      state->Append(&b, ctx_, ModeledRowBytes(build->output_cols.size()));
    }
    if (ctx_->Failed()) abort_.store(true, std::memory_order_relaxed);
  }

  void RunFinalPhase() {
    RegisterSources(pipeline_root_);
    if (agg_root_) {
      RunAggPhase();
      return;
    }
    std::vector<std::vector<Row>> outs(dop_);
    RunPhase([&](size_t w) {
      ExecContext* wc = wctx_[w].get();
      std::unique_ptr<Executor> tree = BuildWorkerTree(pipeline_root_, wc);
      tree->Init();
      RowBatch b;
      while (!wc->Failed() && tree->NextBatch(&b)) {
        for (size_t k = 0; k < b.ActiveSize(); ++k) {
          Row r;
          b.StealActive(k, &r);
          outs[w].push_back(std::move(r));
        }
      }
      if (wc->Failed()) abort_.store(true, std::memory_order_relaxed);
    });
    size_t total = 0;
    for (const std::vector<Row>& o : outs) total += o.size();
    results_.reserve(total);
    for (std::vector<Row>& o : outs) {
      for (Row& r : o) results_.push_back(std::move(r));
    }
  }

  /// Per-worker partial aggregation over the pipeline, merged in worker
  /// order at the barrier (AggAcc::MergeFrom; DISTINCT partials merge by
  /// re-accumulation, so cross-worker duplicates collapse exactly).
  void RunAggPhase() {
    struct Partial {
      std::unordered_map<Row, Group, RowHash, RowEq> groups;
      std::vector<const Row*> order;  ///< First-seen order within worker.
    };
    ColMap child_map;
    for (size_t i = 0; i < pipeline_root_->output_cols.size(); ++i) {
      child_map[pipeline_root_->output_cols[i].id] = static_cast<int>(i);
    }
    std::vector<int> key_pos;
    for (ColumnId id : plan_->group_by) {
      key_pos.push_back(KeyPos(pipeline_root_, id));
    }
    const size_t na = plan_->aggs.size();
    // Aggregate arguments are bound once here (the node cache makes this a
    // lookup for every worker anyway) so the compile time and
    // compiled/fallback counts are charged exactly once per query; each
    // worker evaluates through its own copy, sharing the immutable programs
    // but not the scratch state.
    std::vector<expr::BatchExpr> args(na);
    const expr::CompileEnv env =
        expr::MakeCompileEnv(child_map, pipeline_root_->output_cols);
    for (size_t i = 0; i < na; ++i) {
      const plan::AggItem& item = plan_->aggs[i];
      if (item.func == ast::AggFunc::kCountStar || item.arg == nullptr) {
        continue;
      }
      RecordExprMode(args[i].Bind(
          plan_, expr::kSlotAggBase + static_cast<int>(i), item.arg, env,
          /*as_predicate=*/false, ctx_));
    }
    std::vector<Partial> partials(dop_);
    RunPhase([&](size_t w) {
      ExecContext* wc = wctx_[w].get();
      Partial& part = partials[w];
      // Any worker can see every group, so each partial sizes for the full
      // estimated group count.
      part.groups.reserve(ReserveHint(plan_->est_rows));
      std::unique_ptr<Executor> tree = BuildWorkerTree(pipeline_root_, wc);
      tree->Init();
      // Vectorized drain: arguments evaluate whole batches at a time and
      // keys gather straight from the batch columns — no per-row Row
      // materialization (mirrors the serial HashAggregate batch drain).
      std::vector<expr::BatchExpr> wargs = args;
      std::vector<std::vector<Value>> argv(na);
      RowBatch b;
      while (!wc->Failed() && tree->NextBatch(&b)) {
        const size_t n = b.ActiveSize();
        if (n == 0) continue;
        for (size_t i = 0; i < na; ++i) {
          const plan::AggItem& item = plan_->aggs[i];
          if (item.func == ast::AggFunc::kCountStar || item.arg == nullptr) {
            continue;
          }
          wargs[i].EvalColumn(b, &argv[i]);
        }
        bool charged_out = false;
        for (size_t k = 0; k < n; ++k) {
          const uint32_t r = b.ActiveIndex(k);
          Row key;
          key.reserve(key_pos.size());
          for (int p : key_pos) key.push_back(b.At(p, r));
          auto [it, inserted] =
              part.groups.emplace(std::move(key), NewGroup(plan_->aggs));
          if (inserted) {
            // Same per-group charge as the serial hash aggregate; workers
            // sharing a group each charge their partial — the budget
            // bounds real memory, which partials really occupy.
            if (!wc->GovernorCharge(1, ModeledRowBytes(it->first) + 48 * na)) {
              charged_out = true;
              break;
            }
            part.order.push_back(&it->first);
          }
          for (size_t i = 0; i < na; ++i) {
            if (plan_->aggs[i].func == ast::AggFunc::kCountStar ||
                plan_->aggs[i].arg == nullptr) {
              it->second.accs[i].Accumulate(Value::Null());
            } else {
              it->second.accs[i].Accumulate(argv[i][k]);
            }
          }
        }
        if (charged_out) break;
      }
      if (wc->Failed()) abort_.store(true, std::memory_order_relaxed);
    });
    if (Aborted()) return;
    std::unordered_map<Row, Group, RowHash, RowEq> merged;
    merged.reserve(ReserveHint(plan_->est_rows));
    std::vector<const Row*> order;
    order.reserve(ReserveHint(plan_->est_rows));
    for (Partial& part : partials) {
      for (const Row* key : part.order) {
        auto pit = part.groups.find(*key);
        auto mit = merged.find(*key);
        if (mit == merged.end()) {
          auto it = merged.emplace(*key, std::move(pit->second)).first;
          order.push_back(&it->first);
        } else {
          for (size_t i = 0; i < mit->second.accs.size(); ++i) {
            mit->second.accs[i].MergeFrom(pit->second.accs[i]);
          }
        }
      }
    }
    if (merged.empty() && plan_->group_by.empty()) {
      // Scalar aggregate over empty input still yields one row.
      Group g = NewGroup(plan_->aggs);
      Row out;
      for (const AggAcc& acc : g.accs) out.push_back(acc.Finalize());
      results_.push_back(std::move(out));
      return;
    }
    if (ctx_->analyze) {
      // The merged group table lives on the gather, not inside a worker
      // tree; attribute its modeled footprint to the aggregate node.
      uint64_t bytes = 0;
      for (const Row* key : order) {
        bytes += ModeledRowBytes(*key) + 48 * plan_->aggs.size();
      }
      OperatorStats& os = ctx_->op_stats[plan_];
      os.peak_mem_bytes = std::max(os.peak_mem_bytes, bytes);
    }
    results_.reserve(order.size());
    for (const Row* key : order) {
      Row out = *key;
      for (const AggAcc& acc : merged.at(*key).accs) {
        out.push_back(acc.Finalize());
      }
      results_.push_back(std::move(out));
    }
  }

  PhysPtr root_;
  bool agg_root_ = false;
  PhysPtr pipeline_root_;
  size_t dop_ = 1;
  std::atomic<bool> abort_{false};
  std::vector<std::unique_ptr<ExecContext>> wctx_;
  std::unordered_map<const PhysicalPlan*, std::unique_ptr<MorselSource>>
      sources_;
  std::unordered_map<const PhysicalPlan*, std::shared_ptr<JoinBuildState>>
      states_;
  std::vector<Row> results_;
  size_t pos_ = 0;
};

}  // namespace

std::unique_ptr<Executor> NewParallelGatherExec(const PhysPtr& plan,
                                                ExecContext* ctx) {
  return std::make_unique<ParallelGatherExec>(plan, ctx);
}

}  // namespace qopt::exec::internal
