#include "runner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <set>
#include <thread>
#include <unordered_set>

#include "engine/thread_pool.h"
#include "optimizer/rewrite/rule_engine.h"
#include "parser/parser.h"
#include "plan/binder.h"
#include "plan/fingerprint.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using qopt::Database;
using qopt::QueryOptions;
using qopt::Row;
using qopt::Session;
using qopt::Status;
using Clock = std::chrono::steady_clock;

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

/// Reads one numeric field of Database::MetricsJson().
uint64_t MetricValue(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\": ";
  size_t at = json.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + key.size(), nullptr, 10);
}

Statement WithSpillDir(Statement st, const std::string& dir) {
  st.options.spill.dir = dir;
  return st;
}

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 3;

/// Write probes per 20 s of a window of a workload without a writer.
constexpr double kWriteProbesPer20s = 1200;

/// Fresh database with the workload's data, analyzed and warmed.
Status SetUp(const Workload& w, const std::string& spill_dir,
             std::unique_ptr<Database>* out) {
  auto db = std::make_unique<Database>();
  QOPT_RETURN_IF_ERROR(w.setup(db.get()));
  Session session = db->OpenSession();
  for (int s = 0; s < w.reader_sessions; ++s) {
    std::function<Statement()> next = w.reads(s, /*stream=*/1);
    for (size_t i = 0; i < w.warmup_statements; ++i) {
      Statement st = WithSpillDir(next(), spill_dir);
      QOPT_RETURN_IF_ERROR(session.Query(st.sql, st.options).status());
    }
  }
  *out = std::move(db);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The traced path: the public calls Session::Query makes, one span each.

/// Per-thread sums of the traced run; merged when the run ends.
struct LayerAgg {
  uint64_t queries = 0;
  uint64_t shed = 0;
  uint64_t hits = 0;
  uint64_t parametric_hits = 0;
  uint64_t selinger_compiles = 0;
  uint64_t cascades_compiles = 0;
  double admit_ns = 0, snapshot_ns = 0, parse_ns = 0, fingerprint_ns = 0;
  double cache_hit_ns = 0, bind_ns = 0, rewrite_ns = 0;
  double selinger_enum_ns = 0, cascades_enum_ns = 0;
  double build_ns = 0, drain_ns = 0, teardown_ns = 0, root_self_ns = 0;
  uint64_t rewrite_applications = 0;
  uint64_t sel_subsets = 0, sel_costed = 0, sel_pruned = 0, sel_retained = 0;
  uint64_t casc_logical = 0, casc_costed = 0, casc_winner_hits = 0,
           casc_group_tasks = 0;
  uint64_t feedback_lookups = 0;
  uint64_t rows_scanned = 0, result_rows = 0, rows_joined = 0,
           page_touches = 0, spill_bytes = 0;
  double worker_cpu_ms = 0, critical_cpu_ms = 0, parallel_capacity_ms = 0;
  uint64_t snapshot_changes = 0;
  std::vector<double> path_ms;
  uint64_t writes = 0, analyzes = 0, write_failed = 0;
  double exclusive_wait_ns = 0, publish_ns = 0;

  void Merge(const LayerAgg& o) {
    queries += o.queries; shed += o.shed;
    hits += o.hits; parametric_hits += o.parametric_hits;
    selinger_compiles += o.selinger_compiles;
    cascades_compiles += o.cascades_compiles;
    admit_ns += o.admit_ns; snapshot_ns += o.snapshot_ns;
    parse_ns += o.parse_ns; fingerprint_ns += o.fingerprint_ns;
    cache_hit_ns += o.cache_hit_ns; bind_ns += o.bind_ns;
    rewrite_ns += o.rewrite_ns; selinger_enum_ns += o.selinger_enum_ns;
    cascades_enum_ns += o.cascades_enum_ns; build_ns += o.build_ns;
    drain_ns += o.drain_ns; teardown_ns += o.teardown_ns;
    root_self_ns += o.root_self_ns;
    rewrite_applications += o.rewrite_applications;
    sel_subsets += o.sel_subsets; sel_costed += o.sel_costed;
    sel_pruned += o.sel_pruned; sel_retained += o.sel_retained;
    casc_logical += o.casc_logical; casc_costed += o.casc_costed;
    casc_winner_hits += o.casc_winner_hits;
    casc_group_tasks += o.casc_group_tasks;
    feedback_lookups += o.feedback_lookups;
    rows_scanned += o.rows_scanned; result_rows += o.result_rows;
    rows_joined += o.rows_joined; page_touches += o.page_touches;
    spill_bytes += o.spill_bytes; worker_cpu_ms += o.worker_cpu_ms;
    critical_cpu_ms += o.critical_cpu_ms;
    parallel_capacity_ms += o.parallel_capacity_ms;
    snapshot_changes += o.snapshot_changes;
    path_ms.insert(path_ms.end(), o.path_ms.begin(), o.path_ms.end());
    writes += o.writes; analyzes += o.analyzes; write_failed += o.write_failed;
    exclusive_wait_ns += o.exclusive_wait_ns; publish_ns += o.publish_ns;
  }
};

/// Records the spans of one query; keeps a bounded copy for the trace file.
class SpanRecorder {
 public:
  static constexpr size_t kKeptSpans = 20000;

  void StartQuery(uint64_t query_id) {
    query_id_ = query_id;
    spans_.clear();
  }
  int Begin(Layer layer, int parent) {
    spans_.push_back(Span{layer, parent, query_id_, NowNs(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int span) { spans_[span].end_ns = NowNs(); }
  const std::vector<Span>& spans() const { return spans_; }
  void Keep() {
    if (kept_.size() + spans_.size() <= kKeptSpans) {
      kept_.insert(kept_.end(), spans_.begin(), spans_.end());
    }
  }
  const std::vector<Span>& kept() const { return kept_; }

 private:
  uint64_t query_id_ = 0;
  std::vector<Span> spans_;
  std::vector<Span> kept_;
};

/// The serving defaults Session::Query applies to the caller's options.
QueryOptions EffectiveOptions(Database* db, const QueryOptions& options) {
  qopt::ServingState* serving = db->serving();
  QueryOptions effective = options;
  if (effective.governor.Unlimited()) {
    effective.governor = serving->options.query_defaults;
  }
  effective.shared_pool =
      serving->pool.enabled() ? &serving->pool : nullptr;
  return effective;
}

/// Database::QueryInternal's spill-arming rule as of this benchmark. The
/// traced path falls back to it only when EXPLAIN cannot tell (see
/// CheckExecModes).
bool SpillArmedByRule(const QueryOptions& o) {
  return o.spill.enabled &&
         (o.spill.operator_budget_bytes > 0 || o.governor.max_memory_bytes > 0);
}

/// For each hash join of `plan`, in the order EXPLAIN prints them, whether
/// it runs vectorized under `options` when spill is (not) armed.
std::vector<bool> HashJoinModes(const qopt::exec::PhysPtr& plan,
                                const QueryOptions& options,
                                bool spill_armed) {
  std::unordered_set<const qopt::exec::PhysicalPlan*> vectorized;
  if (options.execution_mode != qopt::exec::ExecMode::kRow) {
    vectorized = qopt::exec::BatchModeNodes(plan, spill_armed);
  }
  if (options.execution_mode == qopt::exec::ExecMode::kParallel) {
    for (const qopt::exec::PhysicalPlan* root :
         qopt::exec::ParallelRegionRoots(plan, spill_armed)) {
      vectorized.insert(root);
    }
  }
  std::vector<bool> modes;
  std::vector<const qopt::exec::PhysicalPlan*> stack = {plan.get()};
  while (!stack.empty()) {
    const qopt::exec::PhysicalPlan* node = stack.back();
    stack.pop_back();
    if (node->kind == qopt::exec::PhysOpKind::kHashJoin) {
      modes.push_back(vectorized.count(node) > 0);
    }
    for (auto child = node->children.rbegin(); child != node->children.rend();
         ++child) {
      stack.push_back(child->get());
    }
  }
  return modes;
}

/// The same, read from the engine's EXPLAIN text: a HashJoin line without
/// a [batch] or [parallel] marker runs in row mode.
std::vector<bool> ExplainedHashJoinModes(const std::vector<Row>& lines) {
  std::vector<bool> modes;
  for (const Row& row : lines) {
    if (row.empty() || row[0].type() != qopt::TypeId::kString) continue;
    const std::string& line = row[0].AsString();
    const size_t at = line.find_first_not_of(' ');
    if (at == std::string::npos || line.compare(at, 8, "HashJoin") != 0) {
      continue;
    }
    modes.push_back(line.find(" [batch]") != std::string::npos ||
                    line.find(" [parallel]") != std::string::npos);
  }
  return modes;
}

/// Sends one SELECT along Session::Query's call path with a span around
/// each public call, and folds the spans into `agg`.
class TracedClient {
 public:
  TracedClient(Database* db, qopt::ThreadPool* pool, bool spill_armed,
               uint64_t id_base)
      : db_(db), pool_(pool), spill_armed_(spill_armed), next_id_(id_base) {}

  qopt::Result<std::vector<Row>> Query(const Statement& st, LayerAgg* agg);
  void Write(const std::string& sql, const std::string& analyze_table,
             LayerAgg* agg);
  const SpanRecorder& recorder() const { return rec_; }

 private:
  Database* db_;
  qopt::ThreadPool* pool_;
  bool spill_armed_;  ///< From CheckExecModes.
  uint64_t next_id_;
  SpanRecorder rec_;
};

qopt::Result<std::vector<Row>> TracedClient::Query(const Statement& st,
                                                   LayerAgg* agg) {
  using Outcome = qopt::opt::PlanCacheInfo::Outcome;
  qopt::ServingState* serving = db_->serving();
  const QueryOptions eff = EffectiveOptions(db_, st.options);
  rec_.StartQuery(next_id_++);
  const int root = rec_.Begin(Layer::kQuery, -1);

  const Clock::time_point start = Clock::now();
  Clock::time_point deadline =
      start + std::chrono::milliseconds(serving->options.max_queue_wait_ms);
  if (eff.governor.deadline_ms >= 0) {
    deadline = std::min(
        deadline, start + std::chrono::milliseconds(eff.governor.deadline_ms));
  }
  int span = rec_.Begin(Layer::kAdmit, root);
  Status admitted = serving->admission.AdmitShared(deadline);
  rec_.End(span);
  if (!admitted.ok()) {
    rec_.End(root);
    ++agg->shed;
    return admitted;
  }

  span = rec_.Begin(Layer::kSnapshot, root);
  std::shared_ptr<const qopt::Catalog> snapshot = db_->CatalogSnapshot();
  rec_.End(span);

  span = rec_.Begin(Layer::kParse, root);
  qopt::Result<qopt::ast::Statement> parsed = qopt::parser::Parse(st.sql);
  rec_.End(span);

  qopt::Result<qopt::exec::PhysPtr> plan = Status::Internal("not planned");
  qopt::opt::OptimizeInfo info;
  if (parsed.ok() && parsed->select != nullptr) {
    span = rec_.Begin(Layer::kFingerprint, root);
    qopt::plan::QueryFingerprint fp;
    (void)qopt::plan::FingerprintQuery(parsed->select.get(), *snapshot, &fp);
    rec_.End(span);

    span = rec_.Begin(Layer::kPlanQuery, root);
    plan = db_->PlanQuery(st.sql, eff, &info);
    rec_.End(span);
    // PlanQuery plans against a snapshot of its own. When a publish came
    // in between, the plan may rest on newer statistics than `snapshot`,
    // which the compile split and the execution below use.
    if (db_->CatalogSnapshot() != snapshot) ++agg->snapshot_changes;
  } else if (parsed.ok()) {
    plan = Status::InvalidArgument("expected a SELECT statement");
  } else {
    plan = parsed.status();
  }
  const Outcome outcome = info.plan_cache.outcome;
  const bool hit = outcome == Outcome::kHit ||
                   outcome == Outcome::kHitParametric;
  if (plan.ok() && !hit) {
    // A miss compiled inside PlanQuery; repeat the compile one call at a
    // time to split its time (see QueryLayers in core.h).
    const int recompile = rec_.Begin(Layer::kRecompile, root);
    span = rec_.Begin(Layer::kBind, recompile);
    int next_rel_id = 0;
    qopt::Result<qopt::plan::BoundQuery> bound =
        qopt::plan::Bind(*parsed->select, *snapshot, &next_rel_id);
    rec_.End(span);
    if (bound.ok()) {
      span = rec_.Begin(Layer::kRewrite, recompile);
      int rewrite_rel_id = next_rel_id;
      (void)qopt::opt::RuleEngine::Default().Rewrite(
          bound->root->Clone(), *snapshot, &rewrite_rel_id);
      rec_.End(span);

      span = rec_.Begin(Layer::kOptimize, recompile);
      qopt::stats::FeedbackContext feedback;
      qopt::opt::OptimizerOptions optimizer_options = eff.optimizer;
      if (eff.use_feedback) {
        feedback.store = &db_->feedback_store();
        optimizer_options.feedback = &feedback;
      }
      qopt::ResourceGovernor governor(eff.governor, eff.shared_pool);
      qopt::opt::Optimizer optimizer(*snapshot, optimizer_options);
      qopt::opt::OptimizeInfo again;
      (void)optimizer.Optimize(bound->root, &next_rel_id, &again,
                               governor.enabled() ? &governor : nullptr);
      rec_.End(span);
    }
    rec_.End(recompile);
  }

  qopt::Result<std::vector<Row>> rows = Status::Internal("not executed");
  qopt::exec::ExecStats exec_stats;
  if (plan.ok()) {
    span = rec_.Begin(Layer::kBuild, root);
    qopt::ResourceGovernor governor(eff.governor, eff.shared_pool);
    qopt::exec::ExecContext ctx;
    ctx.storage = &db_->storage();
    ctx.catalog = snapshot.get();
    ctx.mode = eff.execution_mode;
    ctx.batch_capacity = eff.batch_capacity;
    ctx.compile_expressions = eff.compile_expressions;
    qopt::MetricsRegistry& metrics = db_->metrics();
    ctx.expr_compiled_metric = metrics.GetCounter("expr.compiled");
    ctx.expr_fallback_metric = metrics.GetCounter("expr.fallback");
    ctx.expr_compile_ns = metrics.GetHistogram("expr.compile_ns");
    if (governor.enabled()) ctx.governor = &governor;
    if (spill_armed_) {
      ctx.spill.armed = true;
      ctx.spill.budget_bytes =
          eff.spill.operator_budget_bytes > 0
              ? eff.spill.operator_budget_bytes
              : std::max<uint64_t>(eff.governor.max_memory_bytes / 4,
                                   64 * 1024);
      ctx.spill.partitions = eff.spill.partitions;
      ctx.spill.merge_fanin = eff.spill.merge_fanin;
      ctx.spill.dir = eff.spill.dir;
      ctx.spill_runs_metric = metrics.GetCounter("spill.runs");
      ctx.spill_bytes_metric = metrics.GetCounter("spill.bytes_written");
      ctx.spill_run_bytes = metrics.GetHistogram("spill.run_bytes");
    }
    if (eff.execution_mode == qopt::exec::ExecMode::kParallel) {
      ctx.dop = std::clamp<size_t>(eff.dop, 1, qopt::ThreadPool::kMaxThreads);
      ctx.morsel_rows = eff.morsel_rows;
      if (ctx.dop > 1) ctx.pool = pool_;
    }
    Status deadline_ok =
        ctx.governor != nullptr ? ctx.governor->CheckDeadline() : Status::OK();
    std::unique_ptr<qopt::exec::Executor> executor;
    if (deadline_ok.ok()) executor = qopt::exec::BuildExecutor(*plan, &ctx);
    rec_.End(span);

    span = rec_.Begin(Layer::kDrain, root);
    std::vector<Row> out;
    if (executor != nullptr) {
      // The drain loop of exec::ExecuteAll, result charging included.
      executor->Init();
      if (!ctx.Failed() && ctx.mode != qopt::exec::ExecMode::kRow) {
        qopt::exec::RowBatch batch;
        const uint64_t width = (*plan)->output_cols.size();
        while (executor->NextBatch(&batch)) {
          const size_t n = batch.ActiveSize();
          if (!ctx.GovernorCharge(n, n * (16 + 24 * width))) break;
          for (size_t k = 0; k < n; ++k) {
            Row r;
            batch.StealActive(k, &r);
            out.push_back(std::move(r));
          }
        }
      } else if (!ctx.Failed()) {
        Row r;
        while (executor->Next(&r)) {
          if (!ctx.GovernorCharge(1, qopt::exec::ModeledRowBytes(r))) break;
          out.push_back(std::move(r));
        }
      }
    }
    rec_.End(span);
    span = rec_.Begin(Layer::kTeardown, root);
    executor.reset();
    rec_.End(span);
    if (!deadline_ok.ok()) {
      rows = deadline_ok;
    } else if (ctx.Failed()) {
      rows = ctx.status;
    } else {
      rows = std::move(out);
    }
    exec_stats = ctx.stats;
  } else {
    rows = plan.status();
  }
  serving->admission.ReleaseShared();
  rec_.End(root);
  rec_.Keep();

  // Bookkeeping happens after the root span closes.
  ++agg->queries;
  const QueryLayers layers = BreakDown(rec_.spans());
  agg->path_ms.push_back(static_cast<double>(layers.path_ns) / 1e6);
  agg->admit_ns += static_cast<double>(layers.admit_ns);
  agg->snapshot_ns += static_cast<double>(layers.snapshot_ns);
  agg->parse_ns += static_cast<double>(layers.parse_ns);
  agg->fingerprint_ns += static_cast<double>(layers.fingerprint_ns);
  agg->build_ns += static_cast<double>(layers.build_ns);
  agg->drain_ns += static_cast<double>(layers.drain_ns);
  agg->teardown_ns += static_cast<double>(layers.teardown_ns);
  agg->root_self_ns += static_cast<double>(layers.root_self_ns);
  if (hit) {
    ++agg->hits;
    if (outcome == Outcome::kHitParametric) ++agg->parametric_hits;
    agg->cache_hit_ns += static_cast<double>(layers.cache_path_ns);
  } else if (layers.compiled) {
    agg->bind_ns += static_cast<double>(layers.bind_ns);
    agg->rewrite_ns += static_cast<double>(layers.rewrite_ns);
    for (const auto& [rule, n] : info.rewrite_applications) {
      agg->rewrite_applications += static_cast<uint64_t>(n);
    }
    agg->feedback_lookups += info.feedback_lookups;
    if (eff.optimizer.enumerator == qopt::opt::EnumeratorKind::kSelinger) {
      ++agg->selinger_compiles;
      agg->selinger_enum_ns += static_cast<double>(layers.enumerate_ns);
      const qopt::opt::SelingerCounters& c = info.selinger_counters;
      agg->sel_subsets += c.subsets_expanded;
      agg->sel_costed += c.join_plans_costed;
      agg->sel_pruned += c.candidates_pruned;
      agg->sel_retained += c.candidates_retained;
    } else {
      ++agg->cascades_compiles;
      agg->cascades_enum_ns += static_cast<double>(layers.enumerate_ns);
      const qopt::opt::cascades::CascadesCounters& c = info.cascades_counters;
      agg->casc_logical += c.logical_exprs;
      agg->casc_costed += c.impl_plans_costed;
      agg->casc_winner_hits += c.winner_cache_hits;
      agg->casc_group_tasks += c.optimize_group_tasks;
    }
  }
  if (plan.ok()) {
    agg->rows_scanned += exec_stats.rows_scanned;
    agg->rows_joined += exec_stats.rows_joined;
    agg->page_touches += exec_stats.page_touches;
    agg->spill_bytes += exec_stats.spill_bytes_written;
    if (exec_stats.parallel_worker_cpu_ms > 0) {
      agg->worker_cpu_ms += exec_stats.parallel_worker_cpu_ms;
      agg->critical_cpu_ms += exec_stats.parallel_critical_cpu_ms;
      agg->parallel_capacity_ms += static_cast<double>(eff.dop) *
                                   static_cast<double>(layers.drain_ns) / 1e6;
    }
  }
  if (rows.ok()) agg->result_rows += rows->size();
  return rows;
}

void TracedClient::Write(const std::string& sql,
                         const std::string& analyze_table, LayerAgg* agg) {
  qopt::ServingState* serving = db_->serving();
  rec_.StartQuery(next_id_++);
  const int root = rec_.Begin(Layer::kWrite, -1);
  int span = rec_.Begin(Layer::kParse, root);
  qopt::Result<qopt::ast::Statement> parsed = qopt::parser::Parse(sql);
  rec_.End(span);
  Status status = parsed.status();
  if (status.ok()) {
    span = rec_.Begin(Layer::kAdmitExclusive, root);
    status = serving->admission.AdmitExclusive(
        Clock::now() +
        std::chrono::milliseconds(serving->options.max_queue_wait_ms));
    rec_.End(span);
    agg->exclusive_wait_ns +=
        static_cast<double>(rec_.spans()[span].duration_ns());
  }
  if (status.ok()) {
    span = rec_.Begin(Layer::kExecute, root);
    status = db_->Execute(sql);
    rec_.End(span);
    serving->admission.ReleaseExclusive();
  }
  if (status.ok() && !analyze_table.empty()) {
    span = rec_.Begin(Layer::kAnalyze, root);
    status = db_->Analyze(analyze_table);
    rec_.End(span);
    agg->publish_ns += static_cast<double>(rec_.spans()[span].duration_ns());
    ++agg->analyzes;
  }
  rec_.End(root);
  rec_.Keep();
  ++agg->writes;
  if (!status.ok()) ++agg->write_failed;
}

// ---------------------------------------------------------------------------
// The measured window.

/// What one window of closed-loop readers plus the open-loop writer did.
struct Window {
  std::vector<double> read_ms;
  uint64_t reads = 0;
  uint64_t read_failed = 0;
  std::vector<double> write_ms;
  uint64_t writes = 0;
  uint64_t write_failed = 0;
  double elapsed_s = 0;
  double writer_max_lag_ms = 0;
  uint64_t session0_reads = 0;
};

/// Sends one reader statement; false when it failed.
using ReadFn = std::function<bool(int session, const Statement&)>;
/// Sends the i-th write probe from reader session 0; false when it failed.
using ProbeFn = std::function<bool(uint64_t i)>;
/// Sends the i-th writer statement (and its ANALYZE when due); returns, per
/// statement sent, when it completed and whether it succeeded.
using WriteFn = std::function<std::vector<std::pair<Clock::time_point, bool>>(
    uint64_t i, bool analyze)>;

/// Runs the readers and the writer for `seconds`. With `probe`, reader
/// session 0 also sends write probes between its reads, one due every
/// 20 s / kWriteProbesPer20s, and the window's writes are those probes.
Window RunWindow(const Workload& w, double seconds,
                 const std::string& spill_dir, const ReadFn& read,
                 const WriteFn& write, const ProbeFn& probe = nullptr) {
  Window win;
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<Window> per_session(static_cast<size_t>(w.reader_sessions));
  std::vector<Clock::time_point> last_done(per_session.size(), start);
  std::vector<std::thread> threads;
  for (int s = 0; s < w.reader_sessions; ++s) {
    threads.emplace_back([&, s] {
      Window& mine = per_session[static_cast<size_t>(s)];
      std::function<Statement()> next = w.reads(s, /*stream=*/0);
      mine.read_ms.reserve(1 << 16);
      const auto probe_period = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(20.0 / kWriteProbesPer20s));
      std::this_thread::sleep_until(start);
      while (Clock::now() < end) {
        if (s == 0 && probe &&
            Clock::now() >= start + probe_period *
                                        static_cast<int64_t>(mine.writes)) {
          const Clock::time_point t0 = Clock::now();
          const bool ok = probe(mine.writes);
          const Clock::time_point t1 = Clock::now();
          mine.write_ms.push_back(
              std::chrono::duration<double, std::milli>(t1 - t0).count());
          ++mine.writes;
          if (!ok) ++mine.write_failed;
          last_done[0] = t1;
          continue;
        }
        Statement st = WithSpillDir(next(), spill_dir);
        const Clock::time_point t0 = Clock::now();
        const bool ok = read(s, st);
        const Clock::time_point t1 = Clock::now();
        mine.read_ms.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
        ++mine.reads;
        if (!ok) ++mine.read_failed;
        last_done[static_cast<size_t>(s)] = t1;
      }
    });
  }
  if (w.writer.rate_hz > 0) {
    threads.emplace_back([&] {
      const auto period = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(1.0 / w.writer.rate_hz));
      for (uint64_t i = 0;; ++i) {
        const Clock::time_point due = start + period * static_cast<int64_t>(i);
        if (due >= end) break;
        std::this_thread::sleep_until(due);
        win.writer_max_lag_ms = std::max(
            win.writer_max_lag_ms,
            std::chrono::duration<double, std::milli>(Clock::now() - due)
                .count());
        const bool analyze = w.writer.analyze_every > 0 &&
                             (i + 1) % w.writer.analyze_every == 0;
        // The ANALYZE is due when its INSERT is: both are timed from the
        // write's due time.
        for (const auto& [done, ok] : write(i, analyze)) {
          win.write_ms.push_back(
              std::chrono::duration<double, std::milli>(done - due).count());
          ++win.writes;
          if (!ok) ++win.write_failed;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Clock::time_point finish = start;
  for (size_t s = 0; s < per_session.size(); ++s) {
    const Window& p = per_session[s];
    win.read_ms.insert(win.read_ms.end(), p.read_ms.begin(), p.read_ms.end());
    win.reads += p.reads;
    win.read_failed += p.read_failed;
    win.write_ms.insert(win.write_ms.end(), p.write_ms.begin(),
                        p.write_ms.end());
    win.writes += p.writes;
    win.write_failed += p.write_failed;
    finish = std::max(finish, last_done[s]);
  }
  win.session0_reads = per_session.empty() ? 0 : per_session[0].reads;
  win.elapsed_s = std::chrono::duration<double>(finish - start).count();
  return win;
}

// ---------------------------------------------------------------------------
// Output.

class JsonObject {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    Raw(key, buf);
  }
  void Str(const std::string& key, const std::string& v) {
    Raw(key, "\"" + JsonEscape(v) + "\"");
  }
  void Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ", \"") + JsonEscape(key) + "\": " + json;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

struct MetricOut {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<MetricOut>& metrics) {
  JsonObject obj;
  for (const MetricOut& m : metrics) {
    JsonObject v;
    v.Num("value", m.value);
    v.Str("unit", m.unit);
    obj.Raw(m.name, v.str());
  }
  return obj.str();
}

double Mean(double sum, uint64_t n) {
  return n == 0 ? 0 : sum / static_cast<double>(n);
}

double Ratio(double num, double den) { return den <= 0 ? 0 : num / den; }

/// Distinct plan-cache keys among `statements`: fingerprint plus the
/// plan-affecting options the workload varies.
size_t CountShapes(Database* db, const std::vector<Statement>& statements) {
  std::shared_ptr<const qopt::Catalog> snapshot = db->CatalogSnapshot();
  std::set<std::pair<uint64_t, int>> keys;
  for (const Statement& st : statements) {
    qopt::Result<qopt::ast::Statement> parsed = qopt::parser::Parse(st.sql);
    if (!parsed.ok() || parsed->select == nullptr) continue;
    qopt::plan::QueryFingerprint fp;
    if (!qopt::plan::FingerprintQuery(parsed->select.get(), *snapshot, &fp)
             .ok()) {
      continue;
    }
    keys.insert({fp.hash, static_cast<int>(st.options.optimizer.enumerator)});
  }
  return keys.size();
}

void WriteTrace(const std::string& path,
                const std::vector<const SpanRecorder*>& recorders) {
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  for (const SpanRecorder* rec : recorders) {
    for (const Span& s : rec->kept()) {
      out << "{\"query\": " << s.query_id << ", \"layer\": \""
          << LayerName(s.layer) << "\", \"parent\": " << s.parent
          << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << "}\n";
    }
  }
}

/// Engine counters read before and after the traced window.
struct TraceCounters {
  qopt::PlanCacheStats cache;
  uint64_t expr_compiled = 0;
  uint64_t expr_fallback = 0;
  uint64_t tasks_stolen = 0;
  uint64_t tasks_submitted = 0;
};

TraceCounters ReadCounters(Database* db, const qopt::ThreadPool* pool) {
  const std::string json = db->MetricsJson();
  return TraceCounters{db->plan_cache().stats(),
                       MetricValue(json, "expr.compiled"),
                       MetricValue(json, "expr.fallback"),
                       pool->tasks_stolen(), pool->tasks_submitted()};
}

/// The per-layer metrics of a traced window (README.md defines each).
std::vector<MetricOut> LayerMetrics(const LayerAgg& agg,
                                    const TraceCounters& before,
                                    const TraceCounters& after,
                                    const ExecModeCheck& modes,
                                    double traced_s, double chosen_cost,
                                    double untraced_p50_ms) {
  const auto delta = [](uint64_t a, uint64_t b) {
    return static_cast<double>(b - a);
  };
  const auto count = [](uint64_t n) { return static_cast<double>(n); };
  const uint64_t compiles = agg.selinger_compiles + agg.cascades_compiles;
  const double lookups = delta(before.cache.hits, after.cache.hits) +
                         delta(before.cache.misses, after.cache.misses) +
                         delta(before.cache.invalidations,
                               after.cache.invalidations);
  const double expr_compiled =
      delta(before.expr_compiled, after.expr_compiled);
  const double expr_fallback =
      delta(before.expr_fallback, after.expr_fallback);
  const double traced_p50 = Percentile(agg.path_ms, 50);
  return {
      {"admission.wait_us", Mean(agg.admit_ns, agg.queries) / 1e3, "us"},
      {"admission.shed", count(agg.shed), "count"},
      {"admission.exclusive_wait_ms",
       Mean(agg.exclusive_wait_ns, agg.writes) / 1e6, "ms"},
      {"catalog.snapshot_us", Mean(agg.snapshot_ns, agg.queries) / 1e3, "us"},
      {"catalog.publish_ms", Mean(agg.publish_ns, agg.analyzes) / 1e6, "ms"},
      {"parser.parse_us", Mean(agg.parse_ns, agg.queries) / 1e3, "us"},
      {"plan.fingerprint_us", Mean(agg.fingerprint_ns, agg.queries) / 1e3,
       "us"},
      {"plan.bind_us", Mean(agg.bind_ns, compiles) / 1e3, "us"},
      {"plan_cache.lookup_us", Mean(agg.cache_hit_ns, agg.hits) / 1e3, "us"},
      {"plan_cache.hit_ratio",
       Ratio(delta(before.cache.hits, after.cache.hits), lookups), "ratio"},
      {"plan_cache.parametric_hits",
       Ratio(count(agg.parametric_hits), count(agg.queries)), "1/query"},
      {"plan_cache.invalidations",
       Ratio(delta(before.cache.invalidations, after.cache.invalidations),
             traced_s),
       "1/s"},
      {"rewrite.ms", Mean(agg.rewrite_ns, compiles) / 1e6, "ms"},
      {"rewrite.applications", Mean(count(agg.rewrite_applications), compiles),
       "1/compile"},
      {"selinger.enumerate_ms",
       Mean(agg.selinger_enum_ns, agg.selinger_compiles) / 1e6, "ms"},
      {"selinger.subsets_expanded",
       Mean(count(agg.sel_subsets), agg.selinger_compiles), "1/compile"},
      {"selinger.join_plans_costed",
       Mean(count(agg.sel_costed), agg.selinger_compiles), "1/compile"},
      {"selinger.pruned_ratio",
       Ratio(count(agg.sel_pruned), count(agg.sel_pruned + agg.sel_retained)),
       "ratio"},
      {"cascades.enumerate_ms",
       Mean(agg.cascades_enum_ns, agg.cascades_compiles) / 1e6, "ms"},
      {"cascades.logical_exprs",
       Mean(count(agg.casc_logical), agg.cascades_compiles), "1/compile"},
      {"cascades.impl_plans_costed",
       Mean(count(agg.casc_costed), agg.cascades_compiles), "1/compile"},
      {"cascades.winner_hit_ratio",
       Ratio(count(agg.casc_winner_hits),
             count(agg.casc_winner_hits + agg.casc_group_tasks)),
       "ratio"},
      {"optimizer.chosen_cost", chosen_cost, "cost"},
      {"stats.feedback_lookups", Mean(count(agg.feedback_lookups), compiles),
       "1/compile"},
      {"exec.build_us", Mean(agg.build_ns, agg.queries) / 1e3, "us"},
      {"exec.run_ms", Mean(agg.drain_ns, agg.queries) / 1e6, "ms"},
      {"exec.teardown_us", Mean(agg.teardown_ns, agg.queries) / 1e3, "us"},
      {"exec.rows_scanned_per_result",
       Ratio(count(agg.rows_scanned), count(agg.result_rows)), "ratio"},
      {"exec.rows_joined", Mean(count(agg.rows_joined), agg.queries),
       "1/query"},
      {"exec.page_touches", Mean(count(agg.page_touches), agg.queries),
       "1/query"},
      {"exec.row_mode_hash_join_frac",
       Ratio(count(modes.row_mode_hash_joins), count(modes.hash_joins)),
       "ratio"},
      {"exec.expr_fallback_frac",
       Ratio(expr_fallback, expr_compiled + expr_fallback), "ratio"},
      {"exec.parallel_cpu_efficiency",
       Ratio(agg.worker_cpu_ms, agg.parallel_capacity_ms), "ratio"},
      {"exec.parallel_critical_cpu_ms", Mean(agg.critical_cpu_ms, agg.queries),
       "ms"},
      {"thread_pool.steal_ratio",
       Ratio(delta(before.tasks_stolen, after.tasks_stolen),
             delta(before.tasks_submitted, after.tasks_submitted)),
       "ratio"},
      {"storage.spill_bytes", count(agg.spill_bytes), "B"},
      {"trace.exec_mode_mismatches", count(modes.mismatches), "count"},
      {"trace.unattributed_us", Mean(agg.root_self_ns, agg.queries) / 1e3,
       "us"},
      {"trace.latency_p50_ms", traced_p50, "ms"},
      {"trace.untraced_latency_p50_ms", untraced_p50_ms, "ms"},
      {"trace.overhead_ratio", Ratio(traced_p50, untraced_p50_ms), "ratio"},
  };
}

}  // namespace

// ---------------------------------------------------------------------------

ExecModeCheck CheckExecModes(Database* db, Session* session,
                             const std::vector<Statement>& sample) {
  struct Modes {
    std::vector<bool> engine, unarmed, armed;
  };
  std::vector<Modes> seen;
  ExecModeCheck check;
  int armed_votes = 0;
  int unarmed_votes = 0;
  bool rule = false;
  for (const Statement& st : sample) {
    QueryOptions options = st.options;
    options.use_plan_cache = false;  // Leaves the cache as the window finds it.
    const QueryOptions eff = EffectiveOptions(db, options);
    rule = SpillArmedByRule(eff);
    qopt::Result<qopt::QueryResult> explained =
        session->Query("EXPLAIN " + st.sql, options);
    qopt::Result<qopt::exec::PhysPtr> plan = db->PlanQuery(st.sql, eff);
    if (!explained.ok() || !plan.ok()) {
      ++check.mismatches;
      continue;
    }
    Modes m{ExplainedHashJoinModes(explained->rows),
            HashJoinModes(*plan, eff, false), HashJoinModes(*plan, eff, true)};
    for (const bool vectorized : m.engine) {
      ++check.hash_joins;
      if (!vectorized) ++check.row_mode_hash_joins;
    }
    if (m.armed != m.unarmed) {
      if (m.engine == m.armed) ++armed_votes;
      if (m.engine == m.unarmed) ++unarmed_votes;
    }
    seen.push_back(std::move(m));
  }
  check.spill_armed = armed_votes > 0 && unarmed_votes == 0   ? true
                      : unarmed_votes > 0 && armed_votes == 0 ? false
                                                              : rule;
  for (const Modes& m : seen) {
    if (m.engine != (check.spill_armed ? m.armed : m.unarmed)) {
      ++check.mismatches;
    }
  }
  return check;
}

void CheckAgainstOracle(Session* session, const Statement& st,
                        Outcome* outcome, const ResultTamper& tamper) {
  qopt::Result<qopt::QueryResult> got = session->Query(st.sql, st.options);
  QueryOptions naive = st.options;
  naive.naive_execution = true;
  qopt::Result<qopt::QueryResult> want = session->Query(st.sql, naive);
  if (!got.ok() || !want.ok()) {
    std::fprintf(stderr, "perfbench: oracle check failed to run: %s\n",
                 (got.ok() ? want.status() : got.status()).ToString().c_str());
    outcome->AddCheck(false);
    return;
  }
  if (tamper) tamper(&got->rows);
  const bool match = SameRows(got->rows, want->rows);
  if (!match) {
    std::fprintf(stderr, "perfbench: result differs from the oracle: %s\n",
                 st.sql.c_str());
  }
  outcome->AddCheck(match);
}

std::vector<Statement> StreamPrefix(const Workload& w, size_t limit) {
  std::function<Statement()> next = w.reads(0, /*stream=*/0);
  std::vector<Statement> out;
  out.reserve(limit);
  for (size_t i = 0; i < limit; ++i) out.push_back(next());
  return out;
}

std::vector<Statement> SampleDistinct(const std::vector<Statement>& statements,
                                      size_t n, uint64_t seed) {
  std::vector<size_t> distinct;
  std::set<std::string> seen;
  for (size_t i = 0; i < statements.size(); ++i) {
    if (seen.insert(statements[i].sql).second) distinct.push_back(i);
  }
  std::mt19937_64 rng(MixSeed(seed ^ 0x0AC1E));
  for (size_t i = 0; i < distinct.size() && i < n; ++i) {
    std::swap(distinct[i], distinct[i + rng() % (distinct.size() - i)]);
  }
  if (distinct.size() > n) distinct.resize(n);
  std::sort(distinct.begin(), distinct.end());
  std::vector<Statement> out;
  for (size_t i : distinct) out.push_back(statements[i]);
  return out;
}

int Run(const RunConfig& config) {
  std::optional<Workload> made = MakeWorkload(config.workload, config.seed);
  if (!made) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 config.workload.c_str());
    return 2;
  }
  const Workload& w = *made;

  // Set-up of the measured database. The untraced run times more set-ups
  // after the measurement (setup_s is the median), so that their memory
  // does not count in the measured run's peak RSS.
  std::vector<double> setup_s;
  std::unique_ptr<Database> db;
  const auto timed_setup = [&]() {
    db.reset();
    const Clock::time_point t0 = Clock::now();
    Status s = SetUp(w, config.spill_dir, &db);
    if (!s.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   s.ToString().c_str());
      return false;
    }
    setup_s.push_back(SecondsSince(t0));
    return true;
  };
  if (!timed_setup()) return 1;
  Session writer_session = db->OpenSession();
  const WriteFn untraced_write = [&](uint64_t i, bool analyze) {
    std::vector<std::pair<Clock::time_point, bool>> done;
    bool ok = writer_session.Execute(w.write_sql(i)).ok();
    done.emplace_back(Clock::now(), ok);
    if (analyze) {
      ok = writer_session.Analyze(w.writer.table).ok();
      done.emplace_back(Clock::now(), ok);
    }
    return done;
  };
  std::vector<Session> sessions;
  for (int s = 0; s < w.reader_sessions; ++s) {
    sessions.push_back(db->OpenSession());
  }
  const ReadFn untraced_read = [&](int s, const Statement& st) {
    return sessions[static_cast<size_t>(s)].Query(st.sql, st.options).ok();
  };

  // The statements' options carry the workload's execution mode and dop.
  const QueryOptions first_options = StreamPrefix(w, 1)[0].options;

  Outcome outcome;
  // Read right after the window, so the oracle's naive plans are not
  // counted. It includes the write probe's rows (see below).
  double peak_rss_mb = 0;
  std::vector<MetricOut> metrics;
  JsonObject env;
  std::unique_ptr<qopt::ThreadPool> pool;
  std::vector<std::unique_ptr<TracedClient>> clients;
  LayerAgg agg;
  Window win;

  if (!config.trace) {
    // A workload without a writer times a small write instead: session 0
    // sends 20-row INSERTs into audit_log, which no reader touches, between
    // its reads. Each one drains the other sessions' reads, as any write
    // does. Timed among the reads, the probes see the same host speed as
    // the reads; their rows stay resident and count in peak_rss_mb.
    Session prober = db->OpenSession();
    const ProbeFn probe = [&](uint64_t i) {
      return prober.Execute(w.write_sql(i)).ok();
    };
    win = RunWindow(w, config.seconds, config.spill_dir, untraced_read,
                    untraced_write,
                    w.writer.rate_hz > 0 ? nullptr : probe);
    peak_rss_mb = PeakRssMb();
  } else {
    // Optimizer cost of a fixed statement sequence, compiled afresh.
    const std::vector<Statement> head = StreamPrefix(w, 32);
    double chosen_cost = 0;
    for (const Statement& st : head) {
      QueryOptions options = st.options;
      options.use_plan_cache = false;
      qopt::opt::OptimizeInfo info;
      if (db->PlanQuery(st.sql, options, &info).ok()) {
        chosen_cost += info.chosen_cost;
      }
    }
    // The engine's own mode decision for the same statements.
    const ExecModeCheck modes =
        CheckExecModes(db.get(), &sessions[0], head);
    if (modes.mismatches > 0) {
      std::fprintf(stderr,
                   "perfbench: the traced path would run the hash joins of "
                   "%llu of %zu statements in another mode than EXPLAIN "
                   "shows; its exec timings do not follow Session::Query\n",
                   static_cast<unsigned long long>(modes.mismatches),
                   head.size());
    }
    // Untraced, then traced, over the same database: the overhead is the
    // traced latency against the untraced one.
    Window plain = RunWindow(w, config.seconds / 3, config.spill_dir,
                             untraced_read, untraced_write);
    outcome.AddOps(plain.reads + plain.writes,
                   plain.read_failed + plain.write_failed);

    pool = std::make_unique<qopt::ThreadPool>(0);
    const bool parallel =
        first_options.execution_mode == qopt::exec::ExecMode::kParallel;
    pool->EnsureThreads(parallel && first_options.dop > 1
                            ? first_options.dop - 1
                            : 0);
    for (int s = 0; s <= w.reader_sessions; ++s) {
      clients.push_back(std::make_unique<TracedClient>(
          db.get(), pool.get(), modes.spill_armed,
          static_cast<uint64_t>(s) << 40));
    }
    std::vector<LayerAgg> aggs(clients.size());
    const TraceCounters before = ReadCounters(db.get(), pool.get());
    const ReadFn traced_read = [&](int s, const Statement& st) {
      return clients[static_cast<size_t>(s)]
          ->Query(st, &aggs[static_cast<size_t>(s)])
          .ok();
    };
    const size_t writer_index = clients.size() - 1;
    const WriteFn traced_write = [&](uint64_t i, bool analyze) {
      LayerAgg& a = aggs[writer_index];
      const uint64_t failed0 = a.write_failed;
      clients[writer_index]->Write(w.write_sql(i),
                                   analyze ? w.writer.table : "", &a);
      return std::vector<std::pair<Clock::time_point, bool>>{
          {Clock::now(), a.write_failed == failed0}};
    };
    win = RunWindow(w, config.seconds * 2 / 3, config.spill_dir, traced_read,
                    traced_write);
    const TraceCounters after = ReadCounters(db.get(), pool.get());
    for (const LayerAgg& a : aggs) agg.Merge(a);

    // The traced path must return what Session::Query returns.
    LayerAgg scratch;
    for (const Statement& raw :
         SampleDistinct(StreamPrefix(w, std::min<size_t>(
                                            4096, win.session0_reads + 1)),
                        static_cast<size_t>(w.oracle_sample), config.seed)) {
      const Statement st = WithSpillDir(raw, config.spill_dir);
      qopt::Result<std::vector<Row>> traced = clients[0]->Query(st, &scratch);
      qopt::Result<qopt::QueryResult> plain_result =
          sessions[0].Query(st.sql, st.options);
      const bool match = traced.ok() && plain_result.ok() &&
                         SameRows(*traced, plain_result->rows);
      if (!match) {
        std::fprintf(stderr, "perfbench: traced result differs: %s\n",
                     st.sql.c_str());
      }
      outcome.AddCheck(match);
    }
    std::vector<const SpanRecorder*> recorders;
    for (const auto& c : clients) recorders.push_back(&c->recorder());
    WriteTrace(config.trace_out, recorders);
    metrics = LayerMetrics(agg, before, after, modes, win.elapsed_s,
                           chosen_cost, Percentile(plain.read_ms, 50));
    env.Num("traced_reads", static_cast<double>(agg.queries));
    env.Num("traced_snapshot_changes",
            static_cast<double>(agg.snapshot_changes));
    env.Num("explained_hash_joins", static_cast<double>(modes.hash_joins));
    env.Raw("traced_spill_armed", modes.spill_armed ? "true" : "false");
  }
  outcome.AddOps(win.reads + win.writes, win.read_failed + win.write_failed);

  // The oracle: a seeded sample of the statements the window sent.
  const std::vector<Statement> prefix =
      StreamPrefix(w, std::min<size_t>(4096, win.session0_reads + 1));
  const std::vector<Statement> sample = SampleDistinct(
      prefix, static_cast<size_t>(w.oracle_sample), config.seed);
  const uint64_t checks_before = outcome.attempted;
  for (const Statement& st : sample) {
    CheckAgainstOracle(&sessions[0], WithSpillDir(st, config.spill_dir),
                       &outcome);
  }
  const uint64_t oracle_checked = outcome.attempted - checks_before;

  const size_t shapes = CountShapes(db.get(), StreamPrefix(w, 2000));
  if (!config.trace) {
    sessions.clear();
    for (int r = 1; r < kSetupRepeats; ++r) {
      if (!timed_setup()) return 1;
    }
    metrics = {
        {"throughput_qps",
         Ratio(static_cast<double>(win.reads - win.read_failed),
               win.elapsed_s),
         "1/s"},
        {"latency_p50_ms", Percentile(win.read_ms, 50), "ms"},
        {"latency_p99_ms", Percentile(win.read_ms, 99), "ms"},
        {"ok_frac", outcome.ok_frac(), "ratio"},
        {"write_latency_p50_ms", Percentile(win.write_ms, 50), "ms"},
        {"setup_s", Percentile(setup_s, 50), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  }

  env.Str("workload", w.name);
  env.Num("seed", static_cast<double>(config.seed));
  env.Num("seconds", config.seconds);
  env.Num("trace", config.trace ? 1 : 0);
  env.Num("hardware_threads", std::thread::hardware_concurrency());
  env.Str("build_type", PERFBENCH_BUILD_TYPE);
  env.Str("git_sha", config.git_sha);
  env.Num("reader_sessions", w.reader_sessions);
  const bool parallel =
      first_options.execution_mode == qopt::exec::ExecMode::kParallel;
  env.Str("execution_mode", parallel ? "parallel" : "batch");
  env.Num("dop", parallel ? static_cast<double>(first_options.dop) : 1);
  JsonObject tables;
  for (const TableSize& t : w.tables) {
    tables.Num(t.table, static_cast<double>(t.rows));
  }
  env.Raw("table_rows", tables.str());
  JsonObject writer;
  writer.Num("rate_hz", w.writer.rate_hz);
  writer.Num("rows_per_write", w.writer.rows_per_write);
  writer.Num("analyze_every", w.writer.analyze_every);
  writer.Str("table", w.writer.table);
  writer.Num("max_lag_ms", win.writer_max_lag_ms);
  env.Raw("writer", writer.str());
  env.Num("plan_cache_shapes_in_2000", static_cast<double>(shapes));
  env.Num("plan_cache_capacity", 256);
  env.Num("reads", static_cast<double>(win.reads));
  JsonObject quartiles;
  for (double p : {25.0, 50.0, 75.0, 90.0}) {
    quartiles.Num("p" + std::to_string(static_cast<int>(p)),
                  Percentile(win.write_ms, p));
  }
  env.Raw("write_latency_ms", quartiles.str());
  env.Num("writes", static_cast<double>(win.writes));
  env.Num("window_s", win.elapsed_s);
  env.Num("failed_frac", 1.0 - outcome.ok_frac());
  env.Num("oracle_checked", static_cast<double>(oracle_checked));
  JsonObject setups;
  for (size_t i = 0; i < setup_s.size(); ++i) {
    setups.Num(std::to_string(i), setup_s[i]);
  }
  env.Raw("setup_runs_s", setups.str());
  std::printf("%s\n", ("{\"perfbench\": " + env.str() + "}").c_str());

  JsonObject result;
  result.Raw("correct", outcome.correct ? "true" : "false");
  result.Num("attempted", static_cast<double>(outcome.attempted));
  result.Num("failed", static_cast<double>(outcome.failed));
  result.Raw("metrics", MetricsJson(metrics));
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return outcome.correct ? 0 : 1;
}

}  // namespace perfbench
