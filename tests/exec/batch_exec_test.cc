// Tests for the vectorized execution path: RowBatch mechanics, the batch
// expression entry point's interpreter fallback vs the scalar evaluator,
// and batch-mode operator parity (identical rows AND identical ExecStats)
// against the row-mode Volcano executors on hand-built physical plans.
#include <gtest/gtest.h>

#include "exec/executors.h"
#include "exec/expr_compile.h"
#include "exec/expr_eval.h"
#include "tests/exec/exec_test_util.h"

namespace qopt::exec {
namespace {

// ---------------------------------------------------------------------------
// RowBatch mechanics.

TEST(RowBatchTest, AppendAndMaterialize) {
  RowBatch b;
  b.Reset(2, 4);
  EXPECT_EQ(b.num_cols(), 2u);
  EXPECT_EQ(b.num_rows(), 0u);
  EXPECT_FALSE(b.full());

  b.AppendRow({Value::Int(1), Value::String("a")});
  b.AppendRow({Value::Int(2), Value::String("b")});
  EXPECT_EQ(b.num_rows(), 2u);
  EXPECT_EQ(b.ActiveSize(), 2u);

  Row r;
  b.MaterializeActive(1, &r);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].AsInt(), 2);
  EXPECT_EQ(r[1].AsString(), "b");
}

TEST(RowBatchTest, FullAtCapacity) {
  RowBatch b;
  b.Reset(1, 2);
  b.AppendRow({Value::Int(1)});
  EXPECT_FALSE(b.full());
  b.AppendRow({Value::Int(2)});
  EXPECT_TRUE(b.full());
}

TEST(RowBatchTest, SelectionShrinksWithoutMovingData) {
  RowBatch b;
  b.Reset(1, 4);
  for (int i = 0; i < 4; ++i) b.AppendRow({Value::Int(i)});
  // Keep physical rows 1 and 3 only.
  *b.mutable_selection() = {1, 3};
  EXPECT_EQ(b.num_rows(), 4u);  // physical rows untouched
  EXPECT_EQ(b.ActiveSize(), 2u);
  EXPECT_EQ(b.At(0, b.ActiveIndex(0)).AsInt(), 1);
  EXPECT_EQ(b.At(0, b.ActiveIndex(1)).AsInt(), 3);
}

TEST(RowBatchTest, AdoptColumnWithIdentitySelection) {
  RowBatch b;
  b.Reset(2, 8);
  b.AdoptColumn(0, {Value::Int(7), Value::Int(8)});
  b.AdoptColumn(1, {Value::String("x"), Value::String("y")});
  b.SetIdentitySelection(2);
  EXPECT_EQ(b.num_rows(), 2u);
  EXPECT_EQ(b.ActiveSize(), 2u);
  Row r;
  b.MaterializeActive(0, &r);
  EXPECT_EQ(r[0].AsInt(), 7);
  EXPECT_EQ(r[1].AsString(), "x");
}

TEST(RowBatchTest, ResetReusesStorage) {
  RowBatch b;
  b.Reset(2, 4);
  b.AppendRow({Value::Int(1), Value::Int(2)});
  b.Reset(2, 4);
  EXPECT_EQ(b.num_rows(), 0u);
  EXPECT_EQ(b.ActiveSize(), 0u);
  b.Reset(3, 2);  // reshape
  EXPECT_EQ(b.num_cols(), 3u);
}

// ---------------------------------------------------------------------------
// expr::BatchExpr's interpreter fallback (compilation off) vs the scalar
// evaluator, row by row.

class BatchEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Columns: {0,0}=int a, {0,1}=int b (with NULLs), {0,2}=string s.
    colmap_ = {{{0, 0}, 0}, {{0, 1}, 1}, {{0, 2}, 2}};
    env_ = expr::MakeCompileEnv(
        colmap_, std::vector<plan::OutputCol>{{{0, 0}, TypeId::kInt64, "a"},
                                              {{0, 1}, TypeId::kInt64, "b"},
                                              {{0, 2}, TypeId::kString, "s"}});
    ctx_.compile_expressions = false;
    rows_ = {
        {Value::Int(1), Value::Int(10), Value::String("apple")},
        {Value::Int(2), Value::Null(), Value::String("banana")},
        {Value::Int(3), Value::Int(30), Value::Null()},
        {Value::Int(0), Value::Int(-5), Value::String("apricot")},
        {Value::Int(-7), Value::Int(0), Value::String("")},
    };
    batch_.Reset(3, rows_.size());
    for (const Row& r : rows_) batch_.AppendRow(r);
  }

  /// Binds `e` through the batch entry point with compilation off, so
  /// every call takes the per-row interpreter fallback.
  expr::BatchExpr Bind(const plan::BExpr& e, bool as_predicate) {
    expr::BatchExpr be;
    EXPECT_FALSE(be.Bind(&node_, expr::kSlotPredicate, e, env_, as_predicate,
                         &ctx_));
    return be;
  }

  // Asserts the fallback EvalColumn agrees with per-row EvalExpr on every
  // live row.
  void CheckAgainstScalar(const plan::BExpr& e) {
    expr::BatchExpr be = Bind(e, /*as_predicate=*/false);
    std::vector<Value> got;
    be.EvalColumn(batch_, &got);
    ASSERT_EQ(got.size(), batch_.ActiveSize()) << e->ToString();
    for (size_t k = 0; k < batch_.ActiveSize(); ++k) {
      EvalContext sctx{&colmap_, &rows_[batch_.ActiveIndex(k)], nullptr};
      Value want = EvalExpr(*e, sctx);
      EXPECT_EQ(got[k].Compare(want), 0)
          << e->ToString() << " row " << k << ": got " << got[k].ToString()
          << ", want " << want.ToString();
    }
  }

  static plan::BExpr A() {
    return plan::MakeColumn({0, 0}, TypeId::kInt64, "a");
  }
  static plan::BExpr B() {
    return plan::MakeColumn({0, 1}, TypeId::kInt64, "b");
  }
  static plan::BExpr S() {
    return plan::MakeColumn({0, 2}, TypeId::kString, "s");
  }
  static plan::BExpr L(int64_t v) { return plan::MakeLiteral(Value::Int(v)); }
  static plan::BExpr Bin(ast::BinaryOp op, plan::BExpr l, plan::BExpr r) {
    return plan::MakeBinary(op, std::move(l), std::move(r));
  }

  ColMap colmap_;
  expr::CompileEnv env_;
  ExecContext ctx_;
  PhysicalPlan node_;
  std::vector<Row> rows_;
  RowBatch batch_;
};

TEST_F(BatchEvalTest, ArithmeticAndComparisons) {
  using ast::BinaryOp;
  CheckAgainstScalar(Bin(BinaryOp::kAdd, A(), B()));
  CheckAgainstScalar(Bin(BinaryOp::kSub, B(), L(3)));
  CheckAgainstScalar(Bin(BinaryOp::kMul, A(), A()));
  CheckAgainstScalar(Bin(BinaryOp::kDiv, B(), A()));  // div by 0 -> NULL
  CheckAgainstScalar(Bin(BinaryOp::kLt, A(), B()));
  CheckAgainstScalar(Bin(BinaryOp::kGe, B(), L(0)));
  CheckAgainstScalar(Bin(BinaryOp::kEq, A(), L(2)));
  CheckAgainstScalar(Bin(BinaryOp::kNe, B(), L(10)));
}

TEST_F(BatchEvalTest, KleeneLogicWithNulls) {
  using ast::BinaryOp;
  plan::BExpr b_pos = Bin(BinaryOp::kGt, B(), L(0));   // NULL on row 1
  plan::BExpr a_pos = Bin(BinaryOp::kGt, A(), L(0));
  CheckAgainstScalar(Bin(BinaryOp::kAnd, b_pos, a_pos));
  CheckAgainstScalar(Bin(BinaryOp::kOr, b_pos, a_pos));
  CheckAgainstScalar(plan::MakeNot(b_pos));
  CheckAgainstScalar(plan::MakeIsNull(B(), false));
  CheckAgainstScalar(plan::MakeIsNull(B(), true));  // IS NOT NULL
  // NULL AND FALSE = FALSE; NULL OR TRUE = TRUE.
  plan::BExpr null_cmp = Bin(BinaryOp::kGt, B(), L(1000));  // F or NULL
  CheckAgainstScalar(
      Bin(BinaryOp::kAnd, null_cmp, Bin(BinaryOp::kLt, A(), L(0))));
  CheckAgainstScalar(
      Bin(BinaryOp::kOr, null_cmp, Bin(BinaryOp::kGt, A(), L(-100))));
}

TEST_F(BatchEvalTest, InListWithNullsAndNegation) {
  auto in_list = [&](bool negated, bool with_null_item) {
    auto e = std::make_shared<plan::BoundExpr>();
    e->kind = plan::BoundKind::kInList;
    e->type = TypeId::kBool;
    e->negated = negated;
    e->children = {B(), L(10), L(30)};
    if (with_null_item) e->children.push_back(plan::MakeLiteral(Value::Null()));
    return plan::BExpr(e);
  };
  CheckAgainstScalar(in_list(false, false));
  CheckAgainstScalar(in_list(true, false));
  CheckAgainstScalar(in_list(false, true));
  CheckAgainstScalar(in_list(true, true));
}

TEST_F(BatchEvalTest, Like) {
  auto like = [&](const std::string& pattern) {
    auto e = std::make_shared<plan::BoundExpr>();
    e->kind = plan::BoundKind::kLike;
    e->type = TypeId::kBool;
    e->children = {S(), plan::MakeLiteral(Value::String(pattern))};
    return plan::BExpr(e);
  };
  CheckAgainstScalar(like("ap%"));
  CheckAgainstScalar(like("%an%"));
  CheckAgainstScalar(like("_pple"));
  CheckAgainstScalar(like(""));
}

TEST_F(BatchEvalTest, CaseExpression) {
  using ast::BinaryOp;
  // CASE WHEN b > 10 THEN a WHEN b IS NULL THEN -1 ELSE a * 10 END
  auto e = std::make_shared<plan::BoundExpr>();
  e->kind = plan::BoundKind::kCase;
  e->type = TypeId::kInt64;
  e->children = {Bin(BinaryOp::kGt, B(), L(10)), A(),
                 plan::MakeIsNull(B(), false), L(-1),
                 Bin(BinaryOp::kMul, A(), L(10))};
  CheckAgainstScalar(plan::BExpr(e));

  // Same without ELSE: falls through to NULL.
  auto no_else = std::make_shared<plan::BoundExpr>();
  no_else->kind = plan::BoundKind::kCase;
  no_else->type = TypeId::kInt64;
  no_else->children = {Bin(BinaryOp::kGt, B(), L(10)), A()};
  CheckAgainstScalar(plan::BExpr(no_else));
}

TEST_F(BatchEvalTest, RespectsSelectionVector) {
  // Deactivate rows 1 and 2 (the NULL-bearing ones); the batch evaluator
  // must only produce values for live rows, in selection order.
  *batch_.mutable_selection() = {0, 3, 4};
  CheckAgainstScalar(Bin(ast::BinaryOp::kAdd, A(), B()));
  CheckAgainstScalar(Bin(ast::BinaryOp::kGt, A(), L(0)));
}

TEST_F(BatchEvalTest, PredicateBatchCompactsSelection) {
  // a > 0: keeps rows 0,1,2 (a = 1,2,3), rejects 3 (0) and 4 (-7).
  Bind(Bin(ast::BinaryOp::kGt, A(), L(0)), true).Filter(&batch_);
  ASSERT_EQ(batch_.ActiveSize(), 3u);
  EXPECT_EQ(batch_.ActiveIndex(0), 0u);
  EXPECT_EQ(batch_.ActiveIndex(1), 1u);
  EXPECT_EQ(batch_.ActiveIndex(2), 2u);
  // Refine further: b IS NOT NULL drops row 1. NULL predicate keeps all.
  Bind(plan::MakeIsNull(B(), true), true).Filter(&batch_);
  ASSERT_EQ(batch_.ActiveSize(), 2u);
  EXPECT_EQ(batch_.ActiveIndex(1), 2u);
  Bind(nullptr, true).Filter(&batch_);
  EXPECT_EQ(batch_.ActiveSize(), 2u);
}

TEST_F(BatchEvalTest, CorrelatedColumnReadsParams) {
  // {1,0} is not in the batch's column map: the fallback resolves it from
  // the context's correlated parameters, exactly as EvalExpr does.
  plan::BExpr outer = plan::MakeColumn({1, 0}, TypeId::kInt64, "o");
  ctx_.params[{1, 0}] = Value::Int(2);
  plan::BExpr pred = Bin(ast::BinaryOp::kGe, A(), outer);
  expr::BatchExpr be = Bind(pred, true);
  EXPECT_EQ(be.referenced_cols(), std::vector<int>{0});
  be.Filter(&batch_);
  ASSERT_EQ(batch_.ActiveSize(), 2u);  // a = 2, 3
  EXPECT_EQ(batch_.ActiveIndex(0), 1u);
  EXPECT_EQ(batch_.ActiveIndex(1), 2u);
}

// ---------------------------------------------------------------------------
// Operator parity: batch mode vs row mode on hand-built plans. Rows AND
// every ExecStats counter must match exactly.

class BatchOperatorTest : public ExecTestBase {
 protected:
  struct ModeResult {
    std::vector<Row> rows;
    ExecStats stats;
  };

  ModeResult RunMode(const PhysPtr& plan, ExecMode mode,
                     size_t batch_capacity = kDefaultBatchCapacity) {
    ExecContext ctx;
    ctx.storage = storage_.get();
    ctx.catalog = &catalog_;
    ctx.mode = mode;
    ctx.batch_capacity = batch_capacity;
    ModeResult r;
    r.rows = ExecuteAll(plan, &ctx).value();
    r.stats = ctx.stats;
    return r;
  }

  void ExpectParity(const PhysPtr& plan, size_t batch_capacity =
                                             kDefaultBatchCapacity) {
    ModeResult row = RunMode(plan, ExecMode::kRow);
    ModeResult batch = RunMode(plan, ExecMode::kBatch, batch_capacity);
    ExpectSameRows(batch.rows, row.rows);
    EXPECT_EQ(batch.stats.rows_scanned, row.stats.rows_scanned);
    EXPECT_EQ(batch.stats.rows_joined, row.stats.rows_joined);
    EXPECT_EQ(batch.stats.index_lookups, row.stats.index_lookups);
    EXPECT_EQ(batch.stats.subquery_executions, row.stats.subquery_executions);
    EXPECT_EQ(batch.stats.page_touches, row.stats.page_touches);
    EXPECT_DOUBLE_EQ(batch.stats.modeled_pages_read,
                     row.stats.modeled_pages_read);
  }
};

TEST_F(BatchOperatorTest, TableScanParity) { ExpectParity(EmpScan()); }

TEST_F(BatchOperatorTest, ScanWithInlinePredicateParity) {
  ExpectParity(EmpScan(Eq(Col(0, 1), Lit(10))));
}

TEST_F(BatchOperatorTest, FilterNodeParity) {
  // Predicate with NULLs in the column: dept IS NULL rejected by >.
  ExpectParity(MakeFilterExec(
      EmpScan(),
      plan::MakeBinary(ast::BinaryOp::kGt, Col(0, 1), Lit(5))));
}

TEST_F(BatchOperatorTest, ProjectParity) {
  std::vector<plan::BExpr> exprs = {
      Col(0, 0),
      plan::MakeBinary(ast::BinaryOp::kMul, Col(0, 2), Lit(2))};
  std::vector<plan::OutputCol> cols = {
      {{0, 0}, TypeId::kInt64, "emp.id"}, {{9, 0}, TypeId::kInt64, "sal2"}};
  ExpectParity(MakeProjectExec(EmpScan(), std::move(exprs), std::move(cols)));
}

TEST_F(BatchOperatorTest, HashJoinParityAllTypes) {
  for (plan::JoinType jt :
       {plan::JoinType::kInner, plan::JoinType::kLeftOuter,
        plan::JoinType::kSemi, plan::JoinType::kAnti}) {
    SCOPED_TRACE(plan::JoinTypeName(jt));
    ExpectParity(
        MakeHashJoin(jt, EmpScan(), DeptScan(), {0, 1}, {1, 0}, nullptr));
  }
}

TEST_F(BatchOperatorTest, HashJoinWithResidualParity) {
  // Residual touches both sides: emp.sal > dept.id * 10 is only satisfied
  // by some matching pairs.
  plan::BExpr residual = plan::MakeBinary(
      ast::BinaryOp::kGt, Col(0, 2),
      plan::MakeBinary(ast::BinaryOp::kMul, Col(1, 0), Lit(10)));
  ExpectParity(MakeHashJoin(plan::JoinType::kInner, EmpScan(), DeptScan(),
                            {0, 1}, {1, 0}, residual));
}

TEST_F(BatchOperatorTest, PipelineParity) {
  // scan -> filter -> join -> project, the bread-and-butter batch pipeline.
  PhysPtr join =
      MakeHashJoin(plan::JoinType::kInner,
                   EmpScan(plan::MakeBinary(ast::BinaryOp::kGt, Col(0, 2),
                                            Lit(100))),
                   DeptScan(), {0, 1}, {1, 0}, nullptr);
  std::vector<plan::BExpr> exprs = {Col(0, 0), Col(1, 1, TypeId::kString)};
  std::vector<plan::OutputCol> cols = {
      {{0, 0}, TypeId::kInt64, "emp.id"},
      {{1, 1}, TypeId::kString, "dept.name"}};
  ExpectParity(MakeProjectExec(std::move(join), std::move(exprs),
                               std::move(cols)));
}

TEST_F(BatchOperatorTest, TinyBatchCapacityParity) {
  // Capacity smaller than the table forces multiple refills and exercises
  // batch-boundary logic everywhere.
  PhysPtr join = MakeHashJoin(plan::JoinType::kLeftOuter, EmpScan(),
                              DeptScan(), {0, 1}, {1, 0}, nullptr);
  ExpectParity(join, /*batch_capacity=*/2);
  ExpectParity(join, /*batch_capacity=*/1);
}

TEST_F(BatchOperatorTest, LimitFallsBackToRowMode) {
  // Limit must see row-at-a-time children: stopping after k rows must not
  // scan (or touch pages for) rows a batch would have read ahead.
  PhysPtr plan = MakeLimitExec(EmpScan(), 2);
  ModeResult row = RunMode(plan, ExecMode::kRow);
  ModeResult batch = RunMode(plan, ExecMode::kBatch);
  ASSERT_EQ(row.rows.size(), 2u);
  ASSERT_EQ(batch.rows.size(), 2u);
  EXPECT_EQ(batch.stats.rows_scanned, row.stats.rows_scanned);
  EXPECT_EQ(batch.stats.page_touches, row.stats.page_touches);
  // The fallback also means early termination works: only 2 rows scanned.
  EXPECT_EQ(batch.stats.rows_scanned, 2u);
}

TEST_F(BatchOperatorTest, LimitOverHashJoinDoesNotReadAhead) {
  // The hash join under a Limit runs in its row context: it drains the
  // build side (3 dept rows) and then pulls probe rows one at a time, so
  // stopping after the first joined row has scanned exactly one emp row.
  PhysPtr plan = MakeLimitExec(MakeHashJoin(plan::JoinType::kInner, EmpScan(),
                                            DeptScan(), {0, 1}, {1, 0},
                                            nullptr),
                               1);
  ModeResult row = RunMode(plan, ExecMode::kRow);
  ModeResult batch = RunMode(plan, ExecMode::kBatch);
  ASSERT_EQ(row.rows.size(), 1u);
  ASSERT_EQ(batch.rows.size(), 1u);
  EXPECT_EQ(batch.stats.rows_scanned, row.stats.rows_scanned);
  EXPECT_EQ(batch.stats.page_touches, row.stats.page_touches);
  // No more than the former row-at-a-time hash join read here.
  EXPECT_LE(row.stats.rows_scanned, 4u);
  EXPECT_LE(row.stats.page_touches, 4u);
}

TEST_F(BatchOperatorTest, RowOperatorAboveBatchChildren) {
  // Sort has no batch implementation: it consumes its vectorized child
  // through the batch-to-row adapter, and ExecuteAll drains the row root
  // through the row-to-batch adapter.
  PhysPtr sort = MakeSortExec(EmpScan(), {{{0, 2}, /*ascending=*/false}});
  ModeResult batch = RunMode(sort, ExecMode::kBatch);
  ASSERT_EQ(batch.rows.size(), 5u);
  EXPECT_EQ(batch.rows[0][2].AsInt(), 500);  // order preserved through adapters
  EXPECT_EQ(batch.rows[4][2].AsInt(), 100);
  ExpectParity(sort);
}

TEST_F(BatchOperatorTest, AggregateAboveBatchChildren) {
  // SELECT dept, SUM(sal) FROM emp GROUP BY dept over a vectorized scan.
  std::vector<plan::AggItem> aggs;
  plan::AggItem sum;
  sum.func = ast::AggFunc::kSum;
  sum.arg = Col(0, 2);
  sum.output = {9, 0};
  aggs.push_back(sum);
  std::vector<plan::OutputCol> cols = {
      {{0, 1}, TypeId::kInt64, "emp.dept"},
      {{9, 0}, TypeId::kInt64, "sum_sal"}};
  PhysPtr agg = MakeHashAggregate(EmpScan(), {{0, 1}}, std::move(aggs),
                                  std::move(cols));
  ExpectParity(agg);
}

TEST_F(BatchOperatorTest, DefaultNextBatchAdapterOnRowExecutor) {
  // Build in row mode, then drive the root through NextBatch: the default
  // adapter must loop Next() and fill a batch.
  PhysPtr plan = EmpScan();
  ExecContext ctx;
  ctx.storage = storage_.get();
  ctx.catalog = &catalog_;
  ctx.mode = ExecMode::kRow;
  ctx.batch_capacity = 3;
  std::unique_ptr<Executor> exec = BuildExecutor(plan, &ctx);
  exec->Init();
  RowBatch b;
  ASSERT_TRUE(exec->NextBatch(&b));
  EXPECT_EQ(b.num_rows(), 3u);  // capped at ctx.batch_capacity
  ASSERT_TRUE(exec->NextBatch(&b));
  EXPECT_EQ(b.num_rows(), 2u);  // remainder
  EXPECT_FALSE(exec->NextBatch(&b));
}

TEST_F(BatchOperatorTest, BatchModeNodesMarksOnlySupportedOperators) {
  // limit(sort(filter(scan))): scan and filter vectorize in isolation, but
  // under a Limit everything must stay row-mode.
  PhysPtr filter = MakeFilterExec(
      EmpScan(), plan::MakeBinary(ast::BinaryOp::kGt, Col(0, 2), Lit(0)));
  const PhysicalPlan* filter_ptr = filter.get();
  const PhysicalPlan* scan_ptr = filter->children[0].get();
  {
    std::unordered_set<const PhysicalPlan*> nodes = BatchModeNodes(filter);
    EXPECT_TRUE(nodes.count(filter_ptr));
    EXPECT_TRUE(nodes.count(scan_ptr));
  }
  PhysPtr limited = MakeLimitExec(MakeSortExec(std::move(filter), {}), 1);
  {
    std::unordered_set<const PhysicalPlan*> nodes = BatchModeNodes(limited);
    EXPECT_TRUE(nodes.empty());
  }
}

}  // namespace
}  // namespace qopt::exec
