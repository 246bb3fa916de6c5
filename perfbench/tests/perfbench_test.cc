// Tests of the benchmark's own logic: seeded statement streams, the
// percentile and self-time arithmetic, and the result checks.
#include <gtest/gtest.h>

#include "core.h"
#include "engine/session.h"
#include "runner.h"
#include "workload/query_gen.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<std::string> Sql(const Workload& w, int session, int stream,
                             size_t n) {
  std::function<Statement()> next = w.reads(session, stream);
  std::vector<std::string> out;
  for (size_t i = 0; i < n; ++i) out.push_back(next().sql);
  return out;
}

TEST(WorkloadTest, SameSeedGivesSameSqlSequence) {
  for (const std::string& name : WorkloadNames()) {
    std::optional<Workload> a = MakeWorkload(name, 7);
    std::optional<Workload> b = MakeWorkload(name, 7);
    std::optional<Workload> c = MakeWorkload(name, 8);
    ASSERT_TRUE(a && b && c) << name;
    for (int s = 0; s < a->reader_sessions; ++s) {
      EXPECT_EQ(Sql(*a, s, 0, 300), Sql(*b, s, 0, 300)) << name;
      EXPECT_NE(Sql(*a, s, 0, 300), Sql(*c, s, 0, 300)) << name;
      // Warm-up uses a different stream of the same mix.
      EXPECT_NE(Sql(*a, s, 0, 300), Sql(*a, s, 1, 300)) << name;
    }
    for (uint64_t i = 0; i < 5; ++i) {
      EXPECT_EQ(a->write_sql(i), b->write_sql(i)) << name;
    }
  }
  EXPECT_FALSE(MakeWorkload("no_such_workload", 1).has_value());
}

TEST(WorkloadTest, SessionsSendDifferentStreams) {
  std::optional<Workload> w = MakeWorkload("point_lookup", 3);
  ASSERT_TRUE(w);
  EXPECT_NE(Sql(*w, 0, 0, 100), Sql(*w, 1, 0, 100));
}

TEST(WorkloadTest, AdhocJoinAlternatesEnumerators) {
  std::optional<Workload> w = MakeWorkload("adhoc_join", 3);
  ASSERT_TRUE(w);
  std::function<Statement()> next = w->reads(0, 0);
  EXPECT_EQ(next().options.optimizer.enumerator,
            qopt::opt::EnumeratorKind::kSelinger);
  EXPECT_EQ(next().options.optimizer.enumerator,
            qopt::opt::EnumeratorKind::kCascades);
}

TEST(PercentileTest, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 99), 99);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Percentile(v, 0), 1);
  EXPECT_EQ(Percentile({7}, 99), 7);
  EXPECT_EQ(Percentile({}, 50), 0);
  // 1000 samples: p99 is the 990th smallest, leaving 10 above it.
  std::vector<double> k;
  for (int i = 1; i <= 1000; ++i) k.push_back(i);
  EXPECT_EQ(Percentile(k, 99), 990);
  EXPECT_EQ(Percentile({1, 2, 3, 4}, 50), 2);
}

Span S(Layer layer, int parent, int64_t start, int64_t end) {
  return Span{layer, parent, 42, start, end};
}

TEST(SelfTimeTest, ChildrenAreSubtractedOnceAndClipped) {
  std::vector<Span> spans = {
      S(Layer::kQuery, -1, 0, 100),
      S(Layer::kParse, 0, 10, 30),
      S(Layer::kPlanQuery, 0, 25, 50),  // overlaps parse by 5
      S(Layer::kBind, 2, 30, 40),
      S(Layer::kDrain, 0, 90, 120),  // runs past the root: clipped to 10
  };
  std::vector<int64_t> self = SelfTimes(spans);
  ASSERT_EQ(self.size(), 5u);
  EXPECT_EQ(self[0], 100 - (40 + 10));  // union [10,50) and [90,100)
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 25 - 10);
  EXPECT_EQ(self[3], 10);
  EXPECT_EQ(self[4], 30);
}

TEST(SelfTimeTest, BreakDownOfACacheHit) {
  std::vector<Span> spans = {
      S(Layer::kQuery, -1, 0, 1000),   S(Layer::kAdmit, 0, 0, 50),
      S(Layer::kSnapshot, 0, 50, 60),  S(Layer::kParse, 0, 60, 260),
      S(Layer::kFingerprint, 0, 260, 360),
      S(Layer::kPlanQuery, 0, 360, 760),  // repeats snapshot+parse+fp = 310
      S(Layer::kBuild, 0, 760, 800),   S(Layer::kDrain, 0, 800, 990),
  };
  QueryLayers q = BreakDown(spans);
  EXPECT_FALSE(q.compiled);
  EXPECT_EQ(q.path_ns, 1000);
  EXPECT_EQ(q.cache_path_ns, 400 - 310);
  EXPECT_EQ(q.parse_ns, 200);
  EXPECT_EQ(q.drain_ns, 190);
  EXPECT_EQ(q.root_self_ns, 10);
}

TEST(SelfTimeTest, BreakDownOfAMissLeavesTheRepeatedCompileOut) {
  std::vector<Span> spans = {
      S(Layer::kQuery, -1, 0, 10000),
      S(Layer::kSnapshot, 0, 0, 10),
      S(Layer::kParse, 0, 10, 110),
      S(Layer::kFingerprint, 0, 110, 160),
      S(Layer::kPlanQuery, 0, 160, 4160),  // includes a 3600 ns compile
      S(Layer::kRecompile, 0, 4160, 7760),
      S(Layer::kBind, 5, 4160, 4460),
      S(Layer::kRewrite, 5, 4460, 5460),
      S(Layer::kOptimize, 5, 5460, 7760),  // rewrite again + enumeration
      S(Layer::kBuild, 0, 7760, 7860),
      S(Layer::kDrain, 0, 7860, 10000),
  };
  QueryLayers q = BreakDown(spans);
  EXPECT_TRUE(q.compiled);
  EXPECT_EQ(q.path_ns, 10000 - 3600);
  EXPECT_EQ(q.bind_ns, 300);
  EXPECT_EQ(q.rewrite_ns, 1000);
  EXPECT_EQ(q.enumerate_ns, 2300 - 1000);
  // PlanQuery 4000 minus snapshot 10, parse 100, fingerprint 50, bind 300
  // and optimize 2300.
  EXPECT_EQ(q.cache_path_ns, 4000 - 10 - 100 - 50 - 300 - 2300);
}

qopt::Row R(std::vector<qopt::Value> v) { return v; }

TEST(SameRowsTest, MultisetSemantics) {
  using qopt::Value;
  std::vector<qopt::Row> a = {R({Value::Int(1), Value::String("x")}),
                              R({Value::Int(2), Value::String("y")}),
                              R({Value::Int(1), Value::String("x")})};
  std::vector<qopt::Row> b = {a[1], a[0], a[2]};
  EXPECT_TRUE(SameRows(a, b));
  b.pop_back();
  EXPECT_FALSE(SameRows(a, b));
  b.push_back(R({Value::Int(2), Value::String("y")}));  // wrong multiplicity
  EXPECT_FALSE(SameRows(a, b));
  EXPECT_FALSE(SameRows({R({Value::Null()})}, {R({Value::Int(0)})}));
  EXPECT_TRUE(SameRows({R({Value::Null()})}, {R({Value::Null()})}));
}

TEST(SameRowsTest, DoublesCompareWithRelativeTolerance) {
  using qopt::Value;
  const double sum = 0.1 + 0.2 + 0.3;
  const double other_order = 0.3 + 0.2 + 0.1;
  ASSERT_NE(sum, other_order);
  EXPECT_TRUE(SameRows({R({Value::Int(1), Value::Double(sum)}),
                        R({Value::Int(2), Value::Double(5)})},
                       {R({Value::Int(2), Value::Double(5)}),
                        R({Value::Int(1), Value::Double(other_order)})}));
  EXPECT_FALSE(SameRows({R({Value::Double(1.0)})},
                        {R({Value::Double(1.0 + 1e-6)})}));
}

class OracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(qopt::workload::CreateJoinTables(&db_, 3, 200, 50, 5).ok());
  }
  qopt::Database db_;
};

TEST_F(OracleTest, CorrectResultPassesAndCorruptedResultFails) {
  qopt::Session session = db_.OpenSession();
  Statement st{"SELECT t0.a, COUNT(*), SUM(t2.c) FROM t0, t1, t2 WHERE "
               "t0.a = t1.b AND t1.a = t2.b AND t0.c < 500 GROUP BY t0.a",
               {}};
  Outcome ok;
  CheckAgainstOracle(&session, st, &ok);
  EXPECT_TRUE(ok.correct);
  EXPECT_EQ(ok.attempted, 1u);
  EXPECT_EQ(ok.failed, 0u);
  EXPECT_EQ(ok.ok_frac(), 1.0);

  Outcome corrupted;
  corrupted.AddOps(99, 0);
  CheckAgainstOracle(&session, st, &corrupted,
                     [](std::vector<qopt::Row>* rows) {
                       ASSERT_FALSE(rows->empty());
                       (*rows)[0][1] =
                           qopt::Value::Int((*rows)[0][1].AsInt() + 1);
                     });
  EXPECT_FALSE(corrupted.correct);
  EXPECT_EQ(corrupted.attempted, 100u);
  EXPECT_EQ(corrupted.failed, 1u);
  EXPECT_DOUBLE_EQ(corrupted.ok_frac(), 0.99);

  Outcome dropped;
  CheckAgainstOracle(&session, st, &dropped,
                     [](std::vector<qopt::Row>* rows) { rows->pop_back(); });
  EXPECT_FALSE(dropped.correct);
}

TEST_F(OracleTest, ExecModeCheckFollowsTheEngine) {
  qopt::Session session = db_.OpenSession();
  Statement st{"SELECT t0.a, COUNT(*), SUM(t2.c) FROM t0, t1, t2 WHERE "
               "t0.a = t1.b AND t1.a = t2.b AND t0.c < 500 GROUP BY t0.a",
               {}};
  // The serving defaults arm spill, and an armed hash join runs row mode.
  ExecModeCheck armed = CheckExecModes(&db_, &session, {st});
  ASSERT_GT(armed.hash_joins, 0u);
  EXPECT_TRUE(armed.spill_armed);
  EXPECT_EQ(armed.row_mode_hash_joins, armed.hash_joins);
  EXPECT_EQ(armed.mismatches, 0u);

  // Without spill the engine runs them vectorized, and the traced path
  // must not arm spill either.
  st.options.spill.enabled = false;
  ExecModeCheck unarmed = CheckExecModes(&db_, &session, {st});
  EXPECT_EQ(unarmed.hash_joins, armed.hash_joins);
  EXPECT_FALSE(unarmed.spill_armed);
  EXPECT_EQ(unarmed.row_mode_hash_joins, 0u);
  EXPECT_EQ(unarmed.mismatches, 0u);
}

TEST_F(OracleTest, FailingStatementCountsAsFailure) {
  qopt::Session session = db_.OpenSession();
  Outcome outcome;
  CheckAgainstOracle(&session, {"SELECT nope FROM t0", {}}, &outcome);
  EXPECT_FALSE(outcome.correct);
  EXPECT_EQ(outcome.failed, 1u);
}

TEST(SampleTest, SeededDistinctSample) {
  std::vector<Statement> st;
  for (int i = 0; i < 50; ++i) st.push_back({"q" + std::to_string(i % 20), {}});
  std::vector<Statement> a = SampleDistinct(st, 8, 1);
  std::vector<Statement> b = SampleDistinct(st, 8, 1);
  ASSERT_EQ(a.size(), 8u);
  std::set<std::string> seen;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].sql, b[i].sql);
    EXPECT_TRUE(seen.insert(a[i].sql).second);
  }
  EXPECT_EQ(SampleDistinct(st, 100, 1).size(), 20u);
}

}  // namespace
}  // namespace perfbench
