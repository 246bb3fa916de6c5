// Spill-to-disk degradation: the SpillFile format round-trips, the
// external sort produces the exact in-memory ordering (including tie
// stability) across single- and multi-pass merges, and the spilled hash
// join matches the in-memory hash join's result multiset in every
// execution mode — all under budgets tiny enough to force heavy spilling.
#include <gtest/gtest.h>

#include <filesystem>

#include "storage/spill.h"
#include "tests/testing/db_fixtures.h"

namespace qopt {
namespace {

TEST(SpillFileTest, RoundTripsEveryValueType) {
  auto file = SpillFile::Create("");
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  std::vector<Row> rows = {
      {Value::Int(42), Value::String("hello"), Value::Double(3.5),
       Value::Bool(true), Value::Null()},
      {Value::Int(-7), Value::String(""), Value::Double(-0.25),
       Value::Bool(false), Value::Int(0)},
  };
  for (const Row& r : rows) {
    ASSERT_TRUE(file.value()->Append(r).ok());
  }
  ASSERT_TRUE(file.value()->FinishWrite().ok());
  EXPECT_EQ(file.value()->rows(), 2u);
  EXPECT_GT(file.value()->bytes_written(), 0u);
  ASSERT_TRUE(file.value()->Rewind().ok());
  for (const Row& want : rows) {
    Row got;
    auto more = file.value()->ReadNext(&got);
    ASSERT_TRUE(more.ok() && more.value());
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_TRUE(got[i].is_null() == want[i].is_null() &&
                  (got[i].is_null() || got[i].Compare(want[i]) == 0));
    }
  }
  Row extra;
  auto more = file.value()->ReadNext(&extra);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(more.value());
}

TEST(SpillFileTest, DestructorRemovesBackingFile) {
  std::string path;
  {
    auto file = SpillFile::Create("");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->Append({Value::Int(1)}).ok());
    ASSERT_TRUE(file.value()->FinishWrite().ok());
    path = file.value()->path();
    EXPECT_TRUE(std::filesystem::exists(path));
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

// End-to-end fixture: a table big enough that tiny budgets force many
// runs / partitions, with duplicate sort keys to expose instability.
class SpillExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE TABLE t (id INT PRIMARY KEY, grp INT, "
                            "payload STRING)")
                    .ok());
    ASSERT_TRUE(
        db_.Execute("CREATE TABLE g (gid INT PRIMARY KEY, label STRING)")
            .ok());
    std::vector<Row> rows;
    for (int64_t i = 0; i < 3000; ++i) {
      rows.push_back({Value::Int(i), Value::Int(i % 17),
                      Value::String("p" + std::to_string(i % 97))});
    }
    ASSERT_TRUE(db_.BulkLoad("t", std::move(rows)).ok());
    std::vector<Row> groups;
    for (int64_t gid = 0; gid < 17; ++gid) {
      // gid 16 has no matching label row in some queries via filters.
      groups.push_back({Value::Int(gid),
                        Value::String("g" + std::to_string(gid))});
    }
    ASSERT_TRUE(db_.BulkLoad("g", std::move(groups)).ok());
    ASSERT_TRUE(db_.AnalyzeAll().ok());
  }

  QueryResult Run(const std::string& sql, QueryOptions opts) {
    auto r = db_.Query(sql, opts);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    return r.ok() ? std::move(r.value()) : QueryResult{};
  }

  /// Exact (ordered) row equality — the bar for ORDER BY results.
  static void ExpectIdentical(const std::vector<Row>& got,
                              const std::vector<Row>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(RowEq()(got[i], want[i])) << "row " << i;
    }
  }

  /// The first hash join in `plan`, preorder.
  static const exec::PhysicalPlan* FindHashJoin(
      const exec::PhysicalPlan* plan) {
    if (plan == nullptr || plan->kind == exec::PhysOpKind::kHashJoin) {
      return plan;
    }
    for (const exec::PhysPtr& child : plan->children) {
      if (const exec::PhysicalPlan* j = FindHashJoin(child.get())) return j;
    }
    return nullptr;
  }

  Database db_;
};

TEST_F(SpillExecTest, ExternalSortMatchesInMemorySortExactly) {
  // Duplicate keys (grp has 17 values over 3000 rows): ordering parity
  // requires the external merge to preserve run-order ties, i.e. the
  // stable_sort semantics of the in-memory path.
  const std::string sql =
      "SELECT t.grp, t.id FROM t ORDER BY t.grp";
  QueryResult baseline = Run(sql, {});
  EXPECT_EQ(baseline.exec_stats.spill_runs, 0u);
  for (exec::ExecMode mode : {exec::ExecMode::kRow, exec::ExecMode::kBatch}) {
    QueryOptions opts;
    opts.execution_mode = mode;
    opts.spill.operator_budget_bytes = 4 * 1024;  // dozens of runs
    QueryResult spilled = Run(sql, opts);
    EXPECT_GT(spilled.exec_stats.spill_runs, 1u);
    EXPECT_GT(spilled.exec_stats.spill_bytes_written, 0u);
    ExpectIdentical(spilled.rows, baseline.rows);
  }
}

TEST_F(SpillExecTest, MultiPassMergeAtTinyFanin) {
  const std::string sql =
      "SELECT t.payload, t.id FROM t ORDER BY t.payload, t.id";
  QueryResult baseline = Run(sql, {});
  QueryOptions opts;
  opts.spill.operator_budget_bytes = 2 * 1024;
  opts.spill.merge_fanin = 2;  // forces log2(runs) merge passes
  QueryResult spilled = Run(sql, opts);
  // Intermediate merge passes write new runs, so the run count exceeds
  // what run generation alone produced.
  EXPECT_GT(spilled.exec_stats.spill_runs, 8u);
  ExpectIdentical(spilled.rows, baseline.rows);
}

TEST_F(SpillExecTest, GraceHashJoinMatchesInMemoryJoin) {
  // u.grp is NULL on every 7th row: NULL probe keys must reach the
  // left-outer and anti emission from partition 0 of a spilled join.
  ASSERT_TRUE(
      db_.Execute("CREATE TABLE u (id INT PRIMARY KEY, grp INT)").ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 2000; ++i) {
    rows.push_back({Value::Int(i),
                    i % 7 == 0 ? Value::Null() : Value::Int(i % 19)});
  }
  ASSERT_TRUE(db_.BulkLoad("u", std::move(rows)).ok());
  ASSERT_TRUE(db_.AnalyzeAll().ok());
  for (const char* sql : {
           "SELECT t.id, g.label FROM t, g WHERE t.grp = g.gid AND t.id < 2500",
           "SELECT u.id, g.label FROM u LEFT JOIN g ON u.grp = g.gid",
           "SELECT u.id FROM u WHERE NOT EXISTS "
           "(SELECT g.gid FROM g WHERE g.gid = u.grp)",
           "SELECT u.id, g.label FROM u LEFT JOIN g "
           "ON u.grp = g.gid AND u.id > g.gid * 50",
       }) {
    SCOPED_TRACE(sql);
    QueryResult baseline = Run(sql, {});
    EXPECT_EQ(baseline.exec_stats.spill_runs, 0u);
    for (exec::ExecMode mode : {exec::ExecMode::kRow, exec::ExecMode::kBatch,
                                exec::ExecMode::kParallel}) {
      QueryOptions opts;
      opts.execution_mode = mode;
      opts.dop = 4;
      opts.spill.operator_budget_bytes = 256;
      opts.spill.partitions = 4;
      QueryResult spilled = Run(sql, opts);
      // Build + probe partition files all count as spill runs.
      EXPECT_GT(spilled.exec_stats.spill_runs, 0u);
      // Grace output order is partition-major, not probe order: compare as
      // multisets.
      testing::ExpectSameRows(spilled.rows, baseline.rows);
    }
  }
}

TEST_F(SpillExecTest, SpilledJoinPeakMemoryIsItsLargestPartition) {
  // A spilled join holds the pre-spill buffer or one partition's build
  // rows at a time, never the whole build side.
  for (const char* table : {"v", "w"}) {
    ASSERT_TRUE(db_.Execute(std::string("CREATE TABLE ") + table +
                            " (k INT, x INT)")
                    .ok());
    std::vector<Row> rows;
    for (int64_t i = 0; i < 3000; ++i) {
      rows.push_back({Value::Int(i), Value::Int(i % 13)});
    }
    ASSERT_TRUE(db_.BulkLoad(table, std::move(rows)).ok());
  }
  ASSERT_TRUE(db_.AnalyzeAll().ok());
  const std::string sql = "SELECT v.k, w.x FROM v, w WHERE v.k = w.k";
  for (exec::ExecMode mode : {exec::ExecMode::kRow, exec::ExecMode::kBatch}) {
    QueryOptions opts;
    opts.execution_mode = mode;
    opts.analyze = true;
    QueryResult unbounded = Run(sql, opts);
    opts.spill.operator_budget_bytes = 16 * 1024;
    QueryResult spilled = Run(sql, opts);
    EXPECT_GT(spilled.exec_stats.spill_runs, 0u);
    testing::ExpectSameRows(spilled.rows, unbounded.rows);
    const exec::PhysicalPlan* join = FindHashJoin(spilled.analyzed_plan.get());
    ASSERT_NE(join, nullptr);
    const uint64_t spilled_peak = spilled.op_stats.at(join).peak_mem_bytes;
    const uint64_t unbounded_peak =
        unbounded.op_stats.at(FindHashJoin(unbounded.analyzed_plan.get()))
            .peak_mem_bytes;
    EXPECT_GT(spilled_peak, 0u);
    EXPECT_LT(spilled_peak, unbounded_peak);
  }
}

TEST_F(SpillExecTest, SpilledJoinFeedingSpilledSortIsByteIdentical) {
  const std::string sql =
      "SELECT t.id, g.label FROM t, g WHERE t.grp = g.gid "
      "ORDER BY t.id";
  QueryResult baseline = Run(sql, {});
  QueryOptions opts;
  opts.spill.operator_budget_bytes = 8 * 1024;
  QueryResult spilled = Run(sql, opts);
  EXPECT_GT(spilled.exec_stats.spill_runs, 0u);
  // The total order restores determinism above the grace join.
  ExpectIdentical(spilled.rows, baseline.rows);
}

TEST_F(SpillExecTest, GovernorBudgetDegradesInsteadOfFailing) {
  const std::string sql =
      "SELECT t.id, t.payload FROM t ORDER BY t.payload, t.id LIMIT 5";
  // Without spill: the sort's materialization blows the memory budget.
  QueryOptions hard;
  hard.spill.enabled = false;
  hard.governor.max_memory_bytes = 16 * 1024;
  auto failed = db_.Query(sql, hard);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted);
  // With spill (default-enabled): same budget, the sort degrades to disk.
  QueryOptions soft;
  soft.governor.max_memory_bytes = 16 * 1024;
  QueryResult degraded = Run(sql, soft);
  EXPECT_GT(degraded.exec_stats.spill_runs, 0u);
  ExpectIdentical(degraded.rows, Run(sql, {}).rows);
}

TEST_F(SpillExecTest, NoSpillFilesLeftBehind) {
  // Spill into a private directory: it must be empty again afterwards.
  testing::ScopedTempDir dir;
  ASSERT_FALSE(dir.path().empty());
  QueryOptions opts;
  opts.spill.operator_budget_bytes = 2 * 1024;
  opts.spill.dir = dir.path();
  QueryResult r = Run(
      "SELECT t.id, g.label FROM t, g WHERE t.grp = g.gid ORDER BY t.id",
      opts);
  EXPECT_GT(r.exec_stats.spill_runs, 0u);
  EXPECT_EQ(dir.NumEntries(), 0u);
}

TEST_F(SpillExecTest, ExplainAnalyzeShowsSpillAnnotation) {
  QueryOptions opts;
  opts.spill.operator_budget_bytes = 4 * 1024;
  auto text =
      db_.ExplainAnalyze("SELECT t.grp, t.id FROM t ORDER BY t.grp, t.id",
                         opts);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text.value().find("[spill: "), std::string::npos)
      << text.value();
}

TEST_F(SpillExecTest, ExplainAnalyzeShowsSpilledBatchJoin) {
  // Arming spill changes how the hash join runs, never which engine: the
  // spilled join is still the vectorized one.
  QueryOptions opts;
  opts.execution_mode = exec::ExecMode::kBatch;
  opts.spill.operator_budget_bytes = 256;
  auto text = db_.ExplainAnalyze(
      "SELECT t.id, g.label FROM t, g WHERE t.grp = g.gid", opts);
  ASSERT_TRUE(text.ok());
  const std::string& out = text.value();
  size_t at = out.find("HashJoin");
  ASSERT_NE(at, std::string::npos) << out;
  const std::string line = out.substr(at, out.find('\n', at) - at);
  EXPECT_NE(line.find("[batch]"), std::string::npos) << line;
  EXPECT_NE(line.find("[spill: "), std::string::npos) << line;
}

TEST_F(SpillExecTest, MetricsCountSpills) {
  QueryOptions opts;
  opts.spill.operator_budget_bytes = 4 * 1024;
  Run("SELECT t.grp, t.id FROM t ORDER BY t.grp, t.id", opts);
  uint64_t runs = 0, bytes = 0;
  for (const MetricsRegistry::Sample& s : db_.metrics().Snapshot()) {
    if (s.name == "spill.runs") runs = s.value;
    if (s.name == "spill.bytes_written") bytes = s.value;
  }
  EXPECT_GT(runs, 0u);
  EXPECT_GT(bytes, 0u);
}

}  // namespace
}  // namespace qopt
