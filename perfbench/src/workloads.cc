#include "workloads.h"

#include <cctype>
#include <random>
#include <set>

#include "workload/datagen.h"
#include "workload/query_gen.h"
#include "workload/star_schema.h"

namespace perfbench {

using qopt::Database;
using qopt::Status;
using qopt::workload::ColumnSpec;

uint64_t MixSeed(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

namespace {

// Workloads without a writer time 20-row INSERTs into this table, which no
// reader touches, during their measured window (see Workload::write_sql).
Status CreateAuditTable(Database* db) {
  return db->Execute("CREATE TABLE audit_log (id INT PRIMARY KEY, v INT)");
}

std::string AuditWrite(uint64_t i) {
  constexpr uint64_t kRows = 20;
  std::string sql = "INSERT INTO audit_log VALUES ";
  for (uint64_t j = 0; j < kRows; ++j) {
    const uint64_t id = i * kRows + j;
    sql += (j > 0 ? ", (" : "(") + std::to_string(id) + ", " +
           std::to_string(id % 97) + ")";
  }
  return sql;
}

std::mt19937_64 StreamRng(uint64_t seed, int session, int stream) {
  return std::mt19937_64(
      MixSeed(seed ^ MixSeed(static_cast<uint64_t>(session) * 131 +
                             static_cast<uint64_t>(stream) * 7919 + 1)));
}

/// Deals kinds of statement in exact proportions: each round holds kind k
/// weights[k] times, in a seeded shuffle. A run's mix then depends on the
/// seed only through the order, which keeps runs on different seeds
/// comparable.
class Deck {
 public:
  explicit Deck(std::vector<int> weights) : weights_(std::move(weights)) {}

  size_t Next(std::mt19937_64& rng) {
    if (pos_ == cards_.size()) {
      cards_.clear();
      for (size_t k = 0; k < weights_.size(); ++k) {
        cards_.insert(cards_.end(), static_cast<size_t>(weights_[k]), k);
      }
      for (size_t i = cards_.size(); i > 1; --i) {
        std::swap(cards_[i - 1], cards_[rng() % i]);
      }
      pos_ = 0;
    }
    return cards_[pos_++];
  }

 private:
  std::vector<int> weights_;
  std::vector<size_t> cards_;
  size_t pos_ = 0;
};

/// A deck with one card per statement of `pool`.
Deck Uniform(const std::vector<std::string>& pool) {
  return Deck(std::vector<int>(pool.size(), 1));
}

// ---- items: the indexed table of point_lookup and refresh_mix ----

struct ItemsShape {
  int64_t rows = 0;
  int64_t key_ndv = 0;  ///< Distinct values of the indexed column k.
};

Status CreateItems(Database* db, const ItemsShape& shape, uint64_t seed) {
  std::vector<ColumnSpec> cols = {
      {.name = "id", .kind = ColumnSpec::Kind::kSequential},
      {.name = "k", .kind = ColumnSpec::Kind::kUniform, .ndv = shape.key_ndv},
      {.name = "grp", .kind = ColumnSpec::Kind::kUniform, .ndv = 64},
      {.name = "val", .kind = ColumnSpec::Kind::kUniformReal, .lo = 0,
       .hi = 1000},
      {.name = "s", .kind = ColumnSpec::Kind::kString, .ndv = 1000},
  };
  QOPT_RETURN_IF_ERROR(qopt::workload::CreateAndLoadTable(
      db, "items", cols, shape.rows, seed, "id"));
  QOPT_RETURN_IF_ERROR(db->CreateIndex("idx_items_id", "items", "id",
                                       /*clustered=*/true, /*unique=*/true)
                           .status());
  return db->CreateIndex("idx_items_k", "items", "k").status();
}

/// Literals that repeat: most lookups of a shape use its hot literal, so
/// the plan cache's exact-literal entry is often reused (generic hits),
/// while the range shapes vary one range literal (§7.4 parametric hits).
struct HotLiterals {
  int64_t id = 0;
  int64_t k = 0;
};

HotLiterals MakeHot(const ItemsShape& shape, uint64_t seed) {
  std::mt19937_64 rng(MixSeed(seed ^ 0x407));
  return {static_cast<int64_t>(rng() % shape.rows),
          static_cast<int64_t>(rng() % shape.key_ndv)};
}

/// Kinds of point_lookup statement, weighted out of 20: 35% lookups by
/// primary key and 25% by secondary key (about three in four use the hot
/// literal), 25% short ranges from the bottom of k and 15% from the top.
enum PointKind { kIdHot, kIdCold, kKeyHot, kKeyCold, kRangeLow, kRangeHigh };
const std::vector<int> kPointWeights = {5, 2, 4, 1, 5, 3};

std::string PointSql(size_t kind, std::mt19937_64& rng,
                     const ItemsShape& shape, const HotLiterals& hot) {
  switch (kind) {
    case kIdHot:
    case kIdCold: {
      const int64_t id = kind == kIdHot
                             ? hot.id
                             : static_cast<int64_t>(rng() % shape.rows);
      return "SELECT id, k, val, s FROM items WHERE id = " +
             std::to_string(id);
    }
    case kKeyHot:
    case kKeyCold: {
      const int64_t k = kind == kKeyHot
                            ? hot.k
                            : static_cast<int64_t>(rng() % shape.key_ndv);
      return "SELECT id, val FROM items WHERE k = " + std::to_string(k);
    }
    case kRangeLow:
      return "SELECT id, k, val FROM items WHERE k < " +
             std::to_string(1 + rng() % 40);
    default:
      return "SELECT COUNT(*), SUM(val) FROM items WHERE k >= " +
             std::to_string(shape.key_ndv - 1 -
                            static_cast<int64_t>(rng() % 40));
  }
}

Workload PointLookup(uint64_t seed) {
  const ItemsShape shape{.rows = 200000, .key_ndv = 50000};
  const HotLiterals hot = MakeHot(shape, seed);
  Workload w;
  w.reader_sessions = 4;
  w.tables = {{"items", shape.rows}};
  w.oracle_sample = 24;
  w.warmup_statements = 1000;
  w.setup = [shape, seed](Database* db) {
    QOPT_RETURN_IF_ERROR(CreateItems(db, shape, seed));
    return CreateAuditTable(db);
  };
  w.reads = [shape, hot, seed](int session, int stream) {
    return [rng = StreamRng(seed, session, stream), deck = Deck(kPointWeights),
            shape, hot]() mutable {
      return Statement{PointSql(deck.Next(rng), rng, shape, hot), {}};
    };
  };
  w.write_sql = AuditWrite;
  return w;
}

// ---- star_analytics ----

/// Masks numeric literals (digit runs that do not continue an identifier
/// such as `dim0` or `d0_id`), so statements that differ only in literals
/// share a key.
std::string ShapeKey(const std::string& sql) {
  std::string key;
  for (const char c : sql) {
    const bool digit = c >= '0' && c <= '9';
    const bool in_name =
        !key.empty() && (std::isalnum(static_cast<unsigned char>(key.back())) ||
                         key.back() == '_');
    if (!digit || in_name) {
      key += c;
    } else if (key.empty() || key.back() != '#') {
      key += '#';
    }
  }
  return key;
}

Workload StarAnalytics(uint64_t seed) {
  qopt::workload::StarSchemaSpec spec;
  spec.num_dimensions = 3;
  spec.fact_rows = 120000;
  spec.dim_rows = 1000;
  spec.dim_filter_ndv = 20;
  spec.fact_fk_theta = 0.9;
  spec.dim_attr_theta = 0.5;
  spec.fact_partitions = 16;
  spec.seed = seed;

  // The dashboard: a fixed set of statements, one per RandomStarQuery
  // shape (ordered dimension subset x COUNT-or-projection x measure
  // filter: 60 in all), so every repeat is an exact plan-cache hit. The
  // statements do not depend on the seed, which changes the data and the
  // order they are sent in: their literals set how many fact rows each one
  // touches, and a mix that moved with the seed would make runs on
  // different seeds incomparable.
  std::vector<std::string> star_pool;
  std::set<std::string> shapes;
  for (uint64_t s = 0; s < 4000; ++s) {
    std::string sql = qopt::workload::RandomStarQuery(spec, MixSeed(977 * s));
    if (shapes.insert(ShapeKey(sql)).second) star_pool.push_back(sql);
  }
  std::mt19937_64 rng(MixSeed(0x5a));
  // Drill-downs into the sparse upper d0_id partitions (the fact keys are
  // Zipf-skewed toward low ids): partition pruning makes these cheap.
  std::vector<std::string> drill_pool;
  for (const char* agg : {"SUM", "MAX", "MIN"}) {
    for (int j = 1; j <= 2; ++j) {
      const std::string col = "f.d" + std::to_string(j) + "_id";
      drill_pool.push_back("SELECT " + col + ", COUNT(*), " + agg +
                           "(f.measure) FROM fact f WHERE f.d0_id >= " +
                           std::to_string(700 + rng() % 250) + " GROUP BY " +
                           col);
    }
  }
  std::vector<std::string> agg_pool;
  for (int j = 1; j <= 2; ++j) {
    const std::string d = "d" + std::to_string(j);
    // Prunes the fact table to its upper partitions of d0_id.
    const int64_t lo = spec.dim_rows / 2 + static_cast<int64_t>(rng() % 250);
    agg_pool.push_back("SELECT " + d + ".attr, COUNT(*), SUM(f.measure) "
                       "FROM fact f, dim" + std::to_string(j) + " " + d +
                       " WHERE f." + d + "_id = " + d + ".id AND f.d0_id >= " +
                       std::to_string(lo) + " GROUP BY " + d + ".attr");
  }
  for (int j = 0; j < 3; ++j) {
    agg_pool.push_back("SELECT f.d" + std::to_string(j) +
                       "_id, COUNT(*), SUM(f.measure) FROM fact f WHERE "
                       "f.measure < " + std::to_string(200 + rng() % 600) +
                       " GROUP BY f.d" + std::to_string(j) + "_id");
  }
  // Result sets of >= 100k rows: the gather and the result drain.
  const std::vector<std::string> big_pool = {
      "SELECT f.id, f.d1_id, f.measure FROM fact f WHERE f.measure < 900",
      "SELECT f.id, f.measure, d2.attr FROM fact f, dim2 d2 "
      "WHERE f.d2_id = d2.id AND f.measure < 900",
  };

  Workload w;
  w.reader_sessions = 1;
  w.tables = {{"fact", spec.fact_rows},
              {"dim0", spec.dim_rows},
              {"dim1", spec.dim_rows},
              {"dim2", spec.dim_rows}};
  w.oracle_sample = 6;
  w.warmup_statements = 200;  // One round of every pool: all 73 statements.
  w.setup = [spec](Database* db) {
    QOPT_RETURN_IF_ERROR(qopt::workload::BuildStarSchema(db, spec));
    return CreateAuditTable(db);
  };
  // 35% drill-downs, 30% star joins, 30% aggregates, 5% large results.
  const std::vector<std::vector<std::string>> pools = {drill_pool, star_pool,
                                                       agg_pool, big_pool};
  w.reads = [seed, pools](int session, int stream) {
    std::vector<Deck> within;
    for (const std::vector<std::string>& pool : pools) {
      within.push_back(Uniform(pool));
    }
    return [rng = StreamRng(seed, session, stream), kinds = Deck({7, 6, 6, 1}),
            within, pools]() mutable {
      Statement st;
      st.options.execution_mode = qopt::exec::ExecMode::kParallel;
      st.options.dop = 4;
      const size_t kind = kinds.Next(rng);
      st.sql = pools[kind][within[kind].Next(rng)];
      return st;
    };
  };
  w.write_sql = AuditWrite;
  return w;
}

// ---- adhoc_join ----

/// Number of range filters RandomJoinQuery put on the `c` columns.
int RangeFilters(const std::string& sql) {
  int n = 0;
  for (size_t at = sql.find(".c "); at != std::string::npos;
       at = sql.find(".c ", at + 1)) {
    ++n;
  }
  return n;
}

/// Statements alternate between the two enumerators, both public options.
qopt::opt::EnumeratorKind EnumeratorFor(uint64_t i) {
  return i % 2 == 0 ? qopt::opt::EnumeratorKind::kSelinger
                    : qopt::opt::EnumeratorKind::kCascades;
}

/// `sql` with the literal of its (single) range filter replaced by `value`.
std::string WithRangeLiteral(const std::string& sql, uint64_t value) {
  size_t at = sql.find(".c ");
  at = sql.find_first_of("0123456789", at);
  const size_t end = sql.find_first_not_of("0123456789", at);
  return sql.substr(0, at) + std::to_string(value) +
         (end == std::string::npos ? "" : sql.substr(end));
}

Workload AdhocJoin(uint64_t seed) {
  constexpr int kTables = 10;
  constexpr int64_t kRows = 400;
  Workload w;
  w.reader_sessions = 1;
  for (int i = 0; i < kTables; ++i) {
    w.tables.push_back({"t" + std::to_string(i), kRows});
  }
  w.oracle_sample = 12;
  w.warmup_statements = 105;
  w.setup = [seed](Database* db) {
    QOPT_RETURN_IF_ERROR(qopt::workload::CreateJoinTables(
        db, kTables, kRows, /*ndv=*/kRows, seed));
    return CreateAuditTable(db);
  };
  // Fresh statements: search cost grows exponentially with n, fastest for
  // cliques and with GROUP BY (eager-aggregation alternatives). The weights
  // keep the mean statement near 10 ms, so a run completes well over 1000
  // statements. They leave out GROUP BY over 9- and 10-way chains and over
  // 6-way stars, which compile for 100 ms or more.
  struct Shape {
    qopt::workload::Topology topology;
    int n;
    bool group_by;
    int weight;
  };
  using qopt::workload::Topology;
  std::vector<Shape> shapes;
  for (int n = 5; n <= 10; ++n) {
    shapes.push_back({Topology::kChain, n, false, n <= 8 ? 8 : 3});
    if (n <= 8) shapes.push_back({Topology::kChain, n, true, 3});
  }
  shapes.push_back({Topology::kStar, 5, false, 10});
  shapes.push_back({Topology::kStar, 6, false, 10});
  shapes.push_back({Topology::kStar, 5, true, 6});
  shapes.push_back({Topology::kClique, 5, false, 14});
  shapes.push_back({Topology::kClique, 5, true, 6});
  std::vector<int> weights;
  for (const Shape& sh : shapes) weights.push_back(sh.weight);
  // Re-runs: a 6-way chain with one range filter, sent three times with
  // different literals. The second miss on one shape with a varying range
  // literal makes the plan cache run its §7.4 parametric sweep inline (ten
  // or more compiles); the third is a parametric hit. Fresh statements carry
  // two or three filters, so they have no parametric axis, and the sweeps
  // in a run are exactly those of the re-runs: about 3% of statements.
  // Re-runs cycle through the 24 combinations of filtered table, comparison
  // and enumerator, whose sweeps cost from 40 to 150 ms; a shape comes back
  // only after about 800 statements, long after the cache evicted it.
  weights.push_back(3);
  w.reads = [seed, shapes, weights](int session, int stream) {
    return [rng = StreamRng(seed, session, stream), deck = Deck(weights),
            shapes, pending = std::vector<Statement>(),
            n_fresh = uint64_t{0}, n_reruns = uint64_t{0}]() mutable {
      if (!pending.empty()) {
        Statement st = pending.back();
        pending.pop_back();
        return st;
      }
      const size_t card = deck.Next(rng);
      Statement st;
      if (card < shapes.size()) {
        const Shape& sh = shapes[card];
        do {
          st.sql = qopt::workload::RandomJoinQuery(sh.topology, sh.n, rng(),
                                                   sh.group_by);
        } while (RangeFilters(st.sql) < 2);
        st.options.optimizer.enumerator = EnumeratorFor(n_fresh++);
        return st;
      }
      const uint64_t k = n_reruns++;
      const std::string filter = "t" + std::to_string(k % 6) +
                                 (k / 6 % 2 == 0 ? ".c < " : ".c >= ");
      do {
        st.sql = qopt::workload::RandomJoinQuery(Topology::kChain, 6, rng());
      } while (RangeFilters(st.sql) != 1 ||
               st.sql.find(filter) == std::string::npos);
      st.options.optimizer.enumerator = EnumeratorFor(k / 12);
      for (int i = 0; i < 2; ++i) {
        Statement again = st;
        again.sql = WithRangeLiteral(st.sql, rng() % 1000);
        pending.push_back(again);
      }
      return st;
    };
  };
  w.write_sql = AuditWrite;
  return w;
}

// ---- refresh_mix ----

Workload RefreshMix(uint64_t seed) {
  const ItemsShape shape{.rows = 20000, .key_ndv = 5000};
  const HotLiterals hot = MakeHot(shape, seed);
  constexpr int kRowsPerWrite = 5;
  Workload w;
  w.reader_sessions = 3;
  w.tables = {{"items", shape.rows}, {"cats", 64}};
  w.writer = WriterSpec{.rate_hz = 20, .rows_per_write = kRowsPerWrite,
                        .analyze_every = 20, .table = "items"};
  w.oracle_sample = 16;
  w.warmup_statements = 1000;
  w.setup = [shape, seed](Database* db) {
    QOPT_RETURN_IF_ERROR(CreateItems(db, shape, seed));
    std::vector<ColumnSpec> cats = {
        {.name = "grp", .kind = ColumnSpec::Kind::kSequential},
        {.name = "name", .kind = ColumnSpec::Kind::kString, .ndv = 16},
    };
    return qopt::workload::CreateAndLoadTable(db, "cats", cats, 64,
                                              seed + 1, "grp");
  };
  w.reads = [shape, hot, seed](int session, int stream) {
    // The point_lookup mix (80%) plus a small join and aggregate (20%).
    std::vector<int> weights = kPointWeights;
    weights.push_back(5);
    return [rng = StreamRng(seed, session, stream), deck = Deck(weights),
            shape, hot]() mutable {
      const size_t kind = deck.Next(rng);
      if (kind < kPointWeights.size()) {
        return Statement{PointSql(kind, rng, shape, hot), {}};
      }
      return Statement{
          "SELECT c.name, COUNT(*), SUM(i.val) FROM items i, cats c WHERE "
          "i.grp = c.grp AND i.k < " + std::to_string(1 + rng() % 200) +
              " GROUP BY c.name",
          {}};
    };
  };
  w.write_sql = [shape, seed](uint64_t i) {
    std::string sql = "INSERT INTO items VALUES ";
    for (int j = 0; j < kRowsPerWrite; ++j) {
      const uint64_t h = MixSeed(seed ^ (i * kRowsPerWrite + j));
      if (j > 0) sql += ", ";
      sql += "(" + std::to_string(shape.rows + i * kRowsPerWrite + j) + ", " +
             std::to_string(h % shape.key_ndv) + ", " +
             std::to_string((h >> 20) % 64) + ", " +
             std::to_string(static_cast<double>((h >> 28) % 100000) / 100) +
             ", 'v" + std::to_string((h >> 48) % 1000) + "')";
    }
    return sql;
  };
  return w;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "point_lookup", "star_analytics", "adhoc_join", "refresh_mix"};
  return names;
}

std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  std::optional<Workload> w;
  if (name == "point_lookup") w = PointLookup(seed);
  if (name == "star_analytics") w = StarAnalytics(seed);
  if (name == "adhoc_join") w = AdhocJoin(seed);
  if (name == "refresh_mix") w = RefreshMix(seed);
  if (w) w->name = name;
  return w;
}

}  // namespace perfbench
