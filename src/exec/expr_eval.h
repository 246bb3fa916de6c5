// Runtime expression evaluation with SQL three-valued logic.
//
// The scalar interpreter (EvalExpr / EvalPredicate) is the semantics
// oracle. The row-at-a-time Volcano operators call it directly; the
// vectorized operators reach it through expr::BatchExpr
// (exec/expr_compile.h), which runs a compiled program when the expression
// has one and loops this interpreter over the batch's live rows otherwise.
#ifndef QOPT_EXEC_EXPR_EVAL_H_
#define QOPT_EXEC_EXPR_EVAL_H_

#include <unordered_map>
#include <vector>

#include "common/column_id.h"
#include "common/value.h"
#include "plan/expr.h"

namespace qopt::exec {

/// Maps ColumnId -> position in an operator's output row.
using ColMap = std::unordered_map<ColumnId, int, ColumnIdHash>;

/// Correlated parameter bindings (outer-row values) for Apply subtrees.
using ParamMap = std::unordered_map<ColumnId, Value, ColumnIdHash>;

/// Evaluation context: the current row with its column map, plus optional
/// correlated parameters consulted when a column is not in the map.
struct EvalContext {
  const ColMap* colmap = nullptr;
  const Row* row = nullptr;
  const ParamMap* params = nullptr;
};

/// Evaluates `e` under `ctx`. Comparisons/arithmetic over NULL yield NULL;
/// AND/OR follow Kleene logic. Aborts (DCHECK) on unresolvable columns —
/// that indicates a planner bug, not a user error.
Value EvalExpr(const plan::BoundExpr& e, const EvalContext& ctx);

/// True iff `pred` evaluates to TRUE (NULL and FALSE both reject).
bool EvalPredicate(const plan::BExpr& pred, const EvalContext& ctx);

/// SQL LIKE with % and _ wildcards. Patterns of the common shapes —
/// no wildcards, 'abc%', '%abc' — take a direct string-compare fast path;
/// everything else runs the general backtracking matcher.
bool LikeMatch(const std::string& text, const std::string& pattern);

/// A LIKE pattern classified once so repeated matching (compiled
/// programs) can use direct string comparisons instead of the
/// general wildcard matcher. Patterns containing '_' or more '%' structure
/// than prefix/suffix/contains stay generic.
struct LikePattern {
  enum class Kind : uint8_t {
    kExact,         // no wildcards : text == pattern
    kPrefix,        // 'abc%'       : text starts with pre
    kSuffix,        // '%abc'       : text ends with suf
    kContains,      // '%abc%'      : text contains pre
    kPrefixSuffix,  // 'ab%cd'      : starts with pre and ends with suf
    kGeneric,       // anything else: full wildcard matcher
  };
  Kind kind = Kind::kGeneric;
  std::string pattern;   // original pattern, used for generic matching
  std::string pre, suf;  // literal pieces for the fast kinds
};

/// Classifies `pattern` for repeated matching (runs of '%' collapse first).
LikePattern CompileLikePattern(const std::string& pattern);

/// Matches `text` against a pre-classified pattern.
bool LikeMatch(const std::string& text, const LikePattern& pattern);

}  // namespace qopt::exec

#endif  // QOPT_EXEC_EXPR_EVAL_H_
