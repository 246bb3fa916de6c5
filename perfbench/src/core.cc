#include "core.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kQuery: return "session.query";
    case Layer::kAdmit: return "admission.admit_shared";
    case Layer::kSnapshot: return "catalog.snapshot";
    case Layer::kParse: return "parser.parse";
    case Layer::kFingerprint: return "plan.fingerprint";
    case Layer::kPlanQuery: return "database.plan_query";
    case Layer::kRecompile: return "trace.recompile";
    case Layer::kBind: return "plan.bind";
    case Layer::kRewrite: return "rewrite.rewrite";
    case Layer::kOptimize: return "optimizer.optimize";
    case Layer::kBuild: return "exec.build";
    case Layer::kDrain: return "exec.drain";
    case Layer::kTeardown: return "exec.teardown";
    case Layer::kWrite: return "session.write";
    case Layer::kAdmitExclusive: return "admission.admit_exclusive";
    case Layer::kExecute: return "database.execute";
    case Layer::kAnalyze: return "catalog.analyze_publish";
  }
  return "?";
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<size_t>(s.parent) >= spans.size()) {
      continue;
    }
    const Span& p = spans[s.parent];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) covered[s.parent].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    int64_t union_ns = 0;
    int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) union_ns += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) union_ns += cur_hi - cur_lo;
    self[i] = spans[i].duration_ns() - union_ns;
  }
  return self;
}

QueryLayers BreakDown(const std::vector<Span>& spans) {
  QueryLayers q;
  int64_t recompile_ns = 0;
  int64_t optimize_ns = 0;
  int64_t root_ns = 0;
  for (const Span& s : spans) {
    const int64_t d = s.duration_ns();
    switch (s.layer) {
      case Layer::kQuery: root_ns = d; break;
      case Layer::kAdmit: q.admit_ns += d; break;
      case Layer::kSnapshot: q.snapshot_ns += d; break;
      case Layer::kParse: q.parse_ns += d; break;
      case Layer::kFingerprint: q.fingerprint_ns += d; break;
      case Layer::kPlanQuery: q.plan_query_ns += d; break;
      case Layer::kRecompile:
        recompile_ns += d;
        q.compiled = true;
        break;
      case Layer::kBind: q.bind_ns += d; break;
      case Layer::kRewrite: q.rewrite_ns += d; break;
      case Layer::kOptimize: optimize_ns += d; break;
      case Layer::kBuild: q.build_ns += d; break;
      case Layer::kDrain: q.drain_ns += d; break;
      case Layer::kTeardown: q.teardown_ns += d; break;
      default: break;
    }
  }
  q.path_ns = root_ns - recompile_ns;
  q.enumerate_ns = std::max<int64_t>(0, optimize_ns - q.rewrite_ns);
  q.cache_path_ns = q.plan_query_ns - q.snapshot_ns - q.parse_ns -
                    q.fingerprint_ns;
  if (q.compiled) q.cache_path_ns -= q.bind_ns + optimize_ns;
  q.cache_path_ns = std::max<int64_t>(0, q.cache_path_ns);
  std::vector<int64_t> self = SelfTimes(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].layer == Layer::kQuery) q.root_self_ns = self[i];
  }
  return q;
}

namespace {

bool IsDouble(const qopt::Value& v) {
  return v.type() == qopt::TypeId::kDouble;
}

bool ValuesMatch(const qopt::Value& a, const qopt::Value& b) {
  if ((IsDouble(a) || IsDouble(b)) && qopt::IsNumeric(a.type()) &&
      qopt::IsNumeric(b.type())) {
    const double x = a.AsNumeric(), y = b.AsNumeric();
    if (x == y) return true;
    return std::fabs(x - y) <= 1e-9 * std::max(std::fabs(x), std::fabs(y));
  }
  return a.Compare(b) == 0;
}

}  // namespace

bool SameRows(std::vector<qopt::Row> a, std::vector<qopt::Row> b) {
  if (a.size() != b.size()) return false;
  // Sort on the exact columns first and the DOUBLE columns last, so a
  // tolerance-level difference in a double cannot reorder rows whose exact
  // columns differ. A column counts as DOUBLE if any value in it is one.
  std::vector<size_t> order;
  std::vector<bool> is_double;
  for (const auto* rows : {&a, &b}) {
    for (const qopt::Row& row : *rows) {
      if (row.size() > is_double.size()) is_double.resize(row.size(), false);
      for (size_t c = 0; c < row.size(); ++c) {
        if (IsDouble(row[c])) is_double[c] = true;
      }
    }
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t c = 0; c < is_double.size(); ++c) {
      if (is_double[c] == (pass == 1)) order.push_back(c);
    }
  }
  auto less = [&order](const qopt::Row& x, const qopt::Row& y) {
    if (x.size() != y.size()) return x.size() < y.size();
    for (size_t c : order) {
      if (c >= x.size()) continue;
      int cmp = x[c].Compare(y[c]);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  };
  std::sort(a.begin(), a.end(), less);
  std::sort(b.begin(), b.end(), less);
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (size_t c = 0; c < a[r].size(); ++c) {
      if (!ValuesMatch(a[r][c], b[r][c])) return false;
    }
  }
  return true;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace perfbench
