// perfbench_selftest — checks the benchmark's own arithmetic on hand-built
// inputs: the tail-percentile rule, batch minima, inclusive and self time
// on a span tree, and the metric-name grammar (the driver applies it to
// every name it reports).
// Exits non-zero if any check fails; run.py runs it after each build.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "profile.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> one_to(int n) {
  std::vector<double> xs;
  for (int i = n; i >= 1; --i) xs.push_back(i);  // unsorted on purpose
  return xs;
}

void test_tail_rule() {
  using perfbench::highest_supported_tail;
  // 10 000 samples: p99.9 has exactly ten beyond it.
  auto t = highest_supported_tail(one_to(10000));
  expect(near(t.quantile, 0.999) && near(t.value, 9990),
         "n=10000 reports p99.9 = 9990 with ten samples beyond");
  // One fewer: p99.9 would have 9.999 beyond, so p99 is the highest.
  t = highest_supported_tail(one_to(9999));
  expect(near(t.quantile, 0.99), "n=9999 falls back to p99");
  t = highest_supported_tail(one_to(1000));
  expect(near(t.quantile, 0.99) && near(t.value, 990),
         "n=1000 reports p99 = 990");
  t = highest_supported_tail(one_to(999));
  expect(near(t.quantile, 0.9), "n=999 falls back to p90");
  t = highest_supported_tail(one_to(20));
  expect(near(t.quantile, 0.5) && near(t.value, 10), "n=20 reports p50 = 10");
  t = highest_supported_tail(one_to(19));
  expect(near(t.quantile, 0.0), "n=19 supports no tail at all");
  expect(near(perfbench::percentile({}, 0.5), 0.0),
         "percentile of nothing is 0");
  expect(near(perfbench::median({3, 1, 2, 10}), 2.5),
         "median of an even sample");
  expect(near(perfbench::median({5, 1, 3}), 3), "median of an odd sample");
  expect(perfbench::batch_minima({4, 2, 9, 7, 8, 3, 5}, 3) ==
             std::vector<double>({2, 3, 5}),
         "batch minima of 3 + 3 + 1 samples");
}

void test_histogram() {
  perfbench::LogHistogram h;
  expect(near(h.percentile(0.5), 0.0), "histogram percentile of nothing is 0");
  for (const double x : one_to(10000)) h.add(x);
  bool close = true;
  for (const double q : {0.001, 0.1, 0.5, 0.9, 0.99, 0.999}) {
    const double exact = perfbench::percentile(one_to(10000), q);
    close = close && std::fabs(h.percentile(q) / exact - 1.0) <= 0.005;
  }
  expect(close, "histogram percentiles lie within 0.5 % of the exact ones");
  expect(h.percentile(0.5) != h.percentile(0.5001),
         "neighbouring ranks in one bucket read apart");
  const auto t = perfbench::highest_supported_tail(h);
  expect(near(t.quantile, 0.999) && std::fabs(t.value / 9990 - 1) <= 0.005,
         "histogram of n=10000 reports p99.9 near 9990");
  h.add(0.2);
  h.add(1e9);
  expect(h.count() == 10002, "out-of-range samples still count");
}

void test_span_tree() {
  using perfbench::SpanRecord;
  // a [0,100) holds b [10,40) which holds c [15,20), and d [50,90).
  // e [100,110) starts where a ends: a sibling, not a child. Thread 1's
  // f [20,30) overlaps a in time but belongs to another thread.
  // Two spans named x, one nested in d.
  const std::vector<SpanRecord> spans = {
      {"e", 100, 10, 0}, {"c", 15, 5, 0},  {"a", 0, 100, 0}, {"d", 50, 40, 0},
      {"b", 10, 30, 0},  {"f", 20, 10, 1}, {"x", 60, 4, 0},  {"x", 200, 6, 0},
  };
  const auto totals = perfbench::fold_spans(spans);
  const auto check = [&](const char* name, std::int64_t incl, std::int64_t self,
                         std::uint64_t count, bool top) {
    const auto& t = totals.at(name);
    expect(t.inclusive_us == incl && t.self_us == self && t.count == count &&
               t.top_level == top,
           std::string("span ") + name + ": inclusive " + std::to_string(incl) +
               ", self " + std::to_string(self));
  };
  check("a", 100, 30, 1, true);
  check("b", 30, 25, 1, false);
  check("c", 5, 5, 1, false);
  check("d", 40, 36, 1, false);
  check("e", 10, 10, 1, true);
  check("f", 10, 10, 1, true);
  check("x", 10, 10, 2, true);
  expect(totals.at("x").top_level_us == 6,
         "only the parentless x counts as top-level time");
  expect(totals.at("a").top_level_us == 100, "top-level time of a");
}

void test_metric_names() {
  using perfbench::valid_metric_name;
  for (const char* good : {"bt.round_s", "net.enc-p99.9_us", "9lives", "A"}) {
    expect(valid_metric_name(good), std::string("valid name ") + good);
  }
  for (const char* bad :
       {"", "_x", ".x", "-x", "a b", "a/b", "a:b", "caf\xc3\xa9"}) {
    expect(!valid_metric_name(bad), std::string("invalid name '") + bad + "'");
  }
  expect(valid_metric_name(std::string(64, 'a')),
         "64 characters is the longest name");
  expect(!valid_metric_name(std::string(65, 'a')), "65 characters is too long");
}

}  // namespace

int main() {
  test_tail_rule();
  test_histogram();
  test_span_tree();
  test_metric_names();
  std::printf("%s: %d failed\n",
              failures == 0 ? "selftest passed" : "selftest FAILED", failures);
  return failures == 0 ? 0 : 1;
}
