// Arithmetic of the end-to-end benchmark, kept free of any tribvote type so
// perfbench_selftest can check it on hand-built inputs:
//
//   * percentiles, batch minima, and the tail rule: report the highest of
//     p99.9 / p99 / p90 / p50 that still has at least ten samples beyond it;
//   * a log-bucketed histogram that reads percentiles to within 0.5 % in
//     constant memory, however many samples a run takes;
//   * the span profile: inclusive and self time per span name, where a
//     span's parent is the innermost span of the same thread whose interval
//     contains it, and self time is duration minus the children's cover;
//   * the metric-name grammar ([A-Za-z0-9_.-]+).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample. 0 if empty.
inline double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t index =
      rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

/// Median (mean of the middle two for an even count). 0 if empty.
inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/// Minimum of each consecutive batch of `batch` samples (a short last batch
/// included). For a deterministic operation timed repeatedly, host
/// interference only adds time, so a batch minimum estimates its cost.
inline std::vector<double> batch_minima(const std::vector<double>& samples,
                                        std::size_t batch) {
  std::vector<double> minima;
  for (std::size_t i = 0; i < samples.size(); i += batch) {
    const std::size_t end = std::min(i + batch, samples.size());
    minima.push_back(*std::min_element(
        samples.begin() + static_cast<std::ptrdiff_t>(i),
        samples.begin() + static_cast<std::ptrdiff_t>(end)));
  }
  return minima;
}

/// The quantile q supports a tail claim on n samples when at least ten
/// samples lie beyond it: n * (1 - q) >= 10.
inline bool tail_supported(std::size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9;
}

struct Tail {
  double quantile = 0.0;  ///< 0 when even the median is unsupported
  double value = 0.0;
};

/// The highest of p99.9, p99, p90 and p50 with >= 10 samples beyond it.
inline Tail highest_supported_tail(const std::vector<double>& samples) {
  for (const double q : {0.999, 0.99, 0.9, 0.5}) {
    if (tail_supported(samples.size(), q)) {
      return Tail{q, percentile(samples, q)};
    }
  }
  return Tail{};
}

/// Samples in logarithmic buckets, each 0.5 % wide, from 1 to about 10^7
/// (smaller samples count in the first bucket, larger in the last). A
/// percentile is interpolated, geometrically and by rank, inside the bucket
/// that holds the nearest-rank sample, so it is within 0.5 % of
/// percentile() on the samples themselves and does not snap to a bucket
/// edge. Its memory does not grow with the sample count, so it keeps the
/// benchmark's own allocations out of peak_rss_mb.
class LogHistogram {
 public:
  void add(double sample) {
    std::size_t bucket = 0;
    if (sample > 1.0) {
      bucket = std::min(
          kBuckets - 1,
          static_cast<std::size_t>(std::log(sample) / std::log(kWidth)));
    }
    ++counts_[bucket];
    ++count_;
  }

  [[nodiscard]] std::size_t count() const { return count_; }

  /// Nearest-rank percentile (q in [0, 1]), as percentile(). 0 if empty.
  [[nodiscard]] double percentile(double q) const {
    if (count_ == 0) return 0.0;
    const double rank = std::ceil(q * static_cast<double>(count_));
    const std::size_t want = rank <= 1.0 ? 1 : static_cast<std::size_t>(rank);
    std::size_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      if (seen + counts_[b] >= want) {
        // The want-th sample is the k-th of the bucket's n: place it at
        // (k - 0.5) / n of the bucket's width.
        const double k = static_cast<double>(want - seen);
        const double n = static_cast<double>(counts_[b]);
        return std::pow(kWidth, static_cast<double>(b) + (k - 0.5) / n);
      }
      seen += counts_[b];
    }
    return 0.0;  // unreachable: want <= count_
  }

 private:
  static constexpr double kWidth = 1.005;
  static constexpr std::size_t kBuckets = 3232;  // kWidth^3232 ~ 1e7
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets);
  std::size_t count_ = 0;
};

/// The highest of p99.9, p99, p90 and p50 with >= 10 samples beyond it.
inline Tail highest_supported_tail(const LogHistogram& h) {
  for (const double q : {0.999, 0.99, 0.9, 0.5}) {
    if (tail_supported(h.count(), q)) return Tail{q, h.percentile(q)};
  }
  return Tail{};
}

/// One closed span: [start_us, start_us + dur_us) on thread `tid`.
struct SpanRecord {
  std::string name;
  std::int64_t start_us = 0;
  std::int64_t dur_us = 0;
  std::uint32_t tid = 0;
};

struct SpanTotals {
  std::int64_t inclusive_us = 0;  ///< sum of durations
  std::int64_t self_us = 0;       ///< durations minus direct-child cover
  std::uint64_t count = 0;
  bool top_level = false;         ///< at least one instance had no parent
  std::int64_t top_level_us = 0;  ///< inclusive time of parentless instances
};

/// Fold spans into per-name totals. Spans nest by interval containment per
/// thread (the telemetry plane and the benchmark both record strictly
/// nested RAII spans); a span that starts where its parent ends is not its
/// child. Children of one parent do not overlap, so the parent's self time
/// is its duration minus the sum of its direct children's durations.
inline std::map<std::string, SpanTotals> fold_spans(
    std::vector<SpanRecord> spans) {
  // Parents sort before their children: earlier start first, and at equal
  // start the longer span first.
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              return a.dur_us > b.dur_us;
            });
  std::map<std::string, SpanTotals> totals;
  std::vector<std::int64_t> child_cover(spans.size(), 0);
  std::vector<std::size_t> open;  // stack of indices into spans
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    while (!open.empty()) {
      const SpanRecord& top = spans[open.back()];
      const std::int64_t top_end = top.start_us + top.dur_us;
      const bool contains = top.tid == s.tid && s.start_us < top_end &&
                            s.start_us + s.dur_us <= top_end;
      if (contains) break;
      open.pop_back();
    }
    SpanTotals& t = totals[s.name];
    t.inclusive_us += s.dur_us;
    ++t.count;
    if (open.empty()) {
      t.top_level = true;
      t.top_level_us += s.dur_us;
    } else {
      child_cover[open.back()] += s.dur_us;
    }
    open.push_back(i);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    totals[spans[i].name].self_us += spans[i].dur_us - child_cover[i];
  }
  return totals;
}

/// Metric names: one or more of [A-Za-z0-9_.-], at most 64, starting with a
/// letter or digit.
inline bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

}  // namespace perfbench
