#include "report.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>

namespace perfbench {
namespace {

/// JSON number: finite values with all their digits, anything else null.
std::string json_number(double v) {
  if (!(v == v) || v > 1e300 || v < -1e300) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_profile(const Result& r) {
  if (r.profile.empty()) return;
  std::printf(
      "\nprofile (traced pass, wall %.3f s, tracing overhead %+.1f %%)\n",
      r.profile_wall_us * 1e-6, 100.0 * r.tracing_overhead);
  std::printf("%-24s %12s %12s %10s %10s %8s %8s\n", "span", "incl_s",
              "self_s", "count", "us/op", "incl_%", "self_%");
  std::vector<ProfileRow> rows = r.profile;
  std::sort(rows.begin(), rows.end(),
            [](const ProfileRow& a, const ProfileRow& b) {
              return a.totals.inclusive_us > b.totals.inclusive_us;
            });
  for (const ProfileRow& row : rows) {
    const SpanTotals& t = row.totals;
    const double incl = static_cast<double>(t.inclusive_us);
    const double self = static_cast<double>(t.self_us);
    std::printf("%-24s %12.4f %12.4f %10llu %10.2f %8.2f %8.2f\n",
                row.name.c_str(), incl * 1e-6, self * 1e-6,
                static_cast<unsigned long long>(t.count),
                t.count > 0 ? incl / static_cast<double>(t.count) : 0.0,
                100.0 * incl / r.profile_wall_us,
                100.0 * self / r.profile_wall_us);
  }
}

}  // namespace

void print_result(const RunOptions& options, const Result& r) {
  std::printf("workload %s seed %llu trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0);
  for (const std::string& f : r.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("\n%-32s %20s  %s\n", "metric", "value", "unit");
  for (const auto* list : {&r.details, &r.metrics}) {
    for (const Metric& m : *list) {
      std::printf("%-32s %20.6f  %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  const double failed_frac =
      r.attempted > 0
          ? static_cast<double>(r.failed) / static_cast<double>(r.attempted)
          : 0.0;
  std::printf("%-32s %20.6f  %s\n", "failed_frac", failed_frac, "frac");
  print_profile(r);

  std::ostringstream json;
  json << "{\"correct\": " << (r.failures.empty() ? "true" : "false")
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    json << (i ? ", " : "") << json_string(m.name) << ": {\"value\": "
         << json_number(m.value) << ", \"unit\": " << json_string(m.unit)
         << "}";
  }
  json << "}}";
  std::printf("\n%s\n", json.str().c_str());
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

constexpr std::uint64_t kYardstickKeys = 400000;
constexpr std::uint64_t kSpread = 0x9e3779b97f4a7c15ULL;
constexpr double kYardstickNominalUs = 4000.0;

/// Bytes the allocator has handed out and not taken back, MB. (Not
/// ru_maxrss: a process started by fork and exec inherits its parent's
/// peak there, so its growth need not be this process's.)
double heap_in_use_mb() {
  const struct mallinfo2 m = mallinfo2();
  return static_cast<double>(m.uordblks + m.hblkhd) / (1024.0 * 1024.0);
}

}  // namespace

// Every node and bucket of the map is written while it is built, so the
// heap it takes is also resident.
Yardstick::Yardstick() {
  const double before = heap_in_use_mb();
  map_.reserve(kYardstickKeys);
  for (std::uint64_t i = 0; i < kYardstickKeys; ++i) map_[i * kSpread] = i;
  resident_mb_ = heap_in_use_mb() - before;
}

double Yardstick::speed() {
  const double cpu0 = thread_cpu_us();
  for (int run = 0; run < 3; ++run) {
    std::uint64_t key = 7, sum = 0;
    for (int i = 0; i < 20000; ++i) {
      key = key * 6364136223846793005ULL + 1;
      sum += map_.find((key % kYardstickKeys) * kSpread)->second;
    }
    sink_ += sum;
  }
  return kYardstickNominalUs / (thread_cpu_us() - cpu0);
}

double thread_cpu_us() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) * 1e-3;
}

}  // namespace perfbench
