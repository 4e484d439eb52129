// What one benchmark invocation produces, and how it is printed: a block of
// named metrics with units for people, the per-layer profile table of a
// traced run, and as the last line one JSON object for machines.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "profile.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct ProfileRow {
  std::string name;
  SpanTotals totals;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check
  /// The metrics emitted in the JSON line: end-to-end ones for an untraced
  /// run, per-layer ones for a traced run (run.py orders them as
  /// BENCHMARK.json lists them and fills a layer not exercised with 0).
  std::vector<Metric> metrics;
  /// Workload-specific end-to-end figures printed by name for people (the
  /// JSON line carries their workload-independent counterparts).
  std::vector<Metric> details;
  std::vector<ProfileRow> profile;  ///< traced runs only
  double profile_wall_us = 0.0;     ///< wall time the profile shares refer to
  double tracing_overhead = 0.0;    ///< traced wall / untraced wall - 1

  void fail(std::string why) {
    failures.push_back(std::move(why));
  }
  void add(std::vector<Metric>& to, std::string name, double value,
           std::string unit) {
    to.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

/// Print the human-readable block, then the JSON line (last on stdout).
void print_result(const RunOptions& options, const Result& result);

/// Peak resident set size of this process, MB.
double peak_rss_mb();

/// CPU time the calling thread has used, microseconds. It counts only time
/// the thread ran: time the scheduler (or the hypervisor, where steal time
/// is accounted) gave to others is left out, so on a shared host it
/// measures the program's work more steadily than a wall clock.
double thread_cpu_us();

/// The host-speed yardstick: random lookups in a hash map of 400 000
/// entries (about 20 MB, past any core's private cache) that the benchmark
/// owns, timed on the calling thread's CPU clock. Its code never changes,
/// so its time moves only with the host: with the clock frequency, and
/// with how much of the shared caches and memory bandwidth other tenants
/// take, which on a shared host swings the same work's CPU time by 40 % and
/// more within minutes. A workload multiplies the CPU time of a stretch of
/// its work by the speed() measured right after it: the product, the time
/// the work would have taken at the nominal speed, holds still while the
/// raw time swings. Of the kernels tried (pointer chases over 8 and 32 MB,
/// independent random updates over 32 and 64 MB, an arithmetic loop, system
/// calls, a loopback TCP ping-pong, smaller maps), this one's slow-downs
/// tracked the simulator's most closely.
class Yardstick {
 public:
  /// Builds the map.
  Yardstick();

  /// Host speed now: a fixed nominal time for three runs of 20 000 random
  /// lookups, 4 000 µs (about their time on the recording host, 4 vCPUs of
  /// a shared Xeon host), over the time they take now. Below 1 on a slower
  /// or busier host.
  double speed();

  /// Megabytes of resident memory the map added when it was built;
  /// peak_rss_mb() includes them.
  [[nodiscard]] double resident_mb() const { return resident_mb_; }

 private:
  std::unordered_map<std::uint64_t, std::uint64_t> map_;
  double resident_mb_ = 0.0;
  std::uint64_t sink_ = 0;
};

int run_sim_workload(const RunOptions& options, Result& result);
int run_net_workload(const RunOptions& options, Result& result);

}  // namespace perfbench
