// net_loopback: the vote-encounter protocol over real TCP on 127.0.0.1.
//
// The node under test is a responder NodeService listening on an ephemeral
// port. A pool of 100 identities, each a VoteAgent with its own NodeService
// and one persistent connection to the responder, generates the load. All
// 101 services share one EventLoop on one thread: every byte still crosses
// the kernel's TCP stack, but no encounter waits for another process or
// thread to be woken. On a shared host such cross-process wake-ups, not the
// protocol, set both the wall-clock latency and the CPU cost per encounter
// (the number of frames one poll pass sees moves with the host's load), so
// with two processes neither figure was repeatable between runs.
//
// A closed loop keeps at most nproc encounters in flight; each slot draws an
// idle identity uniformly from the pool, which casts two votes and
// initiates a vote encounter (as tribvote_load does). The loop runs in
// batches of kBatch encounters, each drained before the host's speed is
// measured with a Yardstick. Time is read on the loop thread's CPU clock,
// which counts the work of both endpoints and leaves out time the host
// gives to others, and each batch's times are multiplied by the host speed
// measured after it; an encounter's latency runs from the initiate call to
// the poll pass that sees it complete. Unscaled and wall-clock figures are
// printed alongside.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "crypto/schnorr.hpp"
#include "net/event_loop.hpp"
#include "net/node_service.hpp"
#include "profile.hpp"
#include "report.hpp"
#include "util/rng.hpp"
#include "vote/agent.hpp"

namespace perfbench {
namespace {

using namespace tribvote;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kPool = 100;
constexpr PeerId kResponderId = 1000;
constexpr int kModerators = 24;
constexpr int kCastsPerEncounter = 2;
constexpr Time kRoundPeriod = 1000;
constexpr int kBindSamples = 9;
constexpr std::size_t kHelloBatch = 10;
constexpr double kEncounterTimeoutS = 5.0;
constexpr std::uint64_t kBatch = 1000;

double since_us(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

/// The node under test: a default VoteAgent (vote::VoteConfig{}, b_max 100,
/// so its box evicts as a deployed node's does) behind a listening
/// NodeService. It votes too: one cast per served encounter, applied before
/// anything of the encounter merges.
struct Responder {
  // Declared before svc, whose hooks use them until it is destroyed.
  util::Rng cast_rng;
  /// Engines outlive their connections, so a closed connection's counters
  /// stay readable by id.
  std::vector<int> closed_conn = std::vector<int>(kPool, -1);
  crypto::KeyPair keys;
  std::unique_ptr<vote::VoteAgent> agent;
  std::unique_ptr<net::NodeService> svc;
  /// Fastest of kBindSamples listener set-ups, times the host speed
  /// measured right after them.
  double bind_us = 0.0;

  Responder(net::EventLoop& loop, std::uint64_t seed, Yardstick& yardstick)
      : cast_rng(seed ^ 0x7e5) {
    util::Rng krng(seed ^ 0x5e5e);
    keys = crypto::generate_keypair(krng);
    agent = std::make_unique<vote::VoteAgent>(
        kResponderId, keys, vote::VoteConfig{}, [](PeerId) { return true; },
        util::Rng(seed * 7919 + 1));
    // A listener is set up and torn down kBindSamples times (the last one
    // stays), and the fastest counts.
    double bind_cpu_us = 1e300;
    for (int k = 0; k < kBindSamples; ++k) {
      svc.reset();
      const double c0 = thread_cpu_us();
      svc = std::make_unique<net::NodeService>(loop, kResponderId, keys,
                                               *agent, nullptr);
      if (!svc->listen(0, nullptr)) {
        svc.reset();
        return;
      }
      bind_cpu_us = std::min(bind_cpu_us, thread_cpu_us() - c0);
    }
    bind_us = bind_cpu_us * yardstick.speed();
    svc->set_encounter_begin_hook([this](std::uint8_t kind, Time now) {
      if (kind != net::kEncounterVote) return;
      const auto moderator =
          static_cast<ModeratorId>(1 + cast_rng.next_below(kModerators));
      agent->cast_vote(moderator,
                       cast_rng.next_bool(0.5) ? Opinion::kPositive
                                               : Opinion::kNegative,
                       now - 1);
    });
    svc->set_closed_hook([this](int conn, PeerId peer, net::CloseReason) {
      if (peer >= 1 && peer <= kPool) closed_conn[peer - 1] = conn;
    });
  }

  /// Whether a vote list of pool identity `peer` ever merged into the box:
  /// the box holds b_max = 100 entries of up to kPool * kModerators votes,
  /// so it evicts all the time, and a merge is what every served identity
  /// must have had.
  [[nodiscard]] bool merged_from(PeerId peer) const {
    int conn = svc->conn_for_peer(peer);
    if (conn < 0) conn = closed_conn[peer - 1];
    const net::ExchangeEngine::Counters* c =
        conn < 0 ? nullptr : svc->engine_counters(conn);
    return c != nullptr && c->votes_accepted > 0;
  }

  /// Voters in the box with no vote a pool identity could have cast (a
  /// voter outside the pool, or moderators outside 1..kModerators only).
  [[nodiscard]] std::size_t foreign_voters() const {
    const vote::BallotBox& box = agent->ballot_box();
    std::size_t pool_voters = 0;
    for (std::size_t i = 0; i < kPool; ++i) {
      for (int m = 1; m <= kModerators; ++m) {
        if (box.find(static_cast<PeerId>(i + 1),
                     static_cast<ModeratorId>(m))) {
          ++pool_voters;
          break;
        }
      }
    }
    return box.unique_voters() - pool_voters;
  }
};

/// One generator identity.
struct Identity {
  PeerId id = 0;
  crypto::KeyPair keys;
  std::unique_ptr<vote::VoteAgent> agent;
  std::unique_ptr<net::NodeService> svc;
  int conn = -1;
  std::uint64_t completed = 0;  ///< encounters completed on conn
  bool busy = false;
  bool dead = false;  ///< timed out or errored: never drawn again
};

struct Slot {
  std::size_t identity = 0;
  Clock::time_point started;
  double started_cpu_us = 0.0;
  bool active = false;
};

/// Accounting of one measured window.
struct Window {
  double seconds = 0.0;      ///< wall
  double cpu_us = 0.0;       ///< loop thread (both endpoints), unscaled
  std::vector<double> speed;  ///< host speed after each batch
  std::vector<double> batch_cost_us;  ///< scaled CPU per encounter, per batch
  std::uint64_t initiated = 0;
  std::uint64_t completed = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t errors = 0;  ///< initiate refused or connection lost
  /// Latencies on the CPU clock, times the host speed, and on the wall
  /// clock; histograms, so the benchmark's memory does not grow with the
  /// number of encounters (and move peak_rss_mb with the host's speed).
  LogHistogram latency_cpu_us;
  LogHistogram latency_wall_us;
  std::vector<double> batch_latency_cpu_us;  ///< the batch's, unscaled
  double initiate_us = 0.0;  ///< time inside casts + initiate_vote_encounter
  double wait_us = 0.0;      ///< time inside EventLoop::run_until
  net::NetStats stats;  ///< the pool's transport counters, window delta
  std::uint64_t open_digest = 0, open_full = 0;
  bool traced = false;
  Clock::time_point start;
  std::vector<SpanRecord> spans;  ///< traced windows only

  void span(const char* name, Clock::time_point a, Clock::time_point b) {
    if (!traced) return;
    spans.push_back(SpanRecord{name,
                               static_cast<std::int64_t>(since_us(start, a)),
                               static_cast<std::int64_t>(since_us(a, b)), 0});
  }
};

class Generator {
 public:
  Generator(net::EventLoop& loop, std::uint64_t seed, std::size_t concurrency)
      : loop_(loop),
        cast_rng_(seed ^ 0x10adbeefULL),
        draw_rng_(seed ^ 0xd4a3),
        slots_(concurrency) {
    util::Rng krng(seed);
    for (std::size_t i = 0; i < kPool; ++i) {
      auto ident = std::make_unique<Identity>();
      ident->id = static_cast<PeerId>(i + 1);
      ident->keys = crypto::generate_keypair(krng);
      ident->agent = std::make_unique<vote::VoteAgent>(
          ident->id, ident->keys, vote::VoteConfig{},
          [](PeerId) { return true; }, util::Rng(seed * 7919 + 11 + i));
      ident->svc = std::make_unique<net::NodeService>(
          loop_, ident->id, ident->keys, *ident->agent, nullptr);
      pool_.push_back(std::move(ident));
    }
  }

  /// Dial and handshake every identity, one at a time. Returns the HELLO
  /// times (connect call to handshake done, on the loop's CPU clock), or
  /// empty on failure; `speeds` gets the host speed after each kHelloBatch.
  std::vector<double> connect_all(std::uint16_t port, std::string* err,
                                  Yardstick& yardstick,
                                  std::vector<double>* speeds) {
    std::vector<double> hellos;
    for (auto& ident : pool_) {
      if (hellos.size() % kHelloBatch == 0 && !hellos.empty()) {
        speeds->push_back(yardstick.speed());
      }
      const double c0 = thread_cpu_us();
      ident->conn = ident->svc->connect("127.0.0.1", port, err);
      if (ident->conn < 0) return {};
      Identity* p = ident.get();
      if (!loop_.run_until([p] { return p->svc->ready(p->conn); }, 10000)) {
        *err = "HELLO timed out";
        return {};
      }
      hellos.push_back(thread_cpu_us() - c0);
    }
    speeds->push_back(yardstick.speed());
    return hellos;
  }

  /// Run the closed loop in batches until `seconds` of wall time have
  /// passed, draining each batch.
  Window run(double seconds, bool traced, Yardstick& yardstick) {
    Window w;
    w.traced = traced;
    const net::NetStats before = totals();
    const auto [digest0, full0] = opens();
    const auto t0 = Clock::now();
    w.start = t0;
    const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
    while (Clock::now() < end) {
      w.batch_latency_cpu_us.clear();
      const double cpu0 = thread_cpu_us();
      run_batch(w);
      const double cpu = thread_cpu_us() - cpu0;
      const double speed = yardstick.speed();
      const auto done = static_cast<double>(w.batch_latency_cpu_us.size());
      w.speed.push_back(speed);
      w.cpu_us += cpu;
      if (done > 0) w.batch_cost_us.push_back(cpu * speed / done);
      for (const double us : w.batch_latency_cpu_us) {
        w.latency_cpu_us.add(us * speed);
      }
    }
    w.seconds = since_us(t0, Clock::now()) * 1e-6;
    const net::NetStats after = totals();
    w.stats.frames_in = after.frames_in - before.frames_in;
    w.stats.frames_out = after.frames_out - before.frames_out;
    w.stats.bytes_in = after.bytes_in - before.bytes_in;
    w.stats.bytes_out = after.bytes_out - before.bytes_out;
    w.stats.checksum_rejects = after.checksum_rejects - before.checksum_rejects;
    w.stats.protocol_errors = after.protocol_errors - before.protocol_errors;
    w.stats.encounter_timeouts =
        after.encounter_timeouts - before.encounter_timeouts;
    const auto [digest1, full1] = opens();
    w.open_digest = digest1 - digest0;
    w.open_full = full1 - full0;
    return w;
  }

  /// Initiate kBatch encounters through the closed loop and drain them.
  void run_batch(Window& w) {
    std::uint64_t started = 0;
    while (true) {
      bool any_active = false;
      for (Slot& slot : slots_) {
        if (!slot.active && started < kBatch) {
          start(slot, w);
          ++started;
        }
        any_active = any_active || slot.active;
      }
      if (!any_active) return;
      const auto a = Clock::now();
      loop_.run_until([this] { return any_completed(); }, 50);
      const auto b = Clock::now();
      const double b_cpu = thread_cpu_us();
      w.wait_us += since_us(a, b);
      w.span("bench.net.wait", a, b);
      for (Slot& slot : slots_) {
        if (slot.active) finish_if_done(slot, w, b, b_cpu);
      }
    }
  }

  /// BYE both ways on every connection, then close.
  void shut_down(net::NodeService& responder) {
    for (auto& ident : pool_) {
      if (ident->conn >= 0 && ident->svc->open(ident->conn)) {
        ident->svc->send_bye(ident->conn);
      }
      const int back = responder.conn_for_peer(ident->id);
      if (back >= 0 && responder.open(back)) responder.send_bye(back);
    }
    loop_.run_until(
        [this] {
          return std::all_of(pool_.begin(), pool_.end(), [](const auto& p) {
            return p->conn < 0 || !p->svc->open(p->conn) ||
                   p->svc->bye_received(p->conn);
          });
        },
        5000);
    for (auto& ident : pool_) {
      if (ident->conn >= 0) ident->svc->close(ident->conn);
    }
  }

  [[nodiscard]] const std::vector<std::unique_ptr<Identity>>& pool() const {
    return pool_;
  }

  /// Protocol errors seen by the pool's engines (lifetime).
  [[nodiscard]] std::uint64_t engine_protocol_errors() const {
    std::uint64_t n = 0;
    for (const auto& p : pool_) n += p->svc->engine_totals().protocol_errors;
    return n;
  }

 private:
  void start(Slot& slot, Window& w) {
    const bool any_idle =
        std::any_of(pool_.begin(), pool_.end(),
                    [](const auto& p) { return !p->busy && !p->dead; });
    if (!any_idle) return;
    std::size_t pick = draw_rng_.next_below(pool_.size());
    while (pool_[pick]->busy || pool_[pick]->dead) {
      pick = draw_rng_.next_below(pool_.size());
    }
    Identity& ident = *pool_[pick];
    const auto a = Clock::now();
    const double a_cpu = thread_cpu_us();
    ++clock_;
    const Time now = kRoundPeriod * static_cast<Time>(clock_);
    for (int k = 0; k < kCastsPerEncounter; ++k) {
      ident.agent->cast_vote(
          static_cast<ModeratorId>(1 + cast_rng_.next_below(kModerators)),
          cast_rng_.next_bool(0.5) ? Opinion::kPositive : Opinion::kNegative,
          now - kRoundPeriod + k + 1);
    }
    ++w.initiated;
    const bool ok = ident.svc->initiate_vote_encounter(ident.conn, now);
    const auto b = Clock::now();
    w.initiate_us += since_us(a, b);
    w.span("bench.net.initiate", a, b);
    if (!ok) {
      ++w.errors;
      ident.dead = true;
      return;
    }
    ident.busy = true;
    slot = Slot{pick, a, a_cpu, true};
  }

  void finish_if_done(Slot& slot, Window& w, Clock::time_point now,
                      double now_cpu_us) {
    Identity& ident = *pool_[slot.identity];
    const net::ExchangeEngine::Counters* c =
        ident.svc->engine_counters(ident.conn);
    if (c != nullptr && c->encounters_completed > ident.completed &&
        ident.svc->initiator_idle(ident.conn)) {
      ident.completed = c->encounters_completed;
      ++w.completed;
      w.batch_latency_cpu_us.push_back(now_cpu_us - slot.started_cpu_us);
      w.latency_wall_us.add(since_us(slot.started, now));
      ident.busy = false;
      slot.active = false;
    } else if (c == nullptr || !ident.svc->open(ident.conn)) {
      ++w.errors;
      ident.dead = true;
      slot.active = false;
    } else if (since_us(slot.started, now) > kEncounterTimeoutS * 1e6) {
      ++w.timeouts;
      ident.dead = true;
      slot.active = false;
    }
  }

  [[nodiscard]] bool any_completed() const {
    for (const Slot& slot : slots_) {
      if (!slot.active) continue;
      const Identity& ident = *pool_[slot.identity];
      const net::ExchangeEngine::Counters* c =
          ident.svc->engine_counters(ident.conn);
      if (c == nullptr || c->encounters_completed > ident.completed ||
          !ident.svc->open(ident.conn)) {
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] net::NetStats totals() const {
    net::NetStats t;
    for (const auto& p : pool_) {
      const net::NetStats& s = p->svc->stats();
      t.frames_in += s.frames_in;
      t.frames_out += s.frames_out;
      t.bytes_in += s.bytes_in;
      t.bytes_out += s.bytes_out;
      t.checksum_rejects += s.checksum_rejects;
      t.protocol_errors += s.protocol_errors;
      t.encounter_timeouts += s.encounter_timeouts + s.hello_timeouts;
    }
    return t;
  }

  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> opens() const {
    std::uint64_t digest = 0, full = 0;
    for (const auto& p : pool_) {
      const net::ExchangeEngine::Counters c = p->svc->engine_totals();
      digest += c.open_digest;
      full += c.open_full;
    }
    return {digest, full};
  }

  net::EventLoop& loop_;
  std::vector<std::unique_ptr<Identity>> pool_;
  util::Rng cast_rng_;
  util::Rng draw_rng_;
  std::vector<Slot> slots_;
  std::uint64_t clock_ = 0;  ///< protocol time, in rounds, shared by the pool
};

}  // namespace

int run_net_workload(const RunOptions& options, Result& result) {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t concurrency =
      std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 8);
  // Built before anything else allocates, so that the resident memory its
  // map adds is measured alone.
  Yardstick yardstick;
  net::EventLoop loop;
  Responder responder(loop, options.seed, yardstick);
  if (!responder.svc) {
    std::fprintf(stderr, "net_loopback: the responder could not listen\n");
    return 1;
  }
  Generator gen(loop, options.seed, concurrency);
  std::string err;
  std::vector<double> hello_speeds;
  const std::vector<double> hellos = gen.connect_all(
      responder.svc->listen_port(), &err, yardstick, &hello_speeds);
  if (hellos.empty()) {
    std::fprintf(stderr, "net_loopback: %s\n", err.c_str());
    return 1;
  }
  // Warm-up: every identity's first exchange is a full one; the window
  // measures the steady digest/delta path.
  const Window warm = gen.run(0.5, false, yardstick);
  const net::NetStats& rst = responder.svc->stats();
  const Window w =
      gen.run(options.trace ? options.seconds / 2 : options.seconds, false,
              yardstick);
  Window traced;
  if (options.trace) traced = gen.run(options.seconds / 2, true, yardstick);
  gen.shut_down(*responder.svc);

  // ---- checks --------------------------------------------------------------
  const net::ExchangeEngine::Counters rtot = responder.svc->engine_totals();
  double checksum_rejects = static_cast<double>(rst.checksum_rejects);
  const Window* const windows[] = {&warm, &w, &traced};
  for (const Window* win : windows) {
    result.attempted += win->initiated;
    result.failed += win->timeouts + win->errors;
    checksum_rejects += static_cast<double>(win->stats.checksum_rejects);
  }
  if (result.failed > 0) {
    result.fail(std::to_string(result.failed) +
                " encounters timed out or errored");
  }
  // Each whole-run check below counts as one more attempted operation, and
  // as a failed one when it fails.
  const auto check = [&result](bool ok, const std::string& why) {
    ++result.attempted;
    if (ok) return;
    ++result.failed;
    result.fail(why);
  };
  const double protocol_errors =
      static_cast<double>(rst.protocol_errors + rtot.protocol_errors +
                          gen.engine_protocol_errors());
  check(protocol_errors == 0,
        "protocol errors: " + std::to_string(protocol_errors));
  check(checksum_rejects == 0,
        "checksum rejects: " + std::to_string(checksum_rejects));
  check(rst.malformed == 0, "malformed streams at the responder");
  check(responder.foreign_voters() == 0,
        "the responder's ballot box holds votes no pool identity cast");
  std::size_t missing = 0;
  for (const auto& ident : gen.pool()) {
    if (ident->completed > 0 && !responder.merged_from(ident->id)) ++missing;
  }
  check(missing == 0, std::to_string(missing) +
                          " identities completed an encounter but no vote "
                          "list of theirs merged into the responder's "
                          "ballot box");

  // ---- metrics -------------------------------------------------------------
  const double completed = static_cast<double>(w.completed);
  const auto per = [](double n, double d) { return d > 0 ? n / d : 0.0; };
  const Tail tail = highest_supported_tail(w.latency_wall_us);
  // Binding and the HELLO round trip are deterministic work, estimated like
  // the sims' set-up: by minima over batches of repeats, each times the
  // host speed measured right after it.
  std::vector<double> hello_minima = batch_minima(hellos, kHelloBatch);
  for (std::size_t i = 0; i < hello_minima.size(); ++i) {
    hello_minima[i] *= hello_speeds[i];
  }
  const double setup_s = (responder.bind_us + median(hello_minima)) * 1e-6;
  // The median batch, so a batch the yardstick misjudged moves nothing.
  const double rate = per(1e6, median(w.batch_cost_us));
  const double wire = per(
      static_cast<double>(w.stats.bytes_in + w.stats.bytes_out), completed);
  if (!options.trace) {
    result.add(result.metrics, "setup_s", setup_s, "s");
    result.add(result.metrics, "throughput_per_s", rate, "1/s");
    result.add(result.metrics, "latency_p50_us",
               w.latency_cpu_us.percentile(0.5), "us");
    result.add(result.metrics, "peak_rss_mb",
               peak_rss_mb() - yardstick.resident_mb(), "MB");
  }
  auto& d = result.details;
  result.add(d, "net_encounters_per_s", rate, "1/s");
  result.add(d, "net_enc_p50_us", w.latency_cpu_us.percentile(0.5), "us");
  result.add(d, "net_encounters_per_cpu_s", per(completed, w.cpu_us * 1e-6),
             "1/s");
  result.add(d, "net_encounters_per_wall_s", per(completed, w.seconds),
             "1/s");
  result.add(d, "host_speed", median(w.speed), "frac");
  result.add(d, "net_enc_wall_p50_us", w.latency_wall_us.percentile(0.5),
             "us");
  char tail_name[32];
  std::snprintf(tail_name, sizeof tail_name, "net_enc_wall_p%g_us",
                tail.quantile * 100);
  result.add(d, tail_name, tail.value, "us");
  result.add(d, "net_enc_samples", completed, "count");
  result.add(d, "wire_bytes_per_exchange", wire, "B");
  result.add(d, "concurrency", static_cast<double>(concurrency), "count");
  result.add(d, "responder_bind_us", responder.bind_us, "us");
  if (!options.trace) return 0;

  // Per-layer: the split and the CPU per encounter come from the untraced
  // window; spans from the traced one.
  const double traced_rate = per(1e6, median(traced.batch_cost_us));
  result.tracing_overhead = per(rate, traced_rate) - 1.0;
  auto& m = result.metrics;
  result.add(m, "vote.exchanges", completed, "count");
  result.add(m, "vote.accept_ratio",
             per(static_cast<double>(rtot.votes_accepted),
                 static_cast<double>(rtot.votes_accepted +
                                     rtot.votes_inexperienced)),
             "frac");
  const vote::BallotBox& box = responder.agent->ballot_box();
  result.add(m, "vote.ballot_fill",
             per(static_cast<double>(box.size()),
                 static_cast<double>(box.capacity())),
             "frac");
  result.add(m, "gossip.bytes_per_exchange", wire, "B");
  result.add(m, "net.hello_us", median(hellos), "us");
  result.add(m, "net.initiate_us", per(w.initiate_us, completed), "us");
  result.add(m, "net.wait_us", per(w.wait_us, completed), "us");
  result.add(m, "net.cpu_us_per_enc", per(w.cpu_us, completed), "us");
  result.add(m, "net.frames_per_enc",
             per(static_cast<double>(w.stats.frames_in + w.stats.frames_out),
                 completed),
             "count");
  result.add(m, "net.open_digest_frac",
             per(static_cast<double>(w.open_digest),
                 static_cast<double>(w.open_digest + w.open_full)),
             "frac");
  result.add(m, "net.timeouts",
             static_cast<double>(warm.timeouts + w.timeouts + traced.timeouts +
                                 rst.hello_timeouts + rst.encounter_timeouts),
             "count");
  result.add(m, "net.protocol_errors", protocol_errors, "count");
  result.add(m, "net.checksum_rejects", checksum_rejects, "count");
  result.add(m, "tracing.overhead_frac", result.tracing_overhead, "frac");

  for (const auto& [name, t] : fold_spans(traced.spans)) {
    result.profile.push_back({name, t});
  }
  result.profile_wall_us = traced.seconds * 1e6;
  return 0;
}

}  // namespace perfbench
