// Shared pieces of the benchmark harness: the seeded world and session list,
// clocks and CPU counters, the span log of traced runs, the STATS scrape
// parser, and the result line.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "abr/mpc.h"
#include "core/engine.h"
#include "dataset/dataset.h"
#include "obs/metrics.h"
#include "sim/player.h"

namespace perfbench {

// -- Arguments and inputs ----------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;          ///< session-order seed
  double seconds = 10.0;           ///< measured phase, whole rounds
  bool trace = false;              ///< per-layer mode
  std::uint64_t world_seed = 2016; ///< the synthetic world (fixed inputs)
  std::string spans_dir = ".bench_build/spans";
  std::int64_t process_start_ns = 0;
};

/// Sessions in the synthetic world (two days), and the setups per run whose
/// median is setup_s.
inline constexpr std::size_t kWorldSessions = 1000;
inline constexpr int kSetupReps = 3;

/// The player every workload models: the §7.1 video (44 chunks of 6 s) and
/// RobustMPC with horizon 5.
cs2p::VideoSpec video();
cs2p::MpcConfig mpc_config();

/// One seeded world, trained and warmed. Timings feed the setup split.
struct World {
  cs2p::Dataset train;
  cs2p::Dataset test;
  std::shared_ptr<cs2p::Cs2pEngine> engine;
  std::shared_ptr<cs2p::Cs2pPredictorModel> model;
  std::shared_ptr<cs2p::obs::MetricsRegistry> registry;
  double generate_s = 0, engine_build_s = 0, warm_up_s = 0;
  std::size_t clusters_warmed = 0;
};
std::unique_ptr<World> build_world(const Args& args);

/// Test-day sessions a player can stream end to end: at least one trace
/// epoch per chunk and a mean throughput above the lowest rung (the filter
/// of the repo's ABR evaluation). Fixed by the world seed.
std::vector<const cs2p::Session*> playable(const cs2p::Dataset& test,
                                           double scale = 1.0);

/// The fixed session list of serve_mux: the first 144 playable
/// test-day sessions (fixed by the world seed), in an order drawn from the
/// session-order seed.
std::vector<const cs2p::Session*> session_list(const cs2p::Dataset& test,
                                               std::uint64_t order_seed);

/// Fisher-Yates with splitmix64: the same seed gives the same order.
std::uint64_t splitmix64(std::uint64_t& state);
template <typename T>
void seeded_shuffle(std::vector<T>& v, std::uint64_t seed) {
  std::uint64_t state = seed;
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[splitmix64(state) % i]);
}

// -- Clocks and counters -----------------------------------------------------

std::int64_t now_ns();
std::int64_t thread_cpu_ns();
std::int64_t process_cpu_ns();
long ctx_switches();
double peak_rss_mib();
long this_tid();
/// CPU time (ns) of every thread of this process except `exclude` tids,
/// from /proc/self/task/*/schedstat.
std::int64_t task_cpu_ns(const std::vector<long>& exclude);

/// CPUs this process may run on, and a pin of the calling thread to some
/// of them (threads it creates afterwards inherit the pin).
std::vector<int> allowed_cpus();
void pin_this_thread(const std::vector<int>& cpus);

double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

// -- Span log (traced runs) --------------------------------------------------

struct Span {
  std::uint64_t op = 0;      ///< shared by every span of one op; 0 = none
  std::uint32_t parent = 0;  ///< index + 1 into the same log; 0 = root
  std::uint32_t name = 0;
  std::int64_t start = 0, end = 0;
};

/// One thread's spans, in memory until the run ends. Disabled logs cost a
/// branch per boundary.
class SpanLog {
 public:
  /// Enabled logs reserve room up front so that growing the log rarely
  /// lands inside a span.
  explicit SpanLog(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 18);
  }
  bool enabled() const noexcept { return enabled_; }
  /// Opens a span under the innermost open one; returns its handle.
  std::uint32_t open(const char* name, std::uint64_t op);
  void close(std::uint32_t handle);
  /// Records a finished span under `parent` (a handle from add, 0 = root);
  /// returns its handle.
  std::uint32_t add(const char* name, std::uint64_t op, std::int64_t start,
                    std::int64_t end, std::uint32_t parent);
  void append(const SpanLog& other);
  const std::vector<Span>& spans() const noexcept { return spans_; }
  static const std::vector<std::string>& names();

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// Per-name totals over a log: count, total and self time (duration minus
/// the part its children cover), and every duration for percentiles.
struct LayerTimes {
  std::size_t count = 0;
  double total_ns = 0, self_ns = 0;
  std::vector<double> durations_ns;
};
std::map<std::string, LayerTimes> layer_times(const SpanLog& log);

/// Writes the log as TSV (op, span, parent, name, start_ns, end_ns).
void write_spans(const SpanLog& log, const std::string& path);

/// Times a scope into a log (no-op when the log is disabled).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t op)
      : log_(log && log->enabled() ? log : nullptr),
        handle_(log_ ? log_->open(name, op) : 0) {}
  ~ScopedSpan() {
    if (log_) log_->close(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::uint32_t handle_;
};

// -- Server counters ---------------------------------------------------------

/// Parses a STATS exposition into "name{labels}" -> value ("{}" dropped).
std::map<std::string, double> parse_exposition(const std::string& text);

/// Deltas of the server counters the per-layer metrics use.
struct ServerCounters {
  double loop_iterations = 0, batched_predicts = 0;
  double observe = 0, predict = 0, batch_sum = 0, batch_count = 0;
  double errors = 0;
  static ServerCounters from(const std::map<std::string, double>& stats);
  ServerCounters operator-(const ServerCounters& o) const;
};

/// Process-wide counters sampled around a measured phase.
struct PhaseCounters {
  std::int64_t wall_ns = 0, cpu_ns = 0, server_cpu_ns = 0;
  long switches = 0;
  static PhaseCounters sample(const std::vector<long>& client_tids);
  PhaseCounters operator-(const PhaseCounters& o) const;
};

// -- Result ------------------------------------------------------------------

class Result {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// A per-layer figure of a layer only this workload runs: printed on a
  /// '#' line before the result, not among the metrics every workload has.
  void note(const std::string& name, double value, const std::string& unit);
  /// Prints the host line, the notes, and the final JSON line.
  void print(bool correct, std::uint64_t attempted, std::uint64_t failed) const;

 private:
  using Values = std::map<std::string, std::pair<double, std::string>>;
  Values values_, notes_;
};

/// Op latencies of a measured phase in a fixed reservoir, allocated and
/// touched up front: the harness's own memory then does not grow with
/// throughput, so peak_rss_mb moves only with the program's. Percentiles
/// come from the reservoir (every op while it has room, a uniform sample of
/// them after).
class LatencySample {
 public:
  explicit LatencySample(std::size_t capacity = std::size_t{1} << 20)
      : values_(capacity, 0.0) {}
  void add(double us) {
    if (seen_ < values_.size()) {
      values_[seen_] = us;
    } else {
      const std::uint64_t j = splitmix64(state_) % (seen_ + 1);
      if (j < values_.size()) values_[j] = us;
    }
    ++seen_;
  }
  std::uint64_t count() const noexcept { return seen_; }
  std::vector<double> values() const {
    return {values_.begin(),
            values_.begin() + static_cast<std::ptrdiff_t>(std::min<std::uint64_t>(seen_, values_.size()))};
  }

 private:
  std::vector<double> values_;
  std::uint64_t seen_ = 0;
  std::uint64_t state_ = 0x5eed;
};

/// Ops completed per second of a measured phase.
double ops_per_s(std::uint64_t ops, std::int64_t wall_ns);

/// The end-to-end metrics every workload reports, from one measured phase.
struct EndToEnd {
  double setup_s = 0;
  std::uint64_t ops = 0;
  std::int64_t wall_ns = 0, cpu_ns = 0;
  std::vector<double> latencies_us;
  double pred_err_median = 0, nqoe_median = 0;
  void report(Result& r) const;
};

/// One session's median absolute normalized one-step error over chunks
/// 1..n-1 (forecast[k] is the forecast made after observing chunk k-1).
double session_error(const std::vector<double>& forecasts,
                     const std::vector<double>& actual);

/// One setup's timings; setup_s and the setup split are medians over reps.
struct SetupTimes {
  double total_s = 0, generate_s = 0, engine_build_s = 0, warm_up_s = 0;
  double clusters = 0;
  static SetupTimes of(const World& world, double total_s);
};
double median_setup_s(const std::vector<SetupTimes>& reps);
void report_setup_split(Result& r, const std::vector<SetupTimes>& reps);

}  // namespace perfbench
