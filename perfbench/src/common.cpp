#include "common.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "dataset/synthetic.h"

namespace perfbench {

cs2p::VideoSpec video() { return cs2p::VideoSpec{}; }

cs2p::MpcConfig mpc_config() {
  cs2p::MpcConfig config;
  config.robust = true;
  return config;
}

std::unique_ptr<World> build_world(const Args& args) {
  // The repo's standard world proportions (bench/common.h) at a smaller
  // session count, so that a run can set up several times.
  cs2p::SyntheticConfig config;
  config.num_isps = 6;
  config.num_provinces = 8;
  config.cities_per_province = 3;
  config.num_servers = 12;
  config.servers_per_province = 2;
  config.prefixes_per_isp_city = 2;
  config.num_sessions = kWorldSessions;
  config.days = 2;
  config.seed = args.world_seed;

  auto world = std::make_unique<World>();
  std::int64_t t = now_ns();
  cs2p::Dataset all = cs2p::generate_synthetic_dataset(config);
  auto [train, test] = all.split_by_day(1);
  world->train = std::move(train);
  world->test = std::move(test);
  world->generate_s = (now_ns() - t) * 1e-9;

  t = now_ns();
  world->registry = std::make_shared<cs2p::obs::MetricsRegistry>();
  cs2p::Cs2pConfig engine_config;
  engine_config.metrics = world->registry;
  world->engine = std::make_shared<cs2p::Cs2pEngine>(world->train, engine_config);
  world->engine_build_s = (now_ns() - t) * 1e-9;

  t = now_ns();
  world->clusters_warmed = world->engine->warm_up();
  world->warm_up_s = (now_ns() - t) * 1e-9;
  world->model = std::make_shared<cs2p::Cs2pPredictorModel>(world->engine);
  return world;
}

std::vector<const cs2p::Session*> playable(const cs2p::Dataset& test,
                                           double scale) {
  std::vector<const cs2p::Session*> out;
  for (const auto& s : test.sessions())
    if (s.throughput_mbps.size() >= video().num_chunks &&
        s.average_throughput() * scale >= 0.45)
      out.push_back(&s);
  return out;
}

std::vector<const cs2p::Session*> session_list(const cs2p::Dataset& test,
                                               std::uint64_t order_seed) {
  std::vector<const cs2p::Session*> out = playable(test);
  if (out.size() > 144) out.resize(144);
  seeded_shuffle(out, order_seed);
  return out;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// -- Clocks and counters -----------------------------------------------------

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t process_cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto us = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000 + tv.tv_usec;
  };
  return (us(ru.ru_utime) + us(ru.ru_stime)) * 1000;
}

long ctx_switches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_nvcsw + ru.ru_nivcsw;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

long this_tid() { return static_cast<long>(syscall(SYS_gettid)); }

std::int64_t task_cpu_ns(const std::vector<long>& exclude) {
  std::int64_t total = 0;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  while (const dirent* entry = readdir(dir)) {
    const long tid = std::strtol(entry->d_name, nullptr, 10);
    if (tid <= 0 ||
        std::find(exclude.begin(), exclude.end(), tid) != exclude.end())
      continue;
    std::ifstream in(std::string("/proc/self/task/") + entry->d_name +
                     "/schedstat");
    long long on_cpu = 0;
    if (in >> on_cpu) total += on_cpu;
  }
  closedir(dir);
  return total;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) out.push_back(c);
  return out;
}

void pin_this_thread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k =
      std::min(v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// -- Span log ----------------------------------------------------------------

namespace {

std::vector<std::string>& interned_names() {
  static std::vector<std::string> names;
  return names;
}

/// Span names are string literals; each thread caches their ids by
/// address, so the shared table's lock is taken once per name and thread.
std::uint32_t name_id(const char* name) {
  thread_local std::vector<std::pair<const char*, std::uint32_t>> cache;
  for (const auto& [literal, id] : cache)
    if (literal == name) return id;
  static std::mutex mutex;
  std::scoped_lock lock(mutex);
  auto& names = interned_names();
  auto it = std::find(names.begin(), names.end(), name);
  if (it == names.end()) it = names.insert(names.end(), name);
  const auto id = static_cast<std::uint32_t>(it - names.begin());
  cache.emplace_back(name, id);
  return id;
}

}  // namespace

const std::vector<std::string>& SpanLog::names() { return interned_names(); }

std::uint32_t SpanLog::open(const char* name, std::uint64_t op) {
  Span s;
  s.op = op;
  s.parent = stack_.empty() ? 0 : stack_.back() + 1;
  s.name = name_id(name);
  s.start = now_ns();
  spans_.push_back(s);
  const auto handle = static_cast<std::uint32_t>(spans_.size() - 1);
  stack_.push_back(handle);
  return handle;
}

void SpanLog::close(std::uint32_t handle) {
  spans_[handle].end = now_ns();
  if (!stack_.empty() && stack_.back() == handle) stack_.pop_back();
}

std::uint32_t SpanLog::add(const char* name, std::uint64_t op, std::int64_t start,
                           std::int64_t end, std::uint32_t parent) {
  if (!enabled_) return 0;
  Span s;
  s.op = op;
  s.parent = parent;
  s.name = name_id(name);
  s.start = start;
  s.end = end;
  spans_.push_back(s);
  return static_cast<std::uint32_t>(spans_.size());
}

void SpanLog::append(const SpanLog& other) {
  const auto base = static_cast<std::uint32_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent != 0) s.parent += base;
    spans_.push_back(s);
  }
}

std::map<std::string, LayerTimes> layer_times(const SpanLog& log) {
  const auto& spans = log.spans();
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& s : spans)
    if (s.parent != 0) child_ns[s.parent - 1] += static_cast<double>(s.end - s.start);
  std::map<std::string, LayerTimes> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double d = static_cast<double>(spans[i].end - spans[i].start);
    LayerTimes& t = out[SpanLog::names()[spans[i].name]];
    ++t.count;
    t.total_ns += d;
    t.self_ns += d - child_ns[i];
    t.durations_ns.push_back(d);
  }
  return out;
}

void write_spans(const SpanLog& log, const std::string& path) {
  std::ofstream out(path);
  out << "op\tspan\tparent\tname\tstart_ns\tend_ns\n";
  const auto& spans = log.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << s.op << '\t' << i + 1 << '\t' << s.parent << '\t'
        << SpanLog::names()[s.name] << '\t' << s.start << '\t' << s.end << '\n';
  }
}

// -- Server counters ---------------------------------------------------------

std::map<std::string, double> parse_exposition(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.rfind(' ');
    if (space == std::string::npos) continue;
    std::string key = line.substr(0, space);
    if (key.size() > 2 && key.compare(key.size() - 2, 2, "{}") == 0)
      key.resize(key.size() - 2);
    out[key] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

ServerCounters ServerCounters::from(const std::map<std::string, double>& stats) {
  const auto get = [&stats](const std::string& key) {
    const auto it = stats.find(key);
    return it == stats.end() ? 0.0 : it->second;
  };
  ServerCounters c;
  c.loop_iterations = get("cs2p_server_loop_iterations_total");
  c.batched_predicts = get("cs2p_server_batched_predicts_total");
  c.observe = get("cs2p_server_verb_requests_total{verb=\"observe\"}");
  c.predict = get("cs2p_server_verb_requests_total{verb=\"predict\"}");
  c.batch_sum = get("cs2p_server_batch_size_sum");
  c.batch_count = get("cs2p_server_batch_size_count");
  c.errors = get("cs2p_server_error_replies_total");
  return c;
}

ServerCounters ServerCounters::operator-(const ServerCounters& o) const {
  ServerCounters d;
  d.loop_iterations = loop_iterations - o.loop_iterations;
  d.batched_predicts = batched_predicts - o.batched_predicts;
  d.observe = observe - o.observe;
  d.predict = predict - o.predict;
  d.batch_sum = batch_sum - o.batch_sum;
  d.batch_count = batch_count - o.batch_count;
  d.errors = errors - o.errors;
  return d;
}

PhaseCounters PhaseCounters::sample(const std::vector<long>& client_tids) {
  PhaseCounters c;
  c.wall_ns = now_ns();
  c.cpu_ns = process_cpu_ns();
  c.server_cpu_ns = task_cpu_ns(client_tids);
  c.switches = ctx_switches();
  return c;
}

PhaseCounters PhaseCounters::operator-(const PhaseCounters& o) const {
  PhaseCounters d;
  d.wall_ns = wall_ns - o.wall_ns;
  d.cpu_ns = cpu_ns - o.cpu_ns;
  d.server_cpu_ns = server_cpu_ns - o.server_cpu_ns;
  d.switches = switches - o.switches;
  return d;
}

// -- Result ------------------------------------------------------------------

void Result::set(const std::string& name, double value, const std::string& unit) {
  values_[name] = {std::isfinite(value) ? value : 0.0, unit};
}

void Result::note(const std::string& name, double value, const std::string& unit) {
  notes_[name] = {value, unit};
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      std::string model = line.substr(colon + 2);
      std::replace(model.begin(), model.end(), '"', '\'');
      return model;
    }
  return "unknown";
}

}  // namespace

void Result::print(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const {
  std::printf("# host: cpu=\"%s\" nproc=%u build_type=%s native_arch=OFF\n",
              cpu_model().c_str(), std::thread::hardware_concurrency(),
              PERFBENCH_BUILD_TYPE);
  for (const auto& [name, value] : notes_)
    std::printf("# layer %s = %.17g %s\n", name.c_str(), value.first,
                value.second.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, value] : values_) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), value.first,
                value.second.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double ops_per_s(std::uint64_t ops, std::int64_t wall_ns) {
  return static_cast<double>(ops) / (static_cast<double>(wall_ns) * 1e-9);
}

void EndToEnd::report(Result& r) const {
  const double seconds = static_cast<double>(wall_ns) * 1e-9;
  std::printf("# ops=%llu seconds=%.3f p99_us=%.1f p999_us=%.1f max_us=%.1f\n",
              static_cast<unsigned long long>(ops), seconds,
              percentile(latencies_us, 0.99), percentile(latencies_us, 0.999),
              percentile(latencies_us, 1.0));
  r.set("setup_s", setup_s, "s");
  r.set("peak_rss_mb", peak_rss_mib(), "MiB");
  r.set("ops_per_s", ops_per_s(ops, wall_ns), "1/s");
  r.set("op_p50_us", percentile(latencies_us, 0.5), "us");
  // A tail needs at least ten samples beyond it: below 40 ops the p90 is
  // no tail, so the median stands in (the metric stays defined).
  r.set("op_p90_us",
        latencies_us.size() >= 40 ? percentile(latencies_us, 0.9)
                                  : percentile(latencies_us, 0.5),
        "us");
  r.set("cpu_us_per_op", static_cast<double>(cpu_ns) * 1e-3 / static_cast<double>(ops),
        "us");
  r.set("pred_err_median", pred_err_median, "ratio");
  r.set("nqoe_median", nqoe_median, "ratio");
}

double session_error(const std::vector<double>& forecasts,
                     const std::vector<double>& actual) {
  std::vector<double> errors;
  for (std::size_t k = 1; k < forecasts.size() && k < actual.size(); ++k)
    errors.push_back(std::abs(forecasts[k] - actual[k]) / actual[k]);
  return median(errors);
}

SetupTimes SetupTimes::of(const World& world, double total_s) {
  SetupTimes t;
  t.total_s = total_s;
  t.generate_s = world.generate_s;
  t.engine_build_s = world.engine_build_s;
  t.warm_up_s = world.warm_up_s;
  t.clusters = static_cast<double>(world.clusters_warmed);
  return t;
}

double median_setup_s(const std::vector<SetupTimes>& reps) {
  std::vector<double> v;
  for (const auto& t : reps) v.push_back(t.total_s);
  return median(v);
}

void report_setup_split(Result& r, const std::vector<SetupTimes>& reps) {
  std::vector<double> gen, build, warm, per_cluster;
  for (const auto& t : reps) {
    gen.push_back(t.generate_s);
    build.push_back(t.engine_build_s);
    warm.push_back(t.warm_up_s);
    per_cluster.push_back(t.warm_up_s * 1e3 / std::max(1.0, t.clusters));
  }
  r.set("dataset.generate_s", median(gen), "s");
  r.set("core.engine_build_s", median(build), "s");
  r.set("core.warm_up_s", median(warm), "s");
  r.set("core.warm_up_ms_per_cluster", median(per_cluster), "ms");
}

}  // namespace perfbench
