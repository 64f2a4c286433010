// harbor_perfbench: campaign benchmark over the inject, soak and fleet
// harnesses.
//
//   harbor_perfbench --workload inject|soak|fleet [--seed N] [--seconds S]
//                    [--trace 0|1] [--quick] [--spans-out FILE] [--commit SHA]
//
// --trace 0 times closed-loop batches of the workload through its public
// entry point until --seconds have passed and reports the end-to-end
// metrics (medians over batches). --trace 1 runs one untimed batch, then
// replays it through the layers' public functions under spans and reports
// the per-layer metrics. Either way the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; a broken output check
// prints it with "correct": false and exits 1. --quick selects the short
// self-test sizes. Exit 2 on usage errors.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

double& MetricList::at(std::string_view name) {
  for (Metric& m : items_)
    if (m.name == name) return m.value;
  throw std::out_of_range("unknown metric " + std::string(name));
}

int SpanLog::open(const char* name, const char* layer) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, layer, now_ns(), 0, stack_.empty() ? -1 : stack_.back()});
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  spans_[static_cast<std::size_t>(id)].end = now_ns();
  stack_.pop_back();
}

std::int64_t SpanLog::total_ns(std::string_view name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_)
    if (name == s.name) ns += s.end - s.start;
  return ns;
}

std::uint64_t SpanLog::calls(std::string_view name) const {
  return static_cast<std::uint64_t>(std::count_if(
      spans_.begin(), spans_.end(), [&](const Span& s) { return name == s.name; }));
}

std::vector<std::pair<std::string, std::int64_t>> SpanLog::self_ns_by_layer() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[i] += s.end - s.start;
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
  }
  std::vector<std::pair<std::string, std::int64_t>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto it = std::find_if(out.begin(), out.end(),
                           [&](const auto& p) { return p.first == spans_[i].layer; });
    if (it == out.end()) it = out.insert(out.end(), {spans_[i].layer, 0});
    it->second += self[i];
  }
  return out;
}

std::string SpanLog::chrome_json() const {
  std::string out = "{\"traceEvents\":[";
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start;
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                  i ? "," : "", s.name, s.layer, static_cast<double>(s.start - origin) / 1e3,
                  static_cast<double>(s.end - s.start) / 1e3, i, s.parent);
    out += buf;
  }
  out += "]}\n";
  return out;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::uint64_t fact(const Facts& facts, std::string_view name) {
  for (const auto& [n, v] : facts)
    if (n == name) return v;
  return 0;
}

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30;
  int trace = 0;
  bool quick = false;
  std::string spans_out;
  std::string commit = "unknown";
};

constexpr int kMinBatches = 3;

int usage() {
  std::fprintf(stderr,
               "usage: harbor_perfbench --workload inject|soak|fleet [--seed N] [--seconds S]\n"
               "                        [--trace 0|1] [--quick] [--spans-out FILE]\n"
               "                        [--commit SHA]\n");
  return 2;
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--quick") {
      o.quick = true;
      continue;
    }
    if (!v) return false;
    ++i;
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (*end) return false;
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (*end || !(o.seconds > 0)) return false;
    } else if (arg == "--trace") {
      const std::string t = v;
      if (t != "0" && t != "1") return false;
      o.trace = t == "1";
    } else if (arg == "--spans-out") {
      o.spans_out = v;
    } else if (arg == "--commit") {
      o.commit = v;
    } else {
      return false;
    }
  }
  return !o.workload.empty();
}

/// Peak resident set of this process image, from VmHWM (kB). Unlike
/// getrusage's ru_maxrss it restarts at exec, so a parent's footprint never
/// shows up here.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

/// Shortest round-trip decimal form of `v` (0 for a non-finite value).
std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const MetricList& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.items()) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + num(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_metric(const Metric& m) {
  std::printf("metric %-26s %s %s\n", m.name.c_str(), num(m.value).c_str(), m.unit.c_str());
}

bool report_errors(const std::vector<std::string>& errors) {
  for (const std::string& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  return errors.empty();
}

int run_timed(const Workload& w, const Options& o) {
  // Set-up samples are taken in rounds, one before the warm-up and one
  // after every timed batch, so that their median spans the whole run.
  std::vector<double> setup_s;
  const auto setup_round = [&] {
    for (int r = 0; r < w.setup_reps; ++r) {
      const std::int64_t t0 = now_ns();
      w.setup();
      setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
  };
  setup_round();

  // One warm-up batch: untimed, but checked, and the reference every timed
  // batch's deterministic outputs must reproduce.
  const Batch warm = w.batch(o.seed);
  std::vector<std::string> errors = warm.errors;

  std::vector<double> walls, rates;
  std::uint64_t attempted = 0, failed = 0, escapes = 0;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
  while (walls.size() < kMinBatches || now_ns() < deadline) {
    const std::int64_t t0 = now_ns();
    const Batch b = w.batch(o.seed);
    const double wall = static_cast<double>(now_ns() - t0) / 1e9;
    walls.push_back(wall);
    rates.push_back(b.ops / wall);
    attempted += b.attempted;
    failed += b.failed;
    escapes += b.escapes;
    errors.insert(errors.end(), b.errors.begin(), b.errors.end());
    if (b.facts != warm.facts)
      errors.push_back("batch " + std::to_string(walls.size()) +
                       " outputs differ from the warm-up batch of the same seed");
    setup_round();
  }

  MetricList m;
  m.add("wall_s", median(walls), "s");
  m.add("setup_s", median(setup_s), "s");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  m.add("ops_per_s", median(rates), "1/s");

  std::printf("batches %zu timed (+1 warm-up), %zu setup samples, median over each\n",
              walls.size(), setup_s.size());
  std::sort(walls.begin(), walls.end());
  std::printf("batch wall_s min %s median %s max %s\n", num(walls.front()).c_str(),
              num(m.at("wall_s")).c_str(), num(walls.back()).c_str());
  for (const Metric& x : m.items()) print_metric(x);
  std::printf("metric %-26s %s 1/s (ops_per_s: %s per host second)\n", w.rate_name.c_str(),
              num(m.at("ops_per_s")).c_str(), w.op_name.c_str());
  std::printf("metric %-26s %s ratio (%llu of %llu)\n", "failed_frac",
              num(attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0)
                  .c_str(),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  if (w.name == "inject")
    std::printf("metric %-26s %s ratio (%llu escapes of %llu trials)\n", "escape_frac",
                num(static_cast<double>(escapes) / static_cast<double>(attempted)).c_str(),
                static_cast<unsigned long long>(escapes),
                static_cast<unsigned long long>(attempted));
  for (const auto& [name, value] : warm.facts)
    std::printf("fact %s = %llu\n", name.c_str(), static_cast<unsigned long long>(value));

  const bool ok = report_errors(errors);
  print_result(ok, attempted, failed, m);
  return ok ? 0 : 1;
}

int run_traced(const Workload& w, const Options& o) {
  const std::int64_t t0 = now_ns();
  const Batch untraced = w.batch(o.seed);
  const std::int64_t untraced_ns = now_ns() - t0;

  TracedRun tr;
  tr.layers = per_layer_schema();
  w.traced(o.seed, untraced, tr);

  std::int64_t self_total = 0, root_total = 0;
  for (const auto& [layer, ns] : tr.spans.self_ns_by_layer()) {
    tr.layers.at(layer + ".self_ns") = static_cast<double>(ns);
    self_total += ns;
  }
  for (const SpanLog::Span& s : tr.spans.spans())
    if (s.parent < 0) root_total += s.end - s.start;
  if (self_total != root_total)
    tr.errors.push_back("layer self times sum to " + std::to_string(self_total) +
                        " ns, spans cover " + std::to_string(root_total) + " ns");
  tr.layers.at("bench.trace_overhead_ns") = static_cast<double>(tr.replay_ns - untraced_ns);

  if (!o.spans_out.empty()) {
    std::ofstream f(o.spans_out);
    f << tr.spans.chrome_json();
    if (!f) tr.errors.push_back("cannot write " + o.spans_out);
    std::printf("spans %zu written to %s\n", tr.spans.spans().size(), o.spans_out.c_str());
  }

  std::printf("traced replay %.6f s, untraced batch %.6f s\n",
              static_cast<double>(tr.replay_ns) / 1e9, static_cast<double>(untraced_ns) / 1e9);
  for (const Metric& x : tr.layers.items()) print_metric(x);
  std::map<std::string, std::uint64_t> replay(tr.facts.begin(), tr.facts.end());
  for (const auto& [name, value] : untraced.facts) {
    const auto it = replay.find(name);
    std::printf("fact %s = %llu (replay: %s)\n", name.c_str(),
                static_cast<unsigned long long>(value),
                it == replay.end() ? "-" : std::to_string(it->second).c_str());
  }

  std::vector<std::string> errors = untraced.errors;
  errors.insert(errors.end(), tr.errors.begin(), tr.errors.end());
  const bool ok = report_errors(errors);
  print_result(ok, untraced.attempted, untraced.failed, tr.layers);
  return ok ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  if (!parse(argc, argv, o)) return usage();
  const Sizes sizes = sizes_for(o.quick);
  const std::vector<Workload> workloads = make_workloads(sizes);
  const auto w = std::find_if(workloads.begin(), workloads.end(),
                              [&](const Workload& x) { return x.name == o.workload; });
  if (w == workloads.end()) {
    std::fprintf(stderr, "harbor_perfbench: unknown workload '%s' (inject, soak, fleet)\n",
                 o.workload.c_str());
    return usage();
  }

  std::printf("provenance workload=%s seed=%llu seconds=%s trace=%d size=\"%s\" "
              "build_type=%s compiler=\"%s\" commit=%s\n",
              w->name.c_str(), static_cast<unsigned long long>(o.seed), num(o.seconds).c_str(),
              o.trace, w->size.c_str(), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, o.commit.c_str());
  std::fflush(stdout);
  try {
    return o.trace ? run_traced(*w, o) : run_timed(*w, o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "harbor_perfbench: %s\n", e.what());
    return 1;
  }
}
