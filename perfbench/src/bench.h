#pragma once
// perfbench: the campaign benchmark over the inject, soak and fleet
// harnesses. Shared pieces of the driver (main.cpp), the timed workloads
// (workloads.cpp) and the traced replays (replay.cpp).

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fleet/sim.h"
#include "soak/soak.h"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of `v` (the mean of the middle two for an even count).
double median(std::vector<double> v);

/// Every batch runs both protection modes, in this order.
inline constexpr harbor::ProtectionMode kModes[] = {harbor::ProtectionMode::Umpu,
                                                     harbor::ProtectionMode::Sfi};
inline std::string mode_name(harbor::ProtectionMode m) {
  return m == harbor::ProtectionMode::Sfi ? "sfi" : "umpu";
}

/// Fixed workload sizes: the full benchmark, or the short self-test run.
struct Sizes {
  int inject_mutants = 0;        ///< mutants per protection mode
  double soak_hours = 0;         ///< simulated hours per protection mode
  std::uint32_t fleet_nodes = 0; ///< nodes per protection mode
};
Sizes sizes_for(bool quick);

/// Named deterministic outputs of one batch (outcome counts, cycle counts,
/// digests). Two batches of one seed must produce identical facts.
using Facts = std::vector<std::pair<std::string, std::uint64_t>>;

/// One closed-loop batch of a workload: both protection modes, fixed size.
struct Batch {
  double ops = 0;               ///< trials, simulated hours or events
  std::uint64_t attempted = 0;  ///< trials, checkpoints or nodes
  std::uint64_t failed = 0;     ///< errors, failed checkpoints, unconverged nodes
  std::uint64_t escapes = 0;    ///< inject: oracle escapes (a finding, not an error)
  Facts facts;
  std::vector<std::string> errors;  ///< broken output checks
};

/// Ordered (name, value, unit) list with lookup by name.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
class MetricList {
 public:
  void add(std::string name, double value, std::string unit) {
    items_.push_back({std::move(name), value, std::move(unit)});
  }
  /// The named metric; throws std::out_of_range for a name never added.
  double& at(std::string_view name);
  [[nodiscard]] const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// In-memory span recorder. Spans nest by call order (a span opened while
/// another is open is its child); self time is a span's duration minus its
/// direct children's.
class SpanLog {
 public:
  struct Span {
    const char* name;
    const char* layer;
    std::int64_t start = 0;
    std::int64_t end = 0;
    int parent = -1;
  };

  class Scope {
   public:
    Scope(SpanLog& log, const char* name, const char* layer)
        : log_(log), id_(log.open(name, layer)) {}
    ~Scope() { log_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int id_;
  };

  int open(const char* name, const char* layer);
  void close(int id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::int64_t total_ns(std::string_view name) const;
  [[nodiscard]] std::uint64_t calls(std::string_view name) const;
  /// Self time summed per layer, in first-seen layer order.
  [[nodiscard]] std::vector<std::pair<std::string, std::int64_t>> self_ns_by_layer() const;
  /// Chrome trace-event JSON (one complete event per span).
  [[nodiscard]] std::string chrome_json() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Per-layer results of a traced run.
struct TracedRun {
  MetricList layers;                 ///< every per-layer metric, zero when not reached
  SpanLog spans;
  Facts facts;                       ///< the replay's deterministic outputs
  std::int64_t replay_ns = 0;        ///< wall time of the traced replay itself
  std::vector<std::string> errors;   ///< fidelity and output-check failures
};

/// The per-layer metric schema, initialised to zero (names and units match
/// BENCHMARK.json's per_layer list).
MetricList per_layer_schema();

struct Workload {
  std::string name;
  std::string op_name;    ///< what Batch::ops counts
  std::string rate_name;  ///< the workload's own name for ops_per_s
  std::string size;       ///< human-readable fixed batch size
  int setup_reps = 1;  ///< set-up samples per round
  /// One construction of everything the workload builds before its first
  /// trial, epoch or event, in both modes.
  std::function<void()> setup;
  std::function<Batch(std::uint64_t seed)> batch;
  /// Replay one batch through the layers' public functions under spans and
  /// fill the per-layer metrics; `untraced` is the same seed's public-entry
  /// batch, for the fidelity checks.
  std::function<void(std::uint64_t seed, const Batch& untraced, TracedRun& out)> traced;
};

std::vector<Workload> make_workloads(const Sizes& sizes);

// Workload configurations (workloads.cpp), shared by the timed batches and
// the traced replays.
harbor::soak::SoakConfig soak_config(const Sizes& sizes, std::uint64_t seed,
                                     harbor::ProtectionMode mode);
harbor::fleet::FleetConfig fleet_config(const Sizes& sizes, std::uint64_t seed,
                                        harbor::ProtectionMode mode);

// Beside the scenario replicas (replay.cpp): the return value of the
// inject subject's clean run, computed independently of run_campaign, and
// the soak's resident module cast.
std::uint16_t inject_golden_value(harbor::ProtectionMode mode);
struct SoakResidents {
  harbor::memmap::DomainId victim = 0;
  harbor::memmap::DomainId tree = 0;
  harbor::memmap::DomainId surge = 0;
};
/// Load the soak's resident modules as run_soak does; each load is a
/// `sos.load` span when `spans` is given.
SoakResidents load_soak_residents(harbor::System& sys, SpanLog* spans = nullptr);

// Traced replays (replay.cpp).
void trace_inject(const Sizes& sizes, std::uint64_t seed, const Batch& untraced,
                  TracedRun& out);
void trace_soak(const Sizes& sizes, std::uint64_t seed, const Batch& untraced,
                TracedRun& out);
void trace_fleet(const Sizes& sizes, std::uint64_t seed, const Batch& untraced,
                 TracedRun& out);

/// Value of a named fact, or 0 when absent.
std::uint64_t fact(const Facts& facts, std::string_view name);

}  // namespace perfbench
