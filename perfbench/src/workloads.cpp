// Timed workloads: each batch runs one harness through its public entry
// point in both protection modes and checks what it returns.

#include <array>
#include <string>

#include "bench.h"
#include "core/harbor.h"
#include "fleet/sim.h"
#include "inject/campaign.h"
#include "soak/soak.h"

namespace perfbench {

namespace {

using harbor::ProtectionMode;

harbor::inject::CampaignConfig inject_config(ProtectionMode mode, std::uint64_t seed,
                                             int count) {
  harbor::inject::CampaignConfig cfg;
  cfg.mode = mode;
  cfg.seed = seed;
  cfg.count = count;
  return cfg;
}

/// Golden value each mode's campaign must report, indexed like kModes.
using GoldenValues = std::array<std::uint16_t, 2>;

Batch inject_batch(const Sizes& sizes, std::uint64_t seed, const GoldenValues& golden) {
  Batch b;
  for (std::size_t k = 0; k < 2; ++k) {
    const ProtectionMode mode = kModes[k];
    const std::string m = mode_name(mode);
    const harbor::inject::CampaignReport rep =
        harbor::inject::run_campaign(inject_config(mode, seed, sizes.inject_mutants));
    int total = 0;
    for (int o = 0; o < harbor::inject::kOutcomeCount; ++o) {
      total += rep.counts[o];
      b.facts.emplace_back(
          m + "." + std::string(harbor::inject::outcome_name(
                        static_cast<harbor::inject::Outcome>(o))),
          static_cast<std::uint64_t>(rep.counts[o]));
    }
    b.facts.emplace_back(m + ".golden_value", rep.golden_value);
    if (total != sizes.inject_mutants ||
        rep.mutants.size() != static_cast<std::size_t>(sizes.inject_mutants))
      b.errors.push_back("inject " + m + ": outcome counts sum to " + std::to_string(total) +
                         ", expected " + std::to_string(sizes.inject_mutants));
    if (rep.golden_value != golden[k])
      b.errors.push_back("inject " + m + ": golden value " + std::to_string(rep.golden_value) +
                         ", the clean run returns " + std::to_string(golden[k]));
    b.ops += sizes.inject_mutants;
    b.attempted += static_cast<std::uint64_t>(sizes.inject_mutants);
    b.escapes += static_cast<std::uint64_t>(rep.escapes());
  }
  return b;
}

void inject_setup() {
  // The explicit-plan entry point with an empty plan runs exactly the
  // campaign preparation: probe and golden testbeds, rewrite, oracle.
  for (const ProtectionMode mode : kModes)
    (void)harbor::inject::run_campaign(inject_config(mode, 1, 0), {});
}

Batch soak_batch(const Sizes& sizes, std::uint64_t seed) {
  Batch b;
  std::uint64_t guest_cycles = 0;
  for (const ProtectionMode mode : kModes) {
    const std::string m = mode_name(mode);
    const harbor::soak::SoakReport rep = harbor::soak::run_soak(soak_config(sizes, seed, mode));
    for (const harbor::soak::EpochRecord& rec : rep.records) {
      if (!rec.checkpoint) continue;
      for (const harbor::soak::MonitorResult& mon : rec.monitors) {
        if (mon.ok) continue;
        ++b.failed;
        break;
      }
    }
    if (!rep.ok) b.errors.push_back("soak " + m + ": " + rep.failure);
    b.ops += rep.sim_hours;
    b.attempted += static_cast<std::uint64_t>(rep.checkpoints);
    guest_cycles += rep.executed_cycles;
    b.facts.emplace_back(m + ".executed_cycles", rep.executed_cycles);
    b.facts.emplace_back(m + ".skipped_cycles", rep.skipped_cycles);
    b.facts.emplace_back(m + ".checkpoints", static_cast<std::uint64_t>(rep.checkpoints));
  }
  b.facts.emplace_back("guest_cycles", guest_cycles);
  return b;
}

void soak_setup() {
  for (const ProtectionMode mode : kModes) {
    harbor::System sys({mode});
    harbor::trace::TracerOptions topts;
    topts.ring_capacity = harbor::soak::SoakConfig{}.ring_capacity;
    sys.enable_tracing(topts);
    (void)load_soak_residents(sys);
  }
}

Batch fleet_batch(const Sizes& sizes, std::uint64_t seed) {
  Batch b;
  for (const ProtectionMode mode : kModes) {
    const std::string m = mode_name(mode);
    harbor::fleet::FleetSim sim(fleet_config(sizes, seed, mode));
    const harbor::fleet::FleetResult res = sim.run();
    if (res.monitors.size() != 6)
      b.errors.push_back("fleet " + m + ": " + std::to_string(res.monitors.size()) +
                         " monitors ran, expected 6");
    for (const harbor::fleet::FleetMonitorResult& mon : res.monitors)
      if (!mon.ok) b.errors.push_back("fleet " + m + ": monitor " + mon.name + ": " + mon.detail);
    for (std::uint32_t i = 0; i < sizes.fleet_nodes; ++i) {
      const harbor::fleet::Node& n = sim.node(i);
      if (n.version() != res.newest_version || n.stats().dispatch_failures > 0) ++b.failed;
    }
    b.ops += static_cast<double>(res.events_processed);
    b.attempted += sizes.fleet_nodes;
    b.facts.emplace_back(m + ".digest", res.digest);
    b.facts.emplace_back(m + ".events", res.events_processed);
    b.facts.emplace_back(m + ".end_tick", res.end_tick);
  }
  return b;
}

void fleet_setup(const Sizes& sizes) {
  for (const ProtectionMode mode : kModes)
    harbor::fleet::FleetSim sim(fleet_config(sizes, 1, mode));
}

}  // namespace

Sizes sizes_for(bool quick) {
  if (quick) return {400, 24.0, 128};
  return {5000, 168.0, 2048};
}

harbor::soak::SoakConfig soak_config(const Sizes& sizes, std::uint64_t seed,
                                     harbor::ProtectionMode mode) {
  harbor::soak::SoakConfig cfg;
  cfg.mode = mode;
  cfg.hours = sizes.soak_hours;
  cfg.seed = seed;
  cfg.scenario = harbor::soak::SoakScenario::Aging;
  return cfg;
}

harbor::fleet::FleetConfig fleet_config(const Sizes& sizes, std::uint64_t seed,
                                        harbor::ProtectionMode mode) {
  harbor::fleet::FleetConfig cfg;
  cfg.nodes = sizes.fleet_nodes;
  cfg.loss = 0.2;
  cfg.churn = 0.1;
  cfg.partition = true;
  cfg.cut_prob = 0.2;
  cfg.mode = mode;
  cfg.master_seed = seed;
  return cfg;
}

std::vector<Workload> make_workloads(const Sizes& sizes) {
  const GoldenValues golden{inject_golden_value(kModes[0]), inject_golden_value(kModes[1])};
  std::vector<Workload> w;
  w.push_back({"inject", "trials", "trials_per_s",
               std::to_string(sizes.inject_mutants) + " mutants per mode", 20, inject_setup,
               [sizes, golden](std::uint64_t seed) { return inject_batch(sizes, seed, golden); },
               [sizes](std::uint64_t seed, const Batch& u, TracedRun& out) {
                 trace_inject(sizes, seed, u, out);
               }});
  w.push_back({"soak", "sim hours", "sim_hours_per_s",
               std::to_string(static_cast<int>(sizes.soak_hours)) +
                   " sim hours per mode, aging scenario",
               20, soak_setup,
               [sizes](std::uint64_t seed) { return soak_batch(sizes, seed); },
               [sizes](std::uint64_t seed, const Batch& u, TracedRun& out) {
                 trace_soak(sizes, seed, u, out);
               }});
  w.push_back({"fleet", "events", "events_per_s",
               std::to_string(sizes.fleet_nodes) +
                   " nodes per mode, loss 0.2, churn 0.1, partition, cut-prob 0.2",
               1, [sizes] { fleet_setup(sizes); },
               [sizes](std::uint64_t seed) { return fleet_batch(sizes, seed); },
               [sizes](std::uint64_t seed, const Batch& u, TracedRun& out) {
                 trace_fleet(sizes, seed, u, out);
               }});
  return w;
}

}  // namespace perfbench
