// Traced replays: each workload's batch re-driven through the layers'
// public functions, with a span around every call into a layer.
//
// The inject and soak replays repeat the steps of src/inject/campaign.cpp
// and src/soak/soak.cpp call for call, so their deterministic outputs must
// equal the public entry points' for the same seed; main.cpp prints both
// side by side and the inject outcome counts are checked for equality.

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "asm/builder.h"
#include "avr/ports.h"
#include "bench.h"
#include "core/prng.h"
#include "inject/campaign.h"
#include "inject/mutation.h"
#include "inject/oracle.h"
#include "ota/image.h"
#include "runtime/testbed.h"
#include "sfi/rewriter.h"
#include "sfi/verifier.h"
#include "sos/modules.h"
#include "trace/export.h"
#include "trace/tracer.h"

namespace perfbench {

namespace {

using harbor::ProtectionMode;
using harbor::runtime::CallResult;
using harbor::runtime::Testbed;
namespace avr = harbor::avr;
namespace asmb = harbor::assembler;
namespace inj = harbor::inject;
namespace sos = harbor::sos;
namespace ota = harbor::ota;
namespace soak = harbor::soak;

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Guest work retired inside `avr.exec`-style spans.
struct Exec {
  std::uint64_t instrs = 0;
  std::uint64_t cycles = 0;
};

/// Run one guest call under a span, adding its retired instructions and
/// cycles to `ex`.
template <class Fn>
auto guest_call(SpanLog& log, const char* name, const char* layer, avr::Cpu& cpu, Exec& ex,
                Fn&& fn) {
  const std::uint64_t i0 = cpu.instruction_count();
  const std::uint64_t c0 = cpu.cycle_count();
  SpanLog::Scope span(log, name, layer);
  auto r = fn();
  ex.instrs += cpu.instruction_count() - i0;
  ex.cycles += cpu.cycle_count() - c0;
  return r;
}

/// Run `fn` under a span and return its result.
template <class Fn>
auto spanned(SpanLog& log, const char* name, const char* layer, Fn&& fn) {
  SpanLog::Scope span(log, name, layer);
  return fn();
}

struct UmpuTally {
  std::uint64_t mmc_checks = 0;
  std::uint64_t mmc_stall_cycles = 0;
  std::uint64_t cross_calls = 0;
  std::uint64_t jump_checks = 0;

  void add(const harbor::umpu::Fabric* f) {
    if (!f) return;
    mmc_checks += f->stats().mmc_checks;
    mmc_stall_cycles += f->stats().mmc_stall_cycles;
    cross_calls += f->stats().cross_calls;
    jump_checks += f->stats().jump_checks;
  }
  void report(MetricList& m) const {
    m.at("umpu.mmc_checks") = static_cast<double>(mmc_checks);
    m.at("umpu.mmc_stall_cycles") = static_cast<double>(mmc_stall_cycles);
    m.at("umpu.cross_calls") = static_cast<double>(cross_calls);
    m.at("umpu.jump_checks") = static_cast<double>(jump_checks);
  }
};

/// Median host ns of one runtime::build_runtime call, as a Testbed makes it.
double build_runtime_ns(ProtectionMode mode) {
  harbor::runtime::Options o;
  o.mode = mode;
  o.app_entry = o.layout.module_base;
  std::vector<double> ns;
  for (int i = 0; i < 15; ++i) {
    const std::int64_t t0 = now_ns();
    const harbor::runtime::Runtime rt = harbor::runtime::build_runtime(o);
    ns.push_back(static_cast<double>(now_ns() - t0));
    if (rt.program.words.empty()) throw std::runtime_error("build_runtime produced no code");
  }
  return median(ns);
}

/// Host ns per retired instruction of a guest run, with and without a
/// trace::Tracer attached; their difference is the tracer's hook cost.
struct HookAB {
  double plain_ns = 0, traced_ns = 0;
  std::uint64_t plain_instrs = 0, traced_instrs = 0;

  [[nodiscard]] double ns_per_instr() const {
    return ratio(traced_ns, static_cast<double>(traced_instrs)) -
           ratio(plain_ns, static_cast<double>(plain_instrs));
  }
};

// ---------------------------------------------------------------------------
// inject: the trial loop of src/inject/campaign.cpp

constexpr std::uint16_t kBufBytes = 24;
constexpr harbor::memmap::DomainId kVictimDomain = 1;
constexpr harbor::memmap::DomainId kSubjectDomain = 2;
constexpr std::uint16_t kStackWindow = 64;

asmb::Program subject_program(std::uint16_t victim_addr, std::uint16_t buf_addr,
                              std::uint32_t jt_nop) {
  using namespace asmb;
  Assembler a(0);
  a.movw(r26, r24);
  a.ldi(r18, kBufBytes);
  a.ldi(r19, 0xA5);
  const Label fill = a.bind_here("fill");
  a.st_x_inc(r19);
  a.inc(r19);
  a.dec(r18);
  a.brne(fill);
  a.sts(buf_addr, r19);
  a.ldi16(r28, victim_addr);
  a.ldi(r20, 8);
  a.clr(r21);
  const Label sum = a.bind_here("sum");
  a.mark("victim_ld");
  a.ld_y_inc(r22);
  a.add(r21, r22);
  a.dec(r20);
  a.brne(sum);
  a.call_abs(jt_nop);
  a.mov(r24, r21);
  a.clr(r25);
  a.ret();
  return a.assemble();
}

struct Addrs {
  std::uint16_t victim = 0;
  std::uint16_t buf = 0;
};

Addrs scenario_setup(Testbed& tb) {
  const CallResult v = tb.malloc(kBufBytes, harbor::memmap::kTrustedDomain, kVictimDomain);
  const CallResult b = tb.malloc(kBufBytes, harbor::memmap::kTrustedDomain, kSubjectDomain);
  if (v.faulted || b.faulted || v.value == 0 || b.value == 0)
    throw std::runtime_error("inject replay: scenario allocation failed");
  auto& data = tb.device().data();
  for (std::uint16_t i = 0; i < kBufBytes; ++i)
    data.set_sram_raw(static_cast<std::uint16_t>(v.value + i),
                      static_cast<std::uint8_t>(0x5A + i));
  return {v.value, b.value};
}

/// Flips one SRAM bit after N retired instructions, forwarding every hook.
class SramFlipHook final : public avr::CpuHooks {
 public:
  SramFlipHook(avr::DataSpace& data, avr::CpuHooks* inner, const inj::Mutation& m)
      : data_(data), inner_(inner), addr_(m.sram_addr), bit_(m.bit), left_(m.trigger_instr) {}

  avr::FaultKind on_fetch(std::uint32_t pc) override {
    if (left_ > 0 && --left_ == 0)
      data_.set_sram_raw(addr_,
                         static_cast<std::uint8_t>(data_.sram_raw(addr_) ^ (1u << bit_)));
    return inner_ ? inner_->on_fetch(pc) : avr::FaultKind::None;
  }
  avr::WriteDecision on_write(std::uint16_t addr, std::uint8_t value,
                              avr::WriteKind kind) override {
    return inner_ ? inner_->on_write(addr, value, kind) : avr::WriteDecision{};
  }
  avr::ReadDecision on_read(std::uint16_t addr, avr::ReadKind kind) override {
    return inner_ ? inner_->on_read(addr, kind) : avr::ReadDecision{};
  }
  avr::FlowDecision on_flow(avr::FlowKind kind, std::uint32_t target,
                            std::uint32_t ret_addr) override {
    return inner_ ? inner_->on_flow(kind, target, ret_addr) : avr::FlowDecision{};
  }
  avr::FaultKind on_spm(std::uint32_t z) override {
    return inner_ ? inner_->on_spm(z) : avr::FaultKind::None;
  }
  void on_fault(const avr::FaultInfo& info) override {
    if (inner_) inner_->on_fault(info);
  }
  void on_retire(std::uint32_t pc, int cycles) override {
    if (inner_) inner_->on_retire(pc, cycles);
  }

 private:
  avr::DataSpace& data_;
  avr::CpuHooks* inner_;
  std::uint16_t addr_;
  std::uint8_t bit_;
  std::uint64_t left_;
};

/// What the trial loop of one mode shares (campaign.cpp's Prepared).
struct InjectPrepared {
  inj::CampaignConfig cfg;
  asmb::Program clean;
  std::uint32_t entry = 0;
  std::vector<std::uint32_t> entries_abs;
  harbor::sfi::StubTable stubs{};
  harbor::sfi::ElisionPolicy policy{};
  harbor::sfi::ProofManifest manifest{};
  Addrs addrs;
  std::optional<inj::Oracle> oracle;
  std::uint64_t golden_instrs = 0;
  std::uint16_t golden_value = 0;
  std::uint64_t boots = 0;
};

struct InjectTally {
  Exec exec;
  UmpuTally umpu;
  std::array<std::uint64_t, inj::kOutcomeCount> counts{};
  std::uint64_t hung_cycles = 0;
  std::uint64_t verify_rejects = 0;
  std::uint64_t events_accepted = 0;
  std::uint64_t events_dropped = 0;
};

Testbed& boot(SpanLog& log, std::optional<Testbed>& tb, ProtectionMode mode,
              InjectPrepared& P) {
  SpanLog::Scope span(log, "runtime.boot", "runtime");
  tb.emplace(mode);
  ++P.boots;
  return *tb;
}

InjectPrepared inject_prepare(ProtectionMode mode, std::uint64_t seed, int count,
                              SpanLog& log, InjectTally& t) {
  InjectPrepared P;
  P.cfg.mode = mode;
  P.cfg.seed = seed;
  P.cfg.count = count;

  std::optional<Testbed> probe_tb;
  Testbed& probe = boot(log, probe_tb, mode, P);
  P.addrs = scenario_setup(probe);
  const harbor::runtime::Layout& L = probe.layout();
  const asmb::Program raw =
      subject_program(P.addrs.victim, P.addrs.buf,
                      L.jt_entry(harbor::memmap::kTrustedDomain, Testbed::kNopSlot));
  if (mode == ProtectionMode::Sfi) {
    P.stubs = harbor::sfi::StubTable::from_runtime(probe.runtime());
    if (P.cfg.elide) {
      P.policy.enable = true;
      P.policy.safe_regions.push_back(
          {P.addrs.buf, static_cast<std::uint16_t>(P.addrs.buf + kBufBytes - 1)});
      P.policy.forbidden_entries = {
          L.jt_entry(harbor::memmap::kTrustedDomain, harbor::runtime::kernel_slots::kFree),
          L.jt_entry(harbor::memmap::kTrustedDomain,
                     harbor::runtime::kernel_slots::kChangeOwn)};
      P.policy.computed_calls_screened = true;
    }
    harbor::sfi::RewriteInput in;
    in.words = raw.words;
    in.entries = {0};
    const harbor::sfi::RewriteResult res = spanned(log, "sfi.rewrite", "sfi", [&] {
      return harbor::sfi::rewrite(in, P.stubs, probe.module_area(), P.policy);
    });
    P.manifest = res.manifest;
    P.clean = res.program;
    P.entry = res.map_offset(0);
  } else {
    P.clean.origin = probe.module_area();
    P.clean.words = raw.words;
    P.entry = P.clean.origin;
  }
  P.entries_abs = {P.entry};
  t.umpu.add(probe.fabric());

  std::optional<Testbed> golden_tb;
  Testbed& golden = boot(log, golden_tb, mode, P);
  golden.set_cycle_budget(P.cfg.cycle_budget);
  const Addrs ga = scenario_setup(golden);
  if (ga.victim != P.addrs.victim || ga.buf != P.addrs.buf)
    throw std::runtime_error("inject replay: scenario addresses are not deterministic");
  golden.load_module_image(P.clean, kSubjectDomain);
  Exec golden_exec;
  const CallResult r =
      guest_call(log, "avr.call_module", "avr", golden.device().cpu(), golden_exec,
                 [&] { return golden.call_module(P.entry, kSubjectDomain, P.addrs.buf); });
  if (r.faulted) throw std::runtime_error("inject replay: golden run faulted");
  t.exec.instrs += golden_exec.instrs;
  t.exec.cycles += golden_exec.cycles;
  P.golden_instrs = golden_exec.instrs;
  P.golden_value = r.value;
  P.oracle = spanned(log, "inject.oracle", "inject",
                     [&] { return inj::Oracle::capture(golden, kSubjectDomain); });
  t.umpu.add(golden.fabric());
  return P;
}

inj::Outcome inject_trial(InjectPrepared& P, const inj::Mutation& m, SpanLog& log,
                          InjectTally& t) {
  const ProtectionMode mode = P.cfg.mode;
  std::vector<std::uint16_t> words = P.clean.words;
  const bool code_mutation = m.kind != inj::MutationKind::SramBitFlip;
  if (code_mutation) inj::apply_mutation(words, m);

  if (mode == ProtectionMode::Sfi && code_mutation) {
    const harbor::sfi::VerifyResult v = spanned(log, "sfi.verify", "sfi", [&] {
      return harbor::sfi::verify(words, P.clean.origin, P.entries_abs, P.stubs, P.policy,
                                 P.manifest);
    });
    if (!v.ok) {
      ++t.verify_rejects;
      return inj::Outcome::Rejected;
    }
  }

  std::optional<Testbed> tb_slot;
  Testbed& tb = boot(log, tb_slot, mode, P);
  tb.set_cycle_budget(P.cfg.cycle_budget);
  const Addrs a = scenario_setup(tb);
  if (a.victim != P.addrs.victim || a.buf != P.addrs.buf)
    throw std::runtime_error("inject replay: scenario addresses are not deterministic");

  harbor::trace::TracerOptions topts;
  topts.ring_capacity = 512;
  topts.flight_depth = P.cfg.flight_depth;
  harbor::trace::Tracer tracer(topts);
  tracer.attach(tb.device().cpu(), tb.fabric());

  asmb::Program p;
  p.origin = P.clean.origin;
  p.words = words;
  tb.load_module_image(p, kSubjectDomain);

  std::unique_ptr<SramFlipHook> flip;
  avr::CpuHooks* saved = nullptr;
  if (!code_mutation) {
    saved = tb.device().cpu().hooks();
    flip = std::make_unique<SramFlipHook>(tb.device().data(), saved, m);
    tb.device().cpu().set_hooks(flip.get());
  }
  const CallResult r = guest_call(log, "avr.call_module", "avr", tb.device().cpu(), t.exec, [&] {
    return tb.call_module(P.entry, kSubjectDomain, P.addrs.buf);
  });
  if (flip) tb.device().cpu().set_hooks(saved);

  const std::vector<std::uint16_t> div =
      spanned(log, "inject.oracle", "inject", [&] { return P.oracle->diff(tb); });
  inj::Outcome outcome = inj::Outcome::Benign;
  if (!div.empty()) {
    outcome = inj::Outcome::Escape;
    const std::string dump = spanned(log, "trace.flight_record", "trace", [&] {
      return harbor::trace::flight_record_text(tracer, &tb.device().flash());
    });
    if (dump.empty()) throw std::runtime_error("inject replay: empty flight record");
  } else if (r.faulted && r.fault == avr::FaultKind::Watchdog) {
    outcome = inj::Outcome::Hung;
    t.hung_cycles += r.cycles;
  } else if (r.faulted) {
    outcome = inj::Outcome::Contained;
  }
  t.events_accepted += tracer.ring().accepted();
  t.events_dropped += tracer.ring().dropped();
  tracer.detach();
  t.umpu.add(tb.fabric());
  return outcome;
}

/// The subject's clean run, alternately with and without a per-trial
/// tracer attached (the A/B behind trace.hook_ns_per_instr).
void inject_hook_ab(const InjectPrepared& P, HookAB& ab) {
  Testbed tb(P.cfg.mode);
  tb.set_cycle_budget(P.cfg.cycle_budget);
  (void)scenario_setup(tb);
  tb.load_module_image(P.clean, kSubjectDomain);
  harbor::trace::TracerOptions topts;
  topts.ring_capacity = 512;
  topts.flight_depth = P.cfg.flight_depth;
  harbor::trace::Tracer tracer(topts);
  avr::Cpu& cpu = tb.device().cpu();
  for (int i = 0; i < 400; ++i) {
    const bool traced = i % 2 == 1;
    if (traced) tracer.attach(cpu, tb.fabric());
    const std::uint64_t i0 = cpu.instruction_count();
    const std::int64_t t0 = now_ns();
    const CallResult r = tb.call_module(P.entry, kSubjectDomain, P.addrs.buf);
    const auto ns = static_cast<double>(now_ns() - t0);
    const std::uint64_t instrs = cpu.instruction_count() - i0;
    if (traced) tracer.detach();
    if (r.faulted) throw std::runtime_error("inject replay: clean A/B run faulted");
    (traced ? ab.traced_ns : ab.plain_ns) += ns;
    (traced ? ab.traced_instrs : ab.plain_instrs) += instrs;
  }
}

// ---------------------------------------------------------------------------
// soak: the epoch steps of src/soak/soak.cpp (aging scenario, no forks)

sos::ModuleImage spin_module() {
  asmb::Assembler a;
  sos::ModuleImage m;
  m.name = "soak_spin";
  m.state_size = 2;
  auto done = a.make_label();
  auto spin = a.make_label();
  a.cpi(asmb::r24, sos::msg::kData);
  a.brne(done);
  a.bind(spin);
  a.rjmp(spin);
  a.bind(done);
  a.clr(asmb::r24);
  a.clr(asmb::r25);
  a.ret();
  m.code = a.assemble().words;
  m.exports = {{sos::ModuleImage::kHandlerSlot, 0}};
  return m;
}

sos::ModuleImage payload_module(int version) {
  asmb::Assembler a;
  sos::ModuleImage m;
  m.name = version == 1 ? "ota_payload_v1" : "ota_payload_v2";
  m.state_size = 2;
  auto done = a.make_label();
  a.cpi(asmb::r24, sos::msg::kTimer);
  a.brne(done);
  a.ldi(asmb::r18, static_cast<std::uint8_t>(0xB0 + version));
  a.out(avr::ports::kDebugValLo, asmb::r18);
  a.bind(done);
  a.clr(asmb::r24);
  a.clr(asmb::r25);
  a.ret();
  m.code = a.assemble().words;
  m.exports = {{sos::ModuleImage::kHandlerSlot, 0}};
  return m;
}

/// Dispatch until the queue and every supervision backoff drain.
void soak_drain(harbor::System& sys, soak::SoakStats& stats, SpanLog& log, Exec& exec) {
  const int cap = sys.kernel().supervisor().backoff_cap;
  int quiet = 0;
  for (int i = 0; i < 20 * (cap + 2) && quiet <= cap + 1; ++i) {
    const auto recs = guest_call(log, "sos.dispatch", "sos", sys.device().cpu(), exec,
                                 [&] { return sys.run_pending(); });
    for (const auto& rec : recs)
      stats.max_dispatch_cycles = std::max(stats.max_dispatch_cycles, rec.result.cycles);
    quiet = recs.empty() ? quiet + 1 : 0;
  }
}

struct SoakRun {
  harbor::System& sys;
  ota::ModuleStore& store;
  soak::SoakStats& stats;
  SpanLog& log;
  Exec& exec;
  std::uint64_t rng = 0;
  std::optional<harbor::memmap::DomainId> d_ota, d_spin;

  void drain() { soak_drain(sys, stats, log, exec); }

  void storm() {
    if (!d_spin) {
      d_spin = spanned(log, "sos.load", "sos", [&] { return sys.load_module(spin_module()); });
    } else if (sys.kernel().quarantined(*d_spin)) {
      sys.kernel().revive(*d_spin);
      ++stats.revives;
    }
    for (int i = 0; i < 4; ++i) sys.post(*d_spin, sos::msg::kData);
    drain();
    sys.post(*d_spin, sos::msg::kTimer);
    sys.post(*d_spin, sos::msg::kTimer);
    if (sys.kernel().quarantined(*d_spin)) {
      ++stats.quarantines;
      sys.kernel().revive(*d_spin);
      ++stats.revives;
    }
    drain();
  }

  ota::InstallStatus install(const std::vector<std::uint16_t>& words) {
    return spanned(log, "ota.install", "ota", [&] { return ota::install_image(store, words); });
  }
  void recover() {
    const ota::RecoveryResult r =
        spanned(log, "ota.recover", "ota", [&] { return sys.kernel().recover_store(store); });
    stats.last_recover_ops = r.ops;
  }

  void ota_cycle(int epoch) {
    const std::vector<std::uint16_t> words =
        ota::serialize_image(payload_module(epoch % 2 == 0 ? 1 : 2));
    if (harbor::core::xorshift64_next(rng) % 5 == 0) {
      store.flash().set_cut_at(1 + harbor::core::xorshift64_next(rng) % (words.size() + 64));
      const ota::InstallStatus s = install(words);
      if (s == ota::InstallStatus::PowerCut || s == ota::InstallStatus::Dead) {
        ++stats.power_cuts;
        store.flash().power_cycle();
      }
      recover();
      if (store.install_open()) store.abort_install();
    }
    store.flash().clear_cut();

    if (install(words) != ota::InstallStatus::Ok) {
      ++stats.install_failures;
      if (store.install_open()) store.abort_install();
      recover();
      return;
    }
    ++stats.ota_installs;
    recover();
    if (d_ota) sys.kernel().unload(*d_ota);
    d_ota = spanned(log, "sos.load", "sos",
                    [&] { return sys.kernel().load_from_store(store, d_ota); });
    sys.post(*d_ota, sos::msg::kTimer);
    drain();
  }

  void epoch_activity(int epoch, const SoakResidents& r) {
    const int bursts = 2 + static_cast<int>(harbor::core::xorshift64_next(rng) % 3);
    for (int i = 0; i < bursts; ++i) {
      sys.post(r.surge, sos::msg::kData);
      sys.post(r.tree, sos::msg::kTimer);
    }
    drain();
    ota_cycle(epoch);
    if (epoch % 2 == 1) storm();
  }
};

std::uint64_t sum_counter(harbor::trace::Metrics& m, const char* name) {
  std::uint64_t total = 0;
  for (const auto& [key, value] : m.counters())
    if (key.first == name && key.second != harbor::trace::Metrics::kNoDomain) total += value;
  if (total == 0) total = m.counter_value(name);
  return total;
}

struct SoakTally {
  Exec exec;
  UmpuTally umpu;
  std::uint64_t checkpoints = 0, skipped = 0, executed = 0;
  std::uint64_t restarts = 0, quarantines = 0;
  std::uint64_t erases = 0, power_cuts = 0, install_failures = 0;
  std::uint64_t events_accepted = 0, events_dropped = 0;
};

void soak_replay_mode(const soak::SoakConfig& cfg, SpanLog& log, SoakTally& t, Facts& facts,
                      std::vector<std::string>& errors) {
  const std::string m = mode_name(cfg.mode);
  std::optional<harbor::System> sys_slot;
  {
    SpanLog::Scope span(log, "runtime.boot", "runtime");
    sys_slot.emplace(harbor::SystemConfig{cfg.mode});
  }
  harbor::System& sys = *sys_slot;
  harbor::trace::TracerOptions topts;
  topts.ring_capacity = cfg.ring_capacity;
  harbor::trace::Tracer& tracer = sys.enable_tracing(topts);
  sys.driver().set_cycle_budget(cfg.cycle_budget);
  sos::SupervisorConfig sup;
  sup.auto_restart = true;
  sup.restart_budget = 3;
  sup.backoff_base = 1;
  sup.backoff_cap = 8;
  sys.kernel().set_supervisor(sup);

  soak::SoakStats stats;
  const SoakResidents residents = load_soak_residents(sys, &log);
  sys.post(residents.victim, sos::msg::kTimer);
  soak_drain(sys, stats, log, t.exec);
  const inj::Oracle oracle = inj::Oracle::capture_owned(sys.driver(), residents.victim);

  ota::FlashConfig fcfg;
  ota::StoreLayout layout;
  layout.journal_pages = 4;
  layout.slots = 4;
  layout.spare_pages = 4;
  fcfg.nominal_endurance = cfg.flash_endurance ? cfg.flash_endurance : 48;
  ota::FlashModel flash(fcfg, cfg.seed ? cfg.seed : 1);
  ota::ModuleStore store(flash, layout, &tracer);

  SoakRun run{sys, store, stats, log, t.exec, cfg.seed ? cfg.seed : 0x9E3779B97F4A7C15ull,
              std::nullopt, std::nullopt};

  const int total_epochs = std::max(1, static_cast<int>(std::ceil(cfg.hours)));
  const double hours_per_epoch = cfg.hours > 0 ? cfg.hours / total_epochs : 1.0;
  const auto cycles_per_epoch = static_cast<std::uint64_t>(
      hours_per_epoch * 3600.0 * static_cast<double>(cfg.clock_hz));
  const std::uint64_t wear_budget =
      cfg.flash_wear_budget ? cfg.flash_wear_budget
                            : static_cast<std::uint64_t>(total_epochs) * 2 + 16;
  const std::uint64_t spread_budget = cfg.wear_spread_budget ? cfg.wear_spread_budget : 16;
  const soak::MonitorRegistry monitors = soak::default_monitors();
  std::uint64_t skipped = 0, checkpoints = 0;

  for (int epoch = 0; epoch < total_epochs; ++epoch) {
    SpanLog::Scope epoch_span(log, "soak.epoch", "soak");
    run.epoch_activity(epoch, residents);
    const bool checkpoint =
        (cfg.checkpoint_every > 0 && (epoch + 1) % cfg.checkpoint_every == 0) ||
        epoch + 1 == total_epochs;
    if (checkpoint) {
      const soak::MonitorContext ctx{sys,         store,            oracle, residents.victim,
                                     stats,       wear_budget,      cfg.cycle_budget,
                                     spread_budget};
      const std::vector<soak::MonitorResult> results =
          spanned(log, "soak.monitors", "soak", [&] {
            return monitors.run(ctx, &tracer, static_cast<std::uint16_t>(epoch));
          });
      ++checkpoints;
      for (const soak::MonitorResult& r : results)
        if (!r.ok)
          errors.push_back("soak replay " + m + ": epoch " + std::to_string(epoch) + ": " +
                           r.name + ": " + r.detail);
    }
    const std::uint64_t executed = sys.cycles();
    const std::uint64_t target = static_cast<std::uint64_t>(epoch + 1) * cycles_per_epoch;
    if (executed + skipped < target) skipped = target - executed;
    const double sim_hours = static_cast<double>(executed + skipped) /
                             (3600.0 * static_cast<double>(cfg.clock_hz));
    tracer.soak_epoch(static_cast<std::uint16_t>(epoch),
                      static_cast<std::uint32_t>(sim_hours * 60.0));
    tracer.metrics().counter(harbor::trace::metric::kOtaWearSpread) = store.wear_spread();
  }

  harbor::trace::Metrics& met = tracer.metrics();
  t.restarts += sum_counter(met, harbor::trace::metric::kSosRestarts);
  t.quarantines += sum_counter(met, harbor::trace::metric::kSosQuarantines);
  t.erases += flash.total_erases();
  t.power_cuts += stats.power_cuts;
  t.install_failures += stats.install_failures;
  t.events_accepted += tracer.ring().accepted();
  t.events_dropped += tracer.ring().dropped();
  t.checkpoints += checkpoints;
  t.skipped += skipped;
  t.executed += sys.cycles();
  t.umpu.add(sys.fabric());
  facts.emplace_back(m + ".executed_cycles", sys.cycles());
  facts.emplace_back(m + ".skipped_cycles", skipped);
  facts.emplace_back(m + ".checkpoints", checkpoints);
}

/// Watchdog spin dispatches (the storm module, the soak's hottest guest
/// loop), alternately with and without the System's tracer enabled.
void soak_hook_ab(const soak::SoakConfig& cfg, HookAB& ab) {
  harbor::System sys({cfg.mode});
  sys.driver().set_cycle_budget(cfg.cycle_budget);
  const harbor::memmap::DomainId d = sys.load_module(spin_module());
  (void)sys.run_pending();  // the load's own messages
  harbor::trace::TracerOptions topts;
  topts.ring_capacity = cfg.ring_capacity;
  avr::Cpu& cpu = sys.device().cpu();
  for (int i = 0; i < 24; ++i) {
    const bool traced = i % 2 == 1;
    if (traced) sys.enable_tracing(topts);
    sys.post(d, sos::msg::kData);
    const std::uint64_t i0 = cpu.instruction_count();
    const std::int64_t t0 = now_ns();
    const auto recs = sys.run_pending();
    const auto ns = static_cast<double>(now_ns() - t0);
    const std::uint64_t instrs = cpu.instruction_count() - i0;
    if (traced) sys.disable_tracing();
    if (recs.size() != 1 || recs.front().result.fault != avr::FaultKind::Watchdog)
      throw std::runtime_error("soak replay: spin dispatch did not hit the watchdog");
    (traced ? ab.traced_ns : ab.plain_ns) += ns;
    (traced ? ab.traced_instrs : ab.plain_instrs) += instrs;
  }
}

/// Every fact of the public-entry batch must come out of the replay too.
void check_replay_facts(const Facts& untraced, const Facts& replay,
                        std::vector<std::string>& errors) {
  for (const auto& [name, value] : untraced)
    if (fact(replay, name) != value)
      errors.push_back("replay fidelity: " + name + " is " + std::to_string(fact(replay, name)) +
                       " in the replay but " + std::to_string(value) +
                       " from the public entry point");
}

void report_exec(MetricList& m, std::int64_t ns, const Exec& ex) {
  m.at("avr.exec.ns") = static_cast<double>(ns);
  m.at("avr.exec.instrs") = static_cast<double>(ex.instrs);
  m.at("avr.exec.cycles") = static_cast<double>(ex.cycles);
  m.at("avr.exec.ns_per_instr") = ratio(static_cast<double>(ns), static_cast<double>(ex.instrs));
}

}  // namespace

std::uint16_t inject_golden_value(ProtectionMode mode) {
  SpanLog scratch;
  InjectTally t;
  return inject_prepare(mode, 1, 0, scratch, t).golden_value;
}

SoakResidents load_soak_residents(harbor::System& sys, SpanLog* spans) {
  const auto load = [&](const sos::ModuleImage& image) {
    if (!spans) return sys.load_module(image);
    return spanned(*spans, "sos.load", "sos", [&] { return sys.load_module(image); });
  };
  SoakResidents r;
  r.victim = load(sos::modules::blink());
  r.tree = load(sos::modules::tree_routing());
  r.surge = load(sos::modules::surge(r.tree, true));
  return r;
}

MetricList per_layer_schema() {
  static const std::pair<const char*, const char*> kSchema[] = {
      {"runtime.boot.calls", "count"},     {"runtime.boot.ns", "ns"},
      {"runtime.self_ns", "ns"},           {"asm.build_runtime.ns", "ns"},
      {"sfi.verify.calls", "count"},       {"sfi.verify.ns", "ns"},
      {"sfi.verify.reject_frac", "ratio"}, {"sfi.rewrite.ns", "ns"},
      {"sfi.self_ns", "ns"},               {"avr.exec.ns", "ns"},
      {"avr.exec.instrs", "count"},        {"avr.exec.cycles", "cycles"},
      {"avr.exec.ns_per_instr", "ns/instr"}, {"avr.self_ns", "ns"},
      {"trace.hook_ns_per_instr", "ns/instr"}, {"trace.events_accepted", "count"},
      {"trace.events_dropped", "count"},   {"trace.flight_record.ns", "ns"},
      {"trace.self_ns", "ns"},             {"umpu.mmc_checks", "count"},
      {"umpu.mmc_stall_cycles", "cycles"}, {"umpu.cross_calls", "count"},
      {"umpu.jump_checks", "count"},       {"inject.plan.ns", "ns"},
      {"inject.oracle.ns", "ns"},          {"inject.benign", "count"},
      {"inject.contained", "count"},       {"inject.rejected", "count"},
      {"inject.hung", "count"},            {"inject.escape", "count"},
      {"inject.hung_cycles", "cycles"},    {"inject.self_ns", "ns"},
      {"sos.load.calls", "count"},         {"sos.load.ns", "ns"},
      {"sos.dispatch.calls", "count"},     {"sos.dispatch.ns", "ns"},
      {"sos.restarts", "count"},           {"sos.quarantines", "count"},
      {"sos.self_ns", "ns"},               {"ota.install.calls", "count"},
      {"ota.install.ns", "ns"},            {"ota.recover.calls", "count"},
      {"ota.recover.ns", "ns"},            {"ota.flash_erases", "count"},
      {"ota.power_cuts", "count"},         {"ota.install_failures", "count"},
      {"ota.self_ns", "ns"},               {"soak.monitors.ns", "ns"},
      {"soak.checkpoints", "count"},       {"soak.skipped_cycles", "cycles"},
      {"soak.ns_per_guest_cycle", "ns/cycle"}, {"soak.guest_cycles", "cycles"},
      {"soak.replay_cycles", "cycles"},    {"soak.self_ns", "ns"},
      {"fleet.ctor.ns", "ns"},             {"fleet.run.ns", "ns"},
      {"fleet.ns_per_event", "ns/event"},  {"fleet.frames_sent", "count"},
      {"fleet.frames_dropped", "count"},   {"fleet.chunks_served", "count"},
      {"fleet.installs", "count"},         {"fleet.resumes", "count"},
      {"fleet.self_ns", "ns"},             {"bench.self_ns", "ns"},
      {"bench.trace_overhead_ns", "ns"},
  };
  MetricList m;
  for (const auto& [name, unit] : kSchema) m.add(name, 0.0, unit);
  return m;
}

void trace_inject(const Sizes& sizes, std::uint64_t seed, const Batch& untraced,
                  TracedRun& out) {
  InjectTally t;
  std::vector<InjectPrepared> prepared;
  const std::int64_t t0 = now_ns();
  {
    SpanLog::Scope root(out.spans, "bench.replay", "bench");
    for (const ProtectionMode mode : kModes) {
      InjectPrepared P = inject_prepare(mode, seed, sizes.inject_mutants, out.spans, t);
      const harbor::runtime::Layout L{};
      inj::PlanContext ctx;
      ctx.words = P.clean.words;
      ctx.origin = P.clean.origin;
      ctx.jt_lo = L.jt_base;
      ctx.jt_hi = L.jt_end();
      ctx.buf_lo = P.addrs.buf;
      ctx.buf_hi = static_cast<std::uint16_t>(P.addrs.buf + kBufBytes);
      ctx.stack_lo = static_cast<std::uint16_t>(L.ram_end - kStackWindow);
      ctx.stack_hi = L.ram_end;
      ctx.instr_count = P.golden_instrs;
      const std::vector<inj::Mutation> plan = spanned(out.spans, "inject.plan", "inject", [&] {
        return inj::plan_campaign(ctx, seed, sizes.inject_mutants);
      });
      std::array<std::uint64_t, inj::kOutcomeCount> counts{};
      for (const inj::Mutation& m : plan) {
        SpanLog::Scope trial(out.spans, "inject.trial", "inject");
        ++counts[static_cast<int>(inject_trial(P, m, out.spans, t))];
      }
      const std::string mn = mode_name(mode);
      for (int o = 0; o < inj::kOutcomeCount; ++o) {
        t.counts[o] += counts[o];
        out.facts.emplace_back(
            mn + "." + std::string(inj::outcome_name(static_cast<inj::Outcome>(o))), counts[o]);
      }
      out.facts.emplace_back(mn + ".golden_value", P.golden_value);
      prepared.push_back(std::move(P));
    }
  }
  out.replay_ns = now_ns() - t0;

  check_replay_facts(untraced.facts, out.facts, out.errors);

  HookAB ab;
  double build_ns = 0;
  for (const InjectPrepared& P : prepared) {
    inject_hook_ab(P, ab);
    build_ns += build_runtime_ns(P.cfg.mode) * static_cast<double>(P.boots);
  }

  MetricList& m = out.layers;
  const SpanLog& s = out.spans;
  m.at("runtime.boot.calls") = static_cast<double>(s.calls("runtime.boot"));
  m.at("runtime.boot.ns") = static_cast<double>(s.total_ns("runtime.boot"));
  m.at("asm.build_runtime.ns") = build_ns;
  m.at("sfi.verify.calls") = static_cast<double>(s.calls("sfi.verify"));
  m.at("sfi.verify.ns") = static_cast<double>(s.total_ns("sfi.verify"));
  m.at("sfi.verify.reject_frac") =
      ratio(static_cast<double>(t.verify_rejects), static_cast<double>(s.calls("sfi.verify")));
  m.at("sfi.rewrite.ns") = static_cast<double>(s.total_ns("sfi.rewrite"));
  report_exec(m, s.total_ns("avr.call_module"), t.exec);
  m.at("trace.hook_ns_per_instr") = ab.ns_per_instr();
  m.at("trace.events_accepted") = static_cast<double>(t.events_accepted);
  m.at("trace.events_dropped") = static_cast<double>(t.events_dropped);
  m.at("trace.flight_record.ns") = static_cast<double>(s.total_ns("trace.flight_record"));
  t.umpu.report(m);
  m.at("inject.plan.ns") = static_cast<double>(s.total_ns("inject.plan"));
  m.at("inject.oracle.ns") = static_cast<double>(s.total_ns("inject.oracle"));
  for (int o = 0; o < inj::kOutcomeCount; ++o)
    m.at("inject." + std::string(inj::outcome_name(static_cast<inj::Outcome>(o)))) =
        static_cast<double>(t.counts[o]);
  m.at("inject.hung_cycles") = static_cast<double>(t.hung_cycles);
}

void trace_soak(const Sizes& sizes, std::uint64_t seed, const Batch& untraced,
                TracedRun& out) {
  SoakTally t;
  const std::int64_t t0 = now_ns();
  {
    SpanLog::Scope root(out.spans, "bench.replay", "bench");
    for (const ProtectionMode mode : kModes)
      soak_replay_mode(soak_config(sizes, seed, mode), out.spans, t, out.facts, out.errors);
  }
  out.replay_ns = now_ns() - t0;
  out.facts.emplace_back("guest_cycles", t.executed);

  HookAB ab;
  double build_ns = 0;
  for (const ProtectionMode mode : kModes) {
    soak_hook_ab(soak_config(sizes, seed, mode), ab);
    build_ns += build_runtime_ns(mode);  // one System boot per mode
  }

  MetricList& m = out.layers;
  const SpanLog& s = out.spans;
  m.at("runtime.boot.calls") = static_cast<double>(s.calls("runtime.boot"));
  m.at("runtime.boot.ns") = static_cast<double>(s.total_ns("runtime.boot"));
  m.at("asm.build_runtime.ns") = build_ns;
  report_exec(m, s.total_ns("sos.dispatch"), t.exec);
  m.at("trace.hook_ns_per_instr") = ab.ns_per_instr();
  m.at("trace.events_accepted") = static_cast<double>(t.events_accepted);
  m.at("trace.events_dropped") = static_cast<double>(t.events_dropped);
  t.umpu.report(m);
  m.at("sos.load.calls") = static_cast<double>(s.calls("sos.load"));
  m.at("sos.load.ns") = static_cast<double>(s.total_ns("sos.load"));
  m.at("sos.dispatch.calls") = static_cast<double>(s.calls("sos.dispatch"));
  m.at("sos.dispatch.ns") = static_cast<double>(s.total_ns("sos.dispatch"));
  m.at("sos.restarts") = static_cast<double>(t.restarts);
  m.at("sos.quarantines") = static_cast<double>(t.quarantines);
  m.at("ota.install.calls") = static_cast<double>(s.calls("ota.install"));
  m.at("ota.install.ns") = static_cast<double>(s.total_ns("ota.install"));
  m.at("ota.recover.calls") = static_cast<double>(s.calls("ota.recover"));
  m.at("ota.recover.ns") = static_cast<double>(s.total_ns("ota.recover"));
  m.at("ota.flash_erases") = static_cast<double>(t.erases);
  m.at("ota.power_cuts") = static_cast<double>(t.power_cuts);
  m.at("ota.install_failures") = static_cast<double>(t.install_failures);
  m.at("soak.monitors.ns") = static_cast<double>(s.total_ns("soak.monitors"));
  m.at("soak.checkpoints") = static_cast<double>(t.checkpoints);
  m.at("soak.skipped_cycles") = static_cast<double>(t.skipped);
  m.at("soak.ns_per_guest_cycle") =
      ratio(static_cast<double>(out.replay_ns), static_cast<double>(t.executed));
  m.at("soak.guest_cycles") = static_cast<double>(fact(untraced.facts, "guest_cycles"));
  m.at("soak.replay_cycles") = static_cast<double>(t.executed);
}

void trace_fleet(const Sizes& sizes, std::uint64_t seed, const Batch& untraced,
                 TracedRun& out) {
  MetricList& m = out.layers;
  std::uint64_t events = 0;
  const std::int64_t t0 = now_ns();
  {
    SpanLog::Scope root(out.spans, "bench.replay", "bench");
    for (const ProtectionMode mode : kModes) {
      const std::string mn = mode_name(mode);
      std::optional<harbor::fleet::FleetSim> sim;
      {
        SpanLog::Scope span(out.spans, "fleet.ctor", "fleet");
        sim.emplace(fleet_config(sizes, seed, mode));
      }
      const harbor::fleet::FleetResult res =
          spanned(out.spans, "fleet.run", "fleet", [&] { return sim->run(); });
      if (!res.ok()) out.errors.push_back("fleet replay " + mn + ": a fleet monitor failed");
      events += res.events_processed;
      m.at("fleet.frames_sent") += static_cast<double>(res.radio.frames_sent);
      m.at("fleet.frames_dropped") += static_cast<double>(res.radio.frames_dropped);
      m.at("fleet.chunks_served") += static_cast<double>(res.totals.chunks_served);
      m.at("fleet.installs") += static_cast<double>(res.totals.installs);
      m.at("fleet.resumes") += static_cast<double>(res.totals.resumes);
      out.facts.emplace_back(mn + ".digest", res.digest);
      out.facts.emplace_back(mn + ".events", res.events_processed);
      out.facts.emplace_back(mn + ".end_tick", res.end_tick);
    }
  }
  out.replay_ns = now_ns() - t0;
  check_replay_facts(untraced.facts, out.facts, out.errors);

  const SpanLog& s = out.spans;
  m.at("fleet.ctor.ns") = static_cast<double>(s.total_ns("fleet.ctor"));
  m.at("fleet.run.ns") = static_cast<double>(s.total_ns("fleet.run"));
  m.at("fleet.ns_per_event") =
      ratio(static_cast<double>(s.total_ns("fleet.run")), static_cast<double>(events));
}

}  // namespace perfbench
