// SCALE-bench driver: three seeded workloads run against the public APIs of
// core::ScaleCluster, testbed::Testbed and workload::*, timed from outside.
//
//   perfbench_run   --workload W --seed N --seconds S
//       end-to-end metrics, no instrumentation: the workload is rebuilt and
//       re-run from the same seed until S host seconds have passed (at least
//       three repetitions); every repetition must reproduce the first one's
//       simulated digest.
//   perfbench_trace --workload W --seed N --seconds S
//       per-layer metrics: each round runs the window untraced, traced one
//       event at a time, and traced again with fabric byte accounting off.
//   perfbench_trace --crosscheck
//       storm_1m at perf_core's size and seeds; must reproduce perf_core's
//       fig10_1m_storm counts.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}. "attempted" counts the control procedures the workload's drivers
// issued over all repetitions; "failed" counts those of repetitions whose
// output checks failed. Procedures the modelled MME leaves uncompleted are a
// simulated outcome (completed_ratio), not a benchmark failure.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include <unistd.h>

#include "alloc_count.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/cluster.h"
#include "epc/enodeb.h"
#include "epc/fabric.h"
#include "epc/hss.h"
#include "epc/sgw.h"
#include "epc/ue.h"
#include "obs/registry.h"
#include "proto/buffer_pool.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "sim/shard.h"
#include "testbed/testbed.h"
#include "workload/arrivals.h"

namespace {

using namespace scale;

std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Peak resident set (VmHWM) of this process in MB; 0 if unreadable.
double vm_hwm_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      std::sscanf(line + 6, "%llu", &kb);
      break;
    }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

constexpr double kDeadlineMs = 1000.0;  // ablation_overload's deadline
/// Shortest set-up sample: a world that builds faster than this is rebuilt
/// back to back until the builds span it, and the sample is their mean. The
/// host's speed shifts every second or so, and a single millisecond build
/// lands on one speed or the other.
constexpr double kSetupSample = 0.5;

// ------------------------------------------------------------ topology

/// What the benchmark reads from a world: every node whose public counters
/// feed a metric. Filled by each world after construction.
struct Topology {
  sim::Engine* engine = nullptr;
  sim::Network* network = nullptr;
  epc::Fabric* fabric = nullptr;
  std::vector<core::ScaleCluster*> clusters;
  std::vector<epc::EnodeB*> enbs;
  std::vector<epc::Hss*> hss;
  std::vector<epc::Sgw*> sgws;
  /// Counters of the benchmark's own eNodeB stand-in (storm_1m).
  std::vector<const std::uint64_t*> edge_counters;
  const sim::DelayRecorder* delays = nullptr;

  template <typename F>
  void for_each_mmp(F&& fn) const {
    for (core::ScaleCluster* c : clusters)
      for (auto& m : c->mmps()) fn(*m);
  }
  template <typename F>
  void for_each_mlb(F&& fn) const {
    for (core::ScaleCluster* c : clusters)
      for (auto& m : c->mlbs()) fn(*m);
  }
};

// Traced steps are charged to the first of these layers, in this order,
// whose public counters moved during the step.
enum Layer : std::size_t { kMmp, kMlb, kGw, kEdge, kOther, kLayers };
constexpr std::array<const char*, kLayers> kLayerMetric = {
    "host.share.core.mmp", "host.share.core.mlb", "host.share.epc.gw",
    "host.share.epc.edge", "host.share.other"};

/// Per-layer counter signatures, read after every traced step.
class Probe {
 public:
  using Signature = std::array<std::uint64_t, kOther>;

  explicit Probe(const Topology& topo) {
    topo.for_each_mmp([&](core::MmpNode& m) {
      mmps_.push_back(&m);
      mmp_cpus_.push_back(&m.cpu());
    });
    topo.for_each_mlb([&](core::Mlb& m) { mlbs_.push_back(&m); });
    for (epc::Hss* h : topo.hss) {
      hss_.push_back(h);
      gw_cpus_.push_back(&h->cpu());
    }
    for (epc::Sgw* s : topo.sgws) gw_cpus_.push_back(&s->cpu());
    enbs_ = topo.enbs;
    edge_counters_ = topo.edge_counters;
    delays_ = topo.delays;
  }

  Signature read() const {
    Signature sig{};
    for (std::size_t i = 0; i < mmps_.size(); ++i) {
      mix(sig[kMmp], mmp_cpus_[i]->submitted_jobs());
      mix(sig[kMmp], mmp_cpus_[i]->completed_jobs());
      mix(sig[kMmp], mmps_[i]->requests_handled());
    }
    for (const core::Mlb* m : mlbs_) {
      mix(sig[kMlb], m->initial_routed());
      mix(sig[kMlb], m->sticky_routed());
      mix(sig[kMlb], m->relays());
      mix(sig[kMlb], m->unroutable());
      mix(sig[kMlb], m->overload_rejects());
      mix(sig[kMlb], m->overload_resteers());
      mix(sig[kMlb], m->overload_drops());
    }
    for (const epc::Hss* h : hss_) mix(sig[kGw], h->auth_requests_served());
    for (const sim::CpuModel* c : gw_cpus_) {
      mix(sig[kGw], c->submitted_jobs());
      mix(sig[kGw], c->completed_jobs());
    }
    for (const epc::EnodeB* e : enbs_) {
      mix(sig[kEdge], e->connection_count());
      mix(sig[kEdge], e->paging_hits());
      mix(sig[kEdge], e->rrc_releases());
      mix(sig[kEdge], e->paced_initials());
    }
    for (const std::uint64_t* c : edge_counters_) mix(sig[kEdge], *c);
    if (delays_ != nullptr) mix(sig[kEdge], delays_->total_count());
    return sig;
  }

 private:
  static void mix(std::uint64_t& h, std::uint64_t v) {
    h = (h ^ v) * 0x100000001B3ull + 0x9E37;
  }

  std::vector<const core::MmpNode*> mmps_;
  std::vector<const sim::CpuModel*> mmp_cpus_;
  std::vector<const core::Mlb*> mlbs_;
  std::vector<const epc::Hss*> hss_;
  std::vector<const sim::CpuModel*> gw_cpus_;
  std::vector<epc::EnodeB*> enbs_;
  std::vector<const std::uint64_t*> edge_counters_;
  const sim::DelayRecorder* delays_ = nullptr;
};

/// Advances the measured window in fixed simulated-time slices. Untraced,
/// a slice is one Engine::run_until. Traced, the slice fires one event at a
/// time (Engine::run_until(t, 1)); each step's host time goes to the first
/// layer whose counters moved, and the live-event count is sampled at every
/// slice boundary.
class Stepper {
 public:
  Stepper(sim::Engine& eng, const Probe* probe) : eng_(eng), probe_(probe) {}

  void run_until(Time t) {
    while (eng_.now() < t) {
      const Time slice = std::min(t, eng_.now() + kSlice);
      if (probe_ == nullptr) {
        eng_.run_until(slice);
        continue;
      }
      Probe::Signature prev = probe_->read();
      for (;;) {
        const std::int64_t t0 = host_ns();
        const std::uint64_t fired = eng_.run_until(slice, 1);
        const std::int64_t t1 = host_ns();
        if (fired == 0) break;
        const Probe::Signature cur = probe_->read();
        std::size_t layer = 0;
        while (layer < kOther && cur[layer] == prev[layer]) ++layer;
        layer_ns[layer] += t1 - t0;
        prev = cur;
      }
      obs::MetricsRegistry reg;
      eng_.export_metrics(reg, "engine");
      pending_peak = std::max(pending_peak, reg.gauge("engine.queue_depth"));
    }
  }
  void run_for(Duration d) { run_until(eng_.now() + d); }

  std::array<std::int64_t, kLayers> layer_ns{};
  double pending_peak = 0.0;

 private:
  static constexpr Duration kSlice = Duration::ms(10.0);
  sim::Engine& eng_;
  const Probe* probe_;
};

/// Monotone counters summed over a topology; the window's deltas become
/// the per-layer counts.
struct Counters {
  std::uint64_t events = 0, messages = 0, bytes = 0;
  std::uint64_t batches = 0, batched_pdus = 0, dead_drops = 0;
  std::uint64_t routed = 0, resteers = 0, mlb_drops = 0;
  std::uint64_t forwards = 0, replicas = 0, sheds = 0;
  std::uint64_t offloads = 0, geo_rejects = 0;
  std::uint64_t retransmits = 0, abandoned = 0, paced = 0;
  std::vector<std::uint64_t> handled;  ///< per MMP
  std::int64_t busy_us = 0;            ///< Σ MMP CpuModel::cumulative_busy
  Time now = Time::zero();

  static Counters read(const Topology& t) {
    Counters c;
    c.events = t.engine->events_processed();
    c.messages = t.network->messages_sent();
    c.bytes = t.network->bytes_sent();
    c.batches = t.fabric->delivery_batches();
    c.batched_pdus = t.fabric->batched_pdus();
    c.dead_drops = t.fabric->dropped();
    c.now = t.engine->now();
    auto transport = [&c](const epc::ReliableChannel& r) {
      c.retransmits += r.retransmits();
      c.abandoned += r.abandoned();
    };
    t.for_each_mlb([&](core::Mlb& m) {
      c.routed += m.initial_routed() + m.sticky_routed() + m.relays();
      c.resteers += m.overload_resteers();
      c.mlb_drops += m.overload_drops() + m.unroutable();
      transport(m.transport());
    });
    t.for_each_mmp([&](core::MmpNode& m) {
      // Forwards to the master MMP plus cross-DC geo forwards.
      // (ClusterVm::forwards_out is never incremented in this tree.)
      c.forwards += m.forwarded_to_master() + m.geo_offloads();
      c.replicas += m.replicas_pushed();
      c.sheds += m.overload_sheds();
      c.offloads += m.geo_offloads();
      c.geo_rejects += m.geo_rejects();
      c.handled.push_back(m.requests_handled());
      c.busy_us += m.cpu().cumulative_busy().count_us();
      transport(m.transport());
    });
    for (const epc::EnodeB* e : t.enbs) {
      c.paced += e->paced_initials();
      transport(e->transport());
    }
    for (const epc::Hss* h : t.hss) transport(h->transport());
    for (const epc::Sgw* s : t.sgws) transport(s->transport());
    return c;
  }
};

// ------------------------------------------------------------- outcome

/// One run of one workload's measured window.
struct Outcome {
  double setup_s = 0.0;
  double window_s = 0.0;

  // Simulated outcome (deterministic for a seed).
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t within_deadline = 0;
  PercentileSampler sr;
  PercentileSampler attach;
  Counters begin, end;

  // Host-side per-layer measurements.
  std::uint64_t allocs = 0;
  std::array<std::int64_t, kLayers> layer_ns{};
  double pending_peak = 0.0;
  double owner_ns = 0.0;     ///< per ConsistentHashRing::owner call
  double load_ns = 0.0;      ///< per MmeApp::adopt call (storm_1m)
  double epoch_ms = 0.0;     ///< per ScaleCluster::run_epoch call
  double bytes_per_ue = 0.0;

  // storm_1m counts for the perf_core cross-check (storm phase only).
  std::uint64_t storm_events = 0;
  std::uint64_t storm_allocs = 0;
  std::uint64_t storm_accepts = 0;
  std::uint64_t storm_sent = 0;

  std::vector<std::string> errors;

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }

  double procs() const { return static_cast<double>(completed); }
  std::uint64_t d_messages() const { return end.messages - begin.messages; }
  std::uint64_t d_bytes() const { return end.bytes - begin.bytes; }
  std::uint64_t d_events() const { return end.events - begin.events; }

  void record(const sim::DelayRecorder& rec, proto::ProcedureType p,
              PercentileSampler* into) {
    if (!rec.has(p)) return;
    for (double d : rec.bucket(p).samples()) {
      if (into != nullptr) into->add(d);
      if (d <= kDeadlineMs) ++within_deadline;
    }
  }

  /// FNV-1a over the simulated metrics plus Network messages (and bytes,
  /// unless byte accounting was off): the identity of a run's trajectory.
  std::uint64_t digest(bool with_bytes) const {
    std::uint64_t h = 0xCBF29CE484222325ull;
    auto put = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 0x100000001B3ull;
      }
    };
    auto put_d = [&put](double d) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &d, sizeof bits);
      put(bits);
    };
    put(attempted);
    put(completed);
    put(within_deadline);
    for (const PercentileSampler* s : {&sr, &attach}) {
      put(s->count());
      if (!s->empty()) {
        put_d(s->percentile(0.5));
        put_d(s->percentile(0.99));
        put_d(s->mean());
      }
    }
    put(d_messages());
    if (with_bytes) put(d_bytes());
    return h;
  }
};

// ------------------------------------------------------------ storm_1m

/// storm_1m inputs. perf_core_storm() gives perf_core's fig10_1m_storm
/// world exactly; storm_params(seed) draws every seed from --seed and adds
/// a small stream of real UE attaches so attach delay is defined here too.
struct StormParams {
  std::uint64_t ues = 1'000'000;
  std::uint64_t srs = 200'000;
  std::uint64_t cluster_seed = 4242;
  std::uint64_t storm_rng = 0x9E3779B97F4A7C15ull;
  /// First loaded M-TMSI. perf_core loads from 1; with live attaches the
  /// loaded range must clear the MLB's own allocation range, which also
  /// starts at 1.
  std::uint32_t tmsi_base = 1;
  std::size_t attaches = 0;
  std::uint64_t attach_seed = 0;
  /// Exponential SR inter-arrival gaps (mean 10 µs) instead of perf_core's
  /// fixed 10 µs grid, and the MMP speed. perf_core's pool idles through
  /// its storm, so every SR takes the same 2.505 ms; at speed 8 the busiest
  /// MMP runs near its knee and the delays depend on the arrivals drawn.
  bool poisson = false;
  double mmp_speed = 50.0;
};

StormParams perf_core_storm() { return StormParams{}; }

StormParams storm_params(std::uint64_t seed) {
  // Every generator seed of a workload is drawn from one stream seeded by
  // --seed, the only source of randomness the simulator receives.
  Rng s(seed);
  StormParams p;
  p.cluster_seed = s.next_u64();
  p.storm_rng = s.next_u64();
  p.tmsi_base = 20'000'001;
  p.attaches = 2'000;
  p.attach_seed = s.next_u64();
  p.poisson = true;
  p.mmp_speed = 8.0;
  return p;
}

/// The storm's eNodeB stand-in (perf_core's StormEnb): fires seeded Service
/// Requests at the MLB every `interval` and times each one from send to its
/// ServiceAccept. Delays go to a pre-sized array so the window allocates
/// exactly what perf_core's does.
struct StormEnb final : epc::Endpoint {
  sim::Engine* eng = nullptr;
  epc::Fabric* fabric = nullptr;
  sim::NodeId self = 0;
  sim::NodeId mlb = 0;
  std::uint64_t budget = 0;
  std::uint64_t sent = 0;
  std::uint32_t ues = 0;
  std::uint32_t tmsi_base = 1;
  std::uint64_t rng = 0;
  Duration interval = Duration::us(10);
  Rng* gaps = nullptr;  ///< exponential gaps with mean `interval` when set

  std::uint64_t accepts = 0;
  std::uint64_t rejects = 0;
  std::uint64_t releases = 0;
  std::vector<std::int64_t> sent_at_us;  ///< by enb_ue_id
  std::vector<double> delays_ms;

  void send_one() {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    proto::NasServiceRequest sr;
    sr.mme_code = 1;
    sr.m_tmsi = tmsi_base + static_cast<std::uint32_t>((rng >> 33) % ues);
    proto::InitialUeMessage msg;
    msg.enb_id = static_cast<std::uint32_t>(self);
    msg.enb_ue_id = static_cast<proto::EnbUeId>(sent + 1);
    msg.tac = 7;
    msg.nas = proto::NasMessage{sr};
    sent_at_us[sent + 1] = eng->now().count_us();
    fabric->send(self, mlb, proto::make_pdu(msg));
    if (++sent >= budget) return;
    const Duration gap =
        gaps == nullptr
            ? interval
            : Duration::us(static_cast<std::int64_t>(std::llround(
                  gaps->exponential(1.0 / static_cast<double>(
                                              interval.count_us())))));
    eng->after(gap, [this] { send_one(); });
  }

  void receive(sim::NodeId, const proto::Pdu& pdu) override {
    const auto* s1 = std::get_if<proto::S1apMessage>(&pdu);
    if (s1 == nullptr) return;
    if (const auto* dl = std::get_if<proto::DownlinkNasTransport>(s1)) {
      if (std::holds_alternative<proto::NasServiceAccept>(dl->nas)) {
        ++accepts;
        const auto id = static_cast<std::size_t>(dl->enb_ue_id);
        if (id < sent_at_us.size() && delays_ms.size() < delays_ms.capacity())
          delays_ms.push_back(
              static_cast<double>(eng->now().count_us() - sent_at_us[id]) /
              1000.0);
      } else if (std::holds_alternative<proto::NasServiceReject>(dl->nas)) {
        ++rejects;
      }
    } else if (std::holds_alternative<proto::UeContextReleaseCommand>(*s1)) {
      ++releases;
    }
  }
};

/// fig10 at the paper's scale (perf_core's capacity world): 8 MMPs master
/// 10⁶ bulk-loaded contexts; the stand-in eNodeB storms them with Service
/// Requests at 100 K SR/s through MLB steering; one provisioning epoch
/// closes the window.
class StormWorld {
 public:
  explicit StormWorld(const StormParams& p) : p_(p), fabric_(eng_, net_) {
    core::ScaleCluster::Config cfg;
    cfg.initial_mmps = 8;
    cfg.mlb.cpu_speed = 50.0;
    cfg.vm_template.cpu_speed = p.mmp_speed;
    cfg.vm_template.app.profile.inactivity_timeout = Duration::ms(400.0);
    // Eq. 1 sizing that reproduces the running pool (V_S = ⌈R·K/S⌉ = 8)
    // so the closing epoch re-decides 8 VMs and migrates nothing.
    cfg.provisioner.devices_per_vm = (p.ues + p.attaches) / 4;
    cfg.provisioner.requests_per_vm_epoch = 100'000'000;
    cfg.seed = p.cluster_seed;
    cluster_ = std::make_unique<core::ScaleCluster>(fabric_, sgw_.node(),
                                                    hss_.node(), cfg);
    std::unordered_map<sim::NodeId, core::MmpNode*> by_node;
    for (auto& mmp : cluster_->mmps()) by_node[mmp->node()] = mmp.get();

    // Bulk load at each context's ring owner. The traced build times owner()
    // and adopt() separately (hash.owner_ns, epc.store.load_ns_per_ctx); the
    // untraced build leaves the clock out of the set-up it measures.
    std::int64_t owner_ns = 0;
    std::int64_t adopt_ns = 0;
    for (std::uint64_t i = 0; i < p.ues; ++i) {
      proto::UeContextRecord rec;
      rec.imsi = 100'000'000'000'000ull + i;
      rec.guti = proto::Guti{1, 1, 1, static_cast<std::uint32_t>(p.tmsi_base + i)};
      rec.access_freq = 0.5;
      rec.home_dc = 0;
      rec.sgw_node = static_cast<std::uint32_t>(sgw_.node());
#ifdef PERFBENCH_TRACE
      const std::int64_t t0 = host_ns();
      const sim::NodeId owner = cluster_->ring().owner(rec.guti.key());
      const std::int64_t t1 = host_ns();
      by_node.at(owner)->app().adopt(rec, epc::ContextRole::kMaster);
      adopt_ns += host_ns() - t1;
      owner_ns += t1 - t0;
#else
      const sim::NodeId owner = cluster_->ring().owner(rec.guti.key());
      by_node.at(owner)->app().adopt(rec, epc::ContextRole::kMaster);
#endif
    }
    owner_ns_ = static_cast<double>(owner_ns) / static_cast<double>(p.ues);
    load_ns_ = static_cast<double>(adopt_ns) / static_cast<double>(p.ues);
    loaded_ = cluster_->registered_devices();

    enb_.eng = &eng_;
    enb_.fabric = &fabric_;
    enb_.self = fabric_.add_endpoint(&enb_);
    enb_.mlb = cluster_->mlb().node();
    enb_.budget = p.srs;
    enb_.ues = static_cast<std::uint32_t>(p.ues);
    enb_.tmsi_base = p.tmsi_base;
    enb_.rng = p.storm_rng;
    enb_.sent_at_us.assign(p.srs + 1, 0);
    enb_.delays_ms.reserve(p.srs);
    if (p.poisson) enb_.gaps = &gaps_;

    if (p.attaches > 0) {
      attach_enb_ = std::make_unique<epc::EnodeB>(fabric_);
      cluster_->connect_enb(*attach_enb_);
      Rng keys(p.attach_seed);
      for (std::size_t j = 0; j < p.attaches; ++j) {
        epc::Ue::Config ucfg;
        ucfg.imsi = 200'000'000'000'000ull + j;
        ucfg.secret_key = keys.next_u64();
        hss_.provision_subscriber(ucfg.imsi, ucfg.secret_key);
        auto ue = std::make_unique<epc::Ue>(eng_, attach_enb_.get(), ucfg);
        ue->set_completion_sink(
            [this](epc::Ue&, proto::ProcedureType pt, Duration d) {
              if (pt == proto::ProcedureType::kAttach) attach_.add(d.to_ms());
            });
        ue->set_failure_sink(
            [this](epc::Ue&, proto::ProcedureType) { ++attach_failures_; });
        ues_.push_back(std::move(ue));
      }
    }

    topo_.engine = &eng_;
    topo_.network = &net_;
    topo_.fabric = &fabric_;
    topo_.clusters = {cluster_.get()};
    if (attach_enb_) topo_.enbs = {attach_enb_.get()};
    topo_.hss = {&hss_};
    topo_.sgws = {&sgw_};
    topo_.edge_counters = {&enb_.sent, &enb_.accepts, &enb_.rejects,
                           &enb_.releases};
  }

  const Topology& topology() const { return topo_; }
  epc::Fabric& fabric() { return fabric_; }

  void window(Stepper& st, Outcome& out) {
    const Time t0 = eng_.now();
    const Duration span = Duration::us(static_cast<std::int64_t>(10 * p_.srs));
    const std::uint64_t ev0 = eng_.events_processed();
    const std::uint64_t a0 = perfbench::alloc_calls();
    eng_.after(Duration::us(1), [this] { enb_.send_one(); });
    Rng when(p_.attach_seed ^ 0xA77AC4ull);
    for (auto& ue : ues_) {
      epc::Ue* u = ue.get();
      eng_.at(t0 + Duration::sec(when.uniform(0.0, span.to_sec())),
              [this, u] {
                if (u->attach()) ++attach_issued_;
              });
    }
    // The horizon covers the storm plus inactivity releases and drain.
    st.run_until(t0 + span + Duration::sec(3.0));
    out.storm_events = eng_.events_processed() - ev0;
    out.storm_allocs = perfbench::alloc_calls() - a0;
    out.storm_accepts = enb_.accepts;
    out.storm_sent = enb_.sent;

    const std::int64_t e0 = host_ns();
    epoch_ = cluster_->run_epoch();
    out.epoch_ms = static_cast<double>(host_ns() - e0) / 1e6;
  }

  void finish(Outcome& out) {
    out.owner_ns = owner_ns_;
    out.load_ns = load_ns_;
    out.check(loaded_ == p_.ues, "storm_1m: loaded " + std::to_string(loaded_) +
                                     " of " + std::to_string(p_.ues));
    out.check(enb_.sent == p_.srs, "storm_1m: sent " + std::to_string(enb_.sent));
    // A same-device SR racing an in-flight one folds into one accept; with
    // 2·10⁵ draws over 10⁶ devices that is a handful, hence perf_core's
    // 99.5% floor.
    out.check(static_cast<double>(enb_.accepts) >=
                  0.995 * static_cast<double>(enb_.sent),
              "storm_1m: accepts " + std::to_string(enb_.accepts) + " of " +
                  std::to_string(enb_.sent));
    out.check(epoch_.decision.vms == 8 &&
                  epoch_.registered == loaded_ + attach_.count(),
              "storm_1m: epoch decided " +
                  std::to_string(epoch_.decision.vms) + " VMs over " +
                  std::to_string(epoch_.registered) + " devices");
    std::uint64_t footprint = 0;
    std::uint64_t contexts = 0;
    for (auto& mmp : cluster_->mmps()) {
      try {
        mmp->app().store().audit();
      } catch (const std::exception& e) {
        out.check(false, std::string("storm_1m: store audit: ") + e.what());
      }
      footprint += mmp->app().store().footprint_bytes();
      contexts += mmp->app().store().size();
    }
    out.bytes_per_ue = ratio(static_cast<double>(footprint),
                             static_cast<double>(contexts));

    std::uint64_t pending = 0;
    for (const auto& ue : ues_) pending += ue->busy() ? 1u : 0u;
    out.check(attach_issued_ == ues_.size() &&
                  attach_.count() + attach_failures_ + pending == attach_issued_,
              "storm_1m: attach accounting does not add up");

    out.attempted = enb_.sent + attach_issued_;
    out.completed = enb_.accepts + attach_.count();
    for (double d : enb_.delays_ms) {
      out.sr.add(d);
      if (d <= kDeadlineMs) ++out.within_deadline;
    }
    for (double d : attach_.samples())
      if (d <= kDeadlineMs) ++out.within_deadline;
    out.attach = attach_;
  }

 private:
  StormParams p_;
  sim::Engine eng_;
  sim::Network net_;
  epc::Fabric fabric_;
  // Constructed in perf_core's order so NodeIds (and with them the ring)
  // match its world: S-GW 1, HSS 2, then the cluster, then the stand-in.
  epc::Sgw sgw_{fabric_};
  epc::Hss hss_{fabric_};
  std::unique_ptr<core::ScaleCluster> cluster_;
  StormEnb enb_;
  Rng gaps_{p_.storm_rng ^ 0x6A9Bull};
  std::unique_ptr<epc::EnodeB> attach_enb_;
  std::vector<std::unique_ptr<epc::Ue>> ues_;
  PercentileSampler attach_;
  std::uint64_t attach_issued_ = 0;
  std::uint64_t attach_failures_ = 0;
  std::uint64_t loaded_ = 0;
  double owner_ns_ = 0.0;
  double load_ns_ = 0.0;
  core::ScaleCluster::EpochReport epoch_;
  Topology topo_;
};

// ---------------------------------------------------------- UE accounting

/// Procedure outcomes read from the UEs themselves, so the drivers' issued
/// counts can be checked against completed + failed + still pending.
struct UeTally {
  std::uint64_t completed = 0, failed = 0, pending = 0;

  static UeTally read(const std::vector<epc::Ue*>& ues) {
    UeTally t;
    for (const epc::Ue* ue : ues) {
      for (std::size_t p = 0; p < proto::kProcedureTypeCount; ++p)
        t.completed += ue->completed(static_cast<proto::ProcedureType>(p));
      t.failed += ue->failures();
      t.pending += ue->busy() ? 1u : 0u;
    }
    return t;
  }
};

/// Check ring ownership of every registered device: its master context
/// must sit at ConsistentHashRing::owner of its GUTI. The owner() calls are
/// timed for hash.owner_ns.
void check_masters(const std::vector<epc::Ue*>& ues,
                   const std::vector<core::ScaleCluster*>& clusters,
                   Outcome& out, const char* name) {
  std::unordered_map<sim::NodeId, core::MmpNode*> by_node;
  for (core::ScaleCluster* c : clusters)
    for (auto& m : c->mmps()) by_node[m->node()] = m.get();
  std::int64_t ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t misplaced = 0;
  for (const epc::Ue* ue : ues) {
    if (!ue->registered() || !ue->guti()) continue;
    const std::uint64_t key = ue->guti()->key();
    const core::MmpNode* master = nullptr;
    for (core::ScaleCluster* c : clusters) {
      const std::int64_t t0 = host_ns();
      const sim::NodeId owner = c->ring().owner(key);
      ns += host_ns() - t0;
      ++calls;
      const core::MmpNode* m = by_node.at(owner);
      const epc::UeContext* ctx = m->app().store().find(key);
      if (ctx != nullptr && ctx->role == epc::ContextRole::kMaster) {
        master = m;
        break;
      }
    }
    if (master == nullptr) ++misplaced;
  }
  out.owner_ns = ratio(static_cast<double>(ns), static_cast<double>(calls));
  out.check(misplaced == 0, std::string(name) + ": " +
                                std::to_string(misplaced) +
                                " devices without a master at their ring owner");
}

void store_footprint(const std::vector<core::ScaleCluster*>& clusters,
                     Outcome& out) {
  std::uint64_t footprint = 0;
  std::uint64_t contexts = 0;
  for (core::ScaleCluster* c : clusters)
    for (auto& m : c->mmps()) {
      footprint += m->app().store().footprint_bytes();
      contexts += m->app().store().size();
    }
  out.bytes_per_ue =
      ratio(static_cast<double>(footprint), static_cast<double>(contexts));
}

// ------------------------------------------------------------- epc_geo

/// fig10(b)'s SCALE-mode world: 4 DCs of 2 MMPs, real UEs/eNodeBs, S-GW and
/// HSS, R=2 replication, geo offload with recurring epochs. DC1/DC3 are
/// offered 1.7× their capacity, DC2 1.3× (busy and far), DC4 0.3×.
/// Registration of every device is part of the measured window.
class GeoWorld {
 public:
  static constexpr std::uint32_t kDcs = 4;
  static constexpr std::size_t kVmsPerDc = 2;
  static constexpr double kDcCapacity = kVmsPerDc * 380.0;
  static constexpr std::size_t kUesPerDc = 2000;

  explicit GeoWorld(std::uint64_t seed) : seeds_(seed), tb_(tb_config()) {
    for (std::uint32_t dc = 0; dc < kDcs; ++dc)
      sites_.push_back(&tb_.add_site(1, static_cast<proto::Tac>(dc + 1),
                                     Duration::ms(1.0), dc));
    for (std::uint32_t a = 0; a < kDcs; ++a)
      for (std::uint32_t b = a + 1; b < kDcs; ++b)
        tb_.network().set_dc_latency(a, b, (a == 1 || b == 1)
                                               ? Duration::ms(150.0)
                                               : Duration::ms(15.0));
    for (std::uint32_t dc = 0; dc < kDcs; ++dc) {
      core::ScaleCluster::Config cfg;
      cfg.home_dc = dc;
      cfg.mme_group = static_cast<std::uint16_t>(100 + dc);
      cfg.initial_mmps = kVmsPerDc;
      cfg.first_vm_code = static_cast<std::uint8_t>(1 + dc * 50);
      cfg.vm_template.cpu_speed = 0.25;
      cfg.vm_template.app.profile.inactivity_timeout = Duration::ms(500.0);
      cfg.geo.gossip_interval = Duration::ms(300.0);
      cfg.geo.budget_fraction = 0.05;
      cfg.ring_tokens = 32;
      cfg.policy.local_copies = 2;
      cfg.geo.selection = core::GeoManager::Selection::kScale;
      cfg.provisioner.devices_per_vm = 40000;
      cfg.provisioner.min_vms = kVmsPerDc;
      cfg.provisioner.max_vms = kVmsPerDc;
      cfg.mmp_offload_threshold = 0.8;
      cfg.seed = seeds_.next_u64();
      clusters_.push_back(std::make_unique<core::ScaleCluster>(
          tb_.fabric(), sites_[dc]->sgw->node(), tb_.hss().node(), cfg));
      clusters_[dc]->connect_enb(*sites_[dc]->enbs[0]);
      tb_.assign_dc(clusters_[dc]->mlb().node(), dc);
      for (auto& mmp : clusters_[dc]->mmps()) tb_.assign_dc(mmp->node(), dc);
    }
    for (std::uint32_t a = 0; a < kDcs; ++a)
      for (std::uint32_t b = 0; b < kDcs; ++b)
        if (a != b)
          clusters_[a]->geo().add_peer(b, clusters_[b]->mlb().node(),
                                       tb_.network().dc_latency(a, b));
    for (auto& c : clusters_) c->start();
    for (std::uint32_t dc = 0; dc < kDcs; ++dc) {
      devices_.push_back(tb_.make_ues(*sites_[dc], kUesPerDc, {0.9}));
      for (epc::Ue* ue : devices_.back()) all_.push_back(ue);
    }

    topo_.engine = &tb_.engine();
    topo_.network = &tb_.network();
    topo_.fabric = &tb_.fabric();
    for (auto& c : clusters_) topo_.clusters.push_back(c.get());
    for (Testbed::Site* s : sites_) {
      topo_.enbs.push_back(s->enbs[0].get());
      topo_.sgws.push_back(s->sgw.get());
    }
    topo_.hss = {&tb_.hss()};
    topo_.delays = &tb_.delays();
  }

  const Topology& topology() const { return topo_; }
  epc::Fabric& fabric() { return tb_.fabric(); }

  void window(Stepper& st, Outcome& out) {
    sim::Engine& eng = tb_.engine();
    // Registration: every device powers on at a seeded uniform instant in
    // fig10(b)'s 25 s registration window and attaches.
    const Time r0 = eng.now();
    const Duration reg_window = Duration::sec(25.0);
    Rng power_on(seeds_.next_u64());
    for (epc::Ue* ue : all_)
      eng.at(r0 + Duration::sec(power_on.uniform(0.0, reg_window.to_sec())),
             [this, ue] {
               if (ue->attach()) ++registrations_;
             });
    st.run_until(r0 + reg_window + Duration::sec(4.0));
    std::size_t registered = 0;
    for (const epc::Ue* ue : all_) registered += ue->registered() ? 1u : 0u;
    out.check(registered == all_.size(),
              "epc_geo: " + std::to_string(registered) + " of " +
                  std::to_string(all_.size()) + " devices registered");

    for (auto& c : clusters_) {
      c->for_each_master([](mme::UeContext& ctx) { ctx.rec.access_freq = 0.9; });
      timed_epoch(*c);
    }
    st.run_for(Duration::sec(2.0));

    for (std::uint32_t dc = 0; dc < kDcs; ++dc) {
      const double factor = dc == 1 ? 1.3 : (dc == 0 || dc == 2) ? 1.7 : 0.3;
      workload::OpenLoopDriver::Config drv;
      drv.rate_per_sec = kDcCapacity * factor;
      drv.mix.service_request = 0.2;
      drv.mix.tau = 0.8;
      drv.seed = seeds_.next_u64();
      drivers_.push_back(std::make_unique<workload::OpenLoopDriver>(
          eng, devices_[dc], drv));
      drivers_.back()->start(eng.now() + Duration::sec(16.0));
    }
    for (double at : {4.0, 8.0})
      for (auto& c : clusters_)
        eng.after(Duration::sec(at),
                  [this, cl = c.get()] { timed_epoch(*cl); });
    st.run_for(Duration::sec(18.0));
    out.epoch_ms = ratio(epoch_ms_, static_cast<double>(epochs_));
  }

  void finish(Outcome& out) {
    std::uint64_t issued = registrations_;
    for (const auto& d : drivers_) issued += d->issued();
    const UeTally tally = UeTally::read(all_);
    out.check(tally.completed + tally.failed + tally.pending == issued,
              "epc_geo: issued " + std::to_string(issued) +
                  " != completed + failed + pending");
    out.check(out.end.dead_drops == out.begin.dead_drops,
              "epc_geo: fabric dropped PDUs to dead endpoints");
    out.attempted = issued;
    out.completed = tally.completed;
    out.record(tb_.delays(), proto::ProcedureType::kServiceRequest, &out.sr);
    out.record(tb_.delays(), proto::ProcedureType::kAttach, &out.attach);
    out.record(tb_.delays(), proto::ProcedureType::kTrackingAreaUpdate,
               nullptr);
    check_masters(all_, topo_.clusters, out, "epc_geo");
    store_footprint(topo_.clusters, out);
  }

 private:
  using Testbed = testbed::Testbed;

  Testbed::Config tb_config() {
    Testbed::Config cfg;
    cfg.seed = seeds_.next_u64();
    // Every attempt comes from the benchmark's drivers.
    cfg.auto_reattach = false;
    return cfg;
  }

  void timed_epoch(core::ScaleCluster& c) {
    const std::int64_t t0 = host_ns();
    c.run_epoch();
    epoch_ms_ += static_cast<double>(host_ns() - t0) / 1e6;
    ++epochs_;
  }

  Rng seeds_;  ///< every generator seed, drawn from --seed
  Testbed tb_;
  std::vector<Testbed::Site*> sites_;
  std::vector<std::unique_ptr<core::ScaleCluster>> clusters_;
  std::vector<std::vector<epc::Ue*>> devices_;
  std::vector<epc::Ue*> all_;
  std::vector<std::unique_ptr<workload::OpenLoopDriver>> drivers_;
  std::uint64_t registrations_ = 0;
  double epoch_ms_ = 0.0;
  std::uint64_t epochs_ = 0;
  Topology topo_;
};

// ---------------------------------------------------------- attach_burst

/// ablation_overload's graduated-governor world, one cell per site of a
/// shared Testbed: an undersized 3-MMP pool, two eNodeBs, 1500 registered
/// devices plus 500 fresh ones, a 40/s SR/TAU stream and a 1200-device
/// mass-access burst. The reliable transport shim is on and every link
/// drops 1% of PDUs. Pre-registration of the standing population is set-up.
class BurstWorld {
 public:
  static constexpr std::size_t kCells = 6;
  static constexpr std::size_t kStanding = 1500;
  static constexpr std::size_t kFresh = 500;
  static constexpr std::size_t kBurst = 1200;

  explicit BurstWorld(std::uint64_t seed) : seeds_(seed), tb_(tb_config()) {
    tb_.network().set_fault_seed(seeds_.next_u64());
    sim::LinkFaults faults;
    faults.drop_prob = 0.01;
    tb_.network().set_global_faults(faults);
    for (std::size_t cell = 0; cell < kCells; ++cell) {
      Testbed::Site& site = tb_.add_site(2);
      core::ScaleCluster::Config cfg;
      cfg.mme_group = static_cast<std::uint16_t>(100 + cell);
      cfg.first_vm_code = static_cast<std::uint8_t>(1 + cell * 8);
      cfg.initial_mmps = 3;
      cfg.vm_template.cpu_speed = 0.05;
      cfg.vm_template.app.profile.inactivity_timeout = Duration::ms(400.0);
      cfg.mmp_governor.enabled = true;
      cfg.mmp_governor.backlog_ref = Duration::ms(250.0);
      cfg.mmp_governor.low_watermark = 1.7;
      cfg.mmp_governor.high_watermark = 1.8;
      cfg.mmp_governor.overload_watermark = 2.0;
      cfg.mmp_governor.hysteresis = 0.05;
      cfg.mmp_governor.inflight_ref = 2048;
      cfg.mlb.enb_bucket_rate = 120.0;
      cfg.mlb.enb_bucket_burst = 40.0;
      // The closing epoch measures the burst but keeps the pool undersized.
      cfg.provisioner.min_vms = 3;
      cfg.provisioner.max_vms = 3;
      cfg.seed = seeds_.next_u64();
      clusters_.push_back(std::make_unique<core::ScaleCluster>(
          tb_.fabric(), site.sgw->node(), tb_.hss().node(), cfg));
      for (auto& enb : site.enbs) {
        clusters_.back()->connect_enb(*enb);
        enb->set_overload_pace(Duration::ms(8.0));
      }
      sites_.push_back(&site);
      standing_.push_back(tb_.make_ues(site, kStanding, {0.8}));
    }

    // Pre-register the standing population (staggered over 30 s, 6 s
    // settle), then add the devices that first attach inside the burst.
    sim::Engine& eng = tb_.engine();
    const Time r0 = eng.now();
    for (const auto& cell : standing_)
      for (std::size_t i = 0; i < cell.size(); ++i) {
        epc::Ue* ue = cell[i];
        eng.at(r0 + Duration::sec(30.0 * static_cast<double>(i) /
                                  static_cast<double>(cell.size())),
               [ue] { ue->attach(); });
      }
    tb_.run_until(r0 + Duration::sec(36.0));
    // A registration whose unprotected radio-side leg was lost stays
    // pending until the UE's 30 s guard fails it; re-attach those so the
    // window opens on a fully registered, quiet population.
    for (int round = 0; round < 10 && !standing_settled(); ++round) {
      for (const auto& cell : standing_)
        for (epc::Ue* ue : cell)
          if (!ue->registered() && !ue->busy()) ue->attach();
      tb_.run_for(Duration::sec(6.0));
    }
    for (const auto& cell : standing_)
      for (epc::Ue* ue : cell) {
        standing_registered_ += ue->registered() ? 1u : 0u;
        all_.push_back(ue);
      }
    for (Testbed::Site* site : sites_) {
      for (epc::Ue* ue : tb_.make_ues(*site, kFresh, {0.8})) all_.push_back(ue);
      cell_ues_.push_back(site->ue_ptrs());
    }
    tb_.delays().clear();

    topo_.engine = &eng;
    topo_.network = &tb_.network();
    topo_.fabric = &tb_.fabric();
    for (auto& c : clusters_) topo_.clusters.push_back(c.get());
    for (Testbed::Site* s : sites_) {
      for (auto& enb : s->enbs) topo_.enbs.push_back(enb.get());
      topo_.sgws.push_back(s->sgw.get());
    }
    topo_.hss = {&tb_.hss()};
    topo_.delays = &tb_.delays();
  }

  const Topology& topology() const { return topo_; }
  epc::Fabric& fabric() { return tb_.fabric(); }

  void window(Stepper& st, Outcome& out) {
    sim::Engine& eng = tb_.engine();
    start_ = UeTally::read(all_);
    const Time t0 = eng.now();
    for (std::size_t cell = 0; cell < kCells; ++cell) {
      workload::OpenLoopDriver::Config drv;
      drv.rate_per_sec = 40.0;
      drv.mix.service_request = 0.7;
      drv.mix.tau = 0.3;
      drv.seed = seeds_.next_u64();
      drivers_.push_back(std::make_unique<workload::OpenLoopDriver>(
          eng, standing_[cell], drv));
      drivers_.back()->start(t0 + Duration::sec(14.0));
      bursts_.push_back(std::make_unique<workload::MassAccessEvent>(
          eng, cell_ues_[cell], seeds_.next_u64()));
      bursts_.back()->schedule(t0 + Duration::sec(2.0), kBurst,
                               Duration::sec(2.0));
    }
    st.run_until(t0 + Duration::sec(14.0));
    double ms = 0.0;
    for (auto& c : clusters_) {
      const std::int64_t e0 = host_ns();
      c->run_epoch();
      ms += static_cast<double>(host_ns() - e0) / 1e6;
    }
    out.epoch_ms = ms / static_cast<double>(clusters_.size());
  }

  void finish(Outcome& out) {
    out.check(standing_registered_ == kCells * kStanding,
              "attach_burst: " + std::to_string(standing_registered_) +
                  " standing devices registered in set-up");
    out.check(start_.pending == 0,
              "attach_burst: procedures pending when the window opened");
    std::uint64_t issued = 0;
    for (const auto& d : drivers_) issued += d->issued();
    for (const auto& b : bursts_) issued += b->issued();
    const UeTally end = UeTally::read(all_);
    const std::uint64_t completed = end.completed - start_.completed;
    const std::uint64_t failed = end.failed - start_.failed;
    out.check(completed + failed + end.pending == issued,
              "attach_burst: attempted " + std::to_string(issued) +
                  " != completed " + std::to_string(completed) +
                  " + failed " + std::to_string(failed) + " + pending " +
                  std::to_string(end.pending));
    for (auto& c : clusters_)
      out.check(c->mmp_count() == 3, "attach_burst: pool resized");
    out.attempted = issued;
    out.completed = completed;
    out.record(tb_.delays(), proto::ProcedureType::kServiceRequest, &out.sr);
    out.record(tb_.delays(), proto::ProcedureType::kAttach, &out.attach);
    out.record(tb_.delays(), proto::ProcedureType::kTrackingAreaUpdate,
               nullptr);
    check_masters(all_, topo_.clusters, out, "attach_burst");
    store_footprint(topo_.clusters, out);
  }

 private:
  using Testbed = testbed::Testbed;

  bool standing_settled() const {
    for (const auto& cell : standing_)
      for (const epc::Ue* ue : cell)
        if (!ue->registered() || ue->busy()) return false;
    return true;
  }

  Testbed::Config tb_config() {
    Testbed::Config cfg;
    cfg.seed = seeds_.next_u64();
    cfg.transport.reliable = true;
    // Every attempt comes from the benchmark's drivers.
    cfg.auto_reattach = false;
    return cfg;
  }

  Rng seeds_;  ///< every generator seed, drawn from --seed
  Testbed tb_;
  std::vector<Testbed::Site*> sites_;
  std::vector<std::unique_ptr<core::ScaleCluster>> clusters_;
  std::vector<std::vector<epc::Ue*>> standing_;
  std::vector<std::vector<epc::Ue*>> cell_ues_;
  std::vector<epc::Ue*> all_;
  std::vector<std::unique_ptr<workload::OpenLoopDriver>> drivers_;
  std::vector<std::unique_ptr<workload::MassAccessEvent>> bursts_;
  std::uint64_t standing_registered_ = 0;
  UeTally start_;
  Topology topo_;
};

// --------------------------------------------------------------- runs

struct Pass {
  bool traced = false;
  bool byte_accounting = true;
  bool setup_only = false;  ///< build the world, time it, tear it down
};

/// Build the world (set-up), run its measured window, check its outputs.
template <typename World, typename Params>
Outcome run_pass(const Params& params, Pass pass) {
  Outcome out;
  try {
    const std::int64_t s0 = host_ns();
    World w(params);
    out.setup_s = ns_to_s(host_ns() - s0);
    if (pass.setup_only) return out;
    w.fabric().set_byte_accounting(pass.byte_accounting);
    const Topology& topo = w.topology();
    const Probe probe(topo);
    Stepper st(*topo.engine, pass.traced ? &probe : nullptr);
    out.begin = Counters::read(topo);
    const std::uint64_t a0 = perfbench::alloc_calls();
    const std::int64_t t0 = host_ns();
    w.window(st, out);
    out.window_s = ns_to_s(host_ns() - t0);

    out.allocs = perfbench::alloc_calls() - a0;
    out.end = Counters::read(topo);
    out.layer_ns = st.layer_ns;
    out.pending_peak = st.pending_peak;
    w.finish(out);
  } catch (const std::exception& e) {
    out.errors.push_back(std::string("exception: ") + e.what());
  }
  return out;
}

Outcome run_workload(const std::string& name, std::uint64_t seed, Pass pass) {
  if (name == "storm_1m")
    return run_pass<StormWorld>(storm_params(seed), pass);
  if (name == "epc_geo") return run_pass<GeoWorld>(seed, pass);
  return run_pass<BurstWorld>(seed, pass);
}

// -------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_result(const std::vector<Metric>& metrics, bool correct,
                  std::uint64_t attempted, std::uint64_t failed) {
  for (const Metric& m : metrics)
    std::printf("%-26s %16.6f %-10s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  std::string js = "{\"correct\": ";
  js += correct ? "true" : "false";
  js += ", \"attempted\": " + std::to_string(attempted);
  js += ", \"failed\": " + std::to_string(failed);
  js += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) js += ", ";
    js += "\"" + metrics[i].name + "\": {\"value\": " +
          json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
          "\"}";
  }
  js += "}}";
  std::printf("%s\n", js.c_str());
  std::fflush(stdout);
}

std::string samples_note(const PercentileSampler& s) {
  return "n=" + std::to_string(s.count());
}

double pct(const PercentileSampler& s, double q) {
  return s.empty() ? 0.0 : s.percentile(q);
}

/// The simulated end-to-end metrics of one run (identical for every run of
/// a seed).
void simulated_metrics(const Outcome& o, std::vector<Metric>& m) {
  const double attempted = static_cast<double>(o.attempted);
  m.push_back({"sr_p50_ms", pct(o.sr, 0.5), "ms", samples_note(o.sr)});
  m.push_back({"sr_p99_ms", pct(o.sr, 0.99), "ms", samples_note(o.sr)});
  m.push_back({"attach_p99_ms", pct(o.attach, 0.99), "ms",
               samples_note(o.attach)});
  m.push_back({"msgs_per_proc",
               ratio(static_cast<double>(o.d_messages()), o.procs()),
               "msg/proc", ""});
  m.push_back({"completed_ratio", ratio(o.procs(), attempted), "ratio",
               std::to_string(o.completed) + "/" + std::to_string(o.attempted)});
  m.push_back({"deadline_ratio",
               ratio(static_cast<double>(o.within_deadline), attempted),
               "ratio", "completed within 1 s"});
}

void print_errors(const Outcome& o) {
  for (const std::string& e : o.errors)
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// End-to-end mode: repeat the workload until `seconds` have passed (at
/// least three times). procs_per_s pools every repetition's window (total
/// procedures over total window time), so a run averages over the host's
/// speed swings instead of landing on one of them; setup_s is the median of
/// the repetitions' set-up samples.
int run_end_to_end(const std::string& name, std::uint64_t seed,
                   double seconds) {
  const std::int64_t start = host_ns();
  std::vector<Outcome> reps;
  std::vector<double> setup;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double peak_rss_mb = 0.0;
  while (reps.size() < 3 || ns_to_s(host_ns() - start) < seconds) {
    reps.push_back(run_workload(name, seed, Pass{}));
    // The peak of a process that has run this workload once; later
    // repetitions may only add allocator fragmentation.
    if (reps.size() == 1) peak_rss_mb = vm_hwm_mb();
    const Outcome& o = reps.back();
    double setup_total = o.setup_s;
    int builds = 1;
    for (; setup_total < kSetupSample; ++builds)
      setup_total += run_workload(name, seed, Pass{false, true, true}).setup_s;
    setup.push_back(setup_total / builds);
    print_errors(o);
    bool ok = o.errors.empty();
    if (reps.size() > 1 && o.digest(true) != reps.front().digest(true)) {
      std::fprintf(stderr, "CHECK FAILED: repetition %zu digest %s differs\n",
                   reps.size(), hex(o.digest(true)).c_str());
      ok = false;
    }
    attempted += o.attempted;
    if (!ok) {
      correct = false;
      failed += o.attempted;
    }
    if (o.attempted == 0) break;
  }
  double procs = 0.0;
  double window_s = 0.0;
  for (const Outcome& o : reps) {
    procs += o.procs();
    window_s += o.window_s;
  }
  const Outcome& first = reps.front();
  std::printf("workload %s seed %llu reps %zu nproc %ld\n", name.c_str(),
              static_cast<unsigned long long>(seed), reps.size(),
              sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("digest %s\n", hex(first.digest(true)).c_str());
  std::vector<Metric> m;
  m.push_back({"procs_per_s", ratio(procs, window_s), "proc/s",
               std::to_string(reps.size()) + " reps of " +
                   std::to_string(first.completed) + " procs"});
  m.push_back({"setup_s", median(setup), "s",
               "median of " + std::to_string(setup.size()) + " samples"});
  m.push_back({"peak_rss_mb", peak_rss_mb, "MB", "VmHWM after one run"});
  simulated_metrics(first, m);
  print_result(m, correct, std::max<std::uint64_t>(attempted, 1), failed);
  return correct ? 0 : 1;
}

/// Per-layer mode: rounds of (untraced, traced, traced with byte accounting
/// off) until `seconds` have passed. Host ratios are medians over rounds;
/// layer shares pool the traced passes.
int run_traced(const std::string& name, std::uint64_t seed, double seconds) {
  const std::int64_t start = host_ns();
  std::vector<Outcome> plain, traced, nobytes;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  while (plain.empty() || ns_to_s(host_ns() - start) < seconds) {
    plain.push_back(run_workload(name, seed, Pass{false, true}));
    traced.push_back(run_workload(name, seed, Pass{true, true}));
    nobytes.push_back(run_workload(name, seed, Pass{true, false}));
    const Outcome& p = plain.back();
    bool ok = true;
    for (const Outcome* o :
         {&p, &std::as_const(traced.back()), &std::as_const(nobytes.back())}) {
      print_errors(*o);
      ok = ok && o->errors.empty();
    }
    if (traced.back().digest(true) != p.digest(true) ||
        nobytes.back().digest(false) != p.digest(false) ||
        p.digest(true) != plain.front().digest(true)) {
      std::fprintf(stderr,
                   "CHECK FAILED: traced or byte-accounting-off pass changed "
                   "the simulated outcome\n");
      ok = false;
    }
    attempted += p.attempted;
    if (!ok) {
      correct = false;
      failed += p.attempted;
    }
    if (p.attempted == 0) break;
  }

  std::vector<double> overhead, wire_share, ns_per_event, unattributed;
  std::array<double, kLayers> layer_total{};
  for (std::size_t i = 0; i < plain.size(); ++i) {
    const double base = plain[i].window_s;
    overhead.push_back(ratio(traced[i].window_s, base) - 1.0);
    wire_share.push_back(
        ratio(traced[i].window_s - nobytes[i].window_s, traced[i].window_s));
    ns_per_event.push_back(
        ratio(base * 1e9, static_cast<double>(plain[i].d_events())));
    double stepped = 0.0;
    for (std::size_t l = 0; l < kLayers; ++l) {
      layer_total[l] += static_cast<double>(traced[i].layer_ns[l]);
      stepped += static_cast<double>(traced[i].layer_ns[l]);
    }
    unattributed.push_back(1.0 - ratio(stepped * 1e-9, traced[i].window_s));
  }
  double all_layers = 0.0;
  for (double v : layer_total) all_layers += v;

  const Outcome& o = plain.front();
  const Counters& b = o.begin;
  const Counters& e = o.end;
  const double procs = o.procs();
  auto d = [](std::uint64_t x1, std::uint64_t x0) {
    return static_cast<double>(x1 - x0);
  };
  double max_h = 0.0, sum_h = 0.0;
  for (std::size_t i = 0; i < e.handled.size(); ++i) {
    const double h = d(e.handled[i], i < b.handled.size() ? b.handled[i] : 0);
    max_h = std::max(max_h, h);
    sum_h += h;
  }
  const double mean_h =
      e.handled.empty() ? 0.0 : sum_h / static_cast<double>(e.handled.size());
  std::vector<double> owner, load, epoch;
  for (const Outcome& p : plain) {
    owner.push_back(p.owner_ns);
    load.push_back(p.load_ns);
    epoch.push_back(p.epoch_ms);
  }

  std::printf("workload %s seed %llu rounds %zu nproc %ld\n", name.c_str(),
              static_cast<unsigned long long>(seed), plain.size(),
              sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("digest %s\n", hex(o.digest(true)).c_str());
  std::vector<Metric> m;
  m.push_back({"sim.events_per_proc", ratio(d(e.events, b.events), procs),
               "event/proc", ""});
  m.push_back({"sim.host_ns_per_event", median(ns_per_event), "ns",
               "untraced pass"});
  m.push_back({"sim.pending_peak", traced.front().pending_peak, "count",
               "live events at 10 ms slice boundaries"});
  m.push_back({"sim.mmp_util",
               ratio(static_cast<double>(e.busy_us - b.busy_us),
                     (e.now - b.now).to_ms() * 1000.0 *
                         static_cast<double>(e.handled.size())),
               "ratio", "simulated CPU busy share"});
  m.push_back({"proto.bytes_per_msg",
               ratio(static_cast<double>(o.d_bytes()),
                     static_cast<double>(o.d_messages())),
               "B/msg", ""});
  m.push_back({"proto.wire_size_share", median(wire_share), "ratio",
               "traced time saved with byte accounting off"});
  m.push_back({"epc.fabric.pdus_per_batch",
               ratio(d(e.batches, b.batches) + d(e.batched_pdus, b.batched_pdus),
                     d(e.batches, b.batches)),
               "pdu/batch", ""});
  m.push_back({"epc.store.bytes_per_ue", o.bytes_per_ue, "B",
               "footprint per stored context"});
  m.push_back({"epc.store.load_ns_per_ctx", median(load), "ns",
               "storm_1m bulk load only"});
  m.push_back({"epc.reliable.retransmits", d(e.retransmits, b.retransmits),
               "count", ""});
  m.push_back({"epc.reliable.abandoned", d(e.abandoned, b.abandoned), "count",
               ""});
  m.push_back({"epc.enb.paced_initials", d(e.paced, b.paced), "count", ""});
  m.push_back({"hash.owner_ns", median(owner), "ns", "per owner() call"});
  m.push_back({"core.mlb.routed_per_proc", ratio(d(e.routed, b.routed), procs),
               "pdu/proc", ""});
  m.push_back({"core.mlb.resteers", d(e.resteers, b.resteers), "count", ""});
  m.push_back({"core.mlb.drops", d(e.mlb_drops, b.mlb_drops), "count", ""});
  m.push_back({"core.mmp.forwards_per_proc",
               ratio(d(e.forwards, b.forwards), procs), "msg/proc", ""});
  m.push_back({"core.mmp.replicas_per_proc",
               ratio(d(e.replicas, b.replicas), procs), "msg/proc", ""});
  m.push_back({"core.mmp.sheds", d(e.sheds, b.sheds), "count", ""});
  m.push_back({"core.mmp.imbalance", ratio(max_h, mean_h), "ratio",
               "max/mean requests_handled"});
  m.push_back({"core.geo.offloads", d(e.offloads, b.offloads), "count", ""});
  m.push_back({"core.geo.rejects", d(e.geo_rejects, b.geo_rejects), "count",
               ""});
  m.push_back({"core.epoch_ms", median(epoch), "ms", "per run_epoch call"});
  m.push_back({"host.allocs_per_proc",
               ratio(static_cast<double>(o.allocs), procs), "alloc/proc",
               std::to_string(o.allocs) + " allocations"});
  for (std::size_t l = 0; l < kLayers; ++l)
    m.push_back({kLayerMetric[l], ratio(layer_total[l], all_layers), "ratio",
                 "of stepped time"});
  m.push_back({"host.trace_overhead", median(overhead), "ratio",
               "traced / untraced window - 1"});
  m.push_back({"host.unattributed", median(unattributed), "ratio",
               "traced window outside any step"});
  print_result(m, correct, std::max<std::uint64_t>(attempted, 1), failed);
  return correct ? 0 : 1;
}

// ----------------------------------------------------------- cross-check

/// perf_core's timer lane: one self-rescheduling event chain.
void tick(sim::Engine& eng, std::uint64_t& fired, std::uint64_t budget,
          std::uint32_t lane) {
  ++fired;
  if (fired >= budget) return;
  const std::int64_t delay =
      1 + static_cast<std::int64_t>((lane * 7u + fired % 13u) % 97u);
  eng.after(Duration::us(delay),
            [&eng, &fired, budget, lane] { tick(eng, fired, budget, lane); });
}

/// perf_core's ring echo: forwards every PDU to the next shard's endpoint
/// until its hop budget is spent.
struct RingEcho final : epc::Endpoint {
  epc::Fabric* fabric = nullptr;
  sim::NodeId self = 0;
  sim::NodeId next = 0;
  std::uint64_t budget = 0;
  void receive(sim::NodeId, const proto::Pdu& pdu) override {
    if (budget == 0) return;
    --budget;
    fabric->send(self, next, pdu);
  }
};

/// Leaves this thread's free lists as perf_core's phases leave them before
/// its fig10_1m_storm row: its buffer-pool warm-up, then its sharded_step
/// world at one worker (4 engine shards with timer lanes and a cross-shard
/// echo ring), which fills the PduBox and action-block free lists the storm
/// draws on. Of perf_core's earlier phases these two alone decide the
/// storm's allocation count.
void warm_like_perf_core() {
  for (int i = 0; i < 1'000'000; ++i) {
    proto::PooledBuffer buf =
        proto::BufferPool::local().acquire(proto::kPduReserveBytes);
    buf->push_back(static_cast<std::uint8_t>(i & 0xFF));
  }

  constexpr std::uint32_t kShards = 4;
  constexpr std::uint32_t kLanes = 4;
  constexpr std::uint64_t kTicks = 30'000;
  constexpr std::uint64_t kSeeds = 8;
  constexpr std::uint64_t kHops = 10'000;
  sim::Network net;
  net.set_shard_count(kShards);
  for (std::uint32_t a = 0; a < kShards; ++a)
    for (std::uint32_t b = a + 1; b < kShards; ++b)
      net.set_dc_latency(a, b, Duration::ms(1.0));
  sim::ShardRouter router;
  for (std::uint32_t s = 1; s < kShards; ++s) router.add_shard();
  std::vector<std::unique_ptr<sim::Engine>> engines;
  std::vector<std::unique_ptr<epc::Fabric>> fabrics;
  std::vector<RingEcho> echoes(kShards);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    engines.push_back(std::make_unique<sim::Engine>());
    fabrics.push_back(std::make_unique<epc::Fabric>(*engines[s], net));
    fabrics[s]->attach_shard(router, s);
    echoes[s].fabric = fabrics[s].get();
    echoes[s].self = fabrics[s]->add_endpoint(&echoes[s]);
    echoes[s].budget = kHops;
    net.set_node_dc(echoes[s].self, s);
  }
  for (std::uint32_t s = 0; s < kShards; ++s)
    echoes[s].next = echoes[(s + 1) % kShards].self;
  std::vector<std::uint64_t> fired(kShards * kLanes, 0);
  for (std::uint32_t s = 0; s < kShards; ++s)
    for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
      sim::Engine& eng = *engines[s];
      std::uint64_t& f = fired[s * kLanes + lane];
      eng.after(Duration::us(1 + lane % 29),
                [&eng, &f, lane] { tick(eng, f, kTicks, lane); });
    }
  // perf_core's attach PDU (InitialUeMessage carrying an Attach Request).
  proto::NasAttachRequest nas;
  nas.imsi = 123456789012345ull;
  nas.old_guti = proto::Guti{310, 17, 3, 0xBEEF01};
  nas.tac = 7;
  for (std::uint32_t s = 0; s < kShards; ++s)
    for (std::uint64_t i = 0; i < kSeeds; ++i)
      fabrics[s]->send(echoes[s].self, echoes[s].next,
                       proto::make_pdu(proto::InitialUeMessage{
                           9, 8, 7, proto::NasMessage{nas}}));
  std::vector<sim::ShardedSim::Shard> shards;
  for (std::uint32_t s = 0; s < kShards; ++s)
    shards.push_back({engines[s].get(),
                      [f = fabrics[s].get()](sim::CrossShardMsg&& m) {
                        f->accept_arrival(std::move(m));
                      }});
  sim::ShardedSim::Config cfg;
  cfg.threads = 1;
  cfg.lookahead = net.min_cross_dc_latency();
  sim::ShardedSim sharded(router, std::move(shards), cfg);
  sharded.run_until(Time::from_us(2'500'000));
}

/// storm_1m at perf_core's size and seeds, run on free lists warmed as
/// perf_core warms them, must reproduce its fig10_1m_storm row: events,
/// allocations and accepts.
int run_crosscheck() {
  constexpr std::uint64_t kEvents = 4'846'900;
  constexpr std::uint64_t kAllocs = 5'816'276;
  warm_like_perf_core();
  const Outcome o = run_pass<StormWorld>(perf_core_storm(), Pass{});
  print_errors(o);
  const bool allocs_known = perfbench::alloc_counting();
  std::printf("crosscheck storm_1m vs perf_core fig10_1m_storm\n");
  std::printf("  events   %llu (perf_core %llu)\n",
              static_cast<unsigned long long>(o.storm_events),
              static_cast<unsigned long long>(kEvents));
  std::printf("  allocs   %llu (perf_core %llu)%s\n",
              static_cast<unsigned long long>(o.storm_allocs),
              static_cast<unsigned long long>(kAllocs),
              allocs_known ? "" : " [not counted in this build]");
  std::printf("  accepts  %llu/%llu\n",
              static_cast<unsigned long long>(o.storm_accepts),
              static_cast<unsigned long long>(o.storm_sent));
  const bool ok = o.errors.empty() && o.storm_events == kEvents &&
                  (!allocs_known || o.storm_allocs == kAllocs) &&
                  o.storm_accepts == 200'000 && o.storm_sent == 200'000;
  std::printf("crosscheck %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool crosscheck = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--crosscheck") {
      crosscheck = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
      return 2;
    }
  }
  if (crosscheck) return run_crosscheck();
  if (workload != "storm_1m" && workload != "epc_geo" &&
      workload != "attach_burst") {
    std::fprintf(stderr,
                 "usage: %s --workload storm_1m|epc_geo|attach_burst "
                 "[--seed N] [--seconds S] | --crosscheck\n",
                 argv[0]);
    return 2;
  }
  return perfbench::alloc_counting() ? run_traced(workload, seed, seconds)
                                     : run_end_to_end(workload, seed, seconds);
}
