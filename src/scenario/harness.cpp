#include "scenario/harness.hpp"

#include "net/topology.hpp"
#include "wire/ipv4.hpp"

namespace ldlp::scenario {

namespace {

/// Every scenario host: small pools keep the allocation-failure paths hot
/// (a pool-exhaustion episode genuinely starves the stack), LDLP mode
/// injects the whole RX backlog before any layer runs so deferred-delivery
/// races occur, and keepalive reaps peers that crashed for good (the idle
/// clock resets on every received segment, so an active transfer never
/// sees a probe).
stack::HostConfig scenario_host() {
  stack::HostConfig c;
  c.pool_mbufs = 384;
  c.pool_clusters = 96;
  c.mode = core::SchedMode::kLdlp;
  c.tcp.keepalive_idle_sec = 5.0;
  c.tcp.keepalive_intvl_sec = 1.0;
  c.tcp.keepalive_probes = 4;
  return c;
}

}  // namespace

Harness::Harness(const check::Schedule& schedule, Topology topology,
                 std::uint64_t timeout_ms)
    : fabric_(net::FabricConfig{kTickSec, schedule.seed * 2 + 1}) {
  deadline_armed_ = timeout_ms != 0;
  if (deadline_armed_)
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::milliseconds(timeout_ms);

  if (topology.racks == 0) {
    stack::HostConfig a = scenario_host();
    a.name = "a";
    a.mac = {2, 0, 0, 0, 0, 1};
    a.ip = wire::ip_from_parts(10, 0, 0, 1);
    stack::HostConfig b = a;
    b.name = "b";
    b.mac = {2, 0, 0, 0, 0, 2};
    b.ip = wire::ip_from_parts(10, 0, 0, 2);
    hosts_.push_back(fabric_.add_host(a));
    hosts_.push_back(fabric_.add_host(b));
    fabric_.link(net::PortRef::host(hosts_[0]), net::PortRef::host(hosts_[1]));
  } else {
    net::FatTreeConfig topo;
    topo.racks = topology.racks;
    topo.hosts_per_rack = topology.hosts_per_rack;
    topo.spines = topology.spines;
    topo.proto = scenario_host();
    hosts_ = net::build_fat_tree(fabric_, topo);
  }

  // "fabric" is the topology-scoped plan; any other name is the host of
  // that name. Unknown names (a foreign or hand-edited spec) are ignored.
  host_inj_.assign(hosts_.size(), nullptr);
  restart_victim_.assign(hosts_.size(), false);
  for (const check::InjectorSpec& spec : schedule.injectors) {
    if (spec.host == "fabric") {
      fabric_.set_fault_plan(spec.plan, spec.rng_seed);
      continue;
    }
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
      if (host(i).name() != spec.host) continue;
      injectors_.push_back(
          std::make_unique<fault::FaultInjector>(spec.plan, spec.rng_seed));
      host(i).attach_fault(injectors_.back().get());
      host_inj_[i] = injectors_.back().get();
      for (const fault::Episode& e : spec.plan.episodes())
        if (e.kind == fault::FaultKind::kHostRestart) restart_victim_[i] = true;
      break;
    }
  }

  auditors_.reserve(hosts_.size());
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    auditors_.push_back(std::make_unique<check::HostAuditor>(host(i)));
    auditors_.back()->install();
  }

  fabric_.set_pass_hook([this] {
    if (supervised_) {
      conv_.on_pass();
      dog_.on_pass();
    }
    if (pass_fn_) pass_fn_();
  });
}

Harness::~Harness() { detach(); }

void Harness::detach() {
  for (std::size_t i = 0; i < hosts_.size(); ++i) host(i).attach_fault(nullptr);
}

bool Harness::expired() const {
  return deadline_armed_ && std::chrono::steady_clock::now() >= deadline_;
}

bool Harness::faults_cleared() const {
  if (!fabric_.faults_cleared()) return false;
  for (const auto& injector : injectors_)
    if (!injector->faults_cleared()) return false;
  return true;
}

void Harness::supervise() {
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    conv_.add_host(host(i), host_inj_[i]);
    dog_.add_host(host(i), host_inj_[i]);
  }
  conv_.add_clearance([this] { return fabric_.faults_cleared(); });
  dog_.add_clearance([this] { return fabric_.faults_cleared(); });
  supervised_ = true;
}

void Harness::settle(Result& r) {
  // An ARP park holds an mbuf until its resolution lands or the retry
  // ladder gives up (~15 s of sim time worst case), so wait for both.
  const auto arp_parked = [this] {
    for (std::size_t i = 0; i < hosts_.size(); ++i)
      if (host(i).eth().arp().pending_total() != 0) return true;
    return false;
  };
  for (int i = 0; i < 80 && (!faults_cleared() || arp_parked()) && !expired();
       ++i)
    fabric_.run_for(0.5);
  fabric_.set_pass_hook(nullptr);
  if (expired())
    r.fail(kBudgetExceeded);
  else if (!faults_cleared())
    r.fail("faults never cleared (active episodes or frames in flight)");
  detach();
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    stack::Host& h = host(i);
    h.pump();
    if (h.graph().backlog() != 0)
      r.fail(h.name() + ": graph backlog not drained");
    for (core::LayerId id = 0; id < h.graph().layer_count(); ++id) {
      const core::Layer& layer = h.graph().layer(id);
      if (layer.stats().max_queue > layer.queue_capacity())
        r.fail(h.name() + "/" + layer.name() + ": queue bound exceeded");
    }
    if (h.pool().stats().mbufs_outstanding() != 0)
      r.fail(h.name() + ": mbuf leak (" +
             std::to_string(h.pool().stats().mbufs_outstanding()) +
             " outstanding)");
  }
  if (fabric_.conservation_residual() != 0)
    r.fail("fabric conservation violated (residual " +
           std::to_string(fabric_.conservation_residual()) + ")");
}

void Harness::fold_audits(Result& r) const {
  for (const auto& auditor : auditors_)
    fold(r, *auditor, "invariant auditor", "audit");
}

void Harness::fold_liveness(Result& r) const {
  fold(r, conv_, "convergence oracle", "recover");
  fold(r, dog_, "progress watchdog", "recover");
}

}  // namespace ldlp::scenario
