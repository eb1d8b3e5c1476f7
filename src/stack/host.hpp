// Host: a complete stack instance — pool, device, layers, scheduler.
//
// Wires device -> ethernet -> ip -> {tcp, udp} -> socket through a
// core::StackGraph, so the same host runs under conventional or LDLP
// scheduling with one switch. pump() is the softirq loop: it pulls every
// frame waiting in the adaptor into mbufs and hands them to the graph —
// under LDLP that is precisely the batch-formation point of section 3.1.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/stack_graph.hpp"
#include "time/timer_wheel.hpp"
#include "time/virtual_clock.hpp"
#include "stack/eth_layer.hpp"
#include "stack/igmp.hpp"
#include "stack/ip_layer.hpp"
#include "stack/netdev.hpp"
#include "stack/socket_layer.hpp"
#include "stack/tcp_layer.hpp"
#include "stack/udp_layer.hpp"

namespace ldlp::stack {

struct HostConfig {
  std::string name = "host";
  wire::MacAddr mac{0x02, 0, 0, 0, 0, 1};
  std::uint32_t ip = 0;
  std::uint16_t mtu = 1500;
  std::size_t pool_mbufs = 8192;
  std::size_t pool_clusters = 2048;
  core::SchedMode mode = core::SchedMode::kConventional;
  std::size_t batch_limit = 0;  ///< LDLP entry-layer yield bound; 0 = all.
  std::size_t rx_queues = 1;    ///< RX queues (flow-hash sharded when > 1).
  bool rx_symmetric = false;    ///< Co-steer both directions of a flow.
  TcpConfig tcp{};
};

class Host {
 public:
  explicit Host(HostConfig config);

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return cfg_.name; }
  [[nodiscard]] NetDevice& device() noexcept { return dev_; }
  [[nodiscard]] EthLayer& eth() noexcept { return *eth_; }
  [[nodiscard]] Ip4Layer& ip() noexcept { return *ip_; }
  [[nodiscard]] TcpLayer& tcp() noexcept { return *tcp_; }
  [[nodiscard]] UdpLayer& udp() noexcept { return *udp_; }
  [[nodiscard]] IgmpHost& igmp() noexcept { return *igmp_; }
  [[nodiscard]] SocketLayer& sockets() noexcept { return *sock_; }
  [[nodiscard]] core::StackGraph& graph() noexcept { return graph_; }
  [[nodiscard]] buf::MbufPool& pool() noexcept { return pool_; }

  /// This host's *virtual* clock — what its timers, RTOs and TTLs see.
  /// Identical to real_now() unless clock-fault episodes are active.
  [[nodiscard]] double now() const noexcept { return now_; }
  /// The fabric/driver clock: the sum of advance() deltas.
  [[nodiscard]] double real_now() const noexcept { return real_now_; }

  /// The host-owned hierarchical timer wheel. Every protocol timer on
  /// this host (TCP, ARP, and any application endpoint living here)
  /// arms through it; advance() turns it. next_deadline() is what lets
  /// ldlp::net::Fabric skip tick rounds for quiescent hosts.
  [[nodiscard]] time::TimerWheel& wheel() noexcept { return wheel_; }
  [[nodiscard]] const time::TimerWheel& wheel() const noexcept {
    return wheel_;
  }

  /// Attach a fault injector to this host: its clock follows the host's,
  /// the device applies its frame-scope episodes, and advance() drives
  /// its pool-pressure episodes against this host's pool. nullptr
  /// detaches (any held pool buffers are released).
  void attach_fault(fault::FaultInjector* injector) noexcept;

  /// Advance simulated time and fire protocol timers.
  void advance(double dt_sec);

  /// Absolute-time variant for event-engine drivers (ldlp::net::Fabric):
  /// snap the host clock to `t_sec` (>= real_now) and fire timers once.
  /// The per-host advance(dt) loops disappear — one shared
  /// eventsim::EventQueue owns time and calls this on every host tick.
  /// `t_sec` is *real* (fabric) time; the virtual clock follows it
  /// through any active clock-fault episodes.
  void advance_to(double t_sec) {
    advance(t_sec > real_now_ ? t_sec - real_now_ : 0.0);
  }

  /// Crash and reboot in place: TCP PCBs, socket buffers, the ARP cache,
  /// partial reassemblies, and the device RX ring are wiped — none of
  /// that survives a power cycle — while the scheduler's in-flight queues
  /// (software, conceptually re-run after boot) and every statistics
  /// counter (the observer's ledger, not the host's) are preserved, so
  /// the chaos conservation laws keep holding across the crash.
  /// advance() calls this when the attached injector reports a pending
  /// FaultKind::kHostRestart episode; tests may call it directly.
  void restart();

  /// Drain the device RX rings through the stack. Returns frames handled.
  /// Under LDLP each RX queue's backlog is injected and the graph then
  /// runs layer by layer — one batch per queue, so with rx_queues > 1 each
  /// shard's flows stay together and its d-cache state stays hot while
  /// i-cache amortisation happens within the shard's batch. Conventionally
  /// each frame runs to completion; with one queue this is the classic
  /// single-ring pump, bit for bit.
  std::size_t pump(std::size_t max_frames = SIZE_MAX);

  /// Drain one RX queue only (the per-shard pump step): injects that
  /// queue's frames and, under LDLP, runs the graph for that shard's
  /// batch. Returns frames handled. Does not run the post-pass hook;
  /// callers driving shards individually invoke run_post_pass() after the
  /// last shard of a pass.
  std::size_t pump_queue(std::size_t queue, std::size_t max_frames = SIZE_MAX);

  /// The device-interrupt half of the pump, alone: vector through the
  /// interrupt glue and copy the next frame of RX `queue` out of device
  /// memory into one fresh mbuf (plus a cluster when it needs one). Empty when the queue is idle or the
  /// pool is exhausted (frames then stay in device memory). ldlp::pipe
  /// uses this as the intake of its parse stage; pump_queue() is exactly
  /// pull_frame + inject_rx in a loop.
  [[nodiscard]] buf::Packet pull_frame(std::size_t queue);

  /// The softirq half: hand one pulled frame to the stack's entry layer.
  /// Conventional mode processes it through the whole stack here; LDLP
  /// mode enqueues it and the caller decides the schedule — graph().run()
  /// for a layer-blocked batch, run_stage_pass() for a pipeline stage.
  void inject_rx(buf::Packet frame);

  /// Fire the post-pass hook (invariant auditors) if any is attached.
  void run_post_pass() {
    if (post_pass_hook_) post_pass_hook_();
  }

  /// Hook run at the end of every pump() that handled at least one frame
  /// — i.e. after every scheduler pass. Chaos builds hang the ldlp::check
  /// invariant auditors here; clean builds leave it empty (one branch).
  void set_post_pass_hook(std::function<void()> hook) {
    post_pass_hook_ = std::move(hook);
  }

  /// Hook run at the end of restart(), after kernel state is wiped.
  /// Application endpoints living on this host (overlay nodes, RPC
  /// servers) hang their own crash-recovery here: whatever they would
  /// lose in a power cycle gets wiped in the same instant the kernel's
  /// does. Empty by default (one branch).
  void set_restart_hook(std::function<void()> hook) {
    restart_hook_ = std::move(hook);
  }

 private:
  HostConfig cfg_;
  double now_ = 0.0;       ///< Virtual time (timer-visible).
  double real_now_ = 0.0;  ///< Driver/fabric time (sum of advance dts).
  time::TimerWheel wheel_;
  time::VirtualClock vclock_;
  buf::MbufPool pool_;
  NetDevice dev_;
  std::unique_ptr<EthLayer> eth_;
  std::unique_ptr<Ip4Layer> ip_;
  std::unique_ptr<TcpLayer> tcp_;
  std::unique_ptr<UdpLayer> udp_;
  std::unique_ptr<SocketLayer> sock_;
  std::unique_ptr<IgmpHost> igmp_;
  core::StackGraph graph_;
  core::LayerId eth_id_ = core::kNoLayer;
  fault::FaultInjector* fault_ = nullptr;
  std::function<void()> post_pass_hook_;
  std::function<void()> restart_hook_;
};

}  // namespace ldlp::stack
