// ldlp::rpc fan-out: the tail-at-scale RPC workload over the fleet fabric.
//
// The source paper optimizes the *mean* per-message cost; "Deconstructing
// the Tail at Scale Effect" shows that once a request fans out to N
// servers and completes only when the slowest reply lands, the p99/p999 of
// that slowest-of-N — not the mean — is what the user sees. This layer
// builds exactly that workload out of pieces the repo already has:
//
//   * FanoutServer — an ONC-RPC echo service on one stack::Host. UDP
//     datagrams carry one CALL each; the TCP variant speaks RFC 1831
//     record framing (4-byte length prefix) over persistent connections.
//   * FanoutClient — fans each request to all N servers at once and
//     completes it when the last reply arrives (response time = max of
//     N). Over UDP the client owns reliability: per-(request, server)
//     retransmit timers with capped exponential backoff, which is where
//     the long tail comes from — one lost reply out of 64 costs a full
//     RTO. Over TCP the transport retransmits and the tail comes from
//     head-of-line blocking instead.
//   * run_tail_workload — one simulated cell: a star fabric (client +
//     N servers), open-loop arrivals (self-similar or Poisson), optional
//     topology-scoped fault plan, full latency distribution recorded in
//     an obs::Histogram (p50/p99/p999/p9999).
//   * run_tail_sweep — the figure: fan-out degree x scheduling mode cells
//     run on a par::WorkerPool (cells are independent simulations, so the
//     emitted ldlp.bench.v1 result is bit-identical for any --jobs) —
//     where LDLP layer-blocked batching helps or hurts the tail vs the
//     mean against per-message processing.
//
// Everything is deterministic in the config seed: arrivals, fabric event
// order, retransmit timing and therefore every quantile.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/stack_graph.hpp"
#include "fault/fault_plan.hpp"
#include "obs/bench_result.hpp"
#include "obs/metrics.hpp"
#include "rpc/rpc_msg.hpp"
#include "stack/host.hpp"
#include "time/timer_wheel.hpp"

namespace ldlp::rpc {

/// Program / procedure identity of the tail echo service.
inline constexpr std::uint32_t kTailProg = 0x5441494c;  // "TAIL"
inline constexpr std::uint32_t kTailVers = 1;
inline constexpr std::uint32_t kTailProcEcho = 1;

enum class FanoutTransport : std::uint8_t { kUdp, kTcp };

[[nodiscard]] const char* transport_name(FanoutTransport t) noexcept;

/// Per-message receive-path CPU cost, the paper's model reduced to two
/// numbers: a backlog of k messages costs fill_sec + k * marginal_sec of
/// host CPU. Under LDLP the cache-fill cost is paid once per batch
/// (fill > 0, small marginal); under conventional processing every
/// message pays the full cost (fill ~ 0, marginal ~ solo cost), so the
/// same formula models both. Calibrated, not invented: two short
/// synth::Engine runs (solo-paced and saturated) on the paper's
/// simulated machine yield the two numbers per scheduling mode.
struct ServiceCost {
  double fill_sec = 0.0;      ///< Batch-fixed cost (cache fill).
  double marginal_sec = 0.0;  ///< Per-message cost within a batch.
  [[nodiscard]] bool enabled() const noexcept { return marginal_sec > 0.0; }
};

/// Measure ServiceCost for `mode` on the simulated machine with
/// `message_bytes` messages. Deterministic; results are cached per
/// (mode, size), and safe to call from worker threads.
[[nodiscard]] ServiceCost calibrate_service_cost(core::SchedMode mode,
                                                 std::size_t message_bytes);

struct FanoutConfig {
  FanoutTransport transport = FanoutTransport::kUdp;
  std::uint16_t port = 5300;         ///< Server RPC port (UDP bind / listen).
  std::uint16_t client_port = 5999;  ///< Client UDP source port.
  std::size_t request_bytes = 64;    ///< XDR opaque payload in each CALL.
  std::size_t reply_bytes = 64;      ///< XDR opaque payload in each REPLY.
  double rto_initial_sec = 0.25;     ///< First UDP retransmit timeout.
  double rto_max_sec = 4.0;          ///< Backoff cap (doubling).
  /// Receive-path CPU cost applied on both ends (server: request
  /// processing delays the reply; client: reply processing delays
  /// completion). Disabled (zero) means the fabric's wire time is the
  /// only latency — run_tail_workload calibrates it from the scheduling
  /// mode unless the caller already set it.
  ServiceCost service{};
};

struct FanoutServerStats {
  std::uint64_t calls = 0;      ///< Well-formed CALLs answered.
  std::uint64_t malformed = 0;  ///< Datagrams/records that failed to parse.
};

/// Single-server CPU: backlogs queue FIFO, a batch of k picked up at time
/// t finishes at max(t, busy) + fill + k * marginal, with the i-th
/// message done marginal seconds after the (i-1)-th.
class ServiceQueue {
 public:
  explicit ServiceQueue(ServiceCost cost) noexcept : cost_(cost) {}

  /// Begin a batch at `now`: returns the time the first message's
  /// processing completes; advance() steps to each subsequent one.
  [[nodiscard]] double begin_batch(double now) noexcept {
    cursor_ = std::max(now, busy_until_) + cost_.fill_sec;
    return advance();
  }
  [[nodiscard]] double advance() noexcept {
    cursor_ += cost_.marginal_sec;
    busy_until_ = cursor_;
    return cursor_;
  }

 private:
  ServiceCost cost_;
  double busy_until_ = 0.0;
  double cursor_ = 0.0;
};

/// One echo server instance on a host. poll() drains whatever the stack
/// delivered since the last poll and answers in arrival order (replies
/// release when their request's CPU service completes); drive it once per
/// fabric tick round.
class FanoutServer {
 public:
  FanoutServer(stack::Host& host, const FanoutConfig& config);

  void poll(double now_sec);

  [[nodiscard]] const FanoutServerStats& stats() const noexcept {
    return stats_;
  }
  /// The UDP socket (kNoSocket for TCP) — oracle binding point.
  [[nodiscard]] stack::SocketId udp_socket() const noexcept { return sock_; }

 private:
  struct TcpConn {
    stack::PcbId pcb = stack::kNoPcb;
    stack::SocketId socket = stack::kNoSocket;
    std::vector<std::uint8_t> rx;       ///< Partial record buffer.
    std::vector<std::uint8_t> tx;       ///< Replies the send buffer refused.
  };
  /// A reply whose request is still being "processed" by the server CPU;
  /// it goes on the wire at the first poll at/after `due`.
  struct DueReply {
    double due = 0.0;
    std::vector<std::uint8_t> bytes;
    std::uint32_t dst_ip = 0;        ///< UDP.
    std::uint16_t dst_port = 0;      ///< UDP.
    std::size_t conn = 0;            ///< TCP: index into conns_.
  };

  void poll_udp(double now_sec);
  void poll_tcp(double now_sec);
  void flush_due(double now_sec);
  void answer(const RpcCall& call, std::vector<std::uint8_t>* out);

  stack::Host& host_;
  FanoutConfig cfg_;
  ServiceQueue service_;
  stack::SocketId sock_ = stack::kNoSocket;  ///< UDP only.
  stack::PcbId listener_ = stack::kNoPcb;    ///< TCP only.
  std::vector<TcpConn> conns_;               ///< TCP only.
  std::deque<DueReply> due_;                 ///< FIFO by due time.
  FanoutServerStats stats_;
};

struct FanoutClientStats {
  std::uint64_t requests_started = 0;
  std::uint64_t requests_completed = 0;
  std::uint64_t calls_sent = 0;      ///< Including retransmits.
  std::uint64_t retransmits = 0;     ///< UDP only.
  std::uint64_t replies = 0;         ///< Well-formed replies accepted.
  std::uint64_t stale_replies = 0;   ///< Replies for already-done legs.
  std::uint64_t malformed = 0;
};

/// The fan-out client: one host, N server addresses, many outstanding
/// requests (open loop). Each completed request records
/// (completion - arrival) into the latency histogram — arrival is the
/// scheduled offered time, so queueing behind a busy client counts, as it
/// does for a real user.
class FanoutClient {
 public:
  /// `latency` must outlive the client; `server_ips[i]` is leg i.
  FanoutClient(stack::Host& host, std::vector<std::uint32_t> server_ips,
               const FanoutConfig& config, obs::Histogram& latency);
  ~FanoutClient();

  /// TCP transport: open one connection per server. Call once before the
  /// first start(); poll the fabric until connected() before offering
  /// load (UDP needs no warm-up and connected() is immediately true).
  void connect_all();
  [[nodiscard]] bool connected() const;

  /// Offer one request: fan a CALL to every server leg now. `arrival_sec`
  /// is the scheduled (offered-load) time, `now_sec` the fabric clock.
  void start(double arrival_sec, double now_sec);

  /// Drain replies, complete requests whose last leg landed, retransmit
  /// UDP legs whose RTO expired. Drive once per fabric tick round. The
  /// UDP client keeps one wakeup timer on the host's wheel armed at the
  /// earliest leg RTO, so an idle poll (no replies pending, nothing due)
  /// returns without scanning the outstanding-request table.
  void poll(double now_sec);

  [[nodiscard]] std::size_t outstanding() const noexcept {
    return outstanding_;
  }
  [[nodiscard]] const FanoutClientStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] std::size_t server_count() const noexcept {
    return servers_.size();
  }
  /// The UDP socket (kNoSocket for TCP) — oracle binding point.
  [[nodiscard]] stack::SocketId udp_socket() const noexcept { return sock_; }
  /// Hook observing every CALL payload handed to a leg (ground truth for
  /// delivery oracles; fires for first transmissions and retransmits).
  void set_call_hook(
      std::function<void(std::size_t leg, std::span<const std::uint8_t>)>
          hook) {
    call_hook_ = std::move(hook);
  }

 private:
  struct Leg {  ///< One (request, server) pair in flight.
    bool done = false;
    double last_tx = 0.0;
    double rto = 0.0;
  };
  struct Request {
    std::uint32_t xid = 0;
    double arrival = 0.0;
    std::vector<Leg> legs;
    std::size_t remaining = 0;
  };
  struct TcpLeg {
    stack::PcbId conn = stack::kNoPcb;
    stack::SocketId socket = stack::kNoSocket;
    std::vector<std::uint8_t> rx;
    std::vector<std::uint8_t> tx;
  };

  [[nodiscard]] std::vector<std::uint8_t> encode_call_for(std::uint32_t xid);
  void send_leg(Request& request, std::size_t leg, double now_sec);
  void on_reply(std::size_t leg, const RpcReply& reply, double now_sec);
  void complete(Request& request, double now_sec);
  /// Point the wakeup timer at `due` (+inf cancels). The fire itself is a
  /// no-op — the workload loop polls — but the armed deadline gates the
  /// poll early-exit and is what the timer oracles observe.
  void arm_wake(double due);

  stack::Host& host_;
  std::vector<std::uint32_t> servers_;
  FanoutConfig cfg_;
  ServiceQueue service_;
  obs::Histogram& latency_;
  stack::SocketId sock_ = stack::kNoSocket;  ///< UDP only.
  time::TimerId wake_ = time::kNoTimer;      ///< UDP only.
  double next_due_ = 0.0;  ///< Cached earliest leg RTO (+inf if none).
  std::vector<TcpLeg> tcp_legs_;             ///< TCP only, one per server.
  std::vector<Request> requests_;            ///< Indexed by xid.
  std::size_t outstanding_ = 0;
  FanoutClientStats stats_;
  std::function<void(std::size_t, std::span<const std::uint8_t>)> call_hook_;
};

// ---------------------------------------------------------------------------
// One benchmark cell and the full sweep.

struct TailRunConfig {
  std::size_t fanout = 4;        ///< N servers per request.
  std::size_t requests = 200;    ///< Offered requests (open loop).
  double rate_per_sec = 100.0;   ///< Mean offered request rate.
  bool self_similar = true;      ///< Self-similar arrivals (else Poisson).
  std::uint64_t seed = 1;        ///< Drives arrivals and fabric RNG.
  core::SchedMode mode = core::SchedMode::kLdlp;
  std::size_t batch_limit = 0;   ///< LDLP entry-layer yield bound; 0 = all.
  /// Charge calibrated per-message CPU cost on both ends (see
  /// ServiceCost). Off = wire-time-only latency, which is scheduling-mode
  /// invariant in the fabric.
  bool cpu_model = true;
  FanoutConfig fanout_cfg{};
  double host_tick_sec = 1e-3;   ///< Fabric tick round period.
  fault::FaultPlan fabric_plan;  ///< Optional topology-scoped adversity.
  std::uint64_t fabric_fault_seed = 1;
  double drain_budget_sec = 120.0;  ///< Sim-time cap after the last arrival.
};

struct TailRunResult {
  bool ok = false;               ///< Every request completed.
  std::uint64_t completed = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t calls_sent = 0;
  double mean_sec = 0.0;
  double p50_sec = 0.0;
  double p99_sec = 0.0;
  double p999_sec = 0.0;
  double p9999_sec = 0.0;
  double max_sec = 0.0;
  double sim_sec = 0.0;          ///< Fabric time at quiescence.
};

/// Run one cell: star fabric with `fanout` servers + 1 client, offered
/// arrivals, drive to quiescence, summarize the latency histogram.
/// Deterministic in the config.
[[nodiscard]] TailRunResult run_tail_workload(const TailRunConfig& config);

struct TailSweepConfig {
  std::vector<std::size_t> fanouts = {1, 4, 16, 64};
  std::vector<core::SchedMode> modes = {core::SchedMode::kConventional,
                                        core::SchedMode::kLdlp};
  TailRunConfig base{};  ///< fanout/mode overwritten per cell.
};

/// The fan-out figure as an ldlp.bench.v1 result: one metric family per
/// (mode, N) cell — mean/p50/p99/p999/p9999, completion and retransmit
/// counts. Cells run on `jobs` worker threads; results land in
/// cell-indexed slots and are emitted in cell order after the barrier, so
/// the result (and its JSON serialization) is bit-identical for any jobs
/// value.
[[nodiscard]] obs::BenchResult run_tail_sweep(const TailSweepConfig& config,
                                              std::size_t jobs);

}  // namespace ldlp::rpc
