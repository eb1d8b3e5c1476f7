// TCP layer: demultiplexing (the single-entry PCB cache the paper's trace
// exercises, over an O(1) 4-tuple table), input state machine with
// header-prediction fast path, output/segmentation, and timers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "core/stack_graph.hpp"
#include "stack/ip_layer.hpp"
#include "stack/pcb_table.hpp"
#include "stack/socket_layer.hpp"
#include "stack/tcp_pcb.hpp"
#include "time/timer_wheel.hpp"

namespace ldlp::stack {

struct TcpLayerStats {
  std::uint64_t segs_in = 0;
  std::uint64_t bad_checksum = 0;
  std::uint64_t bad_header = 0;
  std::uint64_t no_pcb = 0;          ///< RST sent / segment dropped.
  std::uint64_t pcb_cache_hits = 0;  ///< Single-entry cache (paper §2, Table 2).
  std::uint64_t pcb_cache_misses = 0;
  std::uint64_t pcb_table_probes = 0;  ///< Table slots read on cache misses.
  std::uint64_t rsts_sent = 0;
  std::uint64_t conns_established = 0;
  std::uint64_t conns_reset = 0;
  std::uint64_t rsts_ignored = 0;      ///< Out-of-window RSTs dropped.
  std::uint64_t time_wait_reuses = 0;  ///< TIME_WAIT recycled by a new SYN.
  std::uint64_t keepalive_drops = 0;   ///< Half-open conns torn down.
};

class TcpLayer final : public core::Layer {
 public:
  TcpLayer(Ip4Layer& ip, SocketLayer& sockets, TcpConfig config = {});

  void set_clock(const double* now_sec) noexcept { now_sec_ = now_sec; }

  /// Attach the host's timer wheel: every PCB keeps one consolidated
  /// wheel timer armed at its earliest pending deadline, and the wheel
  /// drives per-PCB timer work instead of a per-pass scan over every
  /// PCB. Without a wheel (standalone tests) on_timer() keeps the old
  /// scan semantics.
  void set_wheel(time::TimerWheel* wheel) noexcept { wheel_ = wheel; }

  /// Passive open. Connections accepted on this port get fresh PCBs and
  /// sockets; `on_accept` (if set) fires when they reach ESTABLISHED.
  [[nodiscard]] PcbId listen(std::uint16_t port);
  void set_accept_hook(std::function<void(PcbId)> hook) {
    accept_hook_ = std::move(hook);
  }

  /// Active open; allocates an ephemeral port and a stream socket.
  [[nodiscard]] PcbId connect(std::uint32_t dst_ip, std::uint16_t dst_port);

  /// Queue bytes for transmission. Returns false if the send buffer is
  /// full or the connection cannot send.
  [[nodiscard]] bool send(PcbId id, std::span<const std::uint8_t> data);

  /// Orderly close (FIN after queued data drains).
  void close(PcbId id);
  /// Abortive close (RST).
  void abort(PcbId id);

  /// Host crash: drop every PCB on the floor without a single segment on
  /// the wire — the peer only learns via RST-on-probe or keepalive after
  /// the host returns (FaultKind::kHostRestart). Layer-level counters
  /// survive; they describe the machine, not the incarnation.
  void crash();

  /// Drive retransmit / delayed-ACK / TIME_WAIT timers for every PCB
  /// (legacy per-pass scan; wheel-attached hosts get the same work per
  /// PCB from wheel fires instead). Safe to call in either mode.
  void on_timer();

  /// One PCB's timer work: TIME_WAIT expiry, delayed ACK, keepalive,
  /// persist probe, retransmit, mbuf-exhaustion re-attempt. This is the
  /// wheel-fire handler; early (spurious) wakeups are tolerated — each
  /// action re-checks its own deadline. Re-syncs the wheel at the end.
  void pcb_timer(PcbId id);

  /// Send an immediate window-update ACK (what 4.4BSD's soreceive triggers
  /// after the application drains the socket buffer — the "exit" phase ACK
  /// of the paper's Table 2).
  void ack_now(PcbId id) {
    send_ack(id);     // clears any pending delayed ACK…
    sync_wheel(id);   // …so the wheel can stand down with it
  }

  [[nodiscard]] TcpState state(PcbId id) const;
  [[nodiscard]] SocketId socket_of(PcbId id) const;
  [[nodiscard]] const TcpPcbStats& pcb_stats(PcbId id) const;
  /// Read-only PCB view for invariant checkers and tests.
  [[nodiscard]] const TcpPcb& pcb_view(PcbId id) const { return pcb(id); }

  /// Wire-tap on the send API: fires with exactly the bytes accepted into
  /// the send buffer by a successful send(). Conformance oracles record
  /// these as the ground truth the peer's socket layer must deliver.
  void set_send_tap(
      std::function<void(PcbId, std::span<const std::uint8_t>)> tap) {
    send_tap_ = std::move(tap);
  }
  [[nodiscard]] const TcpLayerStats& tcp_stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] std::size_t pcb_count() const noexcept { return pcbs_.size(); }

  /// The 4-tuple table alone (no cache, no listener fallback, no stats):
  /// the connection whose remote end is src and local end is dst, or
  /// kNoPcb. Holds exactly the PCBs that are neither CLOSED nor LISTEN.
  [[nodiscard]] PcbId lookup(std::uint32_t src_ip, std::uint16_t src_port,
                             std::uint32_t dst_ip,
                             std::uint16_t dst_port) const noexcept {
    return table_.find({src_ip, dst_ip, src_port, dst_port}).id;
  }
  [[nodiscard]] std::size_t pcb_table_size() const noexcept {
    return table_.size();
  }

 protected:
  void process(core::Message msg) override;

 private:
  [[nodiscard]] double now() const noexcept {
    return now_sec_ != nullptr ? *now_sec_ : 0.0;
  }
  [[nodiscard]] TcpPcb& pcb(PcbId id);
  [[nodiscard]] const TcpPcb& pcb(PcbId id) const;
  [[nodiscard]] PcbId alloc_pcb();
  [[nodiscard]] PcbId demux(std::uint32_t src_ip, std::uint16_t src_port,
                            std::uint32_t dst_ip, std::uint16_t dst_port);
  /// Lowest-id listener on `port`, or kNoPcb.
  [[nodiscard]] PcbId listener(std::uint16_t port) const noexcept;

  /// Transmit a segment: flags + up to `payload_len` bytes taken from the
  /// send buffer at snd_nxt. Handles rtx queueing. Returns false when the
  /// segment could not be built (mbuf pool exhausted) — nothing was sent
  /// or queued, and the caller must keep the bytes for a later attempt.
  bool send_segment(PcbId id, std::uint8_t flags,
                    std::vector<std::uint8_t> payload, bool retransmission,
                    std::uint32_t seq_override = 0);
  /// Push send-buffer data within the usable window.
  void try_send_data(PcbId id);
  void send_ack(PcbId id);
  /// Emit a RST to dst; src_* are our side (placed in the header's source
  /// fields).
  void send_rst(std::uint32_t dst_ip, std::uint16_t dst_port,
                std::uint32_t src_ip, std::uint16_t src_port,
                std::uint32_t seq, std::uint32_t ack, bool with_ack);
  void enter_established(PcbId id);
  void enter_time_wait(PcbId id);
  /// Every transition to CLOSED: drop the PCB from the 4-tuple table (or
  /// the listener list), from the single-entry cache, and free its id.
  void enter_closed(PcbId id);
  /// Earliest pending deadline of `p` (+inf if none) and its class.
  [[nodiscard]] std::pair<double, time::TimerClass> earliest_deadline(
      const TcpPcb& p) const;
  /// Reconcile the PCB's consolidated wheel timer with its deadline
  /// fields: cancel/arm so exactly the earliest pending deadline is
  /// armed. No-op without a wheel. Called from every entry point that
  /// can create or shorten a deadline.
  void sync_wheel(PcbId id);
  /// RAII: sync_wheel on every exit path of process().
  struct WheelSync {
    TcpLayer* layer;
    PcbId id;
    ~WheelSync() {
      if (layer != nullptr && id != kNoPcb) layer->sync_wheel(id);
    }
  };
  /// Disarm rtx/delayed-ACK deadlines and reset backoff bookkeeping.
  static void cancel_timers(TcpPcb& p) noexcept;
  void reset_connection(PcbId id);
  void process_ack(PcbId id, std::uint32_t ack, std::uint32_t wnd);
  /// In-order delivery (tcp_input → sbappend): trim `skip` bytes (header
  /// plus any duplicate prefix) off the received chain, advance rcv_nxt
  /// past the rest and hand that same chain to the socket layer. Copies
  /// and allocates nothing, so it cannot fail.
  void deliver_segment(PcbId id, buf::Packet segment, std::uint32_t skip);
  /// Deliver the out-of-order data that rcv_nxt has now reached. A failed
  /// delivery keeps its entry for the retransmission to land on.
  void drain_ooo(PcbId id);
  /// Pass out-of-order bytes up toward the socket in fresh pool mbufs and
  /// advance rcv_nxt. Returns false (with rcv_nxt untouched) when the rx
  /// pool is exhausted — the bytes stay buffered.
  [[nodiscard]] bool deliver_payload(PcbId id, std::vector<std::uint8_t> bytes);
  void handle_fin(PcbId id);
  [[nodiscard]] std::uint16_t advertised_window(const TcpPcb& p) const;
  [[nodiscard]] std::uint32_t next_iss() noexcept;

  Ip4Layer& ip_;
  SocketLayer& sockets_;
  TcpConfig cfg_;
  const double* now_sec_ = nullptr;
  time::TimerWheel* wheel_ = nullptr;
  std::vector<std::unique_ptr<TcpPcb>> pcbs_;
  PcbId last_pcb_ = kNoPcb;  ///< Single-entry PCB cache.
  PcbTable table_;           ///< Every PCB neither CLOSED nor LISTEN.
  std::vector<std::pair<std::uint16_t, PcbId>> listeners_;  ///< (port, id)
  /// CLOSED ids, lowest on top: alloc_pcb reuses the lowest free id, the
  /// rule recorded traces, soak verdicts and shrunk schedules depend on.
  std::priority_queue<PcbId, std::vector<PcbId>, std::greater<>> free_ids_;
  std::uint16_t next_ephemeral_ = 49152;
  std::uint32_t iss_counter_ = 0x1000;
  std::function<void(PcbId)> accept_hook_;
  std::function<void(PcbId, std::span<const std::uint8_t>)> send_tap_;
  TcpLayerStats stats_;
};

}  // namespace ldlp::stack
