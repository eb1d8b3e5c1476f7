#include "harness/rig.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ctime>
#include <utility>

#include "common/byteorder.hpp"

namespace rxbench {
namespace {

namespace stack = ldlp::stack;
namespace core = ldlp::core;
namespace pipe = ldlp::pipe;

constexpr std::uint64_t kHashedFrames = 4096;
constexpr std::size_t kHandshakeGroup = 32;  // SYNs in flight, < ring depth
constexpr int kSetupPumps = 200;
constexpr std::uint32_t kNoFlow = ~std::uint32_t{0};
/// SocketLayer::create's default receive buffer (hiwat).
constexpr std::uint64_t kSocketBuffer = 16 * 1024;

constexpr std::array<SpanName, kGraphLayers> kLayerSpan{
    SpanName::kEth, SpanName::kIp, SpanName::kTcp, SpanName::kUdp,
    SpanName::kSocket};

}  // namespace

std::int64_t thread_cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

const char* span_name(SpanName name) noexcept {
  switch (name) {
    case SpanName::kPump: return "pump";
    case SpanName::kDevice: return "device";
    case SpanName::kEth: return "eth";
    case SpanName::kIp: return "ip";
    case SpanName::kTcp: return "tcp";
    case SpanName::kUdp: return "udp";
    case SpanName::kSocket: return "socket";
    case SpanName::kApp: return "app";
    case SpanName::kStack: return "stack";
  }
  return "?";
}

void Digest::add(std::span<const std::uint8_t> bytes) noexcept {
  std::size_t i = 0;
  while (i < bytes.size()) {
    if (fill_ == 0 && bytes.size() - i >= 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, bytes.data() + i, 8);
      h_ = (h_ ^ word) * 0x100000001b3ULL;
      i += 8;
      continue;
    }
    carry_ |= std::uint64_t{bytes[i]} << (8 * fill_);
    ++i;
    if (++fill_ == 8) {
      h_ = (h_ ^ carry_) * 0x100000001b3ULL;
      carry_ = 0;
      fill_ = 0;
    }
  }
  bytes_ += bytes.size();
}

std::uint64_t Digest::value() const noexcept {
  return ((h_ ^ carry_) * 0x100000001b3ULL) ^ bytes_;
}

Rig::Rig(const WorkloadSpec& spec, Sched sched, std::uint64_t seed)
    : spec_(spec),
      sched_(sched),
      seed_(seed),
      draw_(spec, seed),
      flows_(spec.flows),
      payload_(spec.msg_bytes),
      expect_buf_(spec.msg_bytes),
      // One step reads at most what one ring-full delivered.
      scratch_(2 * kRingSlots * spec.msg_bytes) {
  stack::HostConfig ca;
  ca.name = "a";
  ca.mac = kMacA;
  ca.ip = kIpA;
  stack::HostConfig cb;
  cb.name = "b";
  cb.mac = kMacB;
  cb.ip = kIpB;
  cb.mode = sched == Sched::kConv ? core::SchedMode::kConventional
                                  : core::SchedMode::kLdlp;
  a_ = std::make_unique<stack::Host>(ca);
  b_ = std::make_unique<stack::Host>(cb);
  stack::NetDevice::connect(a_->device(), b_->device());
  if (sched == Sched::kStaged) {
    pipe::PipelineConfig pc;
    pc.mode = pipe::RxMode::kHybrid;
    staged_ = std::make_unique<pipe::StagedRx>(*b_, pc);
  }
  for (std::size_t id = 0; id < kGraphLayers; ++id) {
    const std::string& name = b_->graph().layer(id).name();
    const std::string want = id == 0 ? "ethernet" : kGraphLayerNames[id];
    if (name != want) fail("unexpected graph layer " + name);
  }
  if (spec.proto == Proto::kUdp) {
    setup_udp();
  } else {
    setup_tcp();
  }
  if (!ok()) return;
  for (std::uint32_t f = 0; f < flows_.size(); ++f) {
    b_->sockets().set_wakeup(flows_[f].sock, [this, f](stack::SocketId) {
      if (!flows_[f].ready) {
        flows_[f].ready = true;
        ready_.push_back(f);
      }
    });
  }
  // From here on the rig is B's peer: B's frames come to us.
  b_->device().set_tx_sink([this](std::vector<std::uint8_t>&& frame) {
    on_tx(frame);
    return true;
  });
}

Rig::~Rig() = default;

void Rig::fail(std::string what) {
  if (error_.empty())
    error_ = std::string(spec_.name) + "/" + sched_name(sched_) + ": " +
             std::move(what);
}

void Rig::pump_b() {
  if (staged_) {
    (void)staged_->pump();
  } else {
    (void)b_->pump();
  }
}

void Rig::setup_udp() {
  // One datagram from A per port warms each socket. The first goes alone:
  // A parks only the packet that triggered its ARP request.
  const std::vector<std::uint8_t> hello(spec_.msg_bytes, 0);
  std::size_t got = 0;
  for (std::uint32_t f = 0; f < flows_.size(); ++f) {
    flows_[f].sock = b_->sockets().create(stack::SocketKind::kDatagram);
    if (!b_->udp().bind(static_cast<std::uint16_t>(kUdpBasePort + f),
                        flows_[f].sock))
      fail("bind failed");
  }
  for (std::uint32_t f = 0; f < flows_.size(); ++f) {
    a_->udp().send(kUdpSrcPort, kIpB,
                   static_cast<std::uint16_t>(kUdpBasePort + f), hello);
    if (f != 0 && f + 1 != flows_.size()) continue;
    for (int i = 0; i < kSetupPumps && got <= f; ++i) {
      (void)a_->pump();
      pump_b();
      for (Flow& fl : flows_)
        while (b_->sockets().read_datagram(fl.sock).has_value()) ++got;
    }
  }
  if (got != flows_.size()) fail("UDP set-up datagrams were not delivered");
}

void Rig::setup_tcp() {
  port_flow_.assign(65536, kNoFlow);
  (void)b_->tcp().listen(kTcpPort);
  std::vector<stack::PcbId> accepted;
  b_->tcp().set_accept_hook(
      [&accepted](stack::PcbId id) { accepted.push_back(id); });
  // The first handshake goes alone, to resolve ARP; then groups that fit
  // the ring.
  for (std::size_t lo = 0, hi = 1; lo < flows_.size();
       lo = hi, hi = std::min(flows_.size(), hi + kHandshakeGroup)) {
    for (std::size_t f = lo; f < hi; ++f) {
      const stack::PcbId id = a_->tcp().connect(kIpB, kTcpPort);
      flows_[f].a_port = a_->tcp().pcb_view(id).local_port;
      port_flow_[flows_[f].a_port] = static_cast<std::uint32_t>(f);
    }
    for (int i = 0; i < kSetupPumps && accepted.size() < hi; ++i) {
      (void)a_->pump();
      pump_b();
    }
    if (accepted.size() != hi) {
      fail("TCP handshakes did not complete");
      break;
    }
  }
  b_->tcp().set_accept_hook(nullptr);
  for (const stack::PcbId id : accepted) {
    const stack::TcpPcb& p = b_->tcp().pcb_view(id);
    const std::uint32_t f = port_flow_[p.remote_port];
    if (f == kNoFlow) {
      fail("accepted a connection from an unknown port");
      continue;
    }
    Flow& fl = flows_[f];
    fl.pcb = id;
    fl.sock = p.socket;
    fl.seq0 = p.rcv_nxt;
    fl.ack = p.snd_nxt;
    fl.edge = std::min<std::size_t>(b_->sockets().room(p.socket), 65535);
  }
}

bool Rig::established(std::uint32_t flow) const {
  const Flow& fl = flows_.at(flow);
  return fl.pcb != stack::kNoPcb &&
         b_->tcp().state(fl.pcb) == stack::TcpState::kEstablished;
}

std::uint64_t Rig::unwrap(const Flow& fl, std::uint32_t seq) const noexcept {
  // Stream offsets outgrow 32-bit sequence space on long bulk runs; every
  // sequence number B reports lies within 2^31 below what we have sent.
  const auto sent = static_cast<std::uint32_t>(fl.seq0 + fl.snd_off);
  return fl.snd_off - static_cast<std::uint32_t>(sent - seq);
}

void Rig::on_tx(std::span<const std::uint8_t> frame) {
  const auto ack = parse_tx_ack(frame);
  if (!ack || ack->dst_port >= port_flow_.size()) return;
  const std::uint32_t f = port_flow_[ack->dst_port];
  if (f == kNoFlow) return;
  Flow& fl = flows_[f];
  fl.edge = std::max(fl.edge, unwrap(fl, ack->ack) + ack->window);
}

bool Rig::generate(double due) {
  if (generated_ >= msg_limit_) return false;
  pending_.push_back(Pending{draw_.next(), due});
  ++generated_;
  return true;
}

void Rig::top_up() {
  while (pending_.size() < kRingSlots && generate(clock_)) {
  }
}

std::vector<std::uint8_t> Rig::build(std::uint32_t flow,
                                     std::uint64_t tag_or_off) {
  if (spec_.proto == Proto::kUdp) {
    ldlp::store_be64(payload_.data(), tag_or_off);
    fill_pattern(std::span(payload_).subspan(8), seed_, flow,
                 tag_or_off * spec_.msg_bytes + 8);
    return udp_frame(static_cast<std::uint16_t>(kUdpBasePort + flow),
                     payload_);
  }
  const Flow& fl = flows_[flow];
  fill_pattern(payload_, seed_, flow, tag_or_off);
  return tcp_frame(fl.a_port, static_cast<std::uint32_t>(fl.seq0 + tag_or_off),
                   fl.ack, payload_);
}

bool Rig::push_frame(std::vector<std::uint8_t> frame, PhaseStats& ps) {
  if (frames_hashed_ < kHashedFrames) {
    frame_hash_.add(frame);
    ++frames_hashed_;
  }
  stack::NetDevice& dev = b_->device();
  const std::uint64_t drops = dev.stats().rx_drops;
  dev.inject(std::move(frame));
  ++ps.offered;
  return dev.stats().rx_drops == drops;
}

void Rig::push_pending(bool closed, PhaseStats& ps) {
  stack::NetDevice& dev = b_->device();
  // A frame the ring dropped is sent again first, into a free slot (the
  // sender learns of the loss at once: there is no wire delay), and later
  // frames wait behind it, so every socket still reads in send order.
  while (!resend_.empty() && dev.rx_pending() < kRingSlots) {
    const Resend r = resend_.front();
    resend_.pop_front();
    if (!push_frame(build(r.flow, r.tag_or_off), ps)) resend_.push_back(r);
  }
  while (!pending_.empty() && resend_.empty()) {
    if (closed && dev.rx_pending() >= kRingSlots) break;
    const Pending p = pending_.front();
    Flow& fl = flows_[p.flow];
    if (spec_.proto == Proto::kTcp) {
      if (fl.snd_off + spec_.msg_bytes > fl.edge) break;  // window closed
      const std::uint64_t off = fl.snd_off;
      fl.snd_off += spec_.msg_bytes;
      fl.expect.emplace_back(fl.snd_off, p.due);
      if (!push_frame(build(p.flow, off), ps))
        resend_.push_back(Resend{p.flow, off});
    } else {
      const std::uint64_t tag = next_tag_++;
      fl.expect.emplace_back(tag, p.due);
      if (!push_frame(build(p.flow, tag), ps))
        resend_.push_back(Resend{p.flow, tag});
    }
    pending_.pop_front();
  }
}

void Rig::window_update(Flow& fl) {
  // 4.4BSD tcp_output after soreceive (PRU_RCVD): advertise the reopened
  // window when it grew by two segments or half the buffer.
  const stack::TcpPcb& p = b_->tcp().pcb_view(fl.pcb);
  const std::uint64_t room =
      std::min<std::size_t>(b_->sockets().room(fl.sock), 65535);
  const std::uint64_t edge = unwrap(fl, p.rcv_nxt) + room;
  if (edge <= fl.edge) return;
  const std::uint64_t grew = edge - fl.edge;
  if (grew >= 2u * p.mss || 2 * grew >= kSocketBuffer)
    b_->tcp().ack_now(fl.pcb);
}

void Rig::drain(bool stamp) {
  std::size_t used = 0;
  for (const std::uint32_t f : ready_) {
    Flow& fl = flows_[f];
    fl.ready = false;
    if (spec_.proto == Proto::kUdp) {
      while (auto d = b_->sockets().read_datagram(fl.sock)) {
        const std::size_t n = d->payload.size();
        if (used + n > scratch_.size()) {
          fail("application buffer overflow");
          return;
        }
        std::memcpy(scratch_.data() + used, d->payload.data(), n);
        reads_.push_back(Read{f, static_cast<std::uint32_t>(used),
                              static_cast<std::uint32_t>(n),
                              stamp ? now_ns() : 0});
        used += n;
      }
    } else {
      const std::size_t want = b_->sockets().readable_bytes(fl.sock);
      if (used + want > scratch_.size()) {
        fail("application buffer overflow");
        return;
      }
      const std::size_t n = b_->sockets().read(
          fl.sock, std::span(scratch_).subspan(used, want));
      reads_.push_back(Read{f, static_cast<std::uint32_t>(used),
                            static_cast<std::uint32_t>(n),
                            stamp ? now_ns() : 0});
      used += n;
      window_update(fl);
    }
  }
  ready_.clear();
}

void Rig::consume_reads(PhaseStats& ps, double clock_at_t0, std::int64_t t0,
                        double service_per_wall, bool stamp) {
  for (const Read& r : reads_) {
    Flow& fl = flows_[r.flow];
    const std::span<const std::uint8_t> got(scratch_.data() + r.off, r.len);
    const double when =
        clock_at_t0 +
        static_cast<double>(r.at_ns - t0) * service_per_wall * 1e-9;
    fl.digest.add(got);
    if (spec_.proto == Proto::kUdp) {
      if (r.len != spec_.msg_bytes) {
        fail("datagram of unexpected length");
        return;
      }
      const std::uint64_t tag = ldlp::load_be64(got.data());
      if (fl.expect.empty() || fl.expect.front().first != tag) {
        fail("datagram delivered out of order, twice, or to the wrong socket");
        return;
      }
      fill_pattern(std::span(expect_buf_).subspan(8), seed_, r.flow,
                   tag * spec_.msg_bytes + 8);
      if (std::memcmp(got.data() + 8, expect_buf_.data() + 8, r.len - 8) != 0) {
        fail("datagram payload corrupted");
        return;
      }
      if (stamp)
        ps.lat_us.push_back(
            static_cast<float>((when - fl.expect.front().second) * 1e6));
      fl.expect.pop_front();
      ++ps.delivered;
      continue;
    }
    if (r.len > expect_buf_.size()) expect_buf_.resize(r.len);
    fill_pattern(std::span(expect_buf_).first(r.len), seed_, r.flow,
                 fl.read_off);
    if (std::memcmp(got.data(), expect_buf_.data(), r.len) != 0) {
      fail("stream bytes differ from what was offered");
      return;
    }
    fl.read_off += r.len;
    while (!fl.expect.empty() && fl.expect.front().first <= fl.read_off) {
      if (stamp)
        ps.lat_us.push_back(
            static_cast<float>((when - fl.expect.front().second) * 1e6));
      fl.expect.pop_front();
      ++ps.delivered;
    }
  }
  reads_.clear();
}

void Rig::step(PhaseStats& ps, bool stamp) {
  ps.ring_depth += b_->device().rx_pending();
  ++ps.pumps;
  const double start = clock_;
  const CallTimer timer;
  b_->advance_to(clock_);
  pump_b();
  drain(stamp);
  const auto [wall, service] = timer.stop();
  ps.busy_ns += service;
  clock_ += static_cast<double>(service) * 1e-9;
  a_->advance_to(clock_);
  const double service_per_wall =
      wall > 0 ? static_cast<double>(service) / static_cast<double>(wall)
               : 1.0;
  consume_reads(ps, start, timer.t0, service_per_wall, stamp);
}

void Rig::closed_cycle(PhaseStats& ps) {
  top_up();
  push_pending(/*closed=*/true, ps);
  step(ps, /*stamp=*/false);
}

void Rig::open_begin(const std::vector<double>& arrivals, PhaseStats& ps) {
  arrivals_ = &arrivals;
  next_arrival_ = 0;
  open_t0_ = clock_;
  ps.clock_start = clock_;
  ps.lat_us.reserve(arrivals.size());
}

void Rig::open_run(std::size_t end, PhaseStats& ps) {
  const std::vector<double>& arr = *arrivals_;
  end = std::min(end, arr.size());
  while (ok()) {
    while (next_arrival_ < end && open_t0_ + arr[next_arrival_] <= clock_) {
      (void)generate(open_t0_ + arr[next_arrival_]);
      ++next_arrival_;
    }
    push_pending(/*closed=*/false, ps);
    if (b_->device().rx_pending() == 0) {
      if (next_arrival_ >= end) break;
      clock_ = open_t0_ + arr[next_arrival_];  // idle: jump to the next due
      continue;
    }
    step(ps, /*stamp=*/true);
  }
  ps.clock_end = clock_;
}

void Rig::open_finish(PhaseStats& ps) {
  open_run(arrivals_->size(), ps);
  int idle_jumps = 0;
  while (ok() && (!pending_.empty() || !resend_.empty())) {
    push_pending(/*closed=*/false, ps);
    if (b_->device().rx_pending() == 0) {
      // Window-blocked with nothing in flight: only B's timers (the
      // delayed ACK) can reopen it.
      const double next = b_->wheel().next_deadline();
      if (!std::isfinite(next) || ++idle_jumps > 1000) {
        fail("open phase stalled with the window closed");
        break;
      }
      clock_ = std::max(clock_, next);
    }
    step(ps, /*stamp=*/true);
  }
  ps.clock_end = clock_;
}

void Rig::traced_cycle(PhaseStats& ps, TraceLog& log) {
  top_up();
  push_pending(/*closed=*/true, ps);
  ps.ring_depth += b_->device().rx_pending();
  ++ps.pumps;
  std::vector<Span>& spans = log.spans;
  const auto pump = static_cast<std::uint32_t>(spans.size());
  spans.push_back(Span{});
  const double start = clock_;
  const CallTimer timer;
  const std::int64_t t_pump = timer.t0;
  b_->advance_to(clock_);
  if (sched_ == Sched::kConv) {
    for (;;) {
      const std::int64_t t0 = now_ns();
      ldlp::buf::Packet frame = b_->pull_frame(0);
      if (!frame) break;
      const std::int64_t t1 = now_ns();
      b_->inject_rx(std::move(frame));
      const std::int64_t t2 = now_ns();
      spans.push_back(Span{t0, t1, pump, SpanName::kDevice});
      spans.push_back(Span{t1, t2, pump, SpanName::kStack});
    }
  } else {
    const std::int64_t t0 = now_ns();
    while (ldlp::buf::Packet frame = b_->pull_frame(0))
      b_->inject_rx(std::move(frame));
    spans.push_back(Span{t0, now_ns(), pump, SpanName::kDevice});
    core::StackGraph& graph = b_->graph();
    for (;;) {
      std::size_t busy = 0;
      std::size_t layer = 0;
      for (std::size_t id = kGraphLayers; id-- > 0;) {
        if (graph.layer(id).queue_len() == 0) continue;
        ++busy;
        layer = id;
      }
      if (busy == 0) break;
      if (busy > 1) ++log.unattributed_passes;
      const std::int64_t p0 = now_ns();
      (void)graph.run_stage_pass();
      spans.push_back(Span{p0, now_ns(), pump, kLayerSpan[layer]});
    }
  }
  const std::int64_t a0 = now_ns();
  drain(/*stamp=*/false);
  const std::int64_t t_end = now_ns();
  const auto [wall, service] = timer.stop();
  spans.push_back(Span{a0, t_end, pump, SpanName::kApp});
  spans[pump] = Span{t_pump, t_end, kNoParent, SpanName::kPump};
  ps.busy_ns += service;
  clock_ += static_cast<double>(service) * 1e-9;
  a_->advance_to(clock_);
  consume_reads(ps, start, t_pump, 1.0, /*stamp=*/false);
}

Counters Rig::counters() const {
  Counters c;
  core::StackGraph& graph = b_->graph();
  for (std::size_t id = 0; id < kGraphLayers; ++id)
    c.layer[id] = graph.layer(id).stats();
  c.graph = graph.graph_stats();
  c.pool = b_->pool().stats();
  c.rx_drops = b_->device().stats().rx_drops;
  if (staged_) {
    for (std::size_t s = 0; s < pipe::kStageCount; ++s)
      c.pipe[s] = staged_->counters(static_cast<pipe::Stage>(s));
  }
  if (spec_.proto == Proto::kTcp) {
    const stack::TcpLayerStats& t = b_->tcp().tcp_stats();
    c.pcb_hits = t.pcb_cache_hits;
    c.pcb_misses = t.pcb_cache_misses;
    for (const Flow& fl : flows_) {
      if (fl.pcb == stack::kNoPcb) continue;
      const stack::TcpPcbStats& s = b_->tcp().pcb_stats(fl.pcb);
      c.segs_in += s.segs_in;
      c.fast_path += s.fast_path;
      c.acks_sent += s.acks_sent;
    }
  }
  return c;
}

void Rig::check_quiescent() {
  if (b_->device().rx_pending() != 0 || !resend_.empty())
    fail("frames still in flight at the end of a phase");
  for (const Flow& fl : flows_) {
    if (!fl.expect.empty()) {
      fail("sent messages were never delivered");
      return;
    }
    if (fl.pcb != stack::kNoPcb && !b_->tcp().pcb_view(fl.pcb).ooo.empty()) {
      fail("out-of-order segments left in reassembly");
      return;
    }
  }
}

std::vector<std::uint64_t> Rig::content_digests() const {
  std::vector<std::uint64_t> out;
  out.reserve(flows_.size());
  for (const Flow& fl : flows_) out.push_back(fl.digest.value());
  return out;
}

}  // namespace rxbench
