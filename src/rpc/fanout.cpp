#include "rpc/fanout.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <utility>

#include "common/assert.hpp"
#include "core/blocking.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "par/worker_pool.hpp"
#include "rpc/xdr.hpp"
#include "synth/engine.hpp"
#include "traffic/arrivals.hpp"
#include "traffic/self_similar.hpp"
#include "traffic/size_models.hpp"

namespace ldlp::rpc {
namespace {

/// Cap on one RFC 1831 TCP record: anything larger is a framing error
/// (the parser condemns the whole connection buffer rather than waiting
/// forever for bytes that will never come).
constexpr std::uint32_t kMaxRecord = 1 << 20;

/// Deterministic fill so every (xid, size) payload is byte-reproducible
/// across retransmits — the delivery oracles count payload instances and
/// a retransmit must be a byte-exact re-instance.
std::vector<std::uint8_t> payload_fill(std::uint32_t xid, std::size_t size) {
  std::vector<std::uint8_t> bytes(size);
  for (std::size_t i = 0; i < size; ++i)
    bytes[i] = static_cast<std::uint8_t>(xid * 31 + i * 7 + 1);
  return bytes;
}

void put_record_len(std::vector<std::uint8_t>& out, std::uint32_t len) {
  out.push_back(static_cast<std::uint8_t>(len >> 24));
  out.push_back(static_cast<std::uint8_t>(len >> 16));
  out.push_back(static_cast<std::uint8_t>(len >> 8));
  out.push_back(static_cast<std::uint8_t>(len));
}

/// Prefix an RPC message with its 4-byte record mark (RFC 1831 section 10,
/// sans the last-fragment bit — every record here is one fragment).
std::vector<std::uint8_t> frame_record(std::span<const std::uint8_t> msg) {
  std::vector<std::uint8_t> out;
  out.reserve(4 + msg.size());
  put_record_len(out, static_cast<std::uint32_t>(msg.size()));
  out.insert(out.end(), msg.begin(), msg.end());
  return out;
}

/// Consume complete records from the front of `buf`, invoking `sink` on
/// each; partial trailing bytes stay buffered. Returns false on a framing
/// violation (oversized record) — the caller counts it and drops the
/// buffer.
bool drain_records(
    std::vector<std::uint8_t>& buf,
    const std::function<void(std::span<const std::uint8_t>)>& sink) {
  std::size_t off = 0;
  bool ok = true;
  while (buf.size() - off >= 4) {
    const std::uint32_t len = (std::uint32_t{buf[off]} << 24) |
                              (std::uint32_t{buf[off + 1]} << 16) |
                              (std::uint32_t{buf[off + 2]} << 8) |
                              std::uint32_t{buf[off + 3]};
    if (len > kMaxRecord) {
      buf.clear();
      return false;
    }
    if (buf.size() - off - 4 < len) break;
    sink(std::span(buf.data() + off + 4, len));
    off += 4 + len;
  }
  buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(off));
  return ok;
}

/// Pull whatever the stream socket has buffered into `rx`.
void slurp_stream(stack::Host& host, stack::SocketId socket,
                  std::vector<std::uint8_t>& rx) {
  std::uint8_t chunk[2048];
  for (;;) {
    const std::size_t n = host.sockets().read(socket, chunk);
    if (n == 0) break;
    rx.insert(rx.end(), chunk, chunk + n);
  }
}

/// Queue-or-send on a TCP pcb: anything the send buffer refuses rides in
/// `tx` until the next poll.
void tcp_push(stack::Host& host, stack::PcbId pcb,
              std::vector<std::uint8_t>& tx,
              std::span<const std::uint8_t> bytes) {
  if (tx.empty() && host.tcp().send(pcb, bytes)) return;
  tx.insert(tx.end(), bytes.begin(), bytes.end());
}

void tcp_flush(stack::Host& host, stack::PcbId pcb,
               std::vector<std::uint8_t>& tx) {
  if (tx.empty()) return;
  if (host.tcp().send(pcb, tx)) tx.clear();
}

}  // namespace

const char* transport_name(FanoutTransport t) noexcept {
  return t == FanoutTransport::kUdp ? "udp" : "tcp";
}

ServiceCost calibrate_service_cost(core::SchedMode mode,
                                   std::size_t message_bytes) {
  static std::mutex mu;
  static std::map<std::pair<int, std::size_t>, ServiceCost> cache;
  const std::pair<int, std::size_t> key{static_cast<int>(mode),
                                        message_bytes};
  {
    const std::lock_guard<std::mutex> lock(mu);
    const auto it = cache.find(key);
    if (it != cache.end()) return it->second;
  }

  core::StackFootprint footprint;
  footprint.message_bytes = static_cast<std::uint32_t>(message_bytes);
  const sim::MemoryConfig mem;
  const synth::EngineConfig cfg =
      mode == core::SchedMode::kLdlp
          ? synth::ldlp(core::estimate_blocking(footprint, mem.icache,
                                                mem.dcache)
                            .batch_limit)
          : synth::conventional();
  const synth::Engine engine(cfg);
  const synth::Layout layout = synth::random_layout(cfg, /*seed=*/1);
  const auto busy_per_msg = [&](double rate, double horizon) {
    traffic::DeterministicSource source(
        rate, static_cast<std::uint32_t>(message_bytes));
    const synth::EngineResult r =
        engine.run(layout, traffic::collect(source, horizon));
    std::uint64_t busy = 0;
    for (const synth::StageStats& stage : r.stages) busy += stage.busy_cycles;
    if (r.completed == 0) return 0.0;
    return static_cast<double>(busy) / cfg.cpu.clock_hz /
           static_cast<double>(r.completed);
  };
  // Solo pacing: 1 ms gaps dwarf the per-message cost, so every message
  // arrives to an idle machine and pays the full cache fill (batch = 1).
  const double solo = busy_per_msg(1000.0, 1.0);
  // Saturation: the queue never empties, batches max out, and the busy
  // time per message converges to the marginal (amortized) cost. Under
  // conventional processing batches don't exist, so this equals solo and
  // the fill term below collapses to ~0 — one formula covers both modes.
  const double amortized = busy_per_msg(100000.0, 0.05);

  ServiceCost cost;
  cost.marginal_sec = std::min(solo, amortized);
  cost.fill_sec = std::max(0.0, solo - cost.marginal_sec);
  {
    const std::lock_guard<std::mutex> lock(mu);
    cache.emplace(key, cost);
  }
  return cost;
}

// ------------------------------------------------------------------ server

FanoutServer::FanoutServer(stack::Host& host, const FanoutConfig& config)
    : host_(host), cfg_(config), service_(config.service) {
  if (cfg_.transport == FanoutTransport::kUdp) {
    sock_ = host_.sockets().create(stack::SocketKind::kDatagram, 64 * 1024);
    const bool bound = host_.udp().bind(cfg_.port, sock_);
    LDLP_ASSERT_MSG(bound, "fanout server port already bound");
    return;
  }
  host_.tcp().set_accept_hook([this](stack::PcbId id) {
    TcpConn conn;
    conn.pcb = id;
    conn.socket = host_.tcp().socket_of(id);
    conns_.push_back(std::move(conn));
  });
  listener_ = host_.tcp().listen(cfg_.port);
}

void FanoutServer::answer(const RpcCall& call,
                          std::vector<std::uint8_t>* out) {
  RpcReply reply;
  reply.xid = call.xid;
  reply.stat = AcceptStat::kSuccess;
  if (call.prog != kTailProg || call.proc != kTailProcEcho) {
    reply.stat = call.prog != kTailProg ? AcceptStat::kProgUnavail
                                        : AcceptStat::kProcUnavail;
  } else {
    XdrWriter w;
    w.opaque(payload_fill(call.xid ^ 0x5a5a5a5a, cfg_.reply_bytes));
    reply.results = w.take();
  }
  ++stats_.calls;
  *out = encode_reply(reply);
}

void FanoutServer::flush_due(double now_sec) {
  while (!due_.empty() && due_.front().due <= now_sec) {
    DueReply& r = due_.front();
    if (cfg_.transport == FanoutTransport::kUdp) {
      host_.udp().send(cfg_.port, r.dst_ip, r.dst_port, r.bytes);
    } else {
      TcpConn& conn = conns_[r.conn];
      const auto framed = frame_record(r.bytes);
      tcp_push(host_, conn.pcb, conn.tx, framed);
    }
    due_.pop_front();
  }
}

void FanoutServer::poll_udp(double now_sec) {
  // Drain this tick's backlog as one batch: under LDLP its cache-fill
  // cost is shared, under conventional processing each request pays it.
  bool first = true;
  for (;;) {
    const auto dgram = host_.sockets().read_datagram(sock_);
    if (!dgram.has_value()) break;
    const auto decoded = decode_rpc(dgram->payload);
    if (!decoded.has_value() || !decoded->call.has_value()) {
      ++stats_.malformed;
      continue;
    }
    DueReply r;
    r.due = first ? service_.begin_batch(now_sec) : service_.advance();
    first = false;
    answer(*decoded->call, &r.bytes);
    r.dst_ip = dgram->from_ip;
    r.dst_port = dgram->from_port;
    due_.push_back(std::move(r));
  }
}

void FanoutServer::poll_tcp(double now_sec) {
  bool first = true;
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    TcpConn& conn = conns_[c];
    tcp_flush(host_, conn.pcb, conn.tx);
    slurp_stream(host_, conn.socket, conn.rx);
    const bool ok = drain_records(
        conn.rx,
        [this, c, now_sec, &first](std::span<const std::uint8_t> record) {
          const auto decoded = decode_rpc(record);
          if (!decoded.has_value() || !decoded->call.has_value()) {
            ++stats_.malformed;
            return;
          }
          DueReply r;
          r.due = first ? service_.begin_batch(now_sec) : service_.advance();
          first = false;
          answer(*decoded->call, &r.bytes);
          r.conn = c;
          due_.push_back(std::move(r));
        });
    if (!ok) ++stats_.malformed;
  }
}

void FanoutServer::poll(double now_sec) {
  flush_due(now_sec);
  if (cfg_.transport == FanoutTransport::kUdp)
    poll_udp(now_sec);
  else
    poll_tcp(now_sec);
  // A zero-cost service queue (cpu model off) completes batches at
  // now_sec, so answer within the same poll rather than a tick later.
  flush_due(now_sec);
}

// ------------------------------------------------------------------ client

FanoutClient::FanoutClient(stack::Host& host,
                           std::vector<std::uint32_t> server_ips,
                           const FanoutConfig& config,
                           obs::Histogram& latency)
    : host_(host),
      servers_(std::move(server_ips)),
      cfg_(config),
      service_(config.service),
      latency_(latency) {
  LDLP_ASSERT(!servers_.empty());
  if (cfg_.transport == FanoutTransport::kUdp) {
    sock_ = host_.sockets().create(stack::SocketKind::kDatagram, 256 * 1024);
    const bool bound = host_.udp().bind(cfg_.client_port, sock_);
    LDLP_ASSERT_MSG(bound, "fanout client port already bound");
  } else {
    tcp_legs_.resize(servers_.size());
  }
  next_due_ = std::numeric_limits<double>::infinity();
}

FanoutClient::~FanoutClient() {
  if (wake_ != time::kNoTimer) host_.wheel().cancel(wake_);
}

void FanoutClient::arm_wake(double due) {
  next_due_ = due;
  time::TimerWheel& wheel = host_.wheel();
  if (!std::isfinite(due)) {
    if (wake_ != time::kNoTimer) {
      wheel.cancel(wake_);
      wake_ = time::kNoTimer;
    }
    return;
  }
  if (wake_ != time::kNoTimer && wheel.deadline_of(wake_) == due) return;
  if (wake_ != time::kNoTimer) wheel.cancel(wake_);
  wake_ = wheel.arm(due, time::TimerClass::kLiveness, [] {});
}

void FanoutClient::connect_all() {
  if (cfg_.transport == FanoutTransport::kUdp) return;
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    tcp_legs_[i].conn = host_.tcp().connect(servers_[i], cfg_.port);
    tcp_legs_[i].socket = host_.tcp().socket_of(tcp_legs_[i].conn);
  }
}

bool FanoutClient::connected() const {
  if (cfg_.transport == FanoutTransport::kUdp) return true;
  for (const TcpLeg& leg : tcp_legs_) {
    if (leg.conn == stack::kNoPcb ||
        host_.tcp().state(leg.conn) != stack::TcpState::kEstablished)
      return false;
  }
  return true;
}

std::vector<std::uint8_t> FanoutClient::encode_call_for(std::uint32_t xid) {
  RpcCall call;
  call.xid = xid;
  call.prog = kTailProg;
  call.vers = kTailVers;
  call.proc = kTailProcEcho;
  XdrWriter w;
  w.opaque(payload_fill(xid, cfg_.request_bytes));
  call.args = w.take();
  return encode_call(call);
}

void FanoutClient::send_leg(Request& request, std::size_t leg,
                            double now_sec) {
  const std::vector<std::uint8_t> bytes = encode_call_for(request.xid);
  if (call_hook_) call_hook_(leg, bytes);
  if (cfg_.transport == FanoutTransport::kUdp) {
    host_.udp().send(cfg_.client_port, servers_[leg], cfg_.port, bytes);
  } else {
    const auto framed = frame_record(bytes);
    tcp_push(host_, tcp_legs_[leg].conn, tcp_legs_[leg].tx, framed);
  }
  request.legs[leg].last_tx = now_sec;
  ++stats_.calls_sent;
}

void FanoutClient::start(double arrival_sec, double now_sec) {
  Request request;
  request.xid = static_cast<std::uint32_t>(requests_.size());
  request.arrival = arrival_sec;
  request.legs.assign(servers_.size(), Leg{});
  request.remaining = servers_.size();
  for (Leg& leg : request.legs) leg.rto = cfg_.rto_initial_sec;
  requests_.push_back(std::move(request));
  ++outstanding_;
  ++stats_.requests_started;
  Request& stored = requests_.back();
  for (std::size_t i = 0; i < servers_.size(); ++i)
    send_leg(stored, i, now_sec);
  if (cfg_.transport == FanoutTransport::kUdp)
    arm_wake(std::min(next_due_, now_sec + cfg_.rto_initial_sec));
}

void FanoutClient::complete(Request& request, double now_sec) {
  --outstanding_;
  ++stats_.requests_completed;
  // arrival < 0 marks a warm-up request (ARP resolution, cold caches)
  // whose latency is not part of the offered-load distribution.
  if (request.arrival >= 0.0)
    latency_.add(std::max(0.0, now_sec - request.arrival));
}

void FanoutClient::on_reply(std::size_t leg, const RpcReply& reply,
                            double now_sec) {
  if (reply.xid >= requests_.size()) {
    ++stats_.malformed;
    return;
  }
  Request& request = requests_[reply.xid];
  if (leg >= request.legs.size() || request.legs[leg].done) {
    ++stats_.stale_replies;
    return;
  }
  ++stats_.replies;
  request.legs[leg].done = true;
  if (--request.remaining == 0) complete(request, now_sec);
}

void FanoutClient::poll(double now_sec) {
  if (cfg_.transport == FanoutTransport::kUdp) {
    // Nothing arrived and no leg RTO is due: skip the drain and the
    // outstanding-request scan (the wakeup timer bounds the wait).
    if (now_sec < next_due_ &&
        host_.sockets().pending_datagrams(sock_) == 0)
      return;
    // Drain replies; the sender's address picks the leg. This tick's
    // replies are one receive batch on the client CPU — with a 64-wide
    // fan-out the reply incast is exactly the small-message backlog the
    // paper's batching amortizes, so each reply completes at its
    // service time, not at wire arrival.
    bool first = true;
    for (;;) {
      const auto dgram = host_.sockets().read_datagram(sock_);
      if (!dgram.has_value()) break;
      const auto decoded = decode_rpc(dgram->payload);
      if (!decoded.has_value() || !decoded->reply.has_value()) {
        ++stats_.malformed;
        continue;
      }
      const auto it =
          std::find(servers_.begin(), servers_.end(), dgram->from_ip);
      if (it == servers_.end()) {
        ++stats_.malformed;
        continue;
      }
      const double done =
          first ? service_.begin_batch(now_sec) : service_.advance();
      first = false;
      on_reply(static_cast<std::size_t>(it - servers_.begin()),
               *decoded->reply, done);
    }
    // Retransmit legs whose RTO expired, with capped doubling. This is
    // the client-owned reliability of RPC-over-UDP — and the mechanism
    // that turns one lost frame into a tail-latency spike. The same scan
    // re-derives the earliest pending RTO for the wakeup timer.
    double due = std::numeric_limits<double>::infinity();
    for (Request& request : requests_) {
      if (request.remaining == 0) continue;
      for (std::size_t i = 0; i < request.legs.size(); ++i) {
        Leg& leg = request.legs[i];
        if (leg.done) continue;
        if (now_sec - leg.last_tx >= leg.rto) {
          leg.rto = std::min(leg.rto * 2.0, cfg_.rto_max_sec);
          send_leg(request, i, now_sec);
          ++stats_.retransmits;
        }
        due = std::min(due, leg.last_tx + leg.rto);
      }
    }
    arm_wake(due);
    return;
  }
  bool first = true;
  for (std::size_t i = 0; i < tcp_legs_.size(); ++i) {
    TcpLeg& leg = tcp_legs_[i];
    tcp_flush(host_, leg.conn, leg.tx);
    slurp_stream(host_, leg.socket, leg.rx);
    const bool ok = drain_records(
        leg.rx,
        [this, i, now_sec, &first](std::span<const std::uint8_t> record) {
          const auto decoded = decode_rpc(record);
          if (!decoded.has_value() || !decoded->reply.has_value()) {
            ++stats_.malformed;
            return;
          }
          const double done =
              first ? service_.begin_batch(now_sec) : service_.advance();
          first = false;
          on_reply(i, *decoded->reply, done);
        });
    if (!ok) ++stats_.malformed;
  }
}

// ------------------------------------------------------------------- cells

namespace {

/// Offered arrival times for one cell: the first `requests` arrivals of a
/// self-similar (or Poisson) stream at the configured mean rate.
std::vector<double> make_arrivals(const TailRunConfig& cfg) {
  std::vector<double> times;
  times.reserve(cfg.requests);
  traffic::FixedSize sizes(
      static_cast<std::uint32_t>(cfg.fanout_cfg.request_bytes));
  if (cfg.self_similar) {
    traffic::SelfSimilarConfig scfg;
    scfg.mean_rate_per_sec = cfg.rate_per_sec;
    scfg.num_sources = 32;
    // Self-similar streams are bursty: a duration sized to the mean rate
    // can come up short of `requests` arrivals, so grow it until enough
    // arrive (deterministic — same seed, longer horizon).
    scfg.duration_sec =
        2.0 * static_cast<double>(cfg.requests) / cfg.rate_per_sec + 5.0;
    for (int attempt = 0; attempt < 8; ++attempt) {
      const auto trace =
          traffic::generate_self_similar_trace(scfg, sizes, cfg.seed);
      if (trace.size() >= cfg.requests) {
        for (std::size_t i = 0; i < cfg.requests; ++i)
          times.push_back(trace[i].time);
        return times;
      }
      scfg.duration_sec *= 2.0;
    }
  }
  traffic::PoissonSource source(cfg.rate_per_sec,
                                std::make_unique<traffic::FixedSize>(
                                    static_cast<std::uint32_t>(
                                        cfg.fanout_cfg.request_bytes)),
                                cfg.seed);
  while (times.size() < cfg.requests) times.push_back(source.next()->time);
  return times;
}

}  // namespace

TailRunResult run_tail_workload(const TailRunConfig& config) {
  TailRunResult result;
  net::Fabric fabric({/*host_tick_sec=*/config.host_tick_sec,
                      /*fault_seed=*/config.fabric_fault_seed});
  net::StarConfig star;
  star.hosts = config.fanout + 1;  // h0 is the client.
  // Room for a full fan-out burst (N frames enqueue in one tick round)
  // plus ARP chatter: the access queue must not drop every burst, only
  // genuinely overloaded ones.
  star.access.queue_frames = 256;
  star.proto.mode = config.mode;
  star.proto.batch_limit = config.batch_limit;
  const std::vector<net::HostId> hosts = net::build_star(fabric, star);
  if (!config.fabric_plan.empty())
    fabric.set_fault_plan(config.fabric_plan, config.fabric_fault_seed);

  FanoutConfig fanout_cfg = config.fanout_cfg;
  if (config.cpu_model && !fanout_cfg.service.enabled())
    fanout_cfg.service =
        calibrate_service_cost(config.mode, fanout_cfg.request_bytes);

  std::vector<std::uint32_t> server_ips;
  std::vector<std::unique_ptr<FanoutServer>> servers;
  for (std::size_t i = 1; i <= config.fanout; ++i) {
    server_ips.push_back(net::host_ip(static_cast<std::uint32_t>(i)));
    servers.push_back(std::make_unique<FanoutServer>(fabric.host(hosts[i]),
                                                     fanout_cfg));
  }
  obs::Histogram latency(1e-4, 1e3, 32);
  FanoutClient client(fabric.host(hosts[0]), server_ips, fanout_cfg,
                      latency);

  const double tick = config.host_tick_sec;
  const auto step = [&] {
    client.poll(fabric.now());
    for (const auto& server : servers) server->poll(fabric.now());
    fabric.run_for(tick);
  };

  if (fanout_cfg.transport == FanoutTransport::kTcp) {
    client.connect_all();
    for (int i = 0; i < 20000 && !client.connected(); ++i) step();
    if (!client.connected()) return result;  // ok = false
  } else {
    // One unrecorded warm-up fan-out resolves every server's ARP entry,
    // so the measured distribution is steady-state RPC, not ARP cost.
    client.start(/*arrival_sec=*/-1.0, fabric.now());
    for (int i = 0; i < 20000 && client.outstanding() != 0; ++i) step();
  }

  const std::vector<double> arrivals = make_arrivals(config);
  const double t0 = fabric.now() + tick;
  std::size_t next = 0;
  const double deadline =
      t0 + (arrivals.empty() ? 0.0 : arrivals.back()) +
      config.drain_budget_sec;
  while (next < arrivals.size() || client.outstanding() != 0) {
    const double now = fabric.now();
    if (now > deadline) break;
    while (next < arrivals.size() && t0 + arrivals[next] <= now) {
      client.start(t0 + arrivals[next], now);
      ++next;
    }
    step();
  }

  result.ok = client.outstanding() == 0 && next == arrivals.size() &&
              client.stats().requests_completed >=
                  client.stats().requests_started;
  result.completed = latency.count();
  result.retransmits = client.stats().retransmits;
  result.calls_sent = client.stats().calls_sent;
  result.mean_sec = latency.mean();
  result.p50_sec = latency.p50();
  result.p99_sec = latency.p99();
  result.p999_sec = latency.p999();
  result.p9999_sec = latency.p9999();
  result.max_sec = latency.max();
  result.sim_sec = fabric.now();
  return result;
}

obs::BenchResult run_tail_sweep(const TailSweepConfig& config,
                                std::size_t jobs) {
  struct Cell {
    TailRunConfig cfg;
    std::string prefix;
    TailRunResult res;
  };
  std::vector<Cell> cells;
  for (const core::SchedMode mode : config.modes) {
    for (const std::size_t fanout : config.fanouts) {
      Cell cell;
      cell.cfg = config.base;
      cell.cfg.mode = mode;
      cell.cfg.fanout = fanout;
      cell.prefix =
          std::string(mode == core::SchedMode::kLdlp ? "ldlp" : "conv") +
          ".";
      cells.push_back(std::move(cell));
    }
  }
  par::WorkerPool pool(jobs);
  pool.run(cells.size(), [&cells](std::size_t job, par::WorkerContext&) {
    cells[job].res = run_tail_workload(cells[job].cfg);
  });

  obs::BenchResult result;
  result.name = "tail_fanout";
  result.tolerance = 0.05;
  result.set_config("transport",
                    transport_name(config.base.fanout_cfg.transport));
  result.set_config("requests", std::to_string(config.base.requests));
  result.set_config("rate_per_sec",
                    std::to_string(config.base.rate_per_sec));
  result.set_config("seed", std::to_string(config.base.seed));
  result.set_config("arrivals",
                    config.base.self_similar ? "self-similar" : "poisson");
  for (const Cell& cell : cells) {
    const std::string key =
        cell.prefix + "n" + std::to_string(cell.cfg.fanout);
    result.set_metric(key + ".completed",
                      static_cast<double>(cell.res.completed));
    result.set_metric(key + ".incomplete", cell.res.ok ? 0.0 : 1.0);
    result.set_metric(key + ".retransmits",
                      static_cast<double>(cell.res.retransmits));
    result.set_metric(key + ".mean_sec", cell.res.mean_sec);
    result.set_metric(key + ".p50_sec", cell.res.p50_sec);
    result.set_metric(key + ".p99_sec", cell.res.p99_sec);
    result.set_metric(key + ".p999_sec", cell.res.p999_sec);
    result.set_metric(key + ".p9999_sec", cell.res.p9999_sec);
  }
  return result;
}

}  // namespace ldlp::rpc
