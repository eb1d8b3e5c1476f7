#include "harness/workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/byteorder.hpp"
#include "traffic/self_similar.hpp"
#include "traffic/size_models.hpp"
#include "wire/checksum.hpp"
#include "wire/ipv4.hpp"
#include "wire/tcp.hpp"
#include "wire/udp.hpp"

namespace rxbench {
namespace {

namespace wire = ldlp::wire;

// Why these three: udp64 is the paper's small-message case with no
// connection state (pure per-message cost, and the control for TCP
// changes); tcp64-1k makes connection state dominate (PCB demux over 1024
// flows under Zipf popularity, header prediction, delayed ACKs); and
// tcp1460-bulk makes per-byte work dominate on one always-cached flow
// (the control for demux changes).
constexpr std::array<WorkloadSpec, 3> kWorkloads{{
    {"udp64", Proto::kUdp, 64, 16, 0.0, 100e3, 135e3, 70e3},
    {"tcp64-1k", Proto::kTcp, 64, 1024, 1.0, 25e3, 48e3, 32e3},
    {"tcp1460-bulk", Proto::kTcp, 1460, 1, 0.0, 45e3, 33e3, 25e3},
}};

// Self-similar shape of the open phase. Short ON/OFF periods (mean ON
// 1 ms) put thousands of them in one phase, so the burst mix, and with it
// the tail, is nearly the same for every seed; 64 sources half the time ON
// keep the instantaneous rate within about 1.4x the mean.
constexpr std::uint32_t kOnOffSources = 64;
constexpr double kMeanOnSec = 0.001;
constexpr double kOnFraction = 0.5;
constexpr double kAlpha = 1.4;  // Hurst parameter (3 - alpha) / 2 = 0.8

[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

void finish_transport_cksum(std::span<std::uint8_t> segment,
                            std::size_t cksum_at, std::uint8_t proto) {
  wire::CksumAccumulator acc;
  acc.sum = wire::pseudo_header_sum(kIpA, kIpB, proto,
                                    static_cast<std::uint16_t>(segment.size()));
  acc.add(segment, /*simple=*/false);
  const std::uint16_t sum = acc.finish();
  ldlp::store_be16(segment.data() + cksum_at, sum == 0 ? 0xffff : sum);
}

[[nodiscard]] std::size_t write_eth_ip(std::vector<std::uint8_t>& frame,
                                       wire::IpProto proto) {
  wire::EthHeader eth;
  eth.dst = kMacB;
  eth.src = kMacA;
  eth.ether_type = static_cast<std::uint16_t>(wire::EtherType::kIpv4);
  std::size_t at = wire::write_eth(eth, frame);
  wire::Ipv4Header ip;
  ip.total_len = static_cast<std::uint16_t>(frame.size() - wire::kEthHeaderLen);
  ip.protocol = static_cast<std::uint8_t>(proto);
  ip.src = kIpA;
  ip.dst = kIpB;
  at += wire::write_ipv4(ip, std::span(frame).subspan(at));
  return at;
}

}  // namespace

const char* sched_name(Sched sched) noexcept {
  switch (sched) {
    case Sched::kConv: return "conv";
    case Sched::kLdlp: return "ldlp";
    case Sched::kStaged: return "staged";
  }
  return "?";
}

std::span<const WorkloadSpec> workloads() noexcept { return kWorkloads; }

const WorkloadSpec* find_workload(std::string_view name) noexcept {
  for (const WorkloadSpec& w : kWorkloads)
    if (w.name == name) return &w;
  return nullptr;
}

FlowDraw::FlowDraw(const WorkloadSpec& spec, std::uint64_t seed)
    : rng_(seed ^ 0x5eed'f10eULL), flows_(spec.flows) {
  if (spec.zipf_s <= 0.0 || flows_ <= 1) return;
  cdf_.resize(flows_);
  double total = 0.0;
  for (std::uint32_t r = 0; r < flows_; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), spec.zipf_s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::uint32_t FlowDraw::next() {
  if (flows_ <= 1) return 0;
  if (cdf_.empty())
    return static_cast<std::uint32_t>(rng_.bounded(flows_));
  const double u = rng_.uniform();
  const auto rank = static_cast<std::uint32_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  const std::uint32_t r = std::min(rank, flows_ - 1);
  return static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(r) * 617 + flows_ / 2) % flows_);
}

void fill_pattern(std::span<std::uint8_t> out, std::uint64_t seed,
                  std::uint32_t flow, std::uint64_t offset) noexcept {
  // Stream byte k is byte k % 8, in memory order, of word k / 8 of a Weyl
  // sequence: cheap enough that building and checking 1460 B messages
  // does not dominate the run, and different for every flow and seed.
  const std::uint64_t key = mix64(seed ^ (std::uint64_t{flow} << 40));
  std::size_t i = 0;
  while (i < out.size()) {
    const std::uint64_t k = offset + i;
    const std::uint64_t word = (key + (k >> 3)) * 0x9e3779b97f4a7c15ULL;
    const std::size_t skip = k & 7;
    const std::size_t n = std::min<std::size_t>(8 - skip, out.size() - i);
    std::uint8_t bytes[8];
    std::memcpy(bytes, &word, 8);
    std::memcpy(out.data() + i, bytes + skip, n);
    i += n;
  }
}

std::vector<std::uint8_t> udp_frame(std::uint16_t dst_port,
                                    std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> frame(wire::kEthHeaderLen + wire::kIpMinHeaderLen +
                                  wire::kUdpHeaderLen + payload.size());
  const std::size_t at = write_eth_ip(frame, wire::IpProto::kUdp);
  wire::UdpHeader udp;
  udp.src_port = kUdpSrcPort;
  udp.dst_port = dst_port;
  udp.length = static_cast<std::uint16_t>(wire::kUdpHeaderLen + payload.size());
  wire::write_udp(udp, std::span(frame).subspan(at));
  std::memcpy(frame.data() + at + wire::kUdpHeaderLen, payload.data(),
              payload.size());
  finish_transport_cksum(std::span(frame).subspan(at), 6,
                         static_cast<std::uint8_t>(wire::IpProto::kUdp));
  return frame;
}

std::vector<std::uint8_t> tcp_frame(std::uint16_t src_port, std::uint32_t seq,
                                    std::uint32_t ack,
                                    std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> frame(wire::kEthHeaderLen + wire::kIpMinHeaderLen +
                                  wire::kTcpMinHeaderLen + payload.size());
  const std::size_t at = write_eth_ip(frame, wire::IpProto::kTcp);
  wire::TcpHeader tcp;
  tcp.src_port = src_port;
  tcp.dst_port = kTcpPort;
  tcp.seq = seq;
  tcp.ack = ack;
  tcp.flags = wire::tcpflags::kAck | wire::tcpflags::kPsh;
  tcp.window = kPeerWindow;
  wire::write_tcp(tcp, std::span(frame).subspan(at));
  std::memcpy(frame.data() + at + wire::kTcpMinHeaderLen, payload.data(),
              payload.size());
  finish_transport_cksum(std::span(frame).subspan(at), 16,
                         static_cast<std::uint8_t>(wire::IpProto::kTcp));
  return frame;
}

std::optional<TxAck> parse_tx_ack(
    std::span<const std::uint8_t> frame) noexcept {
  // Fixed offsets: the receiver's IP headers carry no options. This runs
  // inside the timed region (it is the wire), so it stays this cheap.
  constexpr std::size_t kIp = wire::kEthHeaderLen;
  constexpr std::size_t kTcp = kIp + wire::kIpMinHeaderLen;
  if (frame.size() < kTcp + wire::kTcpMinHeaderLen) return std::nullopt;
  if (ldlp::load_be16(frame.data() + 12) !=
          static_cast<std::uint16_t>(wire::EtherType::kIpv4) ||
      frame[kIp] != 0x45 ||
      frame[kIp + 9] != static_cast<std::uint8_t>(wire::IpProto::kTcp) ||
      (frame[kTcp + 13] & wire::tcpflags::kAck) == 0)
    return std::nullopt;
  return TxAck{ldlp::load_be16(frame.data() + kTcp + 2),
               ldlp::load_be32(frame.data() + kTcp + 8),
               ldlp::load_be16(frame.data() + kTcp + 14)};
}

std::vector<double> open_arrivals(const WorkloadSpec& spec, std::uint64_t seed,
                                  double run_seconds) {
  ldlp::traffic::SelfSimilarConfig cfg;
  cfg.mean_rate_per_sec = spec.open_rate;
  cfg.num_sources = kOnOffSources;
  cfg.alpha_on = kAlpha;
  cfg.alpha_off = kAlpha;
  cfg.mean_on_sec = kMeanOnSec;
  cfg.on_fraction = kOnFraction;
  cfg.duration_sec = spec.open_msgs_per_run_sec * run_seconds / spec.open_rate;
  ldlp::traffic::FixedSize sizes(spec.msg_bytes);
  const auto trace =
      ldlp::traffic::generate_self_similar_trace(cfg, sizes, seed);
  std::vector<double> times;
  times.reserve(trace.size());
  for (const auto& a : trace) times.push_back(a.time);
  return times;
}

}  // namespace rxbench
