#include "pipe/pipeline.hpp"

#include <array>
#include <string>

#include "common/assert.hpp"

namespace ldlp::pipe {

const char* rx_mode_name(RxMode mode) noexcept {
  switch (mode) {
    case RxMode::kLdlp: return "ldlp";
    case RxMode::kPipelined: return "pipelined";
    case RxMode::kHybrid: return "hybrid";
  }
  return "?";
}

const char* stage_name(Stage stage) noexcept {
  switch (stage) {
    case Stage::kParse: return "parse";
    case Stage::kSteer: return "steer";
    case Stage::kProto: return "proto";
    case Stage::kSocket: return "socket";
  }
  return "?";
}

StagedRx::StagedRx(stack::Host& host, PipelineConfig cfg)
    : host_(host),
      cfg_(cfg),
      parse_q_(cfg.stage_queue_cap),
      steer_q_(cfg.stage_queue_cap),
      sock_base_(host.sockets().stats()) {
  LDLP_ASSERT_MSG(host_.graph().mode() == core::SchedMode::kLdlp,
                  "StagedRx schedules the graph itself; host must be kLdlp");
  if (cfg_.lanes == 0) cfg_.lanes = 1;
  if (cfg_.lanes > 1) hash_.emplace(cfg_.symmetric, cfg_.hash_seed);
  for (std::size_t lane = 0; lane < cfg_.lanes; ++lane)
    proto_q_.emplace_back(cfg_.stage_queue_cap);
}

bool StagedRx::offer(StageCounters& c, buf::PacketQueue& q, buf::Packet pkt) {
  ++c.offered;
  if (q.push(std::move(pkt))) {
    ++c.enqueued;
    if (q.size() > c.high_water) c.high_water = q.size();
    return true;
  }
  ++c.drops;
  return false;
}

std::uint32_t StagedRx::classify_hash(const buf::Packet& pkt) const {
  const buf::Mbuf* head = pkt.head();
  if (head == nullptr) return 0;
  std::optional<stack::FlowKey> key;
  if (head->next() == nullptr) {
    key = stack::FlowHash::classify(head->bytes());
  } else {
    // A chained frame (one longer than a cluster, which the device
    // copy-in spreads over mbufs): classify from a bounded copy of the
    // front — eth + max IP header + ports.
    std::array<std::uint8_t, 94> hdr{};
    const std::uint32_t want =
        std::min<std::uint32_t>(pkt.length(),
                                static_cast<std::uint32_t>(hdr.size()));
    if (!pkt.copy_out(0, {hdr.data(), want})) return 0;
    key = stack::FlowHash::classify({hdr.data(), want});
  }
  return key.has_value() ? (*hash_)(*key) : 0;
}

void StagedRx::run_parse(std::size_t limit, par::WorkerPool* pool) {
  if (parse_q_.empty()) return;
  ++parse_.activations;
  if (!hash_) {
    // One lane: every frame goes to lane 0, so there is nothing to
    // classify — hand frames straight on.
    for (std::size_t n = 0; n < limit && !parse_q_.empty(); ++n) {
      ++parse_.handed_off;
      (void)offer(steer_, steer_q_, parse_q_.pop());
    }
    return;
  }
  while (batch_.size() < limit && !parse_q_.empty())
    batch_.push_back(parse_q_.pop());
  parse_.handed_off += batch_.size();
  hashes_.resize(batch_.size());
  if (pool != nullptr && pool->workers() > 1 && batch_.size() > 1) {
    // Frame-indexed slots: bit-identical for any --jobs.
    pool->run(batch_.size(), [&](std::size_t i, par::WorkerContext&) {
      hashes_[i] = classify_hash(batch_[i]);
    });
  } else {
    for (std::size_t i = 0; i < batch_.size(); ++i)
      hashes_[i] = classify_hash(batch_[i]);
  }
  for (std::size_t i = 0; i < batch_.size(); ++i) {
    if (offer(steer_, steer_q_, std::move(batch_[i])))
      steer_meta_.push_back(hashes_[i]);
  }
  batch_.clear();
}

void StagedRx::run_steer() {
  if (steer_q_.empty()) return;
  ++steer_.activations;
  LDLP_DASSERT(!hash_ || steer_meta_.size() == steer_q_.size());
  for (std::size_t i = 0; !steer_q_.empty(); ++i) {
    const std::size_t lane = hash_ ? steer_meta_[i] % cfg_.lanes : 0;
    ++steer_.handed_off;
    (void)offer(proto_, proto_q_[lane], steer_q_.pop());
  }
  steer_meta_.clear();
}

void StagedRx::run_proto() {
  for (std::size_t lane = 0; lane < proto_q_.size(); ++lane) {
    buf::PacketQueue& q = proto_q_[lane];
    if (q.empty()) continue;
    ++proto_.activations;
    while (!q.empty()) {
      buf::Packet frame = q.pop();
      ++proto_.handed_off;
      host_.inject_rx(std::move(frame));
    }
    if (cfg_.mode == RxMode::kHybrid) {
      // Per-layer hand-off: every pass advances the lane's batch exactly
      // one layer, the graph-level picture of a stage pipeline.
      while (host_.graph().run_stage_pass() != 0) {
      }
    } else {
      // kLdlp: classic layer-blocked drain of the lane's whole batch.
      // kPipelined reaches here with exactly one frame queued, so the
      // same call degenerates to a batch of one.
      (void)host_.graph().run();
    }
  }
}

std::size_t StagedRx::pump(std::size_t max_frames, par::WorkerPool* pool) {
  host_.device().poll();
  std::size_t pulled = 0;
  for (std::size_t q = 0; q < host_.device().rx_queue_count(); ++q) {
    while (pulled < max_frames) {
      buf::Packet frame = host_.pull_frame(q);
      if (!frame) break;
      (void)offer(parse_, parse_q_, std::move(frame));
      ++pulled;
    }
  }
  std::size_t sub = SIZE_MAX;
  if (cfg_.mode == RxMode::kPipelined) {
    sub = 1;
  } else if (cfg_.mode == RxMode::kHybrid && cfg_.batch_limit != 0) {
    sub = cfg_.batch_limit;
  }
  while (!parse_q_.empty()) {
    run_parse(sub, pool);
    run_steer();
    run_proto();
  }
  if (pulled > 0) host_.run_post_pass();
  return pulled;
}

StageCounters StagedRx::counters(Stage stage) const {
  switch (stage) {
    case Stage::kParse: {
      StageCounters c = parse_;
      c.queue_len = parse_q_.size();
      return c;
    }
    case Stage::kSteer: {
      StageCounters c = steer_;
      c.queue_len = steer_q_.size();
      return c;
    }
    case Stage::kProto: {
      StageCounters c = proto_;
      for (const buf::PacketQueue& q : proto_q_) c.queue_len += q.size();
      return c;
    }
    case Stage::kSocket: {
      // The socket stage's queue lives inside the graph; surface its
      // LayerStats delta since this pipeline attached.
      const core::LayerStats& s = host_.sockets().stats();
      StageCounters c;
      c.offered = s.enqueued - sock_base_.enqueued;
      c.enqueued = c.offered - (s.drops - sock_base_.drops);
      c.handed_off = s.processed - sock_base_.processed;
      c.drops = s.drops - sock_base_.drops;
      c.activations = s.activations - sock_base_.activations;
      c.queue_len = host_.sockets().queue_len();
      c.high_water = s.max_queue;
      return c;
    }
  }
  return {};
}

std::vector<std::string> StagedRx::audit() const {
  std::vector<std::string> violations;
  const auto check_conservation = [&](Stage stage) {
    const StageCounters c = counters(stage);
    if (c.offered != c.enqueued + c.drops)
      violations.push_back(std::string("pipe.") + stage_name(stage) +
                           ": offered != enqueued + drops");
    if (c.enqueued != c.handed_off + c.queue_len)
      violations.push_back(std::string("pipe.") + stage_name(stage) +
                           ": enqueued != handed_off + queue_len");
  };
  check_conservation(Stage::kParse);
  check_conservation(Stage::kSteer);
  check_conservation(Stage::kProto);
  if (hash_ && steer_meta_.size() != steer_q_.size())
    violations.push_back("pipe.steer: metadata out of sync with queue");

  // Zero-copy mbuf ownership: every chain parked at a stage boundary must
  // be owned by this host's pool (pointer hand-off can never manufacture
  // a chain, copy one, or adopt a foreign pool's).
  buf::MbufPool* pool = &host_.pool();
  const auto check_queue = [&](const char* name, const buf::PacketQueue& q) {
    std::size_t chains = 0;
    for (const buf::Mbuf* m = q.peek_head(); m != nullptr; m = m->nextpkt()) {
      if (++chains > q.size()) {
        violations.push_back(std::string("pipe.") + name +
                             ": intrusive ring longer than size()");
        return;
      }
      for (const buf::Mbuf* seg = m; seg != nullptr; seg = seg->next()) {
        if (seg->pool() != pool) {
          violations.push_back(std::string("pipe.") + name +
                               ": queued mbuf not owned by the host pool");
          return;
        }
      }
    }
    if (chains != q.size())
      violations.push_back(std::string("pipe.") + name +
                           ": chain count != size()");
  };
  check_queue("parse", parse_q_);
  check_queue("steer", steer_q_);
  for (std::size_t lane = 0; lane < proto_q_.size(); ++lane)
    check_queue("proto", proto_q_[lane]);
  return violations;
}

void StagedRx::publish(obs::Registry& registry,
                       std::string_view prefix) const {
  const std::string p(prefix);
  const auto stage = [&](Stage s) {
    const StageCounters c = counters(s);
    const std::string base = p + "." + stage_name(s);
    registry.counter(base + ".offered").set(c.offered);
    registry.counter(base + ".enqueued").set(c.enqueued);
    registry.counter(base + ".handed_off").set(c.handed_off);
    registry.counter(base + ".drops").set(c.drops);
    registry.counter(base + ".activations").set(c.activations);
    registry.gauge(base + ".queue_len")
        .set(static_cast<double>(c.queue_len));
    registry.gauge(base + ".high_water")
        .set(static_cast<double>(c.high_water));
  };
  stage(Stage::kParse);
  stage(Stage::kSteer);
  stage(Stage::kProto);
  stage(Stage::kSocket);
  registry.gauge(p + ".lanes").set(static_cast<double>(cfg_.lanes));
  registry.counter(p + ".mode").set(static_cast<std::uint64_t>(cfg_.mode));
}

}  // namespace ldlp::pipe
