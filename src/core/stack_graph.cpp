#include "core/stack_graph.hpp"

#include <algorithm>
#include <chrono>

#include "common/assert.hpp"

namespace ldlp::core {

LayerId StackGraph::add_layer(Layer& layer) {
  LDLP_ASSERT_MSG(layer.graph_ == nullptr,
                  "layer already registered with a graph");
  const auto id = static_cast<LayerId>(nodes_.size());
  nodes_.push_back(Node{&layer, {}, {}});
  layers_.push_back(&layer);
  pass_snapshot_.push_back(0);
  layer.graph_ = this;
  layer.id_ = id;
  return id;
}

void StackGraph::connect(LayerId lower, LayerId upper, int port) {
  LDLP_ASSERT(lower < nodes_.size() && upper < nodes_.size());
  LDLP_ASSERT_MSG(find_edge(lower, port) == kNoLayer,
                  "port already connected");
  Node& node = nodes_[lower];
  node.out_edges.emplace_back(port, upper);
  if (std::find(node.above.begin(), node.above.end(), upper) ==
      node.above.end())
    node.above.push_back(upper);
}

LayerId StackGraph::find_edge(LayerId from, int port) const noexcept {
  for (const auto& [p, to] : nodes_[from].out_edges) {
    if (p == port) return to;
  }
  return kNoLayer;
}

void StackGraph::route(LayerId from, int port, Message msg) {
  const LayerId to = find_edge(from, port);
  if (to == kNoLayer) {  // top of stack or unconnected port: consume
    ++gstats_.delivered_top;
    return;
  }
  Layer& target = *nodes_[to].layer;
  if (mode_ == SchedMode::kConventional) {
    if (depth_ >= kMaxProcessDepth) {
      ++gstats_.shed_depth;
      return;
    }
    ++depth_;
    target.process_now(std::move(msg));
    --depth_;
  } else {
    // Interior hops are never shed by the backlog limit: a message the
    // graph accepted runs to completion (per-layer queue bounds still
    // cap memory, counted in LayerStats::drops).
    target.enqueue(std::move(msg));
  }
}

void StackGraph::inject(LayerId id, Message msg) {
  LDLP_ASSERT(id < nodes_.size());
  ++gstats_.injected;
  Layer& target = *nodes_[id].layer;
  if (mode_ == SchedMode::kConventional) {
    if (depth_ >= kMaxProcessDepth) {
      ++gstats_.shed_depth;
      return;
    }
    ++depth_;
    target.process_now(std::move(msg));
    --depth_;
  } else {
    // Overload shedding happens here, at admission: drop the newest
    // message while the graph is saturated so everything already
    // admitted still finishes (higher layers drain first in run()).
    if (backlog_limit_ != 0 && backlog() >= backlog_limit_) {
      ++gstats_.shed_entry;
      return;
    }
    target.enqueue(std::move(msg));
  }
}

std::size_t StackGraph::drain_upward(LayerId id) {
  Node& node = nodes_[id];
  std::size_t processed = node.layer->drain(SIZE_MAX);
  // "Then, it invokes all layers that can be directly above it (there can
  // be more than one) to process the messages in their queues."
  for (const LayerId up : node.above) processed += drain_upward(up);
  return processed;
}

std::size_t StackGraph::run() {
  if (mode_ == SchedMode::kConventional) return 0;
  const auto started = std::chrono::steady_clock::now();
  std::size_t total = 0;
  for (;;) {
    bool any = false;
    // Bottom-most layers are those with queued work; the entry layer
    // yields after batch_limit messages, everything above runs to
    // completion (higher priority).
    for (LayerId id = 0; id < nodes_.size(); ++id) {
      Layer& layer = *nodes_[id].layer;
      if (layer.queue_len() == 0) continue;
      any = true;
      const std::size_t limit = batch_limit_ == 0 ? SIZE_MAX : batch_limit_;
      std::size_t processed = layer.drain(limit);
      for (const LayerId up : nodes_[id].above) processed += drain_upward(up);
      total += processed;
    }
    if (!any) break;
  }
  if (total != 0) {
    ++gstats_.runs;
    drain_seconds_.add(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count());
  }
  return total;
}

std::size_t StackGraph::run_stage_pass() {
  if (mode_ == SchedMode::kConventional) return 0;
  // Snapshot first: work a lower layer hands up during this pass belongs
  // to the *next* pass, which is what makes each pass one stage advance.
  for (LayerId id = 0; id < nodes_.size(); ++id)
    pass_snapshot_[id] = nodes_[id].layer->queue_len();
  std::size_t total = 0;
  for (LayerId id = 0; id < nodes_.size(); ++id) {
    std::size_t limit = pass_snapshot_[id];
    if (limit == 0) continue;
    if (batch_limit_ != 0) limit = std::min(limit, batch_limit_);
    total += nodes_[id].layer->drain(limit);
  }
  return total;
}

void StackGraph::reset_stats() noexcept {
  gstats_ = {};
  drain_seconds_.reset();
  for (Layer* layer : layers_) layer->reset_stats();
}

std::size_t StackGraph::backlog() const noexcept {
  std::size_t total = 0;
  for (const Node& node : nodes_) total += node.layer->queue_len();
  return total;
}

}  // namespace ldlp::core
