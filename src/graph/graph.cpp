#include "graph/graph.hpp"

#include <algorithm>

namespace nrn::graph {

Graph::Graph(NodeId node_count,
             const std::vector<std::pair<NodeId, NodeId>>& edges)
    : node_count_(node_count) {
  NRN_EXPECTS(node_count >= 1, "graph needs at least one node");
  offsets_.assign(static_cast<std::size_t>(node_count) + 1, 0);

  for (const auto& [u, v] : edges) {
    NRN_EXPECTS(u >= 0 && u < node_count && v >= 0 && v < node_count,
                "edge endpoint out of range");
    NRN_EXPECTS(u != v, "self-loops are not allowed in the radio model");
    ++offsets_[static_cast<std::size_t>(u) + 1];
    ++offsets_[static_cast<std::size_t>(v) + 1];
  }
  for (std::size_t i = 1; i < offsets_.size(); ++i) offsets_[i] += offsets_[i - 1];

  targets_.resize(static_cast<std::size_t>(offsets_.back()));
  std::vector<std::int64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const auto& [u, v] : edges) {
    targets_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(u)]++)] = v;
    targets_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(v)]++)] = u;
  }

  for (NodeId u = 0; u < node_count_; ++u) {
    auto row_begin = targets_.begin() + offsets_[static_cast<std::size_t>(u)];
    auto row_end = targets_.begin() + offsets_[static_cast<std::size_t>(u) + 1];
    // Rows of a lexicographic edge list (GraphBuilder, geometric_edges)
    // arrive sorted already.
    if (!std::is_sorted(row_begin, row_end)) std::sort(row_begin, row_end);
    NRN_EXPECTS(std::adjacent_find(row_begin, row_end) == row_end,
                "parallel edges are not allowed");
  }
}

std::int32_t Graph::max_degree() const {
  std::int32_t best = 0;
  for (NodeId u = 0; u < node_count_; ++u) best = std::max(best, degree(u));
  return best;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  const auto row = neighbors(u);
  return std::binary_search(row.begin(), row.end(), v);
}

void GraphBuilder::add_edge(NodeId u, NodeId v) {
  NRN_EXPECTS(u >= 0 && u < node_count_ && v >= 0 && v < node_count_,
              "edge endpoint out of range");
  NRN_EXPECTS(u != v, "self-loops are not allowed in the radio model");
  if (u > v) std::swap(u, v);
  edges_.emplace_back(u, v);
}

Graph GraphBuilder::build() const {
  auto unique_edges = edges_;
  std::sort(unique_edges.begin(), unique_edges.end());
  unique_edges.erase(std::unique(unique_edges.begin(), unique_edges.end()),
                     unique_edges.end());
  return Graph(node_count_, unique_edges);
}

}  // namespace nrn::graph
