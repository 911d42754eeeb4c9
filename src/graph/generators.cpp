#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "graph/algorithms.hpp"

namespace nrn::graph {

Graph make_path(NodeId n) {
  NRN_EXPECTS(n >= 1, "path needs at least one node");
  GraphBuilder b(n);
  for (NodeId i = 0; i + 1 < n; ++i) b.add_edge(i, i + 1);
  return b.build();
}

Graph make_cycle(NodeId n) {
  NRN_EXPECTS(n >= 3, "cycle needs at least three nodes");
  GraphBuilder b(n);
  for (NodeId i = 0; i < n; ++i) b.add_edge(i, (i + 1) % n);
  return b.build();
}

Graph make_star(NodeId leaf_count) {
  NRN_EXPECTS(leaf_count >= 1, "star needs at least one leaf");
  GraphBuilder b(leaf_count + 1);
  for (NodeId i = 1; i <= leaf_count; ++i) b.add_edge(0, i);
  return b.build();
}

Graph make_complete(NodeId n) {
  NRN_EXPECTS(n >= 2, "complete graph needs at least two nodes");
  GraphBuilder b(n);
  for (NodeId i = 0; i < n; ++i)
    for (NodeId j = i + 1; j < n; ++j) b.add_edge(i, j);
  return b.build();
}

Graph make_grid(NodeId rows, NodeId cols) {
  NRN_EXPECTS(rows >= 1 && cols >= 1, "grid dimensions must be positive");
  GraphBuilder b(rows * cols);
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) b.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) b.add_edge(id(r, c), id(r + 1, c));
    }
  }
  return b.build();
}

Graph make_binary_tree(NodeId n) {
  NRN_EXPECTS(n >= 1, "tree needs at least one node");
  GraphBuilder b(n);
  for (NodeId i = 1; i < n; ++i) b.add_edge(i, (i - 1) / 2);
  return b.build();
}

Graph make_caterpillar(NodeId spine, NodeId legs) {
  NRN_EXPECTS(spine >= 1 && legs >= 0, "bad caterpillar parameters");
  const NodeId n = spine + spine * legs;
  GraphBuilder b(n);
  for (NodeId i = 0; i + 1 < spine; ++i) b.add_edge(i, i + 1);
  NodeId next = spine;
  for (NodeId i = 0; i < spine; ++i)
    for (NodeId leg = 0; leg < legs; ++leg) b.add_edge(i, next++);
  return b.build();
}

Graph make_random_tree(NodeId n, Rng& rng) {
  NRN_EXPECTS(n >= 1, "tree needs at least one node");
  GraphBuilder b(n);
  for (NodeId i = 1; i < n; ++i)
    b.add_edge(i, static_cast<NodeId>(rng.next_below(
                      static_cast<std::uint64_t>(i))));
  return b.build();
}

Graph make_connected_gnp(NodeId n, double p, Rng& rng) {
  NRN_EXPECTS(n >= 2, "G(n,p) needs at least two nodes");
  NRN_EXPECTS(p >= 0.0 && p <= 1.0, "probability out of range");
  GraphBuilder b(n);
  // Random attachment skeleton keeps the sample connected.
  std::vector<NodeId> order(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  rng.shuffle(order);
  for (NodeId i = 1; i < n; ++i) {
    const NodeId child = order[static_cast<std::size_t>(i)];
    const NodeId parent = order[static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(i)))];
    b.add_edge(child, parent);
  }
  // Skip sampling row by row: O(n + p n^2) expected draws instead of the
  // n^2 per-pair coins, which makes n ~ 10^5 sparse graphs practical.
  for (NodeId i = 0; i + 1 < n; ++i)
    rng.for_each_bernoulli(static_cast<std::size_t>(n - i - 1), p,
                           [&](std::size_t offset) {
                             b.add_edge(i, i + 1 + static_cast<NodeId>(offset));
                           });
  return b.build();
}

Graph make_random_bipartite(NodeId left, NodeId right, double p, Rng& rng) {
  NRN_EXPECTS(left >= 1 && right >= 1, "bipartite sides must be non-empty");
  GraphBuilder b(left + right);
  for (NodeId i = 0; i < left; ++i)
    rng.for_each_bernoulli(static_cast<std::size_t>(right), p,
                           [&](std::size_t j) {
                             b.add_edge(i, left + static_cast<NodeId>(j));
                           });
  return b.build();
}

Graph make_barbell(NodeId clique, NodeId bridge) {
  NRN_EXPECTS(clique >= 2 && bridge >= 1, "bad barbell parameters");
  const NodeId n = 2 * clique + bridge - 1;
  GraphBuilder b(n);
  for (NodeId i = 0; i < clique; ++i)
    for (NodeId j = i + 1; j < clique; ++j) b.add_edge(i, j);
  const NodeId second = clique + bridge - 1;
  for (NodeId i = 0; i < clique; ++i)
    for (NodeId j = i + 1; j < clique; ++j)
      b.add_edge(second + i, second + j);
  // Bridge path from node clique-1 to node `second`.
  NodeId prev = clique - 1;
  for (NodeId step = 0; step < bridge - 1; ++step) {
    const NodeId mid = clique + step;
    b.add_edge(prev, mid);
    prev = mid;
  }
  b.add_edge(prev, second);
  return b.build();
}

Graph make_hypercube(std::int32_t dimensions) {
  NRN_EXPECTS(dimensions >= 1 && dimensions <= 20, "bad hypercube dimension");
  const NodeId n = static_cast<NodeId>(1) << dimensions;
  GraphBuilder b(n);
  for (NodeId u = 0; u < n; ++u)
    for (std::int32_t d = 0; d < dimensions; ++d) {
      const NodeId v = u ^ (static_cast<NodeId>(1) << d);
      if (u < v) b.add_edge(u, v);
    }
  return b.build();
}

Graph make_ring_of_cliques(NodeId cliques, NodeId clique_size) {
  NRN_EXPECTS(cliques >= 3, "ring needs at least three cliques");
  NRN_EXPECTS(clique_size >= 2, "cliques need at least two members");
  const NodeId n = cliques * clique_size;
  GraphBuilder b(n);
  auto member = [clique_size](NodeId c, NodeId i) {
    return c * clique_size + i;
  };
  for (NodeId c = 0; c < cliques; ++c) {
    for (NodeId i = 0; i < clique_size; ++i)
      for (NodeId j = i + 1; j < clique_size; ++j)
        b.add_edge(member(c, i), member(c, j));
    b.add_edge(member(c, 0), member((c + 1) % cliques, 1));
  }
  return b.build();
}

Graph make_random_regular(NodeId n, std::int32_t degree, Rng& rng) {
  NRN_EXPECTS(n >= degree + 1, "degree too large for n");
  NRN_EXPECTS(degree >= 1, "degree must be positive");
  NRN_EXPECTS((static_cast<std::int64_t>(n) * degree) % 2 == 0,
              "n * degree must be even");
  GraphBuilder b(n);
  // Pairing model: stubs shuffled and matched; conflicting pairs are
  // retried a bounded number of times, then dropped.
  std::vector<NodeId> stubs;
  stubs.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(degree));
  for (NodeId u = 0; u < n; ++u)
    for (std::int32_t d = 0; d < degree; ++d) stubs.push_back(u);
  std::set<std::pair<NodeId, NodeId>> used;
  for (int attempt = 0; attempt < 32; ++attempt) {
    rng.shuffle(stubs);
    std::vector<NodeId> leftovers;
    for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
      NodeId u = stubs[i], v = stubs[i + 1];
      if (u == v) {
        leftovers.push_back(u);
        leftovers.push_back(v);
        continue;
      }
      if (u > v) std::swap(u, v);
      if (!used.insert({u, v}).second) {
        leftovers.push_back(u);
        leftovers.push_back(v);
        continue;
      }
      b.add_edge(u, v);
    }
    stubs.swap(leftovers);
    if (stubs.size() < 2) break;
  }
  return b.build();
}

Graph make_lollipop(NodeId clique, NodeId tail) {
  NRN_EXPECTS(clique >= 2 && tail >= 1, "bad lollipop parameters");
  GraphBuilder b(clique + tail);
  for (NodeId i = 0; i < clique; ++i)
    for (NodeId j = i + 1; j < clique; ++j) b.add_edge(i, j);
  NodeId prev = clique - 1;
  for (NodeId i = 0; i < tail; ++i) {
    b.add_edge(prev, clique + i);
    prev = clique + i;
  }
  return b.build();
}

namespace {

/// Cells per side of the bucketing grid over [0, side)^2.  A cell is a
/// hair wider than `range` (the 1e-9 margin absorbs every rounding in the
/// index arithmetic and the distance predicate), so any pair within range
/// lands in the same or adjacent cells.  At most ceil(sqrt(n)) cells per
/// side keep the grid O(n) however sparse the placement; a coarser grid
/// only widens the candidate set, never the result.
std::int64_t cells_per_side(std::size_t n, double side, double range) {
  const double fit = std::floor(side / (range * (1.0 + 1e-9)));
  const double cap = std::ceil(std::sqrt(static_cast<double>(n)));
  return static_cast<std::int64_t>(std::max(1.0, std::min(fit, cap)));
}

}  // namespace

std::vector<std::pair<NodeId, NodeId>> geometric_edges(
    std::span<const double> x, std::span<const double> y, double side,
    double range) {
  NRN_EXPECTS(x.size() == y.size(), "coordinate arrays differ in length");
  NRN_EXPECTS(side > 0.0 && range > 0.0, "side and range must be positive");
  const std::size_t n = x.size();
  const std::int64_t k = cells_per_side(n, side, range);
  const double scale = static_cast<double>(k) / side;
  auto index = [&](double v) {
    return static_cast<std::int32_t>(
        std::clamp(std::floor(v * scale), 0.0, static_cast<double>(k - 1)));
  };

  // Counting sort of the ids into row-major cell order, stable so ids
  // ascend within a cell; parallel coordinate copies make the scan below
  // stream through memory.
  std::vector<std::int32_t> cx(n), cy(n);
  std::vector<std::int64_t> start(static_cast<std::size_t>(k * k) + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    cx[i] = index(x[i]);
    cy[i] = index(y[i]);
    ++start[static_cast<std::size_t>(cy[i] * k + cx[i] + 1)];
  }
  for (std::size_t c = 1; c < start.size(); ++c) start[c] += start[c - 1];
  std::vector<NodeId> ids(n);
  std::vector<double> sx(n), sy(n);
  {
    std::vector<std::int64_t> fill(start.begin(), start.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      const auto p = static_cast<std::size_t>(
          fill[static_cast<std::size_t>(cy[i] * k + cx[i])]++);
      ids[p] = static_cast<NodeId>(i);
      sx[p] = x[i];
      sy[p] = y[i];
    }
  }

  // gather(v) collects the u < v within range into `near`: they come from
  // the 3x3 block of cells around v's cell -- three contiguous runs of
  // the sorted arrays, scanned without branches (every candidate is
  // written, only hits advance the cursor; a block holds at most n
  // candidates).
  const double range2 = range * range;
  std::vector<NodeId> near(n);
  auto gather = [&](std::size_t v) {
    const double xv = x[v];
    const double yv = y[v];
    const std::int64_t x_lo = std::max<std::int64_t>(cx[v] - 1, 0);
    const std::int64_t x_hi = std::min<std::int64_t>(cx[v] + 1, k - 1);
    const std::int64_t y_lo = std::max<std::int64_t>(cy[v] - 1, 0);
    const std::int64_t y_hi = std::min<std::int64_t>(cy[v] + 1, k - 1);
    std::size_t hits = 0;
    for (std::int64_t cell_row = y_lo; cell_row <= y_hi; ++cell_row) {
      const auto lo = static_cast<std::size_t>(
          start[static_cast<std::size_t>(cell_row * k + x_lo)]);
      const auto hi = static_cast<std::size_t>(
          start[static_cast<std::size_t>(cell_row * k + x_hi) + 1]);
      for (std::size_t p = lo; p < hi; ++p) {
        const double dx = sx[p] - xv;
        const double dy = sy[p] - yv;
        near[hits] = ids[p];
        hits += static_cast<std::size_t>(
            (ids[p] < static_cast<NodeId>(v)) & (dx * dx + dy * dy <= range2));
      }
    }
    return hits;
  };

  // Two passes over v in ascending order: the first counts each u's
  // partners, the second writes every pair {u, v} straight into u's slot
  // of the exactly sized edge list.  Each u's partners arrive in
  // ascending v, so the list comes out lexicographic, ready for the Graph
  // constructor -- no per-node sort, no growing buffer.
  std::vector<std::size_t> slot(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t hits = gather(v);
    for (std::size_t h = 0; h < hits; ++h)
      ++slot[static_cast<std::size_t>(near[h]) + 1];
  }
  for (std::size_t u = 1; u <= n; ++u) slot[u] += slot[u - 1];
  std::vector<std::pair<NodeId, NodeId>> edges(slot[n]);
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t hits = gather(v);
    for (std::size_t h = 0; h < hits; ++h)
      edges[slot[static_cast<std::size_t>(near[h])]++] = {
          near[h], static_cast<NodeId>(v)};
  }
  return edges;
}

namespace {

/// Shared body of the geometric generators: places n nodes uniformly in
/// the [0, side)^2 square (x then y per node, 2n uniform01 draws total),
/// joins every pair within `range` (geometric_edges), and exports the
/// placement.  The draws never depend on whether geometry output was
/// requested, so graph builds with and without it see the same topology
/// from the same rng state.
///
/// A disconnected sample is resampled from the same stream (the broadcast
/// model needs every node reachable, and a graph edge the channel can
/// never deliver over would be worse than a retry).  The retry budget
/// makes a sub-critical radius/density fail with PlacementError instead
/// of spinning; each attempt is O(n + E), so failing is fast too.
Graph make_geometric(NodeId n, double side, double range, double power,
                     Rng& rng, Geometry* geometry) {
  std::vector<double> x(static_cast<std::size_t>(n));
  std::vector<double> y(static_cast<std::size_t>(n));
  for (int attempt = 0; attempt < kMaxPlacementAttempts; ++attempt) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = rng.uniform01() * side;
      y[i] = rng.uniform01() * side;
    }
    Graph g(n, geometric_edges(x, y, side, range));
    if (!is_connected(g)) continue;
    if (geometry != nullptr) {
      geometry->x = std::move(x);
      geometry->y = std::move(y);
      geometry->power.assign(static_cast<std::size_t>(n), power);
    }
    return g;
  }
  throw PlacementError("geometric placement of " + std::to_string(n) +
                       " nodes failed to connect in " +
                       std::to_string(kMaxPlacementAttempts) + " attempts");
}

}  // namespace

Graph make_unit_disk(NodeId n, double radius, double power, Rng& rng,
                     Geometry* geometry) {
  NRN_EXPECTS(n >= 1, "unit disk needs at least one node");
  NRN_EXPECTS(radius > 0.0, "unit disk radius must be positive");
  NRN_EXPECTS(power > 0.0, "unit disk power must be positive");
  return make_geometric(n, 1.0, radius, power, rng, geometry);
}

Graph make_uniform_density(NodeId n, double density, Rng& rng,
                           Geometry* geometry) {
  NRN_EXPECTS(n >= 1, "uniform density needs at least one node");
  NRN_EXPECTS(density > 0.0, "density must be positive");
  const double side = std::sqrt(static_cast<double>(n) / density);
  return make_geometric(n, side, 1.0, 1.0, rng, geometry);
}

}  // namespace nrn::graph
