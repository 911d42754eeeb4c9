// Grid-bucketed geometric graph build: the disk/uniform generators must
// produce exactly the graph, placement and rng state of the plain all-pairs
// construction they replace, and geometric_edges must agree with an
// all-pairs scan on adversarial coordinates (pairs exactly `range` apart,
// points on cell boundaries, the last double below the side, coincident
// points).  The all-pairs reference lives only here.
#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/algorithms.hpp"

namespace nrn::graph {
namespace {

using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

/// O(n^2) reference for geometric_edges: the same predicate on the same
/// doubles, every pair i < j in lexicographic order.
EdgeList all_pairs_edges(const std::vector<double>& x,
                         const std::vector<double>& y, double range) {
  const double range2 = range * range;
  EdgeList edges;
  const auto n = static_cast<NodeId>(x.size());
  for (NodeId i = 0; i < n; ++i)
    for (NodeId j = i + 1; j < n; ++j) {
      const double dx = x[static_cast<std::size_t>(i)] -
                        x[static_cast<std::size_t>(j)];
      const double dy = y[static_cast<std::size_t>(i)] -
                        y[static_cast<std::size_t>(j)];
      if (dx * dx + dy * dy <= range2) edges.emplace_back(i, j);
    }
  return edges;
}

struct Placement {
  Graph graph;
  Geometry geometry;
  int attempts = 0;
};

/// The all-pairs geometric generator: same draws, same predicate, same
/// retry loop and budget.  nullopt when every attempt was disconnected.
std::optional<Placement> all_pairs_geometric(NodeId n, double side,
                                             double range, double power,
                                             Rng& rng) {
  for (int attempt = 1; attempt <= kMaxPlacementAttempts; ++attempt) {
    std::vector<double> x(static_cast<std::size_t>(n));
    std::vector<double> y(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = rng.uniform01() * side;
      y[i] = rng.uniform01() * side;
    }
    GraphBuilder builder(n);
    for (const auto& [u, v] : all_pairs_edges(x, y, range))
      builder.add_edge(u, v);
    Graph g = builder.build();
    if (!is_connected(g)) continue;
    Geometry geometry{std::move(x), std::move(y),
                      std::vector<double>(static_cast<std::size_t>(n), power)};
    return Placement{std::move(g), std::move(geometry), attempt};
  }
  return std::nullopt;
}

void expect_same_graph(const Graph& actual, const Graph& expected) {
  ASSERT_EQ(actual.node_count(), expected.node_count());
  ASSERT_EQ(actual.edge_count(), expected.edge_count());
  for (NodeId u = 0; u < actual.node_count(); ++u) {
    const auto a = actual.neighbors(u);
    const auto e = expected.neighbors(u);
    ASSERT_EQ(std::vector<NodeId>(a.begin(), a.end()),
              std::vector<NodeId>(e.begin(), e.end()))
        << "row " << u;
  }
}

/// Post-build rng state compared through its next outputs.
void expect_same_stream(Rng& actual, Rng& expected) {
  for (int i = 0; i < 4; ++i) ASSERT_EQ(actual(), expected());
}

/// A disk:n:radius:power or uniform:n:density topology.
struct Spec {
  NodeId n;
  double parameter;  ///< disk radius or uniform density
  bool uniform = false;
  double power = 1.0;
};

/// Builds `spec` with the generator and with the reference from the same
/// seed and checks graph, geometry and rng state agree; returns the
/// attempts the reference needed (0 when no attempt connected).
int check_against_reference(const Spec& spec, std::uint64_t seed) {
  SCOPED_TRACE("n=" + std::to_string(spec.n) +
               " parameter=" + std::to_string(spec.parameter) +
               " seed=" + std::to_string(seed));
  const double side =
      spec.uniform ? std::sqrt(static_cast<double>(spec.n) / spec.parameter)
                   : 1.0;
  const double range = spec.uniform ? 1.0 : spec.parameter;
  Rng reference_rng(seed);
  const auto expected =
      all_pairs_geometric(spec.n, side, range, spec.power, reference_rng);
  Rng rng(seed);
  Geometry geometry;
  auto build = [&] {
    return spec.uniform
               ? make_uniform_density(spec.n, spec.parameter, rng, &geometry)
               : make_unit_disk(spec.n, spec.parameter, spec.power, rng,
                                &geometry);
  };
  if (!expected) {
    EXPECT_THROW(build(), PlacementError);
    expect_same_stream(rng, reference_rng);
    return 0;
  }
  expect_same_graph(build(), expected->graph);
  EXPECT_EQ(geometry, expected->geometry);
  expect_same_stream(rng, reference_rng);
  return expected->attempts;
}

void check_seeds(const Spec& spec, int seeds) {
  for (int seed = 1; seed <= seeds; ++seed)
    check_against_reference(spec, static_cast<std::uint64_t>(seed));
}

TEST(GeometricBuild, DiskMatchesAllPairsReference) {
  check_seeds({2, 0.5}, 20);  // connects on ~60 % of draws: retries too
  check_seeds({400, 0.12}, 20);
  check_seeds({5000, 0.042}, 20);
}

TEST(GeometricBuild, RadiusAtLeastTheSideIsOneCell) {
  check_seeds({50, 1.0}, 20);
  check_seeds({50, 1.5}, 20);
}

TEST(GeometricBuild, NearThresholdRadiusTakesTheRetryPath) {
  // sqrt(ln 400 / (400 pi)) ~ 0.069: a fair share of placements at 0.075
  // are disconnected, so the resample-from-the-same-stream path runs.
  int retried = 0;
  for (int seed = 1; seed <= 20; ++seed) {
    const int attempts = check_against_reference(
        {400, 0.075, false, 2.5}, static_cast<std::uint64_t>(seed));
    EXPECT_GE(attempts, 1) << "seed " << seed;
    if (attempts > 1) ++retried;
  }
  EXPECT_GT(retried, 0);
}

TEST(GeometricBuild, SubcriticalRadiusThrowsAfterTheSameDraws) {
  EXPECT_EQ(check_against_reference({300, 0.02}, 7), 0);
  EXPECT_EQ(check_against_reference({300, 0.5, true}, 7), 0);
}

TEST(GeometricBuild, UniformDensityMatchesAllPairsReference) {
  check_seeds({64, 1.5, true}, 20);
  check_seeds({2000, 3.0, true}, 20);
}

/// geometric_edges against the all-pairs scan on the given points.
void check_edges(const std::vector<double>& x, const std::vector<double>& y,
                 double side, double range) {
  SCOPED_TRACE("side=" + std::to_string(side) +
               " range=" + std::to_string(range));
  EXPECT_EQ(geometric_edges(x, y, side, range), all_pairs_edges(x, y, range));
}

TEST(GeometricEdges, LatticePointsOnCellBoundaries) {
  // Points on a lattice of pitch range/2 sit on cell boundaries and form
  // many pairs (about) exactly `range` apart, so any cell sizing that
  // drops a boundary pair shows up here.
  for (const double side : {1.0, 3.0, 7.5}) {
    for (const double fraction :
         {1.0, 0.5, 1.0 / 3.0, 0.25, 0.2, 0.1, 1.0 / 7.0, 0.042}) {
      const double range = side * fraction;
      std::vector<double> x, y;
      const double pitch = range / 2.0;
      for (double a = 0.0; a < side; a += pitch)
        for (double b = 0.0; b < side; b += pitch) {
          x.push_back(a);
          y.push_back(b);
        }
      check_edges(x, y, side, range);
      // Integer multiples of the range, computed without accumulation.
      x.clear();
      y.clear();
      for (int i = 0; i * range < side; ++i)
        for (int j = 0; j * range < side; ++j) {
          x.push_back(i * range);
          y.push_back(j * range);
        }
      check_edges(x, y, side, range);
    }
  }
}

TEST(GeometricEdges, PairsExactlyRangeApart) {
  const double range = 0.1;
  std::vector<double> x, y;
  for (const double base : {0.0, 0.05, 0.3, 0.7, 0.9}) {
    x.insert(x.end(), {base, base + range, base, base + range * 0.6});
    y.insert(y.end(), {0.5, 0.5, 0.5 + range, 0.5 + range * 0.8});
  }
  check_edges(x, y, 1.0, range);
  // Just inside and just outside range.
  const double inside = std::nextafter(0.4 + range, 0.0);
  const double outside = std::nextafter(0.4 + range, 1.0);
  check_edges({0.4, inside, outside}, {0.2, 0.2, 0.2}, 1.0, range);
}

TEST(GeometricEdges, LastDoubleBelowTheSideAndBeyond) {
  for (const double side : {1.0, 2.0, std::sqrt(2000.0 / 3.0)}) {
    const double last = std::nextafter(side, 0.0);
    for (const double range : {side / 10.0, side / 3.0, 1.0}) {
      const std::vector<double> x = {last, last - range, last, 0.0, side,
                                     side, last - range / 2.0};
      const std::vector<double> y = {last, last, last - range, last, side,
                                     0.0, 0.0};
      check_edges(x, y, side, range);
    }
  }
  // Coordinates outside the square fall into the border cells.
  check_edges({-0.05, 0.02, 1.04, 0.97, -3.0}, {0.5, 0.5, 0.2, 0.2, -3.0},
              1.0, 0.1);
}

TEST(GeometricEdges, CoincidentPoints) {
  const std::vector<double> x = {0.5, 0.5, 0.5, 0.1, 0.1, 0.55, 0.0, 0.0};
  const std::vector<double> y = {0.5, 0.5, 0.5, 0.9, 0.9, 0.5, 0.0, 0.0};
  check_edges(x, y, 1.0, 0.05);
  check_edges(x, y, 1.0, 1e-300);
}

TEST(GeometricEdges, RandomPlacementsAcrossGridShapes) {
  Rng rng(41);
  for (const int n : {1, 2, 9, 100, 1000}) {
    for (const double range : {0.013, 0.05, 0.3, 2.0}) {
      std::vector<double> x(static_cast<std::size_t>(n));
      std::vector<double> y(static_cast<std::size_t>(n));
      for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = rng.uniform01();
        y[i] = rng.uniform01();
      }
      check_edges(x, y, 1.0, range);
    }
  }
}

TEST(GeometricEdges, SparseSquareKeepsTheGridSmall) {
  // uniform:2:1e-12 is a square of side ~1.4e6 at unit range: one cell per
  // unit of side would be 2e12 cells.  The ceil(sqrt(n)) cap keeps it at
  // 2 x 2, so both the edge step and the 64 failing attempts are instant
  // (without the cap the build dies in the allocator instead).
  const double side = std::sqrt(2.0 / 1e-12);
  EXPECT_TRUE(geometric_edges(std::vector<double>{0.0, side / 2.0},
                              std::vector<double>{0.0, side / 2.0}, side, 1.0)
                  .empty());
  Rng rng(3);
  EXPECT_THROW(make_uniform_density(2, 1e-12, rng), PlacementError);
}

}  // namespace
}  // namespace nrn::graph
