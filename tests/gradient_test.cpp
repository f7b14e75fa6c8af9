// Gradient-skew subsystem: BFS distances / eccentricity / diameter pinned
// against hand-computed small graphs; the hop table pinned with == against
// Topology::distances_from on every TopologyKind (including a ring whose
// diameter exceeds 255); the column kernel pinned with == against the
// naive pair fold on seeded random graphs and adversarial columns (ties,
// all-equal, +-inf, NaN); a drift-free run's gradient is flat (slope 0
// within 1e-12); and gradient_series is pinned bitwise to the naive
// per-sample reference scan (gradient_at) and across thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/gradient.h"
#include "analysis/parallel_runner.h"
#include "clock/drift.h"
#include "net/topology.h"
#include "proc/process.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace wlsync {
namespace {

using analysis::GradientSeries;
using analysis::GradientSummary;
using analysis::RunResult;
using analysis::RunSpec;
using net::Topology;
using net::TopologyKind;

// ------------------------------------------------------- BFS distances ---

TEST(Distances, PathGraphPinned) {
  // 0 - 1 - 2 - 3 - 4 (from_adjacency symmetrizes and adds self-loops).
  const Topology topo = Topology::from_adjacency({{1}, {2}, {3}, {4}, {}});
  const std::vector<std::int32_t> from0 = topo.distances_from(0);
  EXPECT_EQ(from0, (std::vector<std::int32_t>{0, 1, 2, 3, 4}));
  const std::vector<std::int32_t> from2 = topo.distances_from(2);
  EXPECT_EQ(from2, (std::vector<std::int32_t>{2, 1, 0, 1, 2}));
  EXPECT_EQ(topo.eccentricity(0), 4);
  EXPECT_EQ(topo.eccentricity(2), 2);
  EXPECT_EQ(topo.diameter(), 4);
}

TEST(Distances, FullMeshIsDiameterOne) {
  const Topology topo = Topology::full_mesh(6);
  EXPECT_EQ(topo.diameter(), 1);
  for (std::int32_t p = 0; p < 6; ++p) {
    EXPECT_EQ(topo.eccentricity(p), 1);
    const std::vector<std::int32_t>& row = topo.distances_from(p);
    for (std::int32_t q = 0; q < 6; ++q) {
      EXPECT_EQ(row[static_cast<std::size_t>(q)], p == q ? 0 : 1);
    }
  }
}

TEST(Distances, RingOfCliquesPinned) {
  // Four triangles {0,1,2} {3,4,5} {6,7,8} {9,10,11}, bridged 2-3, 5-6,
  // 8-9, 11-0 into a ring.
  const Topology topo = Topology::ring_of_cliques(12, 3);
  EXPECT_EQ(topo.distances_from(0)[3], 2);   // 0-2-3
  EXPECT_EQ(topo.distances_from(1)[4], 3);   // 1-2-3-4
  EXPECT_EQ(topo.distances_from(0)[6], 4);   // 0-2-3-5-6 (or the long way)
  EXPECT_EQ(topo.distances_from(1)[7], 5);   // both ways around cost 5
  EXPECT_EQ(topo.diameter(), 5);
}

TEST(Distances, DisconnectedReportsMinusOne) {
  const Topology topo = Topology::from_adjacency({{1}, {0}, {3}, {2}});
  EXPECT_FALSE(topo.connected());
  EXPECT_EQ(topo.distances_from(0)[2], -1);
  EXPECT_EQ(topo.eccentricity(0), -1);
  EXPECT_EQ(topo.diameter(), -1);
}

TEST(Distances, SymmetricOnRandomExpander) {
  const Topology topo = Topology::k_regular(40, 6, /*seed=*/9);
  ASSERT_TRUE(topo.connected());
  EXPECT_GT(topo.diameter(), 1);
  for (std::int32_t i = 0; i < topo.n(); ++i) {
    const std::vector<std::int32_t>& row = topo.distances_from(i);
    EXPECT_EQ(row[static_cast<std::size_t>(i)], 0);
    for (std::int32_t j = 0; j < topo.n(); ++j) {
      EXPECT_EQ(row[static_cast<std::size_t>(j)],
                topo.distances_from(j)[static_cast<std::size_t>(i)])
          << "d(" << i << "," << j << ") asymmetric";
    }
  }
}

// ----------------------------------------------------------- hop table ---

std::vector<std::int32_t> every_node(const Topology& topo) {
  std::vector<std::int32_t> ids(static_cast<std::size_t>(topo.n()));
  for (std::int32_t p = 0; p < topo.n(); ++p) ids[static_cast<std::size_t>(p)] = p;
  return ids;
}

/// Every node but each third one, in descending order (the table must not
/// depend on the order ids arrive in).
std::vector<std::int32_t> sparse_subset(const Topology& topo) {
  std::vector<std::int32_t> ids;
  for (std::int32_t p = topo.n() - 1; p >= 0; --p) {
    if (p % 3 != 1) ids.push_back(p);
  }
  return ids;
}

/// Pins the table cell for cell against the BFS rows, its diameter against
/// Topology::diameter, and its pair counts against a naive pair count.
void expect_table_matches_bfs(const Topology& topo,
                              const std::vector<std::int32_t>& ids,
                              int threads) {
  const analysis::HopTable table = analysis::build_hop_table(topo, ids, threads);
  ASSERT_EQ(table.n, topo.n());
  ASSERT_EQ(table.diameter, topo.diameter());
  std::size_t mismatches = 0;
  for (std::int32_t u = 0; u < topo.n(); ++u) {
    const std::vector<std::int32_t>& row = topo.distances_from(u);
    for (std::int32_t v = 0; v < topo.n(); ++v) {
      if (table.row(u)[v] != row[static_cast<std::size_t>(v)]) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "n=" << topo.n() << " threads=" << threads;
  std::vector<std::int64_t> naive(static_cast<std::size_t>(table.diameter) + 1, 0);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (std::size_t j = i + 1; j < ids.size(); ++j) {
      naive[static_cast<std::size_t>(
          topo.distances_from(ids[i])[static_cast<std::size_t>(ids[j])])] += 1;
    }
  }
  EXPECT_EQ(table.pair_count_at, naive) << "n=" << topo.n();
}

/// A connected custom graph: a ring plus seeded random chords.
Topology random_custom(std::int32_t n, util::Rng& rng) {
  std::vector<std::vector<std::int32_t>> lists(static_cast<std::size_t>(n));
  for (std::int32_t p = 0; p < n; ++p) {
    lists[static_cast<std::size_t>(p)].push_back((p + 1) % n);
  }
  const auto chords = static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(n)));
  for (std::int32_t c = 0; c < chords; ++c) {
    const auto p = static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(n)));
    lists[static_cast<std::size_t>(p)].push_back(
        static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(n))));
  }
  return Topology::from_adjacency(lists);
}

TEST(HopTable, MatchesBfsOnEveryTopologyKind) {
  // Sizes straddle the 64-source block width (partial last blocks).
  util::Rng rng(20261019);
  const std::vector<Topology> graphs = {
      Topology::full_mesh(70),
      Topology::ring_of_cliques(150, 5),
      Topology::k_regular(200, 6, /*seed=*/3),
      random_custom(97, rng),
      Topology::full_mesh(1),
      Topology::from_adjacency({{1}, {}}),
  };
  for (const Topology& topo : graphs) {
    for (const int threads : {1, 4}) {
      expect_table_matches_bfs(topo, every_node(topo), threads);
      expect_table_matches_bfs(topo, sparse_subset(topo), threads);
    }
  }
}

TEST(HopTable, RingWithDiameterPast255) {
  // A plain ring (cliques of one): diameter 550 overflows any 8-bit cell.
  const Topology ring = Topology::ring_of_cliques(1100, 1);
  ASSERT_EQ(ring.diameter(), 550);
  expect_table_matches_bfs(ring, sparse_subset(ring), 4);
}

TEST(HopTable, IdenticalForAnyThreadCount) {
  const Topology topo = Topology::k_regular(300, 8, /*seed=*/5);
  const analysis::HopTable serial = analysis::build_hop_table(topo, every_node(topo), 1);
  for (const int threads : {2, 3, 4, 0}) {
    const analysis::HopTable sharded =
        analysis::build_hop_table(topo, every_node(topo), threads);
    const std::size_t cells = static_cast<std::size_t>(topo.n()) * static_cast<std::size_t>(topo.n());
    EXPECT_TRUE(std::equal(serial.hops.get(), serial.hops.get() + cells,
                           sharded.hops.get()))
        << "threads=" << threads;
    EXPECT_EQ(serial.diameter, sharded.diameter);
    EXPECT_EQ(serial.pair_count_at, sharded.pair_count_at);
  }
}

TEST(HopTable, RejectsDisconnectedGraphs) {
  const Topology pairs = Topology::from_adjacency({{1}, {0}, {3}, {2}});
  // Two rings, 0..99 and 100..129: the cut falls inside the second block.
  std::vector<std::vector<std::int32_t>> lists(130);
  for (std::int32_t p = 0; p < 100; ++p) lists[static_cast<std::size_t>(p)] = {(p + 1) % 100};
  for (std::int32_t p = 100; p < 130; ++p) {
    lists[static_cast<std::size_t>(p)] = {p == 129 ? 100 : p + 1};
  }
  const Topology two_rings = Topology::from_adjacency(lists);
  for (const int threads : {1, 4}) {
    EXPECT_THROW((void)analysis::build_hop_table(pairs, every_node(pairs), threads),
                 std::invalid_argument);
    EXPECT_THROW(
        (void)analysis::build_hop_table(two_rings, every_node(two_rings), threads),
        std::invalid_argument);
  }
}

TEST(HopTable, RejectsBadIds) {
  const Topology topo = Topology::ring_of_cliques(12, 3);
  EXPECT_THROW((void)analysis::build_hop_table(topo, {0, 5, 5}),
               std::invalid_argument);
  EXPECT_THROW((void)analysis::build_hop_table(topo, {0, 12}),
               std::invalid_argument);
  EXPECT_THROW((void)analysis::build_hop_table(topo, {-1, 3}),
               std::invalid_argument);
}

// ------------------------------------------------------- flat gradients ---

/// Honest process that does nothing: the clocks run free.
class Idle final : public proc::Process {
 public:
  void on_start(proc::Context&) override {}
  void on_timer(proc::Context&, std::int32_t) override {}
  void on_message(proc::Context&, const sim::Message&) override {}
};

TEST(Gradient, FlatOnDriftFreeIdenticalClocks) {
  // Perfect rate-1 clocks with identical offsets never separate: every
  // bucket is exactly zero at every sample, so the slope is exactly flat.
  const Topology topo = Topology::ring_of_cliques(12, 3);
  sim::SimConfig config;
  sim::Simulator sim(config, nullptr);
  std::vector<std::int32_t> ids;
  for (std::int32_t p = 0; p < topo.n(); ++p) {
    sim.add_process(std::make_unique<Idle>(),
                    std::make_unique<clk::PhysicalClock>(
                        clk::make_constant(1.0), /*offset=*/5.0, /*rho=*/1e-5),
                    /*corr0=*/0.0, /*faulty=*/false, /*start=*/0.0);
    ids.push_back(p);
  }
  sim.run_until(10.0);

  const GradientSeries series =
      analysis::gradient_series(sim, ids, topo, 1.0, 9.0, 0.5);
  EXPECT_EQ(series.diameter, 5);
  ASSERT_FALSE(series.distances.empty());
  for (double v : series.skew_by_sample) EXPECT_EQ(v, 0.0);
  for (double v : series.frontier) EXPECT_EQ(v, 0.0);
  EXPECT_NEAR(analysis::gradient_slope(series), 0.0, 1e-12);
}

TEST(Gradient, RejectsDisconnectedTopology) {
  // Cross-component pairs have no distance to bucket by; the sized-by-
  // diameter bucket table must never be indexed with the -1 sentinel.
  const Topology topo = Topology::from_adjacency({{1}, {0}, {3}, {2}});
  sim::SimConfig config;
  sim::Simulator sim(config, nullptr);
  for (std::int32_t p = 0; p < topo.n(); ++p) {
    sim.add_process(std::make_unique<Idle>(),
                    std::make_unique<clk::PhysicalClock>(
                        clk::make_constant(1.0), 0.0, 1e-5),
                    0.0, false, 0.0);
  }
  sim.run_until(2.0);
  EXPECT_THROW((void)analysis::gradient_series(sim, {0, 1, 2, 3}, topo, 0.0,
                                               1.0, 0.5),
               std::invalid_argument);
}

TEST(Gradient, SlopeRecoversSyntheticLine) {
  GradientSeries series;
  series.distances = {1, 2, 3, 4};
  series.max_skew = {0.5, 1.0, 1.5, 2.0};  // slope exactly 0.5
  EXPECT_NEAR(analysis::gradient_slope(series), 0.5, 1e-12);
  series.distances = {1};
  series.max_skew = {3.0};
  EXPECT_EQ(analysis::gradient_slope(series), 0.0);  // < 2 buckets
}

// -------------------------------------- sharded vs naive reference scan ---

RunSpec sparse_spec() {
  RunSpec spec;
  spec.params = core::make_params(24, 1, 1e-5, 0.01, 1e-3, 10.0);
  spec.fault = analysis::FaultKind::kTwoFaced;
  spec.fault_count = 1;
  spec.rounds = 8;
  spec.seed = 20260727;
  spec.topology.kind = TopologyKind::kRingOfCliques;
  spec.topology.clique_size = 6;
  return spec;
}

TEST(Gradient, ShardedBucketingMatchesNaiveReference) {
  const RunSpec spec = sparse_spec();
  analysis::Experiment experiment(spec);
  const RunResult result = experiment.run();
  const Topology topo = net::build_topology(spec.topology, spec.params.n);

  const double t0 = result.tmax0 + 1.0;
  const double t1 = result.t_end;
  const double dt = spec.params.P / 5.0;
  const GradientSeries series = analysis::gradient_series(
      experiment.simulator(), result.honest, topo, t0, t1, dt, /*threads=*/4);

  ASSERT_GT(series.distances.size(), 2u);
  for (std::size_t k = 0; k < series.times.size(); ++k) {
    const std::vector<double> reference =
        analysis::gradient_at(experiment.simulator(), result.honest, topo,
                              series.distances, series.times[k]);
    ASSERT_EQ(reference.size(), series.distances.size());
    for (std::size_t b = 0; b < reference.size(); ++b) {
      EXPECT_EQ(series.at(b, k), reference[b])
          << "bucket d=" << series.distances[b] << " sample " << k;
    }
  }
}

TEST(Gradient, ThreadCountInvariance) {
  const RunSpec spec = sparse_spec();
  analysis::Experiment experiment(spec);
  const RunResult result = experiment.run();
  const Topology topo = net::build_topology(spec.topology, spec.params.n);

  const double t0 = result.tmax0 + 1.0;
  const double dt = spec.params.P / 10.0;
  const GradientSeries serial = analysis::gradient_series(
      experiment.simulator(), result.honest, topo, t0, result.t_end, dt,
      /*threads=*/1);
  const GradientSeries sharded = analysis::gradient_series(
      experiment.simulator(), result.honest, topo, t0, result.t_end, dt,
      /*threads=*/4);
  ASSERT_EQ(serial.skew_by_sample.size(), sharded.skew_by_sample.size());
  for (std::size_t c = 0; c < serial.skew_by_sample.size(); ++c) {
    ASSERT_EQ(serial.skew_by_sample[c], sharded.skew_by_sample[c]) << "cell " << c;
  }
  EXPECT_TRUE(analysis::gradient_summaries_identical(
      analysis::summarize_gradient(serial),
      analysis::summarize_gradient(sharded)));
}

// -------------------------------------------------------- column kernel ---

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The fold gradient_column must reproduce: every pair, |L_i - L_j| folded
/// into its bucket with `skew > cell`, starting from `cells`.
std::vector<double> naive_fold(const Topology& topo,
                               const analysis::GradientAxis& axis,
                               const std::vector<std::int32_t>& ids,
                               const std::vector<double>& values,
                               std::vector<double> cells) {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (std::size_t j = i + 1; j < ids.size(); ++j) {
      const std::int32_t d =
          topo.distances_from(ids[i])[static_cast<std::size_t>(ids[j])];
      double& cell = cells[static_cast<std::size_t>(
          axis.bucket_of[static_cast<std::size_t>(d)])];
      const double skew = std::abs(values[i] - values[j]);
      if (skew > cell) cell = skew;
    }
  }
  return cells;
}

/// One adversarial column of `m` values; `style` picks the shape.
std::vector<double> random_column(std::size_t m, int style, util::Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values(m);
  const double shared = rng.uniform(-5.0, 5.0);
  for (double& v : values) {
    switch (style) {
      case 0:  // distinct reals
        v = rng.uniform(-1e3, 1e3);
        break;
      case 1:  // heavy ties, signed zeros included
        v = std::array<double, 5>{0.0, -0.0, 0.25, 1.5, -2.0}[rng.below(5)];
        break;
      case 2:  // all equal
        v = shared;
        break;
      case 3:  // infinities among ties and reals
        v = std::array<double, 5>{kInf, -kInf, 1.0, 1.0, rng.uniform(-1.0, 1.0)}[rng.below(5)];
        break;
      default:  // NaN among infinities, ties and reals
        v = std::array<double, 6>{kNaN, kNaN, kInf, -kInf, 0.5, rng.uniform(0.0, 1.0)}[rng.below(6)];
        break;
    }
  }
  return values;
}

TEST(GradientColumn, MatchesNaiveFoldOnRandomGraphsAndColumns) {
  util::Rng rng(424242);
  std::uint64_t probes = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const auto n = static_cast<std::int32_t>(2 + rng.below(60));
    const Topology topo = random_custom(n, rng);
    // A random subset of at least two ids, in random order.
    std::vector<std::int32_t> ids = every_node(topo);
    for (std::size_t i = ids.size(); i > 1; --i) {
      std::swap(ids[i - 1], ids[rng.below(i)]);
    }
    ids.resize(2 + rng.below(ids.size() - 1));
    const analysis::GradientAxis axis = analysis::build_gradient_axis(topo, ids, 1);
    const std::size_t m = ids.size();
    const std::size_t buckets = axis.distances.size();
    analysis::GradientScratch scratch(m, buckets);
    // Several columns through one scratch (the stamps carry over).
    for (int column = 0; column < 5; ++column) {
      const int style = (trial + column) % 5;
      const std::vector<double> values = random_column(m, style, rng);
      std::vector<double> start(buckets, 0.0);
      if (trial % 4 == 3) {
        for (double& c : start) c = rng.uniform(0.0, 2.0);  // folds into prior cells
      }
      // Strided layouts, as the post-hoc matrix uses: junk between entries.
      constexpr std::size_t kStride = 3;
      std::vector<double> strided_values(m * kStride, 1e300);
      for (std::size_t i = 0; i < m; ++i) strided_values[i * kStride] = values[i];
      std::vector<double> cells(buckets * kStride, -7.0);
      for (std::size_t b = 0; b < buckets; ++b) cells[b * kStride] = start[b];

      probes += analysis::gradient_column(axis, ids, strided_values.data(), kStride,
                                          cells.data(), kStride, scratch);
      const std::vector<double> expected = naive_fold(topo, axis, ids, values, start);
      for (std::size_t b = 0; b < buckets; ++b) {
        EXPECT_TRUE(same_bits(cells[b * kStride], expected[b]))
            << "trial " << trial << " style " << style << " bucket d="
            << axis.distances[b] << ": " << cells[b * kStride] << " vs "
            << expected[b];
        for (std::size_t g = 1; g < kStride; ++g) {
          ASSERT_EQ(cells[b * kStride + g], -7.0) << "wrote outside its cell";
        }
      }
    }
  }
  EXPECT_GT(probes, 0u);
}

TEST(GradientColumn, ProbesFewerPairsThanTheNaiveFold) {
  // Deg-6 expander, 400 distinct values: pruning must leave most of the
  // 79 800 pairs unprobed.
  const Topology topo = Topology::k_regular(400, 6, /*seed=*/2);
  const std::vector<std::int32_t> ids = every_node(topo);
  const analysis::GradientAxis axis = analysis::build_gradient_axis(topo, ids, 1);
  util::Rng rng(7);
  std::vector<double> values(ids.size());
  for (double& v : values) v = rng.uniform(0.0, 1.0);
  std::vector<double> cells(axis.distances.size(), 0.0);
  analysis::GradientScratch scratch(ids.size(), axis.distances.size());
  const std::uint64_t probes = analysis::gradient_column(
      axis, ids, values.data(), 1, cells.data(), 1, scratch);
  EXPECT_GT(probes, 0u);
  EXPECT_LT(probes, ids.size() * (ids.size() - 1) / 20);
}

// ------------------------------------------ series vs naive on each kind ---

/// Free-running clocks on `topo`: seeded offsets and legal constant rates,
/// with every fourth process copying its predecessor's clock (ties).
std::unique_ptr<sim::Simulator> free_running(const Topology& topo,
                                             std::uint64_t seed) {
  sim::SimConfig config;
  auto sim = std::make_unique<sim::Simulator>(config, nullptr);
  util::Rng rng(seed);
  double offset = 0.0;
  double rate = 1.0;
  for (std::int32_t p = 0; p < topo.n(); ++p) {
    if (p % 4 != 3) {
      offset = rng.uniform(0.0, 0.01);
      rate = 1.0 + rng.uniform(-1e-5, 1e-5);
    }
    sim->add_process(std::make_unique<Idle>(),
                     std::make_unique<clk::PhysicalClock>(
                         clk::make_constant(rate), offset, /*rho=*/1e-5),
                     /*corr0=*/0.0, /*faulty=*/false, /*start=*/0.0);
  }
  sim->run_until(20.0);
  return sim;
}

void expect_series_matches_reference(const sim::Simulator& sim,
                                     const std::vector<std::int32_t>& ids,
                                     const Topology& topo, double t0,
                                     double t1, double dt) {
  for (const int threads : {1, 4}) {
    const GradientSeries series =
        analysis::gradient_series(sim, ids, topo, t0, t1, dt, threads);
    ASSERT_FALSE(series.distances.empty());
    EXPECT_GT(series.pairs_probed, 0u);
    std::size_t mismatches = 0;
    for (std::size_t k = 0; k < series.times.size(); ++k) {
      const std::vector<double> reference =
          analysis::gradient_at(sim, ids, topo, series.distances, series.times[k]);
      for (std::size_t b = 0; b < reference.size(); ++b) {
        if (!same_bits(series.at(b, k), reference[b])) ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u) << "threads=" << threads << " n=" << topo.n();
  }
}

TEST(Gradient, SeriesMatchesNaiveReferenceOnEveryKind) {
  struct Case {
    TopologyKind kind;
    std::int32_t n;
  };
  for (const Case c : {Case{TopologyKind::kKRegular, 96},
                       Case{TopologyKind::kRingOfCliques, 64},
                       Case{TopologyKind::kFullMesh, 31}}) {
    RunSpec spec = sparse_spec();
    spec.params = core::make_params(c.n, 2, 1e-5, 0.01, 1e-3, 10.0);
    spec.fault_count = 2;
    spec.topology.kind = c.kind;
    spec.topology.degree = 6;
    spec.topology.clique_size = 8;
    analysis::Experiment experiment(spec);
    const RunResult result = experiment.run();
    const Topology topo = net::build_topology(spec.topology, spec.params.n);
    expect_series_matches_reference(experiment.simulator(), result.honest, topo,
                                    result.tmax0 + 1.0, result.t_end,
                                    spec.params.P / 7.0);
  }
}

TEST(Gradient, SeriesMatchesNaiveReferenceOnRingPastDiameter255) {
  const Topology ring = Topology::ring_of_cliques(600, 1);
  ASSERT_EQ(ring.diameter(), 300);
  const auto sim = free_running(ring, 99);
  expect_series_matches_reference(*sim, sparse_subset(ring), ring, 1.0, 19.0, 1.5);
}

// --------------------------------------------------- experiment surface ---

TEST(Gradient, ExperimentFillsSummaryAndStaysDeterministic) {
  RunSpec base = sparse_spec();
  base.measure_gradient = true;
  const RunResult one = analysis::run_experiment(base);
  ASSERT_TRUE(one.gradient.measured());
  EXPECT_EQ(one.gradient.diameter, 5);
  ASSERT_EQ(one.gradient.frontier.size(), one.gradient.distances.size());
  // The frontier is non-decreasing by construction and tops out at the
  // far-pair skew.
  for (std::size_t b = 1; b < one.gradient.frontier.size(); ++b) {
    EXPECT_GE(one.gradient.frontier[b], one.gradient.frontier[b - 1]);
  }
  EXPECT_EQ(one.gradient.far_skew(), one.gradient.frontier.back());

  // results_identical covers the gradient fields: parallel sweeps must
  // reproduce the serial summaries bit-for-bit.
  const std::vector<RunSpec> specs = analysis::seed_sweep(base, 900, 4);
  const std::vector<RunResult> serial = analysis::ParallelRunner(1).run(specs);
  const std::vector<RunResult> sharded = analysis::ParallelRunner(4).run(specs);
  ASSERT_EQ(serial.size(), sharded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(analysis::results_identical(serial[i], sharded[i])) << "trial " << i;
    EXPECT_TRUE(serial[i].gradient.measured());
  }
}

TEST(Gradient, GammaMeasuredExactlyUnchangedByGradientMeasurement) {
  // With measure_gradient on, gamma_measured is derived from the gradient's
  // far frontier instead of a second skew_series pass over the same grid;
  // the two must coincide bitwise (the max pairwise |L_i - L_j| is attained
  // by the max/min pair skew_series subtracts).
  RunSpec plain = sparse_spec();
  RunSpec measured = sparse_spec();
  measured.measure_gradient = true;
  const RunResult a = analysis::run_experiment(plain);
  const RunResult b = analysis::run_experiment(measured);
  EXPECT_EQ(a.gamma_measured, b.gamma_measured);
  EXPECT_EQ(a.final_skew, b.final_skew);
  EXPECT_EQ(a.messages, b.messages);
}

TEST(Gradient, MeshGradientCollapsesToGlobalSkew) {
  RunSpec spec;
  spec.params = core::make_params(7, 2, 1e-5, 0.01, 1e-3, 10.0);
  spec.fault = analysis::FaultKind::kTwoFaced;
  spec.fault_count = 2;
  spec.rounds = 8;
  spec.seed = 41;
  spec.measure_gradient = true;
  const RunResult result = analysis::run_experiment(spec);
  ASSERT_TRUE(result.gradient.measured());
  // Every honest pair is one hop apart on the mesh: a single bucket whose
  // max over the window IS the measured global skew.
  ASSERT_EQ(result.gradient.distances, (std::vector<std::int32_t>{1}));
  EXPECT_EQ(result.gradient.diameter, 1);
  EXPECT_NEAR(result.gradient.max_skew[0], result.gamma_measured, 1e-12);
}

}  // namespace
}  // namespace wlsync
