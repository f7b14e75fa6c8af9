#pragma once
// Gradient-skew analysis: skew as a function of graph distance.
//
// The paper bounds the *global* skew max |L_i - L_j| on a full mesh, where
// every pair is one hop apart.  On the sparse exchange graphs of the net
// layer the interesting quantity is the *gradient* (Bund/Lenzen/Rosenbaum,
// "Fault Tolerant Gradient Clock Synchronization"): how the worst skew
// between two processes grows with their hop distance d(i, j).  This module
// buckets every honest pair by distance and reports, per distance, the
// skew's max / mean / p99 over a sample window, plus a least-squares slope
// summary — the measurable form of a gradient bound.
//
// The measurement has two parts, neither of which scans all O(m^2) pairs
// per sample:
//   * a hop table (HopTable): every node's hop distance to every other as
//     n x n uint16, built once per window by a bit-parallel BFS (64 sources
//     per machine word).  The same pass yields the diameter, rejects a
//     disconnected graph, and counts the measured pairs per distance;
//   * a per-sample column kernel (gradient_column): sort the sample's
//     clock values and visit pairs in decreasing value gap, taking each low
//     end's first partner per distance bucket and stopping once no
//     remaining gap can beat any bucket's current max.
// fl(a - b) == -fl(b - a) and max is order-free, so the kernel is
// bit-identical to the naive fold gradient_at performs (pinned with == by
// tests/gradient_test.cpp), and columns shard over threads with any count
// giving the same cells.

#include <cstdint>
#include <memory>
#include <vector>

#include "net/topology.h"
#include "sim/simulator.h"

namespace wlsync::analysis {

/// Skew-vs-distance curves over a sample window.  Distances are the hop
/// distances that actually occur between the measured ids (ascending;
/// distance 0 — a pair with itself — is excluded).
struct GradientSeries {
  std::vector<double> times;            ///< ascending sample instants
  std::vector<std::int32_t> distances;  ///< bucket axis (ascending, >= 1)
  /// Row-major distances.size() x times.size(): max |L_i - L_j| over the
  /// pairs at that distance, per sample instant.
  std::vector<double> skew_by_sample;
  /// Number of measured-id pairs in each distance bucket.
  std::vector<std::int64_t> pair_count;

  // Per-distance summaries over the sample window:
  std::vector<double> max_skew;   ///< max over samples
  std::vector<double> mean_skew;  ///< mean of the per-sample bucket max
  std::vector<double> p99_skew;   ///< 0.99-quantile of the per-sample max
  /// Monotone frontier: max_skew folded over all distances <= d.  The raw
  /// per-distance max is *typically* non-decreasing in d (more room to
  /// drift apart); the frontier is non-decreasing by construction and is
  /// the clean "skew within distance d" curve.
  std::vector<double> frontier;

  std::int32_t diameter = 0;  ///< of the whole topology (all nodes)

  /// Pair probes the column kernel made over the whole window (telemetry:
  /// deterministic for fixed inputs, kept out of GradientSummary and
  /// results_identical).  The naive fold would make pairs x samples.
  std::uint64_t pairs_probed = 0;

  [[nodiscard]] double at(std::size_t distance_index, std::size_t sample) const {
    return skew_by_sample[distance_index * times.size() + sample];
  }
};

/// All-pairs hop distances of a topology: n x n uint16, row-major and
/// symmetric (row u holds d(u, v) for every v).  32 MB at n = 4096.
struct HopTable {
  std::int32_t n = 0;
  std::int32_t diameter = 0;
  std::unique_ptr<std::uint16_t[]> hops;  ///< n * n cells
  /// pair_count_at[d]: unordered pairs of the measured ids at hop distance
  /// d (index 0 unused); sized diameter + 1.
  std::vector<std::int64_t> pair_count_at;

  [[nodiscard]] const std::uint16_t* row(std::int32_t u) const {
    return hops.get() + static_cast<std::size_t>(u) * static_cast<std::size_t>(n);
  }
};

/// Builds the hop table with a multi-source bit-parallel BFS: 64 sources
/// per uint64_t word, each level expanding only the frontier or, when
/// cheaper, pulling into only the unfinished nodes.  Blocks of 64 sources
/// write disjoint cells, so they shard over threads (threads = 0 auto, as
/// in sample_local_times) with identical output.  Counts the pairs of
/// `ids` per distance on the way.  Throws std::invalid_argument on a
/// disconnected topology, an id out of range or repeated, and a diameter
/// past the uint16 range.
[[nodiscard]] HopTable build_hop_table(const net::Topology& topo,
                                       const std::vector<std::int32_t>& ids,
                                       int threads = 0);

/// The distance-bucket axis shared by the post-hoc scan (gradient_series)
/// and the streaming observer (analysis/observe.h): the hop table, the
/// hop distances that occur between measured pairs, the pair count per
/// bucket, and the distance -> bucket lookup table.
struct GradientAxis {
  HopTable table;
  std::vector<std::int32_t> distances;   ///< ascending, >= 1
  std::vector<std::int64_t> pair_count;  ///< measured-id pairs per bucket
  std::vector<std::int32_t> bucket_of;   ///< distance -> bucket index, -1 = none
};

/// Builds the bucket axis from one build_hop_table pass; never touches the
/// topology's own BFS row cache.  Throws std::invalid_argument on a
/// disconnected topology (cross-component skew has no distance bucket).
[[nodiscard]] GradientAxis build_gradient_axis(
    const net::Topology& topo, const std::vector<std::int32_t>& ids,
    int threads = 0);

/// Working storage of gradient_column, sized once for m ids and a bucket
/// count so the kernel itself allocates nothing (the streaming observer's
/// drain is gated allocation-free).
struct GradientScratch {
  struct Entry {
    double value;
    std::int32_t id;
  };

  GradientScratch() = default;
  GradientScratch(std::size_t m, std::size_t buckets);

  std::vector<Entry> order;       ///< the column's non-NaN values, sorted
  std::vector<double> best;       ///< per-bucket running max
  std::vector<std::uint32_t> stamp;  ///< bucket -> generation it was last found in
  std::uint32_t generation = 0;
};

/// One sample column.  `ids` are the ids `axis` was built from;
/// values[i * value_stride] is the local time of ids[i]; bucket b's cell
/// is cells[b * cell_stride].  Folds |L_i - L_j|
/// of every pair into its distance bucket's cell with max (NaN pairs skip,
/// as `skew > cell` does in the naive fold), bit-identical to that fold;
/// cells must start non-NaN (zeros, or an earlier fold's output).
/// `scratch` must be sized for at least ids.size() ids and the axis's
/// bucket count.  Sorts the non-NaN values and walks low ends a ascending, and for each,
/// high ends z descending: the first z found in a bucket is a's best
/// partner there.  The inner walk stops when the gap drops to the floor
/// (min over buckets of their best, taken once per a: stale but never
/// above the true floor, so the result stays exact); the outer walk stops
/// when max - L_a does.  Returns the number of pairs probed.
std::uint64_t gradient_column(const GradientAxis& axis,
                              const std::vector<std::int32_t>& ids,
                              const double* values, std::size_t value_stride,
                              double* cells, std::size_t cell_stride,
                              GradientScratch& scratch);

/// Fills the per-distance window summaries (max / mean / p99 / frontier)
/// from an already-populated skew_by_sample matrix.  Shared by the
/// post-hoc and streaming paths so both produce the identical doubles.
/// `cols` is the number of valid samples per bucket row and `stride` the
/// allocated row length (>= cols); 0 means times.size() — the tight
/// post-hoc layout.  The streaming observer passes its capacity-strided
/// accumulation matrix directly, with no repacking.
void finish_gradient_window_summaries(GradientSeries& series,
                                      std::size_t cols = 0,
                                      std::size_t stride = 0);

/// Buckets every pair of `ids` by hop distance in `topo` and evaluates the
/// per-bucket max skew at every instant of the grid {t0, t0+dt, ..., t1}
/// (the same endpoint-closed grid as skew_series).  threads = 0 auto-shards
/// the hop table blocks and the sample columns for large workloads and
/// stays serial inside an outer ParallelRunner sweep; any thread count
/// yields bit-identical values.  Leaves the topology's BFS row cache cold.
/// Throws std::invalid_argument on a disconnected topology (cross-component
/// skew has no distance to bucket by).
[[nodiscard]] GradientSeries gradient_series(const sim::Simulator& sim,
                                             const std::vector<std::int32_t>& ids,
                                             const net::Topology& topo,
                                             double t0, double t1, double dt,
                                             int threads = 0);

/// Naive reference scan: max |L_i - L_j| per distance bucket at one instant
/// via O(m^2) Simulator::local_time calls.  `distances` must be the bucket
/// axis of the series under test; returns one value per bucket.
[[nodiscard]] std::vector<double> gradient_at(
    const sim::Simulator& sim, const std::vector<std::int32_t>& ids,
    const net::Topology& topo, const std::vector<std::int32_t>& distances,
    double t);

/// Least-squares slope of per-distance max skew against distance — the
/// one-number gradient summary (0 for a flat curve, e.g. identical clocks).
/// Buckets with no pairs are skipped; fewer than two buckets give 0.
[[nodiscard]] double gradient_slope(const GradientSeries& series);

/// The sweep-facing condensation of a GradientSeries: per-distance curves
/// without the per-sample matrix, sized for a RunResult that is copied
/// across ParallelRunner result vectors.
struct GradientSummary {
  std::vector<std::int32_t> distances;
  std::vector<double> max_skew;
  std::vector<double> mean_skew;
  std::vector<double> p99_skew;
  std::vector<double> frontier;
  std::vector<std::int64_t> pair_count;
  double slope = 0.0;
  std::int32_t diameter = 0;

  [[nodiscard]] bool measured() const noexcept { return !distances.empty(); }
  /// Frontier value at the largest distance (the global skew), 0 if empty.
  [[nodiscard]] double far_skew() const noexcept {
    return frontier.empty() ? 0.0 : frontier.back();
  }
};

[[nodiscard]] GradientSummary summarize_gradient(const GradientSeries& series);

[[nodiscard]] bool gradient_summaries_identical(const GradientSummary& a,
                                                const GradientSummary& b);

}  // namespace wlsync::analysis
