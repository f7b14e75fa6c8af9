#include "analysis/gradient.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "analysis/measure.h"
#include "analysis/parallel_runner.h"
#include "util/stats.h"

namespace wlsync::analysis {

namespace {

/// Sources per BFS block: one bit of a uint64_t word each.
constexpr std::int32_t kBlock = 64;
/// Hop distances are stored as uint16; the largest representable one.
constexpr std::int32_t kMaxHops = std::numeric_limits<std::uint16_t>::max();

/// Per-shard BFS state, reused across that shard's blocks.
struct BfsShard {
  std::vector<std::uint64_t> visited;   ///< node -> sources that reached it
  std::vector<std::uint64_t> frontier;  ///< node -> sources new at this level
  std::vector<std::uint64_t> incoming;  ///< node -> sources arriving next
  std::vector<std::int32_t> active;     ///< nodes with frontier bits
  std::vector<std::int32_t> touched;    ///< nodes with incoming bits
  std::vector<std::int64_t> pair_count_at;
  std::int32_t diameter = 0;
  bool disconnected = false;
};

/// BFS from the sources [base, base + width) at once.  Writes hop cell
/// [u][src] for every node u (the graph is symmetric, so this is d(src, u)
/// and each write stays inside row u) and counts the measured pairs
/// {src, u} with src < u, so every unordered pair is counted once over
/// all blocks.
///
/// Each level is direction-optimizing (Beamer et al.): either every
/// frontier node pushes its bits to its neighbors, or every node not yet
/// reached by all sources pulls its neighbors' frontier bits, whichever
/// scans fewer adjacency entries.  Both find the same fresh bits; pulling
/// wins on the middle levels of an expander, where nearly every node is
/// on the frontier.
void bfs_block(const net::Topology& topo, const std::vector<char>& measured,
               std::int32_t base, std::int32_t width, std::uint16_t* hops,
               BfsShard& st) {
  const std::int32_t n = topo.n();
  const auto un = static_cast<std::size_t>(n);
  const std::uint64_t all_sources =
      width == kBlock ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
  std::fill(st.visited.begin(), st.visited.end(), 0);
  st.active.clear();
  std::size_t active_degree = 0;              // adjacency entries a push scans
  std::size_t open_degree = topo.edge_count();  // ... and a pull scans
  std::uint64_t source_measured = 0;
  for (std::int32_t k = 0; k < width; ++k) {
    const std::int32_t s = base + k;
    const std::uint64_t bit = std::uint64_t{1} << k;
    st.visited[static_cast<std::size_t>(s)] = bit;
    st.frontier[static_cast<std::size_t>(s)] = bit;
    st.active.push_back(s);
    active_degree += topo.neighbors(s).size();
    if (bit == all_sources) open_degree -= topo.neighbors(s).size();
    hops[static_cast<std::size_t>(s) * un + static_cast<std::size_t>(s)] = 0;
    if (measured[static_cast<std::size_t>(s)] != 0) source_measured |= bit;
  }
  const std::uint64_t total = static_cast<std::uint64_t>(width) * un;
  std::uint64_t reached = static_cast<std::uint64_t>(width);
  for (std::int32_t d = 1; !st.active.empty() && reached < total; ++d) {
    if (d > kMaxHops) {
      throw std::invalid_argument(
          "gradient_series: diameter exceeds the uint16 hop table");
    }
    st.touched.clear();
    // A pulled entry is a bare OR; a pushed one also tests and appends
    // its target, which measures about twice the cost.
    if (2 * active_degree <= open_degree) {
      for (const std::int32_t v : st.active) {
        const std::uint64_t bits = st.frontier[static_cast<std::size_t>(v)];
        for (const std::int32_t w : topo.neighbors(v)) {
          std::uint64_t& in = st.incoming[static_cast<std::size_t>(w)];
          if (in == 0) st.touched.push_back(w);
          in |= bits;
        }
      }
    } else {
      for (std::int32_t w = 0; w < n; ++w) {
        if (st.visited[static_cast<std::size_t>(w)] == all_sources) continue;
        std::uint64_t in = 0;
        for (const std::int32_t v : topo.neighbors(w)) {
          in |= st.frontier[static_cast<std::size_t>(v)];
        }
        if (in != 0) {
          st.incoming[static_cast<std::size_t>(w)] = in;
          st.touched.push_back(w);
        }
      }
    }
    for (const std::int32_t v : st.active) {
      st.frontier[static_cast<std::size_t>(v)] = 0;
    }
    st.active.clear();
    active_degree = 0;
    for (const std::int32_t w : st.touched) {
      const auto uw = static_cast<std::size_t>(w);
      const std::uint64_t fresh = st.incoming[uw] & ~st.visited[uw];
      st.incoming[uw] = 0;
      if (fresh == 0) continue;
      st.visited[uw] |= fresh;
      st.frontier[uw] = fresh;
      st.active.push_back(w);
      active_degree += topo.neighbors(w).size();
      if (st.visited[uw] == all_sources) open_degree -= topo.neighbors(w).size();
      reached += static_cast<std::uint64_t>(std::popcount(fresh));
      std::uint16_t* row = hops + uw * un + static_cast<std::size_t>(base);
      for (std::uint64_t rest = fresh; rest != 0; rest &= rest - 1) {
        row[std::countr_zero(rest)] = static_cast<std::uint16_t>(d);
      }
      if (measured[uw] != 0) {
        // Sources below w: bits k with base + k < w.
        const std::int32_t below = std::clamp(w - base, 0, kBlock);
        const std::uint64_t lower =
            below == kBlock ? ~std::uint64_t{0} : (std::uint64_t{1} << below) - 1;
        const int pairs = std::popcount(fresh & source_measured & lower);
        if (pairs > 0) {
          if (st.pair_count_at.size() <= static_cast<std::size_t>(d)) {
            st.pair_count_at.resize(static_cast<std::size_t>(d) + 1, 0);
          }
          st.pair_count_at[static_cast<std::size_t>(d)] += pairs;
        }
      }
    }
    if (!st.active.empty()) st.diameter = std::max(st.diameter, d);
  }
  // Frontier bits left by an early stop (everything reached).
  for (const std::int32_t v : st.active) st.frontier[static_cast<std::size_t>(v)] = 0;
  if (reached < total) st.disconnected = true;
}

}  // namespace

HopTable build_hop_table(const net::Topology& topo,
                         const std::vector<std::int32_t>& ids, int threads) {
  const std::int32_t n = topo.n();
  if (n < 1) throw std::invalid_argument("gradient_series: empty topology");
  const auto un = static_cast<std::size_t>(n);
  std::vector<char> measured(un, 0);
  for (const std::int32_t id : ids) {
    if (id < 0 || id >= n) {
      throw std::invalid_argument("gradient_series: id out of range");
    }
    if (measured[static_cast<std::size_t>(id)] != 0) {
      throw std::invalid_argument("gradient_series: repeated id");
    }
    measured[static_cast<std::size_t>(id)] = 1;
  }

  HopTable table;
  table.n = n;
  // Left uninitialized: every cell is written by exactly one block, so
  // the page faults of a 32 MB table are taken by the shards in parallel.
  table.hops = std::make_unique_for_overwrite<std::uint16_t[]>(un * un);
  const std::size_t blocks = (un + kBlock - 1) / kBlock;
  const bool parallel = shard_measurement(threads, un * un / kBlock);
  const ParallelRunner runner(parallel ? threads : 1);
  const std::size_t shard_count =
      std::min<std::size_t>(static_cast<std::size_t>(runner.threads()), blocks);
  std::vector<BfsShard> shards(shard_count);
  // Shard s owns blocks s, s + shard_count, ...: disjoint cells, so the
  // table is the same for any shard count.
  runner.run_indexed(shard_count, [&](std::size_t s) {
    BfsShard& st = shards[s];
    st.visited.assign(un, 0);
    st.frontier.assign(un, 0);
    st.incoming.assign(un, 0);
    for (std::size_t b = s; b < blocks; b += shard_count) {
      const auto base = static_cast<std::int32_t>(b) * kBlock;
      bfs_block(topo, measured, base, std::min(kBlock, n - base),
                table.hops.get(), st);
      if (st.disconnected) return;
    }
  });
  for (const BfsShard& st : shards) {
    if (st.disconnected) {
      // Skew across disconnected components is unbounded and the distance
      // buckets are sized by the diameter; reject rather than measure
      // nonsense (the experiment harness validates connectivity up front).
      throw std::invalid_argument("gradient_series: topology is disconnected");
    }
    table.diameter = std::max(table.diameter, st.diameter);
  }
  table.pair_count_at.assign(static_cast<std::size_t>(table.diameter) + 1, 0);
  for (const BfsShard& st : shards) {
    for (std::size_t d = 0; d < st.pair_count_at.size(); ++d) {
      table.pair_count_at[d] += st.pair_count_at[d];
    }
  }
  return table;
}

GradientAxis build_gradient_axis(const net::Topology& topo,
                                 const std::vector<std::int32_t>& ids,
                                 int threads) {
  GradientAxis axis;
  axis.table = build_hop_table(topo, ids, threads);
  const std::vector<std::int64_t>& count = axis.table.pair_count_at;
  axis.bucket_of.assign(count.size(), -1);
  for (std::size_t d = 1; d < count.size(); ++d) {
    if (count[d] > 0) {
      axis.bucket_of[d] = static_cast<std::int32_t>(axis.distances.size());
      axis.distances.push_back(static_cast<std::int32_t>(d));
      axis.pair_count.push_back(count[d]);
    }
  }
  return axis;
}

GradientScratch::GradientScratch(std::size_t m, std::size_t buckets)
    : order(m), best(buckets), stamp(buckets, 0) {}

std::uint64_t gradient_column(const GradientAxis& axis,
                              const std::vector<std::int32_t>& ids,
                              const double* values, std::size_t value_stride,
                              double* cells, std::size_t cell_stride,
                              GradientScratch& scratch) {
  const std::size_t buckets = axis.distances.size();
  if (buckets == 0) return 0;
  // NaN pairs never win `skew > cell` in the naive fold, so NaN values
  // drop out here (std::sort over NaN would be undefined besides).  The
  // (value, id) order is total, which keeps the probe count deterministic.
  std::size_t m = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const double v = values[i * value_stride];
    if (!std::isnan(v)) scratch.order[m++] = {v, ids[i]};
  }
  if (m < 2) return 0;
  GradientScratch::Entry* order = scratch.order.data();
  std::sort(order, order + m, [](const auto& x, const auto& y) {
    return x.value < y.value || (x.value == y.value && x.id < y.id);
  });

  double* best = scratch.best.data();
  std::uint32_t* stamp = scratch.stamp.data();
  for (std::size_t b = 0; b < buckets; ++b) best[b] = cells[b * cell_stride];
  const std::int32_t* bucket_of = axis.bucket_of.data();
  const double top = order[m - 1].value;
  std::uint64_t probes = 0;
  // The floor is the min over buckets of their best as of the start of
  // the row.  It can only rise when a bucket holding the min improves, so
  // it is recomputed (O(buckets)) only then.
  double floor = 0.0;
  bool floor_stale = true;
  for (std::size_t a = 0; a + 1 < m; ++a) {
    const double low = order[a].value;
    if (floor_stale) {
      floor = *std::min_element(best, best + buckets);
      floor_stale = false;
    }
    // Every later pair's gap is at most top - low.  `!(x > floor)` also
    // stops on NaN, which only inf - inf yields: then every remaining
    // value is that same infinity and every remaining pair is NaN.
    if (!(top - low > floor)) break;
    if (++scratch.generation == 0) {
      std::fill(scratch.stamp.begin(), scratch.stamp.end(), 0);
      scratch.generation = 1;
    }
    const std::uint32_t gen = scratch.generation;
    const std::uint16_t* hops = axis.table.row(order[a].id);
    std::size_t found = 0;
    for (std::size_t z = m - 1; z > a; --z) {
      // fl(hi - lo) == |lo - hi| bit for bit: IEEE subtraction rounds
      // symmetrically, so this is the naive fold's value.
      const double gap = order[z].value - low;
      if (!(gap > floor)) break;
      ++probes;
      const auto b = static_cast<std::size_t>(
          bucket_of[hops[static_cast<std::size_t>(order[z].id)]]);
      if (stamp[b] == gen) continue;  // a better partner came earlier
      stamp[b] = gen;
      if (gap > best[b]) {
        if (best[b] == floor) floor_stale = true;
        best[b] = gap;
      }
      if (++found == buckets) break;
    }
  }
  for (std::size_t b = 0; b < buckets; ++b) cells[b * cell_stride] = best[b];
  return probes;
}

void finish_gradient_window_summaries(GradientSeries& series, std::size_t cols,
                                      std::size_t stride) {
  const std::size_t buckets = series.distances.size();
  if (cols == 0) cols = series.times.size();
  if (stride == 0) stride = cols;
  series.max_skew.resize(buckets);
  series.mean_skew.resize(buckets);
  series.p99_skew.resize(buckets);
  series.frontier.resize(buckets);
  double running = 0.0;
  for (std::size_t b = 0; b < buckets; ++b) {
    const double* row = series.skew_by_sample.data() + b * stride;
    double hi = 0.0;
    double sum = 0.0;
    for (std::size_t k = 0; k < cols; ++k) {
      hi = std::max(hi, row[k]);
      sum += row[k];
    }
    series.max_skew[b] = hi;
    series.mean_skew[b] = sum / static_cast<double>(cols);
    series.p99_skew[b] = util::quantile({row, cols}, 0.99);
    running = std::max(running, hi);
    series.frontier[b] = running;
  }
}

GradientSeries gradient_series(const sim::Simulator& sim,
                               const std::vector<std::int32_t>& ids,
                               const net::Topology& topo, double t0, double t1,
                               double dt, int threads) {
  GradientSeries series;
  const GradientAxis axis = build_gradient_axis(topo, ids, threads);
  series.diameter = axis.table.diameter;
  series.distances = axis.distances;
  series.pair_count = axis.pair_count;
  const LocalTimeGrid grid = sample_local_times(
      sim, ids, sample_times_with_endpoint(t0, t1, dt), threads);
  series.times = grid.times;

  const std::size_t m = ids.size();
  const std::size_t buckets = series.distances.size();
  const std::size_t cols = grid.cols;
  series.skew_by_sample.assign(buckets * cols, 0.0);
  if (buckets == 0 || cols == 0) return series;

  // Columns are independent and write disjoint cells; shard s owns the
  // contiguous column range [s * cols / shards, (s + 1) * cols / shards).
  const ParallelRunner runner(shard_measurement(threads, m * cols) ? threads : 1);
  const std::size_t shards =
      std::min<std::size_t>(static_cast<std::size_t>(runner.threads()), cols);
  std::vector<std::uint64_t> probes(shards, 0);
  runner.run_indexed(shards, [&](std::size_t s) {
    GradientScratch scratch(m, buckets);
    for (std::size_t k = s * cols / shards; k < (s + 1) * cols / shards; ++k) {
      probes[s] += gradient_column(axis, ids, grid.values.data() + k, cols,
                                   series.skew_by_sample.data() + k, cols,
                                   scratch);
    }
  });
  for (const std::uint64_t p : probes) series.pairs_probed += p;

  finish_gradient_window_summaries(series);
  return series;
}

std::vector<double> gradient_at(const sim::Simulator& sim,
                                const std::vector<std::int32_t>& ids,
                                const net::Topology& topo,
                                const std::vector<std::int32_t>& distances,
                                double t) {
  std::vector<std::int32_t> bucket_of;
  for (std::size_t b = 0; b < distances.size(); ++b) {
    const auto d = static_cast<std::size_t>(distances[b]);
    if (bucket_of.size() <= d) bucket_of.resize(d + 1, -1);
    bucket_of[d] = static_cast<std::int32_t>(b);
  }
  std::vector<double> locals(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    locals[i] = sim.local_time(ids[i], t);
  }
  std::vector<double> buckets(distances.size(), 0.0);
  for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
    const std::vector<std::int32_t>& row = topo.distances_from(ids[i]);
    for (std::size_t j = i + 1; j < ids.size(); ++j) {
      const std::int32_t d = row[static_cast<std::size_t>(ids[j])];
      if (d < 1 || static_cast<std::size_t>(d) >= bucket_of.size()) continue;
      const std::int32_t b = bucket_of[static_cast<std::size_t>(d)];
      if (b < 0) continue;
      buckets[static_cast<std::size_t>(b)] =
          std::max(buckets[static_cast<std::size_t>(b)],
                   std::abs(locals[i] - locals[j]));
    }
  }
  return buckets;
}

double gradient_slope(const GradientSeries& series) {
  if (series.distances.size() < 2) return 0.0;
  std::vector<double> xs(series.distances.size());
  for (std::size_t b = 0; b < xs.size(); ++b) {
    xs[b] = static_cast<double>(series.distances[b]);
  }
  return util::fit_line(xs, series.max_skew).slope;
}

GradientSummary summarize_gradient(const GradientSeries& series) {
  GradientSummary summary;
  summary.distances = series.distances;
  summary.max_skew = series.max_skew;
  summary.mean_skew = series.mean_skew;
  summary.p99_skew = series.p99_skew;
  summary.frontier = series.frontier;
  summary.pair_count = series.pair_count;
  summary.slope = gradient_slope(series);
  summary.diameter = series.diameter;
  return summary;
}

bool gradient_summaries_identical(const GradientSummary& a,
                                  const GradientSummary& b) {
  return a.distances == b.distances && a.max_skew == b.max_skew &&
         a.mean_skew == b.mean_skew && a.p99_skew == b.p99_skew &&
         a.frontier == b.frontier && a.pair_count == b.pair_count &&
         a.slope == b.slope && a.diameter == b.diameter;
}

}  // namespace wlsync::analysis
