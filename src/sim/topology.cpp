#include "sim/topology.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace pandas::sim {

namespace {

/// Spread of region centers in latency space (ms of one-way reach).
constexpr double kRegionSigmaMs = 90.0;
/// Concentration of vertex mass towards central (cloud) regions: weight of a
/// region at distance d from the origin is exp(-d / kCloudBiasMs).
constexpr double kCloudBiasMs = 32.0;
/// RTT contributed per unit of embedded distance.
constexpr double kDistanceFactor = 0.85;
/// Fixed per-path RTT floor added before clamping (last-mile cost).
constexpr double kBaseRttMs = 5.0;
/// Max per-vertex jitter added to every path touching the vertex.
constexpr double kVertexJitterMs = 5.0;

}  // namespace

Topology Topology::generate(const TopologyConfig& cfg, std::uint64_t seed) {
  Topology topo;
  util::Xoshiro256 rng(util::mix64(seed ^ 0x70706f6c6f677931ULL));

  // Region centers: gaussian cloud around the origin.
  std::vector<double> rx(cfg.regions), ry(cfg.regions), rw(cfg.regions);
  for (std::uint32_t r = 0; r < cfg.regions; ++r) {
    rx[r] = rng.normal(0.0, kRegionSigmaMs);
    ry[r] = rng.normal(0.0, kRegionSigmaMs);
    const double d = std::hypot(rx[r], ry[r]);
    rw[r] = std::exp(-d / kCloudBiasMs);
  }
  const double wsum = std::accumulate(rw.begin(), rw.end(), 0.0);

  topo.x_.resize(cfg.vertices);
  topo.y_.resize(cfg.vertices);
  topo.jitter_ms_.resize(cfg.vertices);
  topo.region_.resize(cfg.vertices);

  for (std::uint32_t v = 0; v < cfg.vertices; ++v) {
    // Weighted region choice.
    double pick = rng.uniform01() * wsum;
    std::uint32_t r = 0;
    while (r + 1 < cfg.regions && pick > rw[r]) {
      pick -= rw[r];
      ++r;
    }
    topo.region_[v] = r;
    // Vertices scatter a few ms around their region center.
    topo.x_[v] = rx[r] + rng.normal(0.0, 4.0);
    topo.y_[v] = ry[r] + rng.normal(0.0, 4.0);
    topo.jitter_ms_[v] = rng.uniform01() * kVertexJitterMs;
  }
  return topo;
}

double Topology::rtt_ms(std::uint32_t u, std::uint32_t v) const noexcept {
  if (u == v) return kMinRttMs;
  const double dist = std::hypot(x_[u] - x_[v], y_[u] - y_[v]);
  const double raw = kBaseRttMs + kDistanceFactor * dist +
                     jitter_ms_[u] + jitter_ms_[v];
  return std::clamp(raw, kMinRttMs, kMaxRttMs);
}

double Topology::avg_rtt_ms(std::uint32_t v, std::uint32_t sample_size) const {
  const std::uint32_t n = vertex_count();
  if (n <= 1) return kMinRttMs;
  // Deterministic stratified sample: every (n / sample_size)-th vertex.
  const std::uint32_t step = std::max<std::uint32_t>(1, n / sample_size);
  double sum = 0.0;
  std::uint32_t count = 0;
  for (std::uint32_t u = 0; u < n; u += step) {
    if (u == v) continue;
    sum += rtt_ms(v, u);
    ++count;
  }
  return count > 0 ? sum / count : kMinRttMs;
}

std::vector<std::uint32_t> Topology::best_vertices(double fraction) const {
  const std::uint32_t n = vertex_count();
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> avg(n);
  for (std::uint32_t v = 0; v < n; ++v) avg[v] = avg_rtt_ms(v);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) { return avg[a] < avg[b]; });
  const auto keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(fraction * static_cast<double>(n)));
  order.resize(std::min<std::size_t>(keep, order.size()));
  return order;
}

}  // namespace pandas::sim
