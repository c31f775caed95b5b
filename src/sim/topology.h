#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.h"
#include "util/prng.h"

/// Synthetic planetary-scale latency topology.
///
/// SUBSTITUTION (see DESIGN.md §2): the paper replays an all-pair RTT trace
/// collected on IPFS (10,000 vertices; RTT 8-438 ms, mean 64 ms), assigning
/// protocol nodes to trace vertices at random and placing the builder on a
/// vertex drawn from the best-connected 20 % ("likely deployed in a cloud").
/// That trace is not available offline, so we generate a topology with the
/// same structure: geographic regions embedded in a 2-D latency space, with
/// vertex mass concentrated in a well-connected "cloud belt" (which also
/// reproduces the ~64 ms step the paper observes in its seeding CDF) and a
/// long tail of remote vertices. Pairwise RTT grows with embedded distance
/// and is clamped to the trace's [8 ms, 438 ms] support; generation
/// parameters are calibrated (tests/topology_test.cpp) so the mean sits near
/// the trace's 64 ms.
namespace pandas::sim {

/// Support of the trace's pairwise RTTs: every rtt_ms() is clamped to it.
inline constexpr double kMinRttMs = 8.0;
inline constexpr double kMaxRttMs = 438.0;

struct TopologyConfig {
  std::uint32_t vertices = 10'000;
  std::uint32_t regions = 24;
};

class Topology {
 public:
  /// Deterministically generates a topology from config + seed.
  static Topology generate(const TopologyConfig& cfg, std::uint64_t seed);

  [[nodiscard]] std::uint32_t vertex_count() const noexcept {
    return static_cast<std::uint32_t>(x_.size());
  }

  /// Round-trip time between two vertices, in milliseconds.
  [[nodiscard]] double rtt_ms(std::uint32_t u, std::uint32_t v) const noexcept;

  /// One-way delay between two vertices (rtt / 2) in simulator time.
  [[nodiscard]] Time owd(std::uint32_t u, std::uint32_t v) const noexcept {
    return from_ms(rtt_ms(u, v) * 0.5);
  }

  /// Lower bound on owd() over every vertex pair: rtt_ms() clamps to
  /// kMinRttMs from below, so no message ever travels faster than this.
  /// This is the lookahead the parallel engine's safe windows derive from
  /// (docs/SIMULATION.md "Parallel execution").
  [[nodiscard]] Time min_owd() const noexcept {
    return from_ms(kMinRttMs * 0.5);
  }

  /// Average RTT from `v` to a deterministic sample of other vertices.
  [[nodiscard]] double avg_rtt_ms(std::uint32_t v,
                                  std::uint32_t sample_size = 512) const;

  /// Vertices sorted by ascending average RTT, truncated to `fraction` of
  /// the total — the pool the paper draws the builder's vertex from (best
  /// 20 %).
  [[nodiscard]] std::vector<std::uint32_t> best_vertices(double fraction) const;

  /// Region index of a vertex (useful for diagnostics).
  [[nodiscard]] std::uint32_t region_of(std::uint32_t v) const noexcept {
    return region_[v];
  }

 private:
  std::vector<double> x_, y_;        // embedded vertex coordinates
  std::vector<double> jitter_ms_;    // per-vertex jitter contribution
  std::vector<std::uint32_t> region_;
};

}  // namespace pandas::sim
