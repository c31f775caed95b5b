#pragma once

#include <cstdint>
#include <string>

#include "core/params.h"
#include "core/seeding.h"
#include "harness/snapshot.h"
#include "sim/time.h"

/// Live-backend harness: runs one full PANDAS slot (builder seeding ->
/// consolidation -> sampling) over real loopback UDP sockets
/// (net::UdpTransport + sim::Engine::run_realtime), and cross-validates the
/// outcome against a same-parameter SimTransport run.
///
/// Both twins are built from the SAME Directory, AssignmentTable, full View,
/// and seeding-plan RNG, so the builder dispatches the identical plan: every
/// difference in delivered-cell counts or sampling success is attributable
/// to the transport itself. Loopback UDP is lossless in practice (generous
/// socket buffers, no network), so the sim twin runs with loss_rate = 0;
/// the documented tolerances (docs/UDP.md) absorb scheduling noise only.
namespace pandas::harness {

struct LiveRunConfig {
  std::uint32_t nodes = 200;
  std::uint64_t seed = 42;
  core::ProtocolParams params{};
  /// Wall-clock budget for the live slot (realtime engine run).
  sim::Time run_for = 3 * sim::kSecond;

  /// A loopback-sized default parameterization: a 32x64 matrix keeps one
  /// slot within a couple of wall-clock seconds at a few hundred endpoints
  /// while still exercising multi-fragment seed messages (every row seeded
  /// whole is > the ~116-cell datagram budget at full 560 B wire cost when
  /// nodes hold 4 rows + 4 columns).
  [[nodiscard]] static LiveRunConfig loopback_defaults();
};

/// Outcome of one slot, measured identically for both backends: protocol
/// completion from the nodes, delivered cells from the transport's typed
/// counters (net::TypedTrafficStats), failures from the backend's own drop
/// accounting (always zero for the sim twin, which cannot fail sends).
struct SlotOutcome {
  std::string backend;  ///< "udp" or "sim"
  std::uint32_t nodes = 0;
  std::uint32_t consolidated = 0;
  std::uint32_t sampled = 0;
  std::uint64_t seed_cells_sent = 0;
  std::uint64_t seed_cells_received = 0;
  std::uint64_t response_cells_received = 0;
  std::uint64_t send_failures = 0;
  std::uint64_t emsgsize_failures = 0;
  std::uint64_t decode_failures = 0;
  /// Filled by the live run (empty for sim): the section report.h renders.
  TransportSnapshot transport;

  [[nodiscard]] double sampling_success() const noexcept {
    return nodes == 0 ? 0.0
                      : static_cast<double>(sampled) / static_cast<double>(nodes);
  }
  /// Seed cells that made it to a receiver, relative to cells dispatched.
  [[nodiscard]] double seed_delivery_ratio() const noexcept {
    return seed_cells_sent == 0
               ? 0.0
               : static_cast<double>(seed_cells_received) /
                     static_cast<double>(seed_cells_sent);
  }
};

/// One slot over real loopback UDP sockets.
[[nodiscard]] SlotOutcome run_live_slot(const LiveRunConfig& cfg);

/// The same slot (same directory / assignment / plan) over SimTransport with
/// loss_rate = 0 — the reference the live backend is held to.
[[nodiscard]] SlotOutcome run_sim_slot(const LiveRunConfig& cfg);

/// Side-by-side run of both backends plus the parity verdict. Tolerances
/// (docs/UDP.md "Sim-vs-live parity"): the live backend must deliver at
/// least `kDeliveryTol` of the sim twin's seed-cell delivery ratio, and its
/// sampling-success rate may trail the sim twin's by at most `kSuccessTol`.
struct ParityReport {
  static constexpr double kDeliveryTol = 0.99;
  static constexpr double kSuccessTol = 0.02;

  SlotOutcome live;
  SlotOutcome sim;

  [[nodiscard]] bool delivery_ok() const noexcept {
    return live.seed_delivery_ratio() >=
           sim.seed_delivery_ratio() * kDeliveryTol;
  }
  [[nodiscard]] bool success_ok() const noexcept {
    return live.sampling_success() >= sim.sampling_success() - kSuccessTol;
  }
  /// Hard invariants of the bugfix, independent of tolerance: no kernel
  /// rejections and no undecodable datagrams on loopback.
  [[nodiscard]] bool no_silent_drops() const noexcept {
    return live.send_failures == 0 && live.emsgsize_failures == 0 &&
           live.decode_failures == 0;
  }
  [[nodiscard]] bool ok() const noexcept {
    return delivery_ok() && success_ok() && no_silent_drops();
  }
};

[[nodiscard]] ParityReport run_parity(const LiveRunConfig& cfg);

}  // namespace pandas::harness
