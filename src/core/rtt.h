#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <unordered_map>

#include "sim/time.h"

/// Per-peer round-trip-time estimation and retransmission timeouts
/// (Jacobson/Karels, RFC 6298 flavour).
///
/// The paper's fixed 400/200/100 ms round schedule hands a near peer (8 ms
/// RTT) and a tail peer (438 ms) the same timeout; AdaptiveFetcher hedging
/// instead derives its timers from this estimator:
///
///   SRTT   <- (1-a) SRTT + a R'          (a = 1/8)
///   RTTVAR <- (1-b) RTTVAR + b |SRTT-R'| (b = 1/4)
///   RTO    <- clamp((SRTT + k RTTVAR) << backoff, min_rto, max_rto)
///
/// Karn's rule is split across the two halves of the algorithm: the *caller*
/// must not feed samples for retransmitted (re-queried) exchanges — reply
/// matching is the caller's knowledge — while `on_timeout()` applies the
/// exponential backoff here, and any valid sample collapses it again.
///
/// Estimators are seeded from a prior (the harness wires the topology's
/// pairwise RTT); before any prior or sample, `initial_rto` applies —
/// conservative by design, matching the schedules the estimator replaces.
namespace pandas::core {

struct RtoParams {
  double alpha = 0.125;  ///< SRTT gain.
  double beta = 0.25;    ///< RTTVAR gain.
  double k = 4.0;        ///< RTO = SRTT + k * RTTVAR.
  sim::Time min_rto = 25 * sim::kMillisecond;
  sim::Time max_rto = 400 * sim::kMillisecond;
  /// Used while a peer has neither prior nor sample.
  sim::Time initial_rto = 400 * sim::kMillisecond;
  /// Cap on Karn backoff doublings (2^5 saturates any deadline we run).
  std::uint32_t max_backoff = 5;
};

class RttEstimator {
 public:
  /// Seeds SRTT/RTTVAR from an out-of-band RTT estimate (RFC 6298 initial
  /// step: SRTT = R, RTTVAR = R/2). Ignored once a real sample arrived.
  void seed_prior(double rtt_ms) {
    if (state_ == State::kSampled) return;
    srtt_ms_ = rtt_ms;
    rttvar_ms_ = rtt_ms * 0.5;
    state_ = State::kPrior;
  }

  /// Feeds one observed query->reply time. Callers must respect Karn's rule
  /// and skip retransmitted exchanges. Collapses any timeout backoff.
  void add_sample(double rtt_ms, const RtoParams& p) {
    if (state_ == State::kSampled) {
      rttvar_ms_ = (1.0 - p.beta) * rttvar_ms_ +
                   p.beta * std::abs(srtt_ms_ - rtt_ms);
      srtt_ms_ = (1.0 - p.alpha) * srtt_ms_ + p.alpha * rtt_ms;
    } else {
      srtt_ms_ = rtt_ms;
      rttvar_ms_ = rtt_ms * 0.5;
      state_ = State::kSampled;
    }
    backoff_ = 0;
  }

  /// Karn backoff: an expired timer doubles subsequent RTOs (capped).
  void on_timeout(const RtoParams& p) {
    if (backoff_ < p.max_backoff) ++backoff_;
  }

  [[nodiscard]] sim::Time rto(const RtoParams& p) const {
    if (state_ == State::kEmpty) {
      sim::Time t = p.initial_rto << backoff_;
      return t > p.max_rto ? p.max_rto : t;
    }
    sim::Time t = sim::from_ms(srtt_ms_ + p.k * rttvar_ms_) << backoff_;
    if (t < p.min_rto) t = p.min_rto;
    return t > p.max_rto ? p.max_rto : t;
  }

  [[nodiscard]] bool has_sample() const noexcept {
    return state_ == State::kSampled;
  }
  [[nodiscard]] double srtt_ms() const noexcept { return srtt_ms_; }
  [[nodiscard]] double rttvar_ms() const noexcept { return rttvar_ms_; }
  [[nodiscard]] std::uint32_t backoff() const noexcept { return backoff_; }

 private:
  enum class State : std::uint8_t { kEmpty, kPrior, kSampled };
  State state_ = State::kEmpty;
  double srtt_ms_ = 0.0;
  double rttvar_ms_ = 0.0;
  std::uint32_t backoff_ = 0;
};

/// Per-peer estimator table with an optional prior hook. One instance per
/// node outlives slots (reputation-style), so RTT knowledge accumulates
/// across the run.
class PeerRtt {
 public:
  PeerRtt() = default;
  explicit PeerRtt(RtoParams params) : params_(params) {}

  /// Prior RTT (ms) towards a peer; consulted once, when the peer's
  /// estimator is first created. The harness wires the topology's pairwise
  /// RTT here. Must be a pure function of the peer index (it may be called
  /// from any engine shard).
  void set_prior(std::function<double(std::uint32_t)> prior_ms) {
    prior_ms_ = std::move(prior_ms);
  }

  [[nodiscard]] RttEstimator& of(std::uint32_t peer) {
    auto [it, inserted] = peers_.try_emplace(peer);
    if (inserted && prior_ms_) it->second.seed_prior(prior_ms_(peer));
    return it->second;
  }

  void sample(std::uint32_t peer, sim::Time rtt) {
    of(peer).add_sample(sim::to_ms(rtt), params_);
  }
  void timeout(std::uint32_t peer) { of(peer).on_timeout(params_); }
  [[nodiscard]] sim::Time rto(std::uint32_t peer) {
    return of(peer).rto(params_);
  }

  [[nodiscard]] const RtoParams& params() const noexcept { return params_; }
  [[nodiscard]] std::size_t tracked() const noexcept { return peers_.size(); }

 private:
  RtoParams params_;
  std::function<double(std::uint32_t)> prior_ms_;
  std::unordered_map<std::uint32_t, RttEstimator> peers_;
};

}  // namespace pandas::core
