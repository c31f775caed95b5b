#pragma once

#include <cstdint>
#include <unordered_map>

#include "net/messages.h"
#include "sim/time.h"

/// Per-peer reputation for the fetch path (defensive hardening against the
/// Byzantine behaviors of §4.1).
///
/// PANDAS has no NACKs and no per-cell acknowledgements, so the only signals
/// a node gets about a peer are (a) a reply whose cells verify, (b) a reply
/// carrying corrupt cells, and (c) silence past a round deadline. This class
/// folds those into a penalty score per peer:
///
///   - corrupt reply:   +kRepCorruptPenalty   (strong: proof forgery is
///                                             never an accident)
///   - round timeout:   +kRepTimeoutPenalty   (weak: loss and overload also
///                                             cause silence)
///   - useful reply:    -kRepSuccessCredit    (floor 0)
///
/// The fetcher multiplies a candidate's score by
/// `1 / (1 + kRepWeightScale * penalty)`, so demoted peers lose ties
/// against clean ones but remain reachable when they are the only holders.
/// Once the penalty reaches `kRepGreylistThreshold` the peer is greylisted:
/// skipped entirely for `kRepGreylistDuration`, after which the penalty is
/// halved (repeat offenders re-greylist quickly, transient victims recover).
///
/// State persists across slots — that is the point: an adversary that burned
/// a requester in slot s is deprioritized in slot s+1.
namespace pandas::core {

/// Penalty added per message carrying at least one corrupt cell. At the
/// greylist threshold a single forged reply greylists the sender outright:
/// proof forgery is never an accident, so there is nothing to hedge.
inline constexpr double kRepCorruptPenalty = 8.0;
/// Penalty added when a queried peer lets a round deadline pass silently.
inline constexpr double kRepTimeoutPenalty = 0.5;
/// Penalty removed (floor 0) per useful reply.
inline constexpr double kRepSuccessCredit = 0.5;
/// Candidate score multiplier is 1 / (1 + kRepWeightScale * penalty).
inline constexpr double kRepWeightScale = 0.25;
/// Accumulated penalty at which a peer is greylisted...
inline constexpr double kRepGreylistThreshold = 8.0;
/// ...and for how long (penalty halves on expiry: forgiveness, not amnesty).
inline constexpr sim::Time kRepGreylistDuration = 2 * sim::kSlotDuration;

class PeerReputation {
 public:

  /// Records a reply with at least one corrupt cell. Returns true if this
  /// event newly greylisted the peer (callers emit the trace event).
  bool record_corrupt(net::NodeIndex peer, sim::Time now) {
    ++corrupt_events_;
    return penalize(peer, kRepCorruptPenalty, now);
  }

  /// Records a round deadline passing with no reply from a queried peer.
  /// Returns true if this event newly greylisted the peer.
  bool record_timeout(net::NodeIndex peer, sim::Time now) {
    ++timeout_events_;
    ++peers_[peer].charged_timeouts;
    return penalize(peer, kRepTimeoutPenalty, now);
  }

  /// Records a useful (verified, non-empty) reply.
  void record_success(net::NodeIndex peer) {
    auto it = peers_.find(peer);
    if (it == peers_.end()) return;
    it->second.penalty -= kRepSuccessCredit;
    if (it->second.penalty < 0.0) it->second.penalty = 0.0;
  }

  /// Refunds one charged timeout: the peer was not dead, it was consolidating
  /// and served the buffered query after the round deadline — legitimate
  /// protocol behavior that must not erode its standing.
  void redeem_timeout(net::NodeIndex peer) {
    auto it = peers_.find(peer);
    if (it == peers_.end() || it->second.charged_timeouts == 0) return;
    --it->second.charged_timeouts;
    it->second.penalty -= kRepTimeoutPenalty;
    if (it->second.penalty < 0.0) it->second.penalty = 0.0;
  }

  /// True while the peer is serving a greylist term. Expiry is lazy: the
  /// first query after the term halves the penalty and clears the flag.
  [[nodiscard]] bool greylisted(net::NodeIndex peer, sim::Time now) {
    auto it = peers_.find(peer);
    if (it == peers_.end() || it->second.greylisted_until == 0) return false;
    if (now >= it->second.greylisted_until) {
      it->second.greylisted_until = 0;
      it->second.penalty *= 0.5;
      return false;
    }
    return true;
  }

  /// Candidate score multiplier in (0, 1].
  [[nodiscard]] double weight(net::NodeIndex peer) const {
    const auto it = peers_.find(peer);
    if (it == peers_.end()) return 1.0;
    return 1.0 / (1.0 + kRepWeightScale * it->second.penalty);
  }

  [[nodiscard]] double penalty(net::NodeIndex peer) const {
    const auto it = peers_.find(peer);
    return it == peers_.end() ? 0.0 : it->second.penalty;
  }

  /// Lifetime count of greylisting events (a peer re-offending counts again).
  [[nodiscard]] std::uint64_t greylist_events() const noexcept {
    return greylist_events_;
  }
  [[nodiscard]] std::uint64_t corrupt_events() const noexcept {
    return corrupt_events_;
  }
  [[nodiscard]] std::uint64_t timeout_events() const noexcept {
    return timeout_events_;
  }

 private:
  struct Entry {
    double penalty = 0.0;
    /// 0 = not greylisted (sim::Time 0 is before any slot activity).
    sim::Time greylisted_until = 0;
    /// Timeouts charged and not yet redeemed by a late reply.
    std::uint32_t charged_timeouts = 0;
  };

  bool penalize(net::NodeIndex peer, double amount, sim::Time now) {
    Entry& e = peers_[peer];
    e.penalty += amount;
    if (e.greylisted_until == 0 && e.penalty >= kRepGreylistThreshold) {
      e.greylisted_until = now + kRepGreylistDuration;
      ++greylist_events_;
      return true;
    }
    return false;
  }

  std::unordered_map<net::NodeIndex, Entry> peers_;
  std::uint64_t greylist_events_ = 0;
  std::uint64_t corrupt_events_ = 0;
  std::uint64_t timeout_events_ = 0;
};

}  // namespace pandas::core
