// The channel layer above the topology.
//
// A ChannelModel decides which staged broadcasts become deliveries each
// round.  It is the one channel type of the library; its factories build
// the five kinds:
//   * faultless()  -- the classic Chlamtac-Kutten collision rule.
//   * sender(p)    -- the paper's sender faults (Section 3.1): each
//     broadcasting node transmits noise with probability p each round,
//     independently across senders and rounds.  A noisy transmission still
//     occupies the channel (it collides like any other broadcast) but
//     delivers noise to every would-be receiver of that sender.
//   * receiver(p)  -- each listening node with exactly one broadcasting
//     neighbor receives noise with probability p, independently across
//     receivers and rounds.
//   * combined(ps, pr) -- both fault types at once: independent sender
//     and receiver coins.  The setting of the paper's open problem
//     (Section 4.2: an algorithm "robust to sender AND receiver faults"
//     broadcasting k messages in O(D + k log n + polylog)); not part of
//     the paper's model definitions, provided as an extension.
//   * sinr_channel(alpha, noise, beta) -- an additive-gain interference
//     model in the style of ROOT-Sim's physical_layer.c (SNIPPETS.md
//     section 1): transmitter u reaches listener v with gain
//     power_u / dist(u, v)^alpha; v decodes its strongest broadcasting
//     neighbor u iff
//         gain(u, v) >= beta * (noise_floor + interference - gain(u, v))
//     where interference sums the gains of ALL broadcasting neighbors of
//     v.  Requires a geometric topology (graph/geometry.hpp) so distances
//     exist.  The channel is deterministic: no coins are drawn, so the
//     engine's coin tape is empty (contract point 5 degenerates to every
//     round).  Losses to interference are counted separately from
//     collision losses (RoundStats::interference_losses).
//
// The first four are the edge-fault channels (is_edge_fault()): the
// collision rule plus per-round fault coins, the tape-v4 fast path.  In
// all of them noise is indistinguishable from silence or collision at the
// receiving node: the simulator reports only successful packet
// deliveries, never noise-as-packet.
//
// The SINR rule keeps the engine's "at most one delivery per listener per
// round" invariant: only the strongest transmitter (lowest node id on a
// gain tie) is a decode candidate -- a capture model, not a multi-packet
// reception model.
#pragma once

#include <string>

#include "common/contracts.hpp"
#include "common/numio.hpp"

namespace nrn::radio {

/// The single validation gate every fault probability goes through:
/// rejects anything outside [0, 1) with a message naming the parameter.
/// One helper instead of a guard per factory, so the contract text cannot
/// drift between them again.
inline double checked_probability(double p, const char* what) {
  NRN_EXPECTS(p >= 0.0 && p < 1.0,
              std::string(what) + " must be in [0, 1)");
  return p;
}

/// Parameters of the SINR reception rule.
struct SinrParams {
  double alpha = 2.0;        ///< path-loss exponent: gain = power / d^alpha
  double noise_floor = 0.0;  ///< ambient noise power N
  double beta = 1.0;         ///< decode threshold on signal / (N + I)

  friend bool operator==(const SinrParams&, const SinrParams&) = default;
};

class ChannelModel {
 public:
  /// The faultless channel.
  ChannelModel() = default;

  static ChannelModel faultless() { return {}; }

  static ChannelModel sender(double p) {
    return {Kind::kSender, checked_probability(p, "sender fault probability"),
            0.0, {}};
  }

  static ChannelModel receiver(double p) {
    return {Kind::kReceiver, 0.0,
            checked_probability(p, "receiver fault probability"), {}};
  }

  /// Independent sender coin (probability ps, shared by all receivers of a
  /// sender) plus an independent receiver coin (probability pr).
  static ChannelModel combined(double ps, double pr) {
    return {Kind::kCombined,
            checked_probability(ps, "sender fault probability"),
            checked_probability(pr, "receiver fault probability"), {}};
  }

  static ChannelModel sinr_channel(double alpha, double noise_floor,
                                   double beta) {
    NRN_EXPECTS(alpha > 0.0, "sinr alpha must be positive");
    NRN_EXPECTS(noise_floor >= 0.0, "sinr noise floor must be non-negative");
    NRN_EXPECTS(beta > 0.0, "sinr beta must be positive");
    return {Kind::kSinr, 0.0, 0.0, SinrParams{alpha, noise_floor, beta}};
  }

  /// True for the four fault-coin kinds, false for SINR.
  bool is_edge_fault() const { return kind_ != Kind::kSinr; }

  /// True iff the channel prices no fault coins: every zero-probability
  /// edge-fault channel, and SINR (which is deterministic).
  bool is_faultless() const { return ps_ == 0.0 && pr_ == 0.0; }

  /// Probability that a single uncontested transmission is lost end to
  /// end; the budget formulas of the algorithms use this.  0 under SINR:
  /// its losses are interference, which no budget formula models.
  double effective_loss() const {
    switch (kind_) {
      case Kind::kSender:
        return ps_;
      case Kind::kReceiver:
        return pr_;
      case Kind::kCombined:
        return 1.0 - (1.0 - ps_) * (1.0 - pr_);
      default:
        return 0.0;
    }
  }

  /// Sender-coin probability the engines price (0 when the kind has no
  /// sender coin).  Shared by the scalar engine and the lockstep bank so
  /// the two always agree on which coins exist.
  double sender_probability() const { return ps_; }

  /// Receiver-coin probability (0 when the kind has no receiver coin).
  double receiver_probability() const { return pr_; }

  /// The SINR reception parameters (defaults for edge-fault kinds).
  const SinrParams& sinr() const { return sinr_; }

  friend bool operator==(const ChannelModel&, const ChannelModel&) = default;

  /// "faultless", "receiver-faults(p=0.300000)", "sinr(alpha=2.000000,
  /// ...)": six fixed decimals in the C locale whatever the process locale.
  friend std::string to_string(const ChannelModel& channel);

 private:
  enum class Kind { kFaultless, kSender, kReceiver, kCombined, kSinr };

  ChannelModel(Kind kind, double ps, double pr, SinrParams sinr)
      : kind_(kind), ps_(ps), pr_(pr), sinr_(sinr) {}

  Kind kind_ = Kind::kFaultless;
  double ps_ = 0.0;  ///< sender-coin probability (kSender / kCombined)
  double pr_ = 0.0;  ///< receiver-coin probability (kReceiver / kCombined)
  SinrParams sinr_;
};

inline std::string to_string(const ChannelModel& channel) {
  const auto real = [](double v) { return format_real_fixed(v, 6); };
  switch (channel.kind_) {
    case ChannelModel::Kind::kFaultless:
      return "faultless";
    case ChannelModel::Kind::kSender:
      return "sender-faults(p=" + real(channel.ps_) + ")";
    case ChannelModel::Kind::kReceiver:
      return "receiver-faults(p=" + real(channel.pr_) + ")";
    case ChannelModel::Kind::kCombined:
      return "combined-faults(ps=" + real(channel.ps_) +
             ", pr=" + real(channel.pr_) + ")";
    case ChannelModel::Kind::kSinr:
      return "sinr(alpha=" + real(channel.sinr_.alpha) +
             ", noise=" + real(channel.sinr_.noise_floor) +
             ", beta=" + real(channel.sinr_.beta) + ")";
  }
  return "unknown";
}

}  // namespace nrn::radio
