// The Decay algorithm (Bar-Yehuda, Goldreich, Itai [5]; paper Section 3.4.1).
//
// Rounds are grouped into phases of `phase_length` rounds.  In round i of a
// phase (i = 0, 1, ...), every informed node broadcasts the message
// independently with probability 2^-i.  If a listening node has between
// 2^i and 2^(i+1) informed neighbors, the round-i sub-round delivers with
// constant probability (Lemma 5), so a phase informs each frontier node
// with constant probability -- and, with fault probability p, with
// probability c(1-p) (Lemma 9).  Decay needs no topology knowledge and is
// the paper's exemplar of an algorithm that stays robust under noise.
#pragma once

#include <cstdint>
#include <memory>

#include "common/rng.hpp"
#include "core/run_result.hpp"
#include "core/stepper.hpp"
#include "radio/network.hpp"
#include "radio/trace.hpp"

namespace nrn::core {

struct DecayParams {
  /// Rounds per phase; 0 selects ceil(log2 n) + 1.
  std::int32_t phase_length = 0;
  /// Round budget; 0 selects a generous multiple of the Lemma 9 bound.
  std::int64_t max_rounds = 0;
};

class Decay {
 public:
  explicit Decay(DecayParams params = {}) : params_(params) {}

  /// Broadcasts one message from `source` until every node is informed or
  /// the budget runs out.  Algorithm coins come from `rng`; fault coins
  /// come from the network's own stream.  Implemented as run_stepped over
  /// make_stepper, so scalar and lockstep execution share one schedule.
  BroadcastRunResult run(radio::RadioNetwork& net, radio::NodeId source,
                         Rng& rng, radio::TraceRecorder* trace = nullptr) const;

  /// The schedule as a RoundStepper (core/stepper.hpp): `effective_loss`
  /// feeds the default budget exactly as run() derives it from the
  /// network's channel.
  std::unique_ptr<RoundStepper> make_stepper(
      std::int32_t node_count, radio::NodeId source, double effective_loss,
      radio::TraceRecorder* trace = nullptr) const;

  /// ceil(log2 n) + 1, the canonical phase length.
  static std::int32_t default_phase_length(std::int32_t node_count);

  /// Budget implied by Lemma 9 with slack: c * phase * (D + log n) / (1-p).
  static std::int64_t default_budget(std::int32_t node_count,
                                     std::int32_t diameter_hint, double p);

 private:
  DecayParams params_;
};

}  // namespace nrn::core
