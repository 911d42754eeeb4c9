#include "core/decay.hpp"

#include <cmath>

namespace nrn::core {

std::int32_t Decay::default_phase_length(std::int32_t node_count) {
  NRN_EXPECTS(node_count >= 1, "empty network");
  std::int32_t bits = 1;
  while ((std::int64_t{1} << bits) < node_count) ++bits;
  return bits + 1;
}

std::int64_t Decay::default_budget(std::int32_t node_count,
                                   std::int32_t diameter_hint, double p) {
  const auto phase = static_cast<std::int64_t>(default_phase_length(node_count));
  const auto log_n = static_cast<std::int64_t>(
      std::ceil(std::log2(std::max(2, node_count))));
  const double stretch = 1.0 / (1.0 - p);
  const auto base = static_cast<std::int64_t>(diameter_hint) + 4 * log_n + 32;
  return static_cast<std::int64_t>(16.0 * stretch *
                                   static_cast<double>(phase * base));
}

namespace {

/// One Decay trial's round logic.  In round i of a phase, every informed
/// node broadcasts with probability 2^-i; the Bernoulli selection is fused
/// into the staging pass (bulk staging, one call per round).
class DecayStepper final : public InformedSetStepper {
 public:
  DecayStepper(std::int32_t node_count, radio::NodeId source,
               std::int32_t phase, std::int64_t budget,
               radio::TraceRecorder* trace)
      : InformedSetStepper(node_count, source, budget, trace), phase_(phase) {}

  bool stage_round(radio::StagingPort& port, Rng& rng) override {
    if (!another_round()) return false;
    const auto sub_round = static_cast<std::int32_t>(round_ % phase_);
    port.stage_bernoulli_pow2(informed_list_, sub_round, radio::PacketId{0},
                              rng);
    return true;
  }

 private:
  std::int32_t phase_;
};

}  // namespace

std::unique_ptr<RoundStepper> Decay::make_stepper(
    std::int32_t node_count, radio::NodeId source, double effective_loss,
    radio::TraceRecorder* trace) const {
  NRN_EXPECTS(source >= 0 && source < node_count, "source out of range");
  const std::int32_t phase = params_.phase_length > 0
                                 ? params_.phase_length
                                 : default_phase_length(node_count);
  const std::int64_t budget =
      params_.max_rounds > 0
          ? params_.max_rounds
          : default_budget(node_count, node_count, effective_loss);
  return std::make_unique<DecayStepper>(node_count, source, phase, budget,
                                        trace);
}

BroadcastRunResult Decay::run(radio::RadioNetwork& net, radio::NodeId source,
                              Rng& rng, radio::TraceRecorder* trace) const {
  auto stepper = make_stepper(net.graph().node_count(), source,
                              net.channel().effective_loss(), trace);
  return run_stepped(*stepper, net, rng);
}

}  // namespace nrn::core
