#include "core/fastbc.hpp"

#include <cmath>

#include "core/decay.hpp"

namespace nrn::core {

namespace {

std::int32_t ceil_log2(std::int32_t n) {
  std::int32_t bits = 0;
  while ((std::int64_t{1} << bits) < n) ++bits;
  return std::max(bits, 1);
}

}  // namespace

Fastbc::Fastbc(const graph::Graph& g, radio::NodeId source, FastbcParams params)
    : graph_(&g), source_(source), params_(params) {
  tree_ = trees::build_gbst(g, source, &tree_stats_);
  rank_modulus_ = params.rank_modulus > 0 ? params.rank_modulus
                                          : ceil_log2(g.node_count());
  NRN_EXPECTS(tree_.max_rank <= rank_modulus_,
              "rank modulus below the realized max rank");
  decay_phase_ = params.decay_phase > 0
                     ? params.decay_phase
                     : Decay::default_phase_length(g.node_count());
}

namespace {

/// One FASTBC trial's round logic: odd rounds a Decay step (Bernoulli
/// selection fused into staging), even rounds the collision-free wave --
/// eligible fast nodes gathered into a scratch list and bulk-staged.
class FastbcStepper final : public InformedSetStepper {
 public:
  FastbcStepper(const trees::RankedBfsTree& tree, std::int32_t node_count,
                radio::NodeId source, std::int32_t rank_modulus,
                std::int32_t decay_phase, std::int64_t budget,
                radio::TraceRecorder* trace)
      : InformedSetStepper(node_count, source, budget, trace),
        tree_(&tree),
        period_(6 * rank_modulus),
        decay_phase_(decay_phase) {
    eligible_.reserve(static_cast<std::size_t>(node_count));
  }

  bool stage_round(radio::StagingPort& port, Rng& rng) override {
    if (!another_round()) return false;
    const std::int64_t round = round_;
    if (round % 2 == 1) {
      // Slow transmission round 2t+1: Decay step over informed nodes.
      const auto t = (round - 1) / 2;
      const auto sub = static_cast<std::int32_t>(t % decay_phase_);
      port.stage_bernoulli_pow2(informed_list_, sub, radio::PacketId{0}, rng);
    } else {
      // Fast transmission round 2t: scheduled wave step.
      const auto t = round / 2;
      eligible_.clear();
      for (const radio::NodeId u : informed_list_) {
        const auto ui = static_cast<std::size_t>(u);
        if (!tree_->is_fast(u)) continue;
        const std::int64_t target =
            static_cast<std::int64_t>(tree_->level[ui]) -
            6LL * tree_->rank[ui];
        // t = l - 6r (mod period), with a positive representative.
        const std::int64_t lhs = ((t - target) % period_ + period_) % period_;
        if (lhs == 0) eligible_.push_back(u);
      }
      port.stage_many(eligible_, radio::PacketId{0});
    }
    return true;
  }

 private:
  const trees::RankedBfsTree* tree_;
  std::int64_t period_;
  std::int32_t decay_phase_;
  std::vector<radio::NodeId> eligible_;
};

}  // namespace

std::unique_ptr<RoundStepper> Fastbc::make_stepper(
    double effective_loss, radio::TraceRecorder* trace) const {
  const std::int64_t budget =
      params_.max_rounds > 0
          ? params_.max_rounds
          : static_cast<std::int64_t>(
                32.0 / (1.0 - effective_loss) *
                static_cast<double>((tree_.depth + 4 * decay_phase_ + 32)) *
                static_cast<double>(decay_phase_));
  return std::make_unique<FastbcStepper>(tree_, graph_->node_count(), source_,
                                         rank_modulus_, decay_phase_, budget,
                                         trace);
}

BroadcastRunResult Fastbc::run(radio::RadioNetwork& net, Rng& rng,
                               radio::TraceRecorder* trace) const {
  NRN_EXPECTS(&net.graph() == graph_, "network built on a different graph");
  auto stepper = make_stepper(net.channel().effective_loss(), trace);
  return run_stepped(*stepper, net, rng);
}

}  // namespace nrn::core
