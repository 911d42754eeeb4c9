#include "core/multi_message.hpp"

#include <cmath>

#include "core/decay.hpp"
#include "trees/gbst.hpp"

namespace nrn::core {

namespace {

std::int32_t ceil_log2(std::int32_t n) {
  std::int32_t bits = 0;
  while ((std::int64_t{1} << bits) < n) ++bits;
  return std::max(bits, 1);
}

}  // namespace

RlncBroadcast::RlncBroadcast(const graph::Graph& g, radio::NodeId source,
                             MultiMessageParams params)
    : graph_(&g), source_(source), params_(params) {
  NRN_EXPECTS(params.k >= 1, "need at least one message");
  decay_phase_ = params.decay_phase > 0
                     ? params.decay_phase
                     : Decay::default_phase_length(g.node_count());
  if (params.pattern == MultiPattern::kRobustFastbc) {
    tree_ = trees::build_gbst(g, source, nullptr);
    const std::int32_t log_n = ceil_log2(g.node_count());
    block_size_ = params.block_size > 0
                      ? params.block_size
                      : std::max<std::int32_t>(
                            2, 2 * ceil_log2(std::max<std::int32_t>(2, log_n)));
    window_multiplier_ =
        params.window_multiplier > 0 ? params.window_multiplier : 8;
    rank_modulus_ = log_n;
    NRN_EXPECTS(tree_.max_rank <= rank_modulus_, "rank modulus too small");
  }
}

MultiRunResult RlncBroadcast::run(radio::RadioNetwork& net, Rng& rng) const {
  return run_impl(net, rng, nullptr);
}

MultiRunResult RlncBroadcast::run_and_verify(
    radio::RadioNetwork& net, Rng& rng,
    const std::vector<std::vector<std::uint8_t>>& messages) const {
  NRN_EXPECTS(params_.block_len > 0, "verification requires payload mode");
  return run_impl(net, rng, &messages);
}

MultiRunResult RlncBroadcast::run_impl(
    radio::RadioNetwork& net, Rng& rng,
    const std::vector<std::vector<std::uint8_t>>* messages) const {
  NRN_EXPECTS(&net.graph() == graph_, "network built on a different graph");
  const std::int32_t n = graph_->node_count();
  const auto k = params_.k;
  const double p = net.channel().effective_loss();
  const std::int32_t log_n = ceil_log2(n);

  const std::int64_t budget =
      params_.max_rounds > 0
          ? params_.max_rounds
          : static_cast<std::int64_t>(
                32.0 / (1.0 - p) *
                (static_cast<double>(n) +
                 static_cast<double>(k + 8ULL * log_n) * decay_phase_ *
                     (params_.pattern == MultiPattern::kRobustFastbc
                          ? std::max<std::int32_t>(2, block_size_)
                          : 1)));

  // Per-node decoder state.
  std::vector<coding::RlncState> state;
  state.reserve(static_cast<std::size_t>(n));
  for (std::int32_t u = 0; u < n; ++u)
    state.emplace_back(k, params_.block_len);
  if (messages != nullptr) {
    state[static_cast<std::size_t>(source_)].seed_source(*messages);
  } else {
    state[static_cast<std::size_t>(source_)].seed_source({});
  }

  std::int32_t complete_count = 1;  // the source
  std::vector<char> complete(static_cast<std::size_t>(n), 0);
  complete[static_cast<std::size_t>(source_)] = 1;

  // This round's packets; radio::Packet carries the pool index j.  A
  // staged sender's coefficients are drawn at stage time (keeping the rng
  // sequence), into lambda[lambda_at[j], +rank); its packet bytes
  // (coeffs[j * k, +k], payload[j * block_len, +block_len]) are combined
  // only once a receiver that can still use them hears it.  Every buffer
  // is reused across rounds.
  const std::size_t block_len = params_.block_len;
  std::vector<std::uint8_t> lambda;
  std::vector<std::size_t> lambda_at;
  std::vector<char> combined;
  std::vector<std::uint8_t> coeffs;
  std::vector<std::uint8_t> payload;

  const std::int64_t period = 6LL * rank_modulus_;
  const std::int64_t window =
      static_cast<std::int64_t>(window_multiplier_) * block_size_;

  MultiRunResult result;
  result.messages = static_cast<std::int64_t>(k);
  if (complete_count == n) {
    result.completed = true;
    return result;
  }

  // Staging scratch: nodes selected this round and the pool index each
  // one emits, bulk-staged in one call once the selection pass is done.
  std::vector<radio::NodeId> senders;
  std::vector<radio::PacketId> packet_ids;
  senders.reserve(static_cast<std::size_t>(n));
  packet_ids.reserve(static_cast<std::size_t>(n));

  for (std::int64_t round = 0; round < budget; ++round) {
    senders.clear();
    packet_ids.clear();
    lambda.clear();
    lambda_at.clear();
    auto stage = [&](radio::NodeId u) {
      const auto& st = state[static_cast<std::size_t>(u)];
      if (st.rank() == 0) return;  // nothing informative to send
      const std::size_t at = lambda.size();
      lambda.resize(at + st.rank());
      st.draw(rng, lambda.data() + at);
      lambda_at.push_back(at);
      packet_ids.push_back(static_cast<radio::PacketId>(senders.size()));
      senders.push_back(u);
    };

    if (params_.pattern == MultiPattern::kDecay) {
      const auto sub = static_cast<std::int32_t>(round % decay_phase_);
      rng.for_each_bernoulli_pow2(
          static_cast<std::size_t>(n), sub,
          [&](std::size_t u) { stage(static_cast<radio::NodeId>(u)); });
    } else if (round % 2 == 1) {
      const auto t = (round - 1) / 2;
      const auto sub = static_cast<std::int32_t>(t % decay_phase_);
      rng.for_each_bernoulli_pow2(
          static_cast<std::size_t>(n), sub,
          [&](std::size_t u) { stage(static_cast<radio::NodeId>(u)); });
    } else {
      const std::int64_t t_half = round / 2;
      const std::int64_t band = t_half / window;
      for (radio::NodeId u = 0; u < n; ++u) {
        const auto ui = static_cast<std::size_t>(u);
        if (!tree_.is_fast(u)) continue;
        const std::int32_t l = tree_.level[ui];
        const std::int32_t r = tree_.rank[ui];
        const std::int64_t block = l / block_size_;
        // +6: rank-1 block-0 active at band 0 (see robust_fastbc.cpp).
        const std::int64_t lhs =
            ((block - 6LL * r + 6 - band) % period + period) % period;
        if (lhs != 0 || (l % 3) != (t_half % 3)) continue;
        stage(u);
      }
    }
    net.stage_broadcasts(senders, packet_ids);

    const auto& deliveries = net.run_round();
    // Combine every packet some incomplete receiver heard, before any
    // absorb changes a sender's basis.
    const std::size_t staged = senders.size();
    combined.assign(staged, 0);
    if (coeffs.size() < staged * k) coeffs.resize(staged * k);
    if (payload.size() < staged * block_len) payload.resize(staged * block_len);
    for (const auto& d : deliveries) {
      const auto j = static_cast<std::size_t>(d.packet.id);
      if (combined[j] || state[static_cast<std::size_t>(d.receiver)].complete())
        continue;
      combined[j] = 1;
      state[static_cast<std::size_t>(senders[j])].combine(
          lambda.data() + lambda_at[j], coeffs.data() + j * k,
          payload.data() + j * block_len);
    }
    for (const auto& d : deliveries) {
      auto& st = state[static_cast<std::size_t>(d.receiver)];
      if (st.complete()) continue;
      const auto j = static_cast<std::size_t>(d.packet.id);
      st.absorb(coeffs.data() + j * k, payload.data() + j * block_len);
      if (st.complete()) {
        auto& flag = complete[static_cast<std::size_t>(d.receiver)];
        if (!flag) {
          flag = 1;
          ++complete_count;
        }
      }
    }
    result.rounds = round + 1;
    if (complete_count == n) {
      result.completed = true;
      break;
    }
  }

  if (result.completed && messages != nullptr) {
    for (std::int32_t u = 0; u < n; ++u) {
      if (state[static_cast<std::size_t>(u)].decode() != *messages) {
        result.completed = false;
        break;
      }
    }
  }
  return result;
}

}  // namespace nrn::core
