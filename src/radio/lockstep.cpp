#include "radio/lockstep.hpp"

#include <algorithm>
#include <bit>

#include "radio/sinr_gain.hpp"

namespace nrn::radio {

LockstepNetwork::LockstepNetwork(const graph::Graph& g,
                                 const ChannelModel& channel,
                                 const graph::Geometry* geometry)
    : graph_(&g),
      channel_(channel),
      geometry_(geometry) {
  const auto n = static_cast<std::size_t>(g.node_count());
  bcast_mask_.assign(n, 0);
  once_.assign(n, 0);
  twice_.assign(n, 0);
  sole_sender_.assign(n * static_cast<std::size_t>(kMaxLanes), 0);
  union_.reserve(n);
  reset(channel);
}

void LockstepNetwork::reset(const ChannelModel& channel) {
  if (channel.sinr() != channel_.sinr()) gain_table_valid_ = false;
  channel_ = channel;
  if (!channel.is_edge_fault() && !gain_table_valid_) {
    NRN_EXPECTS(geometry_ != nullptr, "sinr channel requires node geometry");
    build_sinr_gain_table(*graph_, *geometry_, channel_.sinr().alpha, gain_row_,
                          gain_);
    gain_table_valid_ = true;
  }
  // Under SINR both coin probabilities are 0, so no coins are priced and
  // the lanes' rng streams are never drawn from.
  const double ps = channel.sender_probability();
  const double pr = channel.receiver_probability();
  sender_coins_ = ps > 0.0;
  receiver_coins_ = pr > 0.0;
  sender_threshold_ = Rng::coin_threshold(ps);
  receiver_threshold_ = Rng::coin_threshold(pr);
  lanes_ = 0;
  // Per-round scratch self-clears at the end of run_round; after an
  // abandoned round (reset mid-bank) it must be scrubbed here.
  std::fill(bcast_mask_.begin(), bcast_mask_.end(), LaneMask{0});
  std::fill(once_.begin(), once_.end(), LaneMask{0});
  std::fill(twice_.begin(), twice_.end(), LaneMask{0});
  union_.clear();
  for (int l = 0; l < kMaxLanes; ++l) {
    const auto li = static_cast<std::size_t>(l);
    plan_[li].clear();
    cand_recv_[li].clear();
    cand_send_[li].clear();
    receivers_[li].clear();
    stats_[li] = RoundStats{};
  }
}

int LockstepNetwork::add_lane(Rng rng) {
  NRN_EXPECTS(lanes_ < kMaxLanes, "lockstep bank is full");
  rng_[static_cast<std::size_t>(lanes_)] = rng;
  return lanes_++;
}

void LockstepNetwork::stage(int lane, NodeId u) {
  NRN_EXPECTS(lane >= 0 && lane < lanes_, "lane out of range");
  NRN_EXPECTS(u >= 0 && u < graph_->node_count(), "broadcaster out of range");
  const auto bit = static_cast<LaneMask>(1u << lane);
  auto& mask = bcast_mask_[static_cast<std::size_t>(u)];
  NRN_EXPECTS((mask & bit) == 0, "node staged to broadcast twice in one round");
  if (mask == 0) union_.push_back(u);
  mask = static_cast<LaneMask>(mask | bit);
  plan_[static_cast<std::size_t>(lane)].push_back(u);
}

void LockstepNetwork::stage_many(int lane, std::span<const NodeId> senders) {
  NRN_EXPECTS(lane >= 0 && lane < lanes_, "lane out of range");
  const auto bit = static_cast<LaneMask>(1u << lane);
  const NodeId n = graph_->node_count();
  auto& plan = plan_[static_cast<std::size_t>(lane)];
  plan.reserve(plan.size() + senders.size());
  for (const NodeId u : senders) {
    NRN_EXPECTS(u >= 0 && u < n, "broadcaster out of range");
    auto& mask = bcast_mask_[static_cast<std::size_t>(u)];
    NRN_EXPECTS((mask & bit) == 0,
                "node staged to broadcast twice in one round");
    if (mask == 0) union_.push_back(u);
    mask = static_cast<LaneMask>(mask | bit);
    plan.push_back(u);
  }
}

std::size_t LockstepNetwork::stage_bernoulli_pow2(
    int lane, std::span<const NodeId> candidates, std::int32_t i, Rng& rng) {
  NRN_EXPECTS(lane >= 0 && lane < lanes_, "lane out of range");
  if (i == 0) {  // p = 1: stage everyone, draw nothing -- same tape as the
    stage_many(lane, candidates);  // scalar engine's i == 0 delegation.
    return candidates.size();
  }
  const auto bit = static_cast<LaneMask>(1u << lane);
  const NodeId n = graph_->node_count();
  auto& plan = plan_[static_cast<std::size_t>(lane)];
  std::size_t staged = 0;
  rng.for_each_bernoulli_pow2(candidates.size(), i, [&](std::size_t idx) {
    const NodeId u = candidates[idx];
    NRN_EXPECTS(u >= 0 && u < n, "broadcaster out of range");
    auto& mask = bcast_mask_[static_cast<std::size_t>(u)];
    NRN_EXPECTS((mask & bit) == 0,
                "node staged to broadcast twice in one round");
    if (mask == 0) union_.push_back(u);
    mask = static_cast<LaneMask>(mask | bit);
    plan.push_back(u);
    ++staged;
  });
  return staged;
}

void LockstepNetwork::run_round(unsigned lanes) {
  NRN_EXPECTS((lanes >> lanes_) == 0, "round mask addresses unknown lanes");
  const bool coins = sender_coins_ || receiver_coins_;
  for (int l = 0; l < lanes_; ++l) {
    const auto li = static_cast<std::size_t>(l);
    if ((lanes & (1u << l)) == 0) {
      NRN_EXPECTS(plan_[li].empty(), "staged lane missing from round mask");
      continue;
    }
    stats_[li] = RoundStats{};
    stats_[li].broadcasters = static_cast<std::int64_t>(plan_[li].size());
    receivers_[li].clear();
    cand_recv_[li].clear();
    cand_send_[li].clear();
    // Tape v4, per lane: one salt draw iff the lane broadcast and any coin
    // is in play -- exactly the scalar engine's stream consumption.
    if (coins && !plan_[li].empty()) {
      const std::uint64_t salt = rng_[li]();
      sender_salt_[li] = salt ^ kSenderSaltTweak;
      receiver_salt_[li] = salt ^ kReceiverSaltTweak;
    }
  }

  if (!channel_.is_edge_fault()) {
    // SINR route: the shared gain pass replaces the once/twice collision
    // accounting; lanes are resolved inside, so skip straight to the
    // per-lane bookkeeping tail.
    run_round_sinr();
    for (int l = 0; l < lanes_; ++l) {
      const auto li = static_cast<std::size_t>(l);
      if ((lanes & (1u << l)) == 0) continue;
      stats_[li].deliveries =
          static_cast<std::int64_t>(receivers_[li].size());
      plan_[li].clear();
    }
    for (const NodeId b : union_) bcast_mask_[static_cast<std::size_t>(b)] = 0;
    union_.clear();
    return;
  }

  // One shared adjacency pass over the union of every lane's broadcasters:
  // per listener, accumulate which lanes touched it once and which twice,
  // and -- only if a sender fault coin will need to be keyed by it --
  // remember the sender behind each lane's first touch.
  if (sender_coins_) {
    for (const NodeId b : union_) {
      const LaneMask bm = bcast_mask_[static_cast<std::size_t>(b)];
      for (const NodeId v : graph_->neighbors(b)) {
        const auto vi = static_cast<std::size_t>(v);
        const LaneMask prev = once_[vi];
        LaneMask newly = static_cast<LaneMask>(bm & ~prev);
        twice_[vi] = static_cast<LaneMask>(twice_[vi] | (bm & prev));
        once_[vi] = static_cast<LaneMask>(prev | bm);
        while (newly != 0) {
          const int l = std::countr_zero(newly);
          newly = static_cast<LaneMask>(newly & (newly - 1));
          sole_sender_[vi * static_cast<std::size_t>(kMaxLanes) +
                       static_cast<std::size_t>(l)] = b;
        }
      }
    }
  } else {
    for (const NodeId b : union_) {
      const LaneMask bm = bcast_mask_[static_cast<std::size_t>(b)];
      for (const NodeId v : graph_->neighbors(b)) {
        const auto vi = static_cast<std::size_t>(v);
        const LaneMask prev = once_[vi];
        twice_[vi] = static_cast<LaneMask>(twice_[vi] | (bm & prev));
        once_[vi] = static_cast<LaneMask>(prev | bm);
      }
    }
  }

  // Ascending-listener scan: per lane, a touched listener that is not
  // itself broadcasting is a collision (touched twice) or a delivery
  // candidate (touched exactly once).  Reading a slot also clears it, so
  // the shared scratch needs no separate wipe.
  const NodeId n = graph_->node_count();
  for (NodeId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    const LaneMask on = once_[vi];
    if (on == 0) continue;
    once_[vi] = 0;
    const LaneMask twice = twice_[vi];
    twice_[vi] = 0;
    const auto listening = static_cast<LaneMask>(~bcast_mask_[vi]);
    LaneMask col = static_cast<LaneMask>(twice & listening);
    LaneMask del = static_cast<LaneMask>(on & ~twice & listening);
    while (col != 0) {
      ++stats_[static_cast<std::size_t>(std::countr_zero(col))]
            .collision_losses;
      col = static_cast<LaneMask>(col & (col - 1));
    }
    while (del != 0) {
      const auto li = static_cast<std::size_t>(std::countr_zero(del));
      del = static_cast<LaneMask>(del & (del - 1));
      cand_recv_[li].push_back(v);
      if (sender_coins_)
        cand_send_[li].push_back(
            sole_sender_[vi * static_cast<std::size_t>(kMaxLanes) + li]);
    }
  }

  for (int l = 0; l < lanes_; ++l) {
    const auto li = static_cast<std::size_t>(l);
    if ((lanes & (1u << l)) == 0) continue;
    resolve_lane(l);
    stats_[li].deliveries = static_cast<std::int64_t>(receivers_[li].size());
    plan_[li].clear();
  }
  for (const NodeId b : union_) bcast_mask_[static_cast<std::size_t>(b)] = 0;
  union_.clear();
}

void LockstepNetwork::run_round_sinr() {
  // Shared touch pass: once_ doubles as a "lanes that reached v" mask (the
  // once/twice distinction is meaningless under SINR -- interference, not
  // collision, decides reception).
  for (const NodeId b : union_) {
    const LaneMask bm = bcast_mask_[static_cast<std::size_t>(b)];
    for (const NodeId v : graph_->neighbors(b))
      once_[static_cast<std::size_t>(v)] =
          static_cast<LaneMask>(once_[static_cast<std::size_t>(v)] | bm);
  }
  // Ascending-listener scan; reading a touch mask clears it, as in the
  // edge-fault scan.  Per touched listener one row walk accumulates every
  // lane's interference sum and best gain at once: per lane the additions
  // run in ascending neighbor id, exactly the scalar sinr_decode order,
  // so the floating-point sums (and hence deliveries) are bit-identical
  // to scalar trials.
  const SinrParams& p = channel_.sinr();
  const NodeId n = graph_->node_count();
  for (NodeId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    const LaneMask on = once_[vi];
    if (on == 0) continue;
    once_[vi] = 0;
    const auto listen =
        static_cast<LaneMask>(on & ~bcast_mask_[vi]);
    if (listen == 0) continue;
    const auto row = graph_->neighbors(v);
    const double* gains = gain_.data() + gain_row_[vi];
    std::array<double, kMaxLanes> sum{};
    std::array<double, kMaxLanes> best;
    best.fill(-1.0);
    for (std::size_t j = 0; j < row.size(); ++j) {
      LaneMask m = static_cast<LaneMask>(
          bcast_mask_[static_cast<std::size_t>(row[j])] & listen);
      if (m == 0) continue;
      const double g = gains[j];
      while (m != 0) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        m = static_cast<LaneMask>(m & (m - 1));
        sum[l] += g;
        if (g > best[l]) best[l] = g;  // strict: gain tie keeps lower id
      }
    }
    LaneMask todo = listen;
    while (todo != 0) {
      const auto l = static_cast<std::size_t>(std::countr_zero(todo));
      todo = static_cast<LaneMask>(todo & (todo - 1));
      if (best[l] >= p.beta * (p.noise_floor + (sum[l] - best[l])))
        receivers_[l].push_back(v);
      else
        ++stats_[l].interference_losses;
    }
  }
}

void LockstepNetwork::resolve_lane(int lane) {
  const auto li = static_cast<std::size_t>(lane);
  const auto& recv = cand_recv_[li];
  const auto& send = cand_send_[li];
  auto& out = receivers_[li];
  if (!sender_coins_ && !receiver_coins_) {
    out.assign(recv.begin(), recv.end());
    return;
  }
  // Batched coins in the scalar engine's order: the sender's shared coin
  // first, then the survivor's receiver coin.  Both are counter-based
  // mixes of this lane's round salts, so outcomes match the scalar kernels
  // coin for coin.  The whole candidate array is mixed up front and the
  // survivors compacted write-always -- a taken/not-taken branch per coin
  // would be unlearnable for the predictor at the fault rates we sweep.
  const std::size_t count = recv.size();
  out.resize(count);
  std::size_t w = 0;
  std::int64_t sender_losses = 0;
  std::int64_t receiver_losses = 0;
  if (sender_coins_) {
    send_mix_.resize(count);
    Rng::mix64_batch(sender_salt_[li], send.data(), send_mix_.data(), count);
  }
  if (receiver_coins_) {
    recv_mix_.resize(count);
    Rng::mix64_batch(receiver_salt_[li], recv.data(), recv_mix_.data(), count);
  }
  if (sender_coins_ && receiver_coins_) {
    for (std::size_t j = 0; j < count; ++j) {
      const std::size_t sf = send_mix_[j] < sender_threshold_;
      const std::size_t rf = recv_mix_[j] < receiver_threshold_;
      sender_losses += static_cast<std::int64_t>(sf);
      receiver_losses += static_cast<std::int64_t>((sf ^ 1U) & rf);
      out[w] = recv[j];
      w += (sf | rf) ^ 1U;
    }
  } else if (sender_coins_) {
    for (std::size_t j = 0; j < count; ++j) {
      const std::size_t sf = send_mix_[j] < sender_threshold_;
      sender_losses += static_cast<std::int64_t>(sf);
      out[w] = recv[j];
      w += sf ^ 1U;
    }
  } else {
    for (std::size_t j = 0; j < count; ++j) {
      const std::size_t rf = recv_mix_[j] < receiver_threshold_;
      receiver_losses += static_cast<std::int64_t>(rf);
      out[w] = recv[j];
      w += rf ^ 1U;
    }
  }
  out.resize(w);
  stats_[li].sender_fault_losses += sender_losses;
  stats_[li].receiver_fault_losses += receiver_losses;
}

}  // namespace nrn::radio
