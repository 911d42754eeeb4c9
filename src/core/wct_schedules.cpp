#include "core/wct_schedules.hpp"

#include <cmath>

#include "core/decay.hpp"
#include "core/star_schedules.hpp"

namespace nrn::core {

MultiRunResult run_wct_rs_coding(radio::RadioNetwork& net,
                                 const topology::WctNetwork& wct,
                                 const WctCodedParams& params, Rng& rng) {
  // Structural identity, not pointer identity: the registry's protocol
  // adapters rebuild the WctNetwork deterministically from the scenario
  // seed, so the network's graph is an equal copy, not the same object.
  // The caller owes full structural identity (the sim adapter verifies
  // adjacency once at construction); this guard is the cheap per-run
  // sanity bound.
  NRN_EXPECTS(net.graph().node_count() == wct.graph().node_count() &&
                  net.graph().edge_count() == wct.graph().edge_count(),
              "network built on a different graph");
  NRN_EXPECTS(params.k >= 1, "need at least one message");
  const std::int64_t k = params.k;
  const auto& senders = wct.senders();
  const auto sender_count = static_cast<std::int64_t>(senders.size());
  const double p = net.channel().effective_loss();
  const std::int32_t phase =
      params.decay_phase > 0
          ? params.decay_phase
          : Decay::default_phase_length(
                static_cast<std::int32_t>(sender_count) + 1);

  MultiRunResult result;
  result.messages = k;

  // --- Phase 1: source streams distinct packets until every sender can
  // reconstruct (holds >= k distinct).  One fresh id per round; a sender
  // misses a round only through a fault, so this is the star schedule of
  // Lemma 16 with the senders as leaves.
  std::vector<std::int64_t> sender_have(
      static_cast<std::size_t>(sender_count), 0);
  std::int64_t senders_done = 0;
  const std::int64_t phase1_cap = rs_packet_count(
      k, static_cast<std::int32_t>(sender_count) + 1, p) * 4;
  std::int64_t next_packet = 0;
  while (senders_done < sender_count && result.rounds < phase1_cap) {
    net.set_broadcast(wct.source(), radio::PacketId{next_packet++});
    const auto& deliveries = net.run_round();
    ++result.rounds;
    for (const auto& d : deliveries) {
      // Sender ids are 1..M.
      if (d.receiver >= 1 && d.receiver <= sender_count) {
        auto& have = sender_have[static_cast<std::size_t>(d.receiver - 1)];
        if (++have == k) ++senders_done;
      }
    }
  }
  if (senders_done < sender_count) return result;  // completed stays false

  // --- Phase 2: Decay pattern over senders with globally-distinct coded
  // packets.  Track distinct receptions per cluster member.
  const std::int32_t n = net.graph().node_count();
  std::vector<std::int64_t> member_have(static_cast<std::size_t>(n), 0);
  std::int64_t members_total = 0, members_done = 0;
  for (const auto& cluster : wct.clusters())
    members_total += static_cast<std::int64_t>(cluster.size());

  const std::int64_t budget =
      params.max_rounds > 0
          ? params.max_rounds
          : result.rounds +
                static_cast<std::int64_t>(
                    64.0 / (1.0 - p) *
                    static_cast<double>(k + 4 * phase) * phase);

  // Staging scratch: the round's selected senders and their globally
  // unique packet ids, bulk-staged in one call.
  std::vector<radio::NodeId> round_senders;
  std::vector<radio::PacketId> round_ids;
  round_senders.reserve(static_cast<std::size_t>(sender_count));
  round_ids.reserve(static_cast<std::size_t>(sender_count));

  std::int64_t round_index = 0;
  while (members_done < members_total && result.rounds < budget) {
    const auto sub = static_cast<std::int32_t>(round_index % phase);
    round_senders.clear();
    round_ids.clear();
    rng.for_each_bernoulli_pow2(
        static_cast<std::size_t>(sender_count), sub, [&](std::size_t si) {
          // Globally unique id: every reception is a fresh packet.
          const std::int64_t id = (round_index + 1) * sender_count +
                                  static_cast<std::int64_t>(si);
          round_senders.push_back(senders[si]);
          round_ids.push_back(radio::PacketId{id});
        });
    net.stage_broadcasts(round_senders, round_ids);
    const auto& deliveries = net.run_round();
    ++result.rounds;
    ++round_index;
    for (const auto& d : deliveries) {
      if (d.receiver <= sender_count) continue;  // source or sender
      auto& have = member_have[static_cast<std::size_t>(d.receiver)];
      if (have < k && ++have == k) ++members_done;
    }
  }
  result.completed = (members_done == members_total);
  return result;
}

}  // namespace nrn::core
