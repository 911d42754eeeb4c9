// Lockstep multi-trial execution: up to kMaxLanes independent trials of one
// scenario (same graph, same fault model, per-trial seeds) advanced round by
// round together, sharing a single adjacency pass per round.
//
// Why this is possible: the v4 coin tape (see radio/network.hpp) is fully
// counter-based -- per active round each trial draws exactly ONE u64 salt
// from its own fault stream, and every sender/receiver coin is a stateless
// mix of that salt with a node id.  So W trials touring the same graph need
// W salt draws plus one shared traversal, not W traversals: per listener
// the bank accumulates a W-bit "touched once" / "touched twice" mask pair,
// and a lane's deliveries fall out of three bitwise ops per node.
//
// Bit-identity: a lane's receivers, round stats, and fault-stream
// consumption are exactly those of a scalar RadioNetwork driven with the
// same seed and staging sequence -- the tape-equivalence suite in
// tests/test_lockstep.cpp asserts this per round, and the Driver's
// trial-identity suite asserts it end to end per protocol.
//
// Scope: the bank is counting-mode and receivers-only -- staged packet ids
// are not tracked, which suffices for the informed-set steppers (Decay and
// the FASTBC family broadcast one message and read receiver-id spans).
// Protocols that need packet identity or payloads run scalar.
//
// Channel models: under the SINR channel (radio/channel_model.hpp) the
// lanes share the gain pass the way they share adjacency -- one touch
// pass over the union of broadcasters, then one ascending row walk per
// touched listener accumulating all eight lanes' interference sums at
// once.  Per lane the additions run in ascending neighbor id, the exact
// order of the scalar engine's sinr_decode, so lane results stay
// bit-identical to scalar trials.  The channel is deterministic: no
// salts are drawn and the lanes' rng streams are never consumed.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "graph/geometry.hpp"
#include "graph/graph.hpp"
#include "radio/channel_model.hpp"
#include "radio/network.hpp"
#include "radio/staging.hpp"

namespace nrn::radio {

class LockstepNetwork {
 public:
  /// Lanes per bank: one bit per lane in a byte-wide mask, so the shared
  /// pass costs the same per listener as the scalar kernel's slot touch.
  static constexpr int kMaxLanes = 8;
  using LaneMask = std::uint8_t;

  /// The graph must outlive the bank.  A SINR channel requires
  /// `geometry` (kept alive by the caller alongside the graph).
  LockstepNetwork(const graph::Graph& g, const ChannelModel& channel,
                  const graph::Geometry* geometry);

  LockstepNetwork(graph::Graph&&, const ChannelModel&,
                  const graph::Geometry*) = delete;

  /// Rearms the bank for a fresh batch of trials on the same graph: new
  /// channel, all lanes dropped, scratch kept.  Reuses the gain table when
  /// the SINR parameters are unchanged.
  void reset(const ChannelModel& channel);

  const graph::Graph& graph() const { return *graph_; }
  const ChannelModel& channel() const { return channel_; }

  /// Adds a trial lane seeded with its own fault-coin stream; returns the
  /// lane index.  At most kMaxLanes lanes per reset.
  int add_lane(Rng rng);
  int lane_count() const { return lanes_; }

  /// Stages node `u` to broadcast in `lane` this round.  A node may be
  /// staged at most once per lane per round.
  void stage(int lane, NodeId u);

  /// Bulk form of stage(): one lane check up front, then a tight loop.
  void stage_many(int lane, std::span<const NodeId> senders);

  /// Stages each candidate independently with probability 2^-i, consuming
  /// this trial's protocol stream exactly as the scalar engine's
  /// stage_broadcasts_bernoulli_pow2 does.  Returns the staged count.
  std::size_t stage_bernoulli_pow2(int lane, std::span<const NodeId> candidates,
                                   std::int32_t i, Rng& rng);

  /// StagingPort view of one lane, so a protocol RoundStepper stages into
  /// the bank exactly as it would into a scalar network.  Packet ids are
  /// accepted and ignored (receivers-only bank; see file comment).
  class LanePort final : public StagingPort {
   public:
    LanePort(LockstepNetwork& bank, int lane) : bank_(&bank), lane_(lane) {}

    void stage(NodeId u, PacketId /*id*/) override { bank_->stage(lane_, u); }

    void stage_many(std::span<const NodeId> senders,
                    PacketId /*id*/) override {
      bank_->stage_many(lane_, senders);
    }

    std::size_t stage_bernoulli_pow2(std::span<const NodeId> candidates,
                                     std::int32_t i, PacketId /*id*/,
                                     Rng& rng) override {
      return bank_->stage_bernoulli_pow2(lane_, candidates, i, rng);
    }

   private:
    LockstepNetwork* bank_;
    int lane_;
  };

  LanePort port(int lane) {
    NRN_EXPECTS(lane >= 0 && lane < lanes_, "lane out of range");
    return LanePort(*this, lane);
  }

  /// Executes one synchronized round for every lane whose bit is set in
  /// `lanes` (bit l = lane l).  Lanes outside the mask must have staged
  /// nothing (a finished trial neither stages nor advances its clock).
  void run_round(unsigned lanes);

  /// Last round's deliveries of one lane, ascending receiver ids.  Valid
  /// until the lane's next executed round.
  std::span<const NodeId> receivers(int lane) const {
    NRN_EXPECTS(lane >= 0 && lane < lanes_, "lane out of range");
    return receivers_[static_cast<std::size_t>(lane)];
  }

  /// Last executed round's stats of one lane (same fields, same counting
  /// rules as RadioNetwork::last_round).
  const RoundStats& last_round(int lane) const {
    NRN_EXPECTS(lane >= 0 && lane < lanes_, "lane out of range");
    return stats_[static_cast<std::size_t>(lane)];
  }

 private:
  /// Applies the lane's batched sender/receiver fault coins to its
  /// delivery candidates, filling receivers_[lane].
  void resolve_lane(int lane);

  /// The SINR round body: shared touch pass plus one ascending row walk
  /// per touched listener resolving all lanes at once.  Fills receivers_
  /// directly (no coin resolve follows).
  void run_round_sinr();

  const graph::Graph* graph_;
  ChannelModel channel_;
  bool sender_coins_ = false;
  bool receiver_coins_ = false;
  std::uint64_t sender_threshold_ = 0;
  std::uint64_t receiver_threshold_ = 0;

  // SINR channel state: same listener-row gain table as the scalar engine
  // (radio/sinr_gain.hpp), built lazily and reused across resets with
  // unchanged parameters.
  const graph::Geometry* geometry_ = nullptr;
  bool gain_table_valid_ = false;
  std::vector<std::int64_t> gain_row_;
  std::vector<double> gain_;

  int lanes_ = 0;
  std::array<Rng, kMaxLanes> rng_;
  std::array<std::uint64_t, kMaxLanes> sender_salt_{};
  std::array<std::uint64_t, kMaxLanes> receiver_salt_{};
  std::array<std::vector<NodeId>, kMaxLanes> plan_;        // staged senders
  std::array<std::vector<NodeId>, kMaxLanes> cand_recv_;   // unique listeners
  std::array<std::vector<NodeId>, kMaxLanes> cand_send_;   // their sole sender
  std::array<std::vector<NodeId>, kMaxLanes> receivers_;   // post-coin output
  std::array<RoundStats, kMaxLanes> stats_{};

  // Shared per-node round scratch: which lanes this node broadcasts in,
  // and the once/twice touch masks of the shared adjacency pass.  once_ and
  // twice_ are cleared for free during the delivery scan; bcast_mask_ via
  // the union list.
  std::vector<LaneMask> bcast_mask_;
  std::vector<LaneMask> once_;
  std::vector<LaneMask> twice_;
  // sole_sender_[v * kMaxLanes + l]: the sender behind lane l's first touch
  // of listener v this round (only read where the delivery mask has bit l).
  // Maintained only when sender coins are in play -- it exists to key the
  // sender fault coin, so a receiver-only or fault-free bank skips it.
  std::vector<NodeId> sole_sender_;
  std::vector<NodeId> union_;  // nodes staged in >= 1 lane, staging order
  // Full-width batched coin mixes of one lane's candidates (resolve_lane).
  std::vector<std::uint64_t> send_mix_;
  std::vector<std::uint64_t> recv_mix_;
};

}  // namespace nrn::radio
