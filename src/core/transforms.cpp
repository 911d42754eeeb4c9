#include "core/transforms.hpp"

#include <cmath>

namespace nrn::core {

std::vector<BaseAction> PathPipelineBaseSchedule::actions(
    std::int64_t r) const {
  // Node j relays message m at base round 3m + j.
  std::vector<BaseAction> out;
  // j = r - 3m with 0 <= j < n-1 (the last node never relays forward).
  for (std::int64_t m = std::max<std::int64_t>(0, (r - (n_ - 2) + 2) / 3);
       m <= std::min<std::int64_t>(k0_ - 1, r / 3); ++m) {
    const std::int64_t j = r - 3 * m;
    if (j >= 0 && j < n_ - 1) out.emplace_back(static_cast<radio::NodeId>(j), m);
  }
  return out;
}

namespace {

std::int64_t meta_length(const TransformParams& params, double p) {
  return static_cast<std::int64_t>(
      std::ceil(static_cast<double>(params.x) * (1.0 + params.eta) /
                (1.0 - p)));
}

}  // namespace

TransformResult run_routing_transform(radio::RadioNetwork& net,
                                      const BaseSchedule& base,
                                      const TransformParams& params,
                                      Rng& rng) {
  (void)rng;  // the routing transform is deterministic given the fault tape
  NRN_EXPECTS(params.x >= 1 && params.x <= 64,
              "x must fit the sub-message bitmask");
  const std::int32_t n = net.graph().node_count();
  const std::int64_t k0 = base.base_messages();
  const std::int64_t x = params.x;
  const std::int64_t T = meta_length(params, net.channel().effective_loss());

  // received[v][m] is a bitmask of sub-messages; node 0 knows everything.
  const auto full = x == 64 ? ~std::uint64_t{0}
                            : ((std::uint64_t{1} << x) - 1);
  std::vector<std::vector<std::uint64_t>> received(
      static_cast<std::size_t>(n),
      std::vector<std::uint64_t>(static_cast<std::size_t>(k0), 0));
  for (auto& m : received[0]) m = full;

  TransformResult out;
  out.meta_length = T;
  out.run.messages = k0 * x;
  bool cascade_ok = true;

  struct LiveAction {
    radio::NodeId node;
    std::int64_t msg;
    std::int64_t next_sub = 0;  // next sub-message to deliver
  };

  for (std::int64_t r = 0; r < base.rounds(); ++r) {
    std::vector<LiveAction> live;
    for (const auto& [b, m] : base.actions(r)) {
      if (received[static_cast<std::size_t>(b)][static_cast<std::size_t>(m)] !=
          full) {
        cascade_ok = false;  // the base schedule's premise failed upstream
        continue;
      }
      live.push_back(LiveAction{b, m, 0});
    }
    for (std::int64_t step = 0; step < T; ++step) {
      for (const auto& a : live)
        if (a.next_sub < x)
          net.set_broadcast(a.node, radio::PacketId{a.msg * x + a.next_sub});
      const auto& deliveries = net.run_round();
      ++out.run.rounds;
      for (const auto& d : deliveries) {
        const std::int64_t m = d.packet.id / x;
        const std::int64_t s = d.packet.id % x;
        received[static_cast<std::size_t>(d.receiver)]
                [static_cast<std::size_t>(m)] |= (std::uint64_t{1} << s);
        // Adaptive feedback: the sender observed a clean transmission.
        for (auto& a : live)
          if (a.node == d.sender && a.msg == m && a.next_sub == s)
            ++a.next_sub;
      }
    }
    for (const auto& a : live)
      if (a.next_sub < x) cascade_ok = false;
  }

  bool all_know = cascade_ok;
  for (std::int32_t v = 0; v < n && all_know; ++v)
    for (std::int64_t m = 0; m < k0; ++m)
      if (received[static_cast<std::size_t>(v)][static_cast<std::size_t>(m)] !=
          full) {
        all_know = false;
        break;
      }
  out.run.completed = all_know;
  if (out.run.completed && out.run.rounds > 0)
    out.measured_throughput = static_cast<double>(out.run.messages) /
                              static_cast<double>(out.run.rounds);
  return out;
}

TransformResult run_coding_transform(radio::RadioNetwork& net,
                                     const BaseSchedule& base,
                                     const TransformParams& params, Rng& rng) {
  (void)rng;  // non-adaptive: all randomness is the network's fault tape
  NRN_EXPECTS(params.x >= 1, "x must be positive");
  const std::int32_t n = net.graph().node_count();
  const std::int64_t k0 = base.base_messages();
  const std::int64_t x = params.x;
  const std::int64_t T = meta_length(params, net.channel().effective_loss());

  std::vector<std::vector<char>> knows(
      static_cast<std::size_t>(n),
      std::vector<char>(static_cast<std::size_t>(k0), 0));
  for (auto& m : knows[0]) m = 1;

  TransformResult out;
  out.meta_length = T;
  out.run.messages = k0 * x;
  bool cascade_ok = true;

  std::vector<std::int64_t> count(static_cast<std::size_t>(n), 0);
  std::vector<std::int64_t> msg_of(static_cast<std::size_t>(n), -1);

  for (std::int64_t r = 0; r < base.rounds(); ++r) {
    std::vector<BaseAction> live;
    for (const auto& [b, m] : base.actions(r)) {
      if (!knows[static_cast<std::size_t>(b)][static_cast<std::size_t>(m)]) {
        cascade_ok = false;
        continue;
      }
      live.emplace_back(b, m);
    }
    std::fill(count.begin(), count.end(), 0);
    std::fill(msg_of.begin(), msg_of.end(), -1);
    for (std::int64_t step = 0; step < T; ++step) {
      // Non-adaptive: every live broadcaster streams for the whole
      // meta-round; the packet id names the base message.
      for (const auto& [b, m] : live) net.set_broadcast(b, radio::PacketId{m});
      const auto& deliveries = net.run_round();
      ++out.run.rounds;
      for (const auto& d : deliveries) {
        ++count[static_cast<std::size_t>(d.receiver)];
        msg_of[static_cast<std::size_t>(d.receiver)] = d.packet.id;
      }
    }
    // A receiver that caught >= x coded packets reconstructs the x
    // sub-instances of its neighbor's base message (any-x-of-T).
    for (std::int32_t v = 0; v < n; ++v) {
      if (count[static_cast<std::size_t>(v)] >= x &&
          msg_of[static_cast<std::size_t>(v)] >= 0) {
        knows[static_cast<std::size_t>(v)]
             [static_cast<std::size_t>(msg_of[static_cast<std::size_t>(v)])] =
                 1;
      }
    }
  }

  bool all_know = cascade_ok;
  for (std::int32_t v = 0; v < n && all_know; ++v)
    for (std::int64_t m = 0; m < k0; ++m)
      if (!knows[static_cast<std::size_t>(v)][static_cast<std::size_t>(m)]) {
        all_know = false;
        break;
      }
  out.run.completed = all_know;
  if (out.run.completed && out.run.rounds > 0)
    out.measured_throughput = static_cast<double>(out.run.messages) /
                              static_cast<double>(out.run.rounds);
  return out;
}

}  // namespace nrn::core
