// Hub schedules: the star (paper Section 5.1.1) and the single link
// (Appendix A), which is the star with one leaf.
//
// Receiver faults turn the star into the paper's cleanest coding-gap
// witness:
//   * adaptive routing (Lemma 15): the hub broadcasts message i until every
//     leaf has it; the last of n leaves costs ~log_{1/p} n rounds per
//     message, so throughput is Theta(1/log n);
//   * Reed-Solomon coding (Lemma 16): the hub streams m coded packets such
//     that every leaf collects >= k of them w.h.p.; m = O(k + log n), so
//     throughput is Theta(1);
//   * non-adaptive routing repeats each message a fixed count (used by the
//     adaptivity ablation).
//
// On the single link (two nodes, one edge) with constant fault probability:
//   * non-adaptive routing must repeat each message Theta(log k) times to
//     push the failure probability below 1/k (Lemma 29): throughput
//     Theta(1/log k);
//   * Reed-Solomon coding streams ~k/(1-p) packets (Lemma 30): Theta(1);
//   * adaptive routing resends each message until acknowledged (Lemma 32):
//     Theta(1).
// The Theta(log k) non-adaptive gap disappears under adaptivity (Lemma 33),
// which is why the paper proves its main gaps against *adaptive* routing.
//
// Every schedule reads the star from the network: node 0 is the hub and
// nodes 1..n-1 are the leaves (graph::make_star; make_star(1) is the link).
// Each run checks once that the network's graph is such a star.  All
// schedules run in counting mode (packet ids, no payloads); the RS
// any-k-of-m property is exercised with real payloads by the coding tests.
#pragma once

#include <cstdint>

#include "core/run_result.hpp"
#include "radio/network.hpp"

namespace nrn::core {

/// Lemma 15's achievable side (Lemma 32 on the link).  Sends messages
/// 0..k-1 in order, each until all leaves received it (the hub adapts using
/// full reception feedback).
MultiRunResult run_star_adaptive_routing(radio::RadioNetwork& net,
                                         std::int64_t k,
                                         std::int64_t max_rounds);

/// Non-adaptive routing (Lemma 29 on the link): each message exactly `reps`
/// times.  completed = every leaf got every message.
MultiRunResult run_star_nonadaptive_routing(radio::RadioNetwork& net,
                                            std::int64_t k, std::int64_t reps);

/// Lemma 16's coded schedule (Lemma 30 on the link): the hub streams
/// `packet_count` distinct coded packets; completed = every leaf received
/// at least k distinct packets (the Reed-Solomon reconstruction condition).
MultiRunResult run_star_rs_coding(radio::RadioNetwork& net, std::int64_t k,
                                  std::int64_t packet_count);

/// Packet count sufficient for the coded schedule to succeed w.h.p.:
/// (k + Chernoff slack for failure probability ~1/(nk)) / (1 - p), where n
/// is the receiver count the union bound covers.  The star adapter passes
/// its node count; the link's Lemma 30 count is rs_packet_count(k, 1, p).
std::int64_t rs_packet_count(std::int64_t k, std::int32_t n, double p);

/// Lemma 29's repetition count, which makes the non-adaptive link schedule
/// succeed with probability >= 1 - 1/k: ceil(2 ln k / ln(1/p)) + 1 (union
/// bound).
std::int64_t link_nonadaptive_reps(std::int64_t k, double p);

}  // namespace nrn::core
