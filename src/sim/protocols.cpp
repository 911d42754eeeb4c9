// Built-in protocol adapters: the library's broadcast algorithms wrapped
// behind the uniform BroadcastProtocol interface and registered by name,
// together with each protocol's capabilities and its theory bound (the
// paper's asymptotic round count, Theta-constants dropped, evaluated on the
// concrete scenario so reports can emit gap-vs-theory columns).  This file
// is the single place where protocol names meet concrete types.
#include <cmath>

#include "core/bipartite_pipeline.hpp"
#include "core/decay.hpp"
#include "core/erasure_broadcast.hpp"
#include "core/fastbc.hpp"
#include "core/greedy_router.hpp"
#include "core/multi_message.hpp"
#include "core/robust_fastbc.hpp"
#include "sim/registry.hpp"
#include "sim/theory_bounds.hpp"

namespace nrn::sim {

namespace {

using bounds::depth;
using bounds::kd;
using bounds::log2n;
using bounds::loglog2n;
using bounds::loss_factor;

// ----------------------------------------------------------- the adapters

class DecayProtocol final : public BroadcastProtocol {
 public:
  explicit DecayProtocol(const ProtocolContext& ctx)
      : source_(ctx.scenario.source),
        node_count_(ctx.graph.node_count()),
        effective_loss_(ctx.scenario.channel.effective_loss()),
        algo_(core::DecayParams{ctx.tuning.decay_phase,
                                ctx.tuning.max_rounds}) {}

  const std::string& name() const override {
    static const std::string n = "decay";
    return n;
  }

  Outcome run(radio::RadioNetwork& net, Rng& rng,
              radio::TraceRecorder* trace) const override {
    return Outcome::from(algo_.run(net, source_, rng, trace));
  }

  std::unique_ptr<core::RoundStepper> make_stepper(
      radio::TraceRecorder* trace) const override {
    return algo_.make_stepper(node_count_, source_, effective_loss_, trace);
  }

 private:
  graph::NodeId source_;
  std::int32_t node_count_;
  double effective_loss_;
  core::Decay algo_;
};

class FastbcProtocol final : public BroadcastProtocol {
 public:
  explicit FastbcProtocol(const ProtocolContext& ctx)
      : effective_loss_(ctx.scenario.channel.effective_loss()),
        algo_(ctx.graph, ctx.scenario.source,
              core::FastbcParams{ctx.tuning.rank_modulus,
                                 ctx.tuning.decay_phase,
                                 ctx.tuning.max_rounds}) {}

  const std::string& name() const override {
    static const std::string n = "fastbc";
    return n;
  }

  Outcome run(radio::RadioNetwork& net, Rng& rng,
              radio::TraceRecorder* trace) const override {
    return Outcome::from(algo_.run(net, rng, trace));
  }

  std::unique_ptr<core::RoundStepper> make_stepper(
      radio::TraceRecorder* trace) const override {
    return algo_.make_stepper(effective_loss_, trace);
  }

 private:
  double effective_loss_;
  core::Fastbc algo_;
};

core::RobustFastbcParams robust_params(const ProtocolContext& ctx) {
  core::RobustFastbcParams params;
  params.block_size = ctx.tuning.block_size;
  params.rank_modulus = ctx.tuning.rank_modulus;
  params.decay_phase = ctx.tuning.decay_phase;
  params.max_rounds = ctx.tuning.max_rounds;
  // The paper's "sufficiently large constant c" depends on the loss rate;
  // size the window for the scenario's fault model unless overridden.
  params.window_multiplier =
      ctx.tuning.window_multiplier != 0
          ? ctx.tuning.window_multiplier
          : core::RobustFastbc::recommended_window_multiplier(
                ctx.scenario.channel.effective_loss());
  return params;
}

class RobustFastbcProtocol final : public BroadcastProtocol {
 public:
  explicit RobustFastbcProtocol(const ProtocolContext& ctx)
      : effective_loss_(ctx.scenario.channel.effective_loss()),
        algo_(ctx.graph, ctx.scenario.source, robust_params(ctx)) {}

  const std::string& name() const override {
    static const std::string n = "robust";
    return n;
  }

  Outcome run(radio::RadioNetwork& net, Rng& rng,
              radio::TraceRecorder* trace) const override {
    return Outcome::from(algo_.run(net, rng, trace));
  }

  std::unique_ptr<core::RoundStepper> make_stepper(
      radio::TraceRecorder* trace) const override {
    return algo_.make_stepper(effective_loss_, trace);
  }

 private:
  double effective_loss_;
  core::RobustFastbc algo_;
};

core::MultiMessageParams rlnc_params(const ProtocolContext& ctx,
                                     core::MultiPattern pattern,
                                     std::size_t block_len) {
  core::MultiMessageParams params;
  params.k = static_cast<std::size_t>(ctx.scenario.k);
  params.block_len = block_len;
  params.pattern = pattern;
  params.decay_phase = ctx.tuning.decay_phase;
  params.block_size = ctx.tuning.block_size;
  params.window_multiplier = ctx.tuning.window_multiplier;
  params.max_rounds = ctx.tuning.max_rounds;
  return params;
}

class RlncProtocol final : public BroadcastProtocol {
 public:
  RlncProtocol(const ProtocolContext& ctx, core::MultiPattern pattern,
               std::string name)
      : name_(std::move(name)),
        algo_(ctx.graph, ctx.scenario.source, rlnc_params(ctx, pattern, 0)) {}

  const std::string& name() const override { return name_; }

  Outcome run(radio::RadioNetwork& net, Rng& rng,
              radio::TraceRecorder* /*trace*/) const override {
    return Outcome::from(algo_.run(net, rng));
  }

 private:
  std::string name_;
  core::RlncBroadcast algo_;
};

/// Payload length for verified runs: tuning override or 16 bytes/message.
std::size_t verified_block_len(const ProtocolContext& ctx) {
  return ctx.tuning.payload_len > 0
             ? static_cast<std::size_t>(ctx.tuning.payload_len)
             : 16;
}

/// Deterministic per-trial payloads, drawn from the trial's algo stream so
/// a trial is reproducible from its recorded seeds alone.
std::vector<std::vector<std::uint8_t>> draw_payloads(std::size_t k,
                                                     std::size_t block_len,
                                                     Rng& rng) {
  std::vector<std::vector<std::uint8_t>> messages(
      k, std::vector<std::uint8_t>(block_len));
  for (auto& m : messages)
    for (auto& byte : m)
      byte = static_cast<std::uint8_t>(rng.next_below(256));
  return messages;
}

/// The kVerifiedPayload run shape shared by the RLNC and erasure variants:
/// draw payloads, run-and-verify, report the bytes certified.
template <typename RunFn>
Outcome verified_outcome(std::size_t k, std::size_t block_len,
                         std::int64_t nodes, Rng& rng, RunFn&& run_fn) {
  const auto messages = draw_payloads(k, block_len, rng);
  Outcome out = Outcome::from(run_fn(messages));
  const std::int64_t bytes =
      out.completed ? nodes * static_cast<std::int64_t>(k * block_len) : 0;
  out.set("verified_bytes", bytes);
  return out;
}

class VerifiedRlncProtocol final : public BroadcastProtocol {
 public:
  VerifiedRlncProtocol(const ProtocolContext& ctx, core::MultiPattern pattern,
                       std::string name)
      : name_(std::move(name)),
        nodes_(ctx.graph.node_count()),
        k_(static_cast<std::size_t>(ctx.scenario.k)),
        block_len_(verified_block_len(ctx)),
        algo_(ctx.graph, ctx.scenario.source,
              rlnc_params(ctx, pattern, verified_block_len(ctx))) {}

  const std::string& name() const override { return name_; }

  Outcome run(radio::RadioNetwork& net, Rng& rng,
              radio::TraceRecorder* /*trace*/) const override {
    return verified_outcome(k_, block_len_, nodes_, rng,
                            [&](const auto& messages) {
                              return algo_.run_and_verify(net, rng, messages);
                            });
  }

 private:
  std::string name_;
  std::int64_t nodes_;
  std::size_t k_;
  std::size_t block_len_;
  core::RlncBroadcast algo_;
};

class ErasureProtocol final : public BroadcastProtocol {
 public:
  explicit ErasureProtocol(const ProtocolContext& ctx)
      : nodes_(ctx.graph.node_count()),
        k_(static_cast<std::size_t>(ctx.scenario.k)),
        block_len_(verified_block_len(ctx)),
        algo_(ctx.graph, ctx.scenario.source, erasure_params(ctx)) {}

  const std::string& name() const override {
    static const std::string n = "erasure-decay";
    return n;
  }

  Outcome run(radio::RadioNetwork& net, Rng& rng,
              radio::TraceRecorder* /*trace*/) const override {
    return verified_outcome(k_, block_len_, nodes_, rng,
                            [&](const auto& messages) {
                              return algo_.run_and_verify(net, rng, messages);
                            });
  }

 private:
  static core::ErasureParams erasure_params(const ProtocolContext& ctx) {
    // The GF(256) domain caps k + slack at 255; surface that as a spec
    // error (the scenario asked for more than the protocol can encode),
    // not a contract violation deep inside a trial.
    core::ErasureParams params;
    params.k = static_cast<std::size_t>(ctx.scenario.k);
    params.block_len = verified_block_len(ctx);
    params.decay_phase = ctx.tuning.decay_phase;
    params.max_rounds = ctx.tuning.max_rounds;
    if (core::ErasureBroadcast::default_packet_count(
            ctx.graph.node_count(), ctx.scenario.k) > 255)
      throw SpecError("erasure-decay: k + Chernoff slack exceeds the "
                      "GF(256) packet domain of 255 coded packets");
    return params;
  }

  std::int64_t nodes_;
  std::size_t k_;
  std::size_t block_len_;
  core::ErasureBroadcast algo_;
};

class PipelineProtocol final : public BroadcastProtocol {
 public:
  explicit PipelineProtocol(const ProtocolContext& ctx)
      : source_(ctx.scenario.source) {
    params_.k = ctx.scenario.k;
    params_.batch = ctx.tuning.batch;
    params_.decay_phase = ctx.tuning.decay_phase;
  }

  const std::string& name() const override {
    static const std::string n = "pipeline";
    return n;
  }

  Outcome run(radio::RadioNetwork& net, Rng& rng,
              radio::TraceRecorder* /*trace*/) const override {
    return Outcome::from(
        core::run_layered_pipeline_routing(net, source_, params_, rng));
  }

 private:
  graph::NodeId source_;
  core::PipelineParams params_;
};

class GreedyRouterProtocol final : public BroadcastProtocol {
 public:
  explicit GreedyRouterProtocol(const ProtocolContext& ctx)
      : source_(ctx.scenario.source) {
    params_.k = ctx.scenario.k;
    params_.max_rounds = ctx.tuning.max_rounds;
  }

  const std::string& name() const override {
    static const std::string n = "greedy";
    return n;
  }

  Outcome run(radio::RadioNetwork& net, Rng& /*rng*/,
              radio::TraceRecorder* /*trace*/) const override {
    // The greedy router is deterministic given the network's fault tape.
    return Outcome::from(
        core::run_greedy_adaptive_routing(net, source_, params_));
  }

 private:
  graph::NodeId source_;
  core::GreedyRouterParams params_;
};

// ------------------------------------------------------------- the bounds

double decay_bound(const TheoryContext& ctx) {
  // Lemma 9: O((D + log n) log n), inflated by the loss rate.
  return (depth(ctx) + log2n(ctx)) * log2n(ctx) * loss_factor(ctx);
}

double fastbc_bound(const TheoryContext& ctx) {
  // Lemma 8 (faultless): D + O(log^2 n).
  return depth(ctx) + log2n(ctx) * log2n(ctx);
}

double robust_bound(const TheoryContext& ctx) {
  // Theorem 11: O(D + log^2 n) under constant noise.
  return (depth(ctx) + log2n(ctx) * log2n(ctx)) * loss_factor(ctx);
}

double rlnc_decay_bound(const TheoryContext& ctx) {
  // Lemma 12: O(D log n + k log n + log^2 n).
  return ((depth(ctx) + kd(ctx)) * log2n(ctx) + log2n(ctx) * log2n(ctx)) *
         loss_factor(ctx);
}

double rlnc_robust_bound(const TheoryContext& ctx) {
  // Lemma 13: O(D + (k + log n) log n loglog n).
  return (depth(ctx) +
          (kd(ctx) + log2n(ctx)) * log2n(ctx) * loglog2n(ctx)) *
         loss_factor(ctx);
}

double routing_pipeline_bound(const TheoryContext& ctx) {
  // Lemmas 20-22: adaptive routing pays Theta(log^2 n) per message on the
  // hard topologies.
  return (depth(ctx) + kd(ctx) * log2n(ctx) * log2n(ctx)) * loss_factor(ctx);
}

}  // namespace

void register_builtin_protocols(ProtocolRegistry& registry) {
  registry.add("decay", "Decay (Lemma 9): topology-oblivious, noise-robust",
               kTraced | kSinrCapable,
               [](const ProtocolContext& ctx) {
                 return std::make_unique<DecayProtocol>(ctx);
               },
               decay_bound);
  registry.add("fastbc",
               "FASTBC (Lemma 8): known-topology, D + O(log^2 n), fragile "
               "under noise",
               kTraced | kSinrCapable,
               [](const ProtocolContext& ctx) {
                 return std::make_unique<FastbcProtocol>(ctx);
               },
               fastbc_bound);
  registry.add("robust",
               "Robust FASTBC (Theorem 11): noise-robust diameter-linear",
               kTraced | kSinrCapable,
               [](const ProtocolContext& ctx) {
                 return std::make_unique<RobustFastbcProtocol>(ctx);
               },
               robust_bound);
  registry.add("rlnc-decay",
               "RLNC over the Decay pattern (Lemma 12): k-message coding",
               kMultiMessage | kSinrCapable,
               [](const ProtocolContext& ctx) {
                 return std::make_unique<RlncProtocol>(
                     ctx, core::MultiPattern::kDecay, "rlnc-decay");
               },
               rlnc_decay_bound);
  registry.add("rlnc-robust",
               "RLNC over the Robust FASTBC pattern (Lemma 13)",
               kMultiMessage | kSinrCapable,
               [](const ProtocolContext& ctx) {
                 return std::make_unique<RlncProtocol>(
                     ctx, core::MultiPattern::kRobustFastbc, "rlnc-robust");
               },
               rlnc_robust_bound);
  registry.add("rlnc-decay-verified",
               "Lemma 12 composition carrying real payloads; every node's "
               "decode is checked against the source bytes",
               kMultiMessage | kVerifiedPayload | kSinrCapable,
               [](const ProtocolContext& ctx) {
                 return std::make_unique<VerifiedRlncProtocol>(
                     ctx, core::MultiPattern::kDecay, "rlnc-decay-verified");
               },
               rlnc_decay_bound);
  registry.add("rlnc-robust-verified",
               "Lemma 13 composition carrying real payloads; every node's "
               "decode is checked against the source bytes",
               kMultiMessage | kVerifiedPayload | kSinrCapable,
               [](const ProtocolContext& ctx) {
                 return std::make_unique<VerifiedRlncProtocol>(
                     ctx, core::MultiPattern::kRobustFastbc,
                     "rlnc-robust-verified");
               },
               rlnc_robust_bound);
  registry.add("erasure-decay",
               "Source-side RS/GF(256) erasure coding over the Decay "
               "pattern (arXiv:1805.04165), payload-verified",
               kMultiMessage | kVerifiedPayload | kSinrCapable,
               [](const ProtocolContext& ctx) {
                 return std::make_unique<ErasureProtocol>(ctx);
               },
               rlnc_decay_bound);
  registry.add("pipeline",
               "Layered adaptive-routing pipeline (Lemmas 20-21)",
               kMultiMessage | kSinrCapable,
               [](const ProtocolContext& ctx) {
                 return std::make_unique<PipelineProtocol>(ctx);
               },
               routing_pipeline_bound);
  registry.add("greedy",
               "Greedy centralized adaptive router (Definition 14)",
               kMultiMessage | kSinrCapable,
               [](const ProtocolContext& ctx) {
                 return std::make_unique<GreedyRouterProtocol>(ctx);
               },
               routing_pipeline_bound);
}

}  // namespace nrn::sim
