// Scaffolding shared by the training runners (sync, KNL, async, fabric):
// the probe rule, result finishing, modeled wire accounting, and the
// replica set plus round bodies of the modeled data-parallel runners.
// Internal to src/core — nothing here is part of the public API.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/context.hpp"
#include "core/run_result.hpp"
#include "data/sampler.hpp"

namespace ds::detail {

/// The one probe rule every runner traces by: every eval_every-th round,
/// and the last one.
inline bool probe_due(std::size_t round, std::size_t every,
                      std::size_t last) {
  return round % every == 0 || round == last;
}

/// A result that starts with all `workers` alive.
RunResult start_result(std::string method, std::size_t workers);

/// Append probe `p`, stamped (iteration, vtime), to the trace.
void record_point(RunResult& res, TracePoint p, std::size_t iteration,
                  double vtime);

/// Close a run: virtual end time, completed iterations, final center
/// weights (empty when the run has no packed center), and the final
/// accuracy/loss of the last trace point.
void finish(RunResult& res, double vtime, std::size_t iterations,
            std::span<const float> final_params);

/// Wire accounting for the modeled methods: per-iteration message/byte
/// counts times the completed iterations, also added to the registry's
/// modeled-comm counters.
void apply_modeled_wire(RunResult& res, double messages_per_iter,
                        double bytes_per_iter);

/// Worker replicas of a modeled run: one network + one batch sampler per
/// simulated device, all initialised to replica 0's weights ("copy W to
/// W_j", Algorithm 1). Replica i samples with seed `seed_base + i`.
struct ReplicaSet {
  ReplicaSet(const AlgoContext& ctx, std::size_t count,
             std::uint64_t seed_base);

  /// One gradient step's worth of real math on replica j: sample, zero
  /// grads, forward+backward.
  void compute_gradient(std::size_t j);

  std::vector<std::unique_ptr<Network>> nets;
  std::vector<BatchSampler> samplers;
  Tensor batch;
  std::vector<std::int32_t> labels;
  std::vector<std::span<const float>> views;  // reduction scratch
  std::vector<float> sum;                     // reduction scratch
};

/// One Sync EASGD round (Algorithms 2–4): every replica computes its
/// gradient, Σ W_j (pre-update weights) reduces in replica order, every
/// replica applies Eq. (1) against `center`, then the center applies
/// Eq. (2) against the sum.
void sync_easgd_round(ReplicaSet& w, std::span<float> center, float lr,
                      float rho);

/// Data-parallel step: every replica's gradients become their mean
/// (layer by layer, replica-order sums), then each replica takes an SGD
/// step of `lr`. Per-layer, so per-layer arenas work too.
void allreduce_mean_sgd(ReplicaSet& w, float lr);

}  // namespace ds::detail
