#include "core/knl_algorithms.hpp"

#include "comm/collectives.hpp"
#include "core/evaluator.hpp"
#include "core/runner_support.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"

namespace ds {

RunResult run_cluster_sync_easgd(const AlgoContext& ctx,
                                 const ClusterTiming& timing) {
  const TrainConfig& cfg = ctx.config;
  const obs::RankScope obs_rank(0);
  DS_TRACE_SPAN("algo", "run_cluster_sync_easgd");
  // Each node draws from its own local data copy with its own stream
  // (Algorithm 4 line 10: "KNL_j randomly pick b samples from local
  // memory").
  detail::ReplicaSet nodes(ctx, cfg.workers, cfg.seed * 15485863);
  Evaluator eval(ctx.factory, *ctx.test, cfg.eval_samples);

  std::vector<float> center(nodes.nets[0]->arena().full_params().begin(),
                            nodes.nets[0]->arena().full_params().end());

  RunResult res = detail::start_result(
      "Comm-Efficient EASGD (KNL, Algorithm 4)", cfg.workers);

  // Per-iteration costs: local compute, packed tree broadcast + reduction
  // over the inter-node network, local updates. No host<->device data
  // copies — the data is node-local (line 1).
  const double fb_s = static_cast<double>(cfg.batch_size) *
                      timing.model.flops_per_sample / timing.node_flops;
  const double comm_s = 2.0 * static_cast<double>(tree_rounds(cfg.workers)) *
                        timing.network.transfer_seconds(
                            timing.model.weight_bytes);
  const double params = timing.model.weight_bytes / 4.0;
  const double up_s =
      params * timing.update_flops_per_param / timing.node_flops;

  double vtime = 0.0;
  for (std::size_t t = 1; t <= cfg.iterations; ++t) {
    detail::sync_easgd_round(nodes, center, cfg.lr_at(t), cfg.rho);

    double tc = vtime;
    tc += fb_s;
    res.ledger.charge_traced(Phase::kForwardBackward, fb_s, tc);
    tc += comm_s;
    res.ledger.charge_traced(Phase::kGpuGpuParamComm, comm_s, tc);
    tc += up_s;
    res.ledger.charge_traced(Phase::kGpuUpdate, up_s, tc);
    tc += up_s;
    res.ledger.charge_traced(Phase::kCpuUpdate, up_s, tc);
    vtime += fb_s + comm_s + 2.0 * up_s;

    if (detail::probe_due(t, cfg.eval_every, cfg.iterations)) {
      detail::record_point(res, eval.evaluate_packed(center), t, vtime);
    }
  }
  detail::finish(res, vtime, cfg.iterations, center);
  // Tree broadcast + reduce over the nodes: workers-1 messages each way.
  const double hops = 2.0 * static_cast<double>(cfg.workers - 1);
  detail::apply_modeled_wire(res, hops, hops * timing.model.weight_bytes);
  return res;
}

KnlPartitionResult run_knl_partition(const AlgoContext& ctx,
                                     const KnlChip& chip,
                                     const KnlPartitionConfig& pcfg) {
  const TrainConfig& cfg = ctx.config;
  const obs::RankScope obs_rank(0);
  DS_TRACE_SPAN("algo", "run_knl_partition");
  DS_CHECK(pcfg.parts > 0, "need at least one partition");
  detail::ReplicaSet parts(ctx, pcfg.parts, cfg.seed * 15485863);
  Evaluator eval(ctx.factory, *ctx.test, cfg.eval_samples);

  KnlPartitionResult result;
  result.parts = pcfg.parts;
  result.run = detail::start_result(
      "KNL partition P=" + std::to_string(pcfg.parts), pcfg.parts);

  const double bytes_per_sample =
      pcfg.paper_model.flops_per_sample / pcfg.arithmetic_intensity;
  result.round_seconds = chip.round_seconds(
      pcfg.parts, cfg.batch_size, pcfg.paper_model.flops_per_sample,
      bytes_per_sample, pcfg.paper_model.weight_bytes, pcfg.data_copy_bytes);
  result.footprint_gb =
      chip.footprint_bytes(pcfg.parts, pcfg.paper_model.weight_bytes,
                           pcfg.data_copy_bytes) /
      (1024.0 * 1024.0 * 1024.0);
  result.bandwidth_gbs =
      chip.effective_bandwidth(pcfg.parts, pcfg.paper_model.weight_bytes,
                               pcfg.data_copy_bytes) /
      1.0e9;

  const float lr_scale = pcfg.scale_lr_with_parts
                             ? static_cast<float>(pcfg.parts)
                             : 1.0f;

  double vtime = 0.0;
  for (std::size_t round = 1; round <= pcfg.max_rounds; ++round) {
    // Divide: every partition computes a gradient on its own batch.
    for (std::size_t j = 0; j < pcfg.parts; ++j) parts.compute_gradient(j);
    // Conquer: tree-sum the gradients; every partition gets the sum and
    // updates its own weight copy (§6.2) — copies stay bit-identical.
    detail::allreduce_mean_sgd(parts, cfg.lr_at(round) * lr_scale);

    vtime += result.round_seconds;
    result.run.ledger.charge_traced(Phase::kForwardBackward,
                                    result.round_seconds, vtime);

    if (detail::probe_due(round, cfg.eval_every, pcfg.max_rounds)) {
      detail::record_point(result.run, eval.evaluate(parts.nets[0]->arena()),
                           round, vtime);
      result.rounds = round;
      if (result.run.trace.back().accuracy >= pcfg.target_accuracy) {
        result.reached_target = true;
        result.seconds_to_target = vtime;
        break;
      }
    }
  }
  if (!result.reached_target) result.seconds_to_target = vtime;
  detail::finish(result.run, vtime, result.rounds, {});
  return result;
}

}  // namespace ds
