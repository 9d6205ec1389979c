#include "core/runner_support.hpp"

#include "comm/collectives.hpp"
#include "core/easgd_rules.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "tensor/ops.hpp"

namespace ds::detail {

RunResult start_result(std::string method, std::size_t workers) {
  RunResult res;
  res.method = std::move(method);
  res.workers = workers;
  res.workers_survived = workers;
  return res;
}

void record_point(RunResult& res, TracePoint p, std::size_t iteration,
                  double vtime) {
  p.iteration = iteration;
  p.vtime = vtime;
  res.trace.push_back(p);
}

void finish(RunResult& res, double vtime, std::size_t iterations,
            std::span<const float> final_params) {
  res.total_seconds = vtime;
  res.iterations = iterations;
  res.final_params.assign(final_params.begin(), final_params.end());
  if (!res.trace.empty()) {
    res.final_accuracy = res.trace.back().accuracy;
    res.final_loss = res.trace.back().loss;
  }
}

// A collective over P participants delivers P-1 point-to-point messages per
// direction whatever the schedule (a binomial tree only shortens the
// critical path), and a per-layer layout splits each hop into one message
// per learnable tensor — callers fold both into messages_per_iter.
void apply_modeled_wire(RunResult& res, double messages_per_iter,
                        double bytes_per_iter) {
  const double iters = static_cast<double>(res.iterations);
  res.messages_sent = static_cast<std::uint64_t>(messages_per_iter * iters);
  res.bytes_sent = static_cast<std::uint64_t>(bytes_per_iter * iters);
  obs::metrics()
      .counter(obs::names::kCommMessagesModeled)
      .add(res.messages_sent);
  obs::metrics().counter(obs::names::kCommBytesModeled).add(res.bytes_sent);
}

ReplicaSet::ReplicaSet(const AlgoContext& ctx, std::size_t count,
                       std::uint64_t seed_base) {
  DS_CHECK(count > 0, "need at least one worker");
  nets.reserve(count);
  samplers.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    nets.push_back(ctx.factory());
    if (i > 0) nets[i]->copy_params_from(*nets[0]);
    samplers.emplace_back(*ctx.train, ctx.config.batch_size, seed_base + i);
  }
}

void ReplicaSet::compute_gradient(std::size_t j) {
  samplers[j].next(batch, labels);
  nets[j]->zero_grads();
  nets[j]->forward_backward(batch, labels);
}

void sync_easgd_round(ReplicaSet& w, std::span<float> center, float lr,
                      float rho) {
  for (std::size_t j = 0; j < w.nets.size(); ++j) w.compute_gradient(j);
  w.views.clear();
  for (auto& net : w.nets) w.views.push_back(net->arena().full_params());
  w.sum.resize(center.size());
  reduce_sum(w.views, w.sum);
  for (auto& net : w.nets) {
    easgd_worker_step(net->arena().full_params(), net->arena().full_grads(),
                      center, lr, rho);
  }
  easgd_center_step_sum(center, w.sum, w.nets.size(), lr, rho);
}

void allreduce_mean_sgd(ReplicaSet& w, float lr) {
  const float inv_count = 1.0f / static_cast<float>(w.nets.size());
  const std::size_t layer_count = w.nets[0]->arena().layer_count();
  for (std::size_t l = 0; l < layer_count; ++l) {
    const std::size_t n = w.nets[0]->arena().layer_grads(l).size();
    if (n == 0) continue;
    w.views.clear();
    for (auto& net : w.nets) w.views.push_back(net->arena().layer_grads(l));
    w.sum.resize(n);
    reduce_sum(w.views, w.sum);
    scale(inv_count, w.sum);
    for (auto& net : w.nets) {
      copy(w.sum, net->arena().layer_grads(l));
      sgd_step(net->arena().layer_params(l), net->arena().layer_grads(l), lr);
    }
  }
}

}  // namespace ds::detail
