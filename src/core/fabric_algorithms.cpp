#include "core/fabric_algorithms.hpp"

#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <sstream>

#include "comm/bucket.hpp"
#include "comm/fabric.hpp"
#include "core/easgd_rules.hpp"
#include "core/evaluator.hpp"
#include "core/runner_support.hpp"
#include "data/sampler.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor/monitor.hpp"
#include "obs/proto.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"
#include "tensor/ops.hpp"

namespace ds {
namespace {

/// Ranks that crashed (scheduled fault) end in kFailed; ranks that caught a
/// peer's failure and unwound cleanly end in kRetired like normal finishers.
std::size_t count_failed(const Fabric& fabric) {
  std::size_t failed = 0;
  for (std::size_t r = 0; r < fabric.ranks(); ++r) {
    if (fabric.state(r) == Fabric::RankState::kFailed) ++failed;
  }
  return failed;
}

/// Thread→virtual-clock binding for a fabric rank thread: lets span events
/// recorded on this thread stamp themselves with the rank's fabric clock.
struct RankClock {
  const Fabric* fabric;
  std::size_t rank;
  static double read(const void* ctx) {
    const RankClock* rc = static_cast<const RankClock*>(ctx);
    return rc->fabric->clock(rc->rank);
  }
};

/// A center snapshot pending evaluation after the rank threads join.
struct Probe {
  std::size_t iteration;
  double vtime;
  std::vector<float> center;
};

/// How a runner's ranks present themselves to the harness.
struct Roles {
  const char* center_span;  // rank 0's outer span
  const char* worker_span;  // every other rank's outer span
  const char* round_unit;   // "round"/"sweep" in the abort reason
  const char* center_name;  // who aborted, in a center run's abort reason
  // SPMD (Algorithm 4): every rank runs the same program, only rank 0's
  // clock feeds the ledger, and any rank's failure aborts the run.
  // Otherwise rank 0 is a dedicated center whose failure alone aborts the
  // run; a failing worker just drops out.
  bool spmd = false;
  // A failing center probes its partial progress (the sync-style abort);
  // the parameter server reports only the interactions it served.
  bool probe_on_abort = true;
};

/// One rank's own slot: written only by its thread, read by the harness
/// after the join, so no slot needs a lock.
struct Rank {
  Rank(Fabric& fabric_in, const TrainConfig& cfg_in, std::size_t id_in,
       bool charging_in)
      : fabric(fabric_in), cfg(cfg_in), id(id_in), charging(charging_in) {}
  Rank(const Rank&) = delete;  // its rank thread holds its address
  Rank& operator=(const Rank&) = delete;

  Fabric& fabric;
  const TrainConfig& cfg;
  std::size_t id;
  bool charging;  // this rank's clock advances feed the ledger
  double mark = 0.0;
  CostLedger ledger;
  std::vector<float> center;  // this rank's W̄ (rank 0's is THE center)
  std::size_t round = 0;      // round in progress, for the abort reason
  std::size_t completed = 0;  // center: rounds fully applied
  std::vector<Probe> probes;  // center: snapshots by the probe rule
  bool failed = false;
  RankFailure::Kind failure_kind = RankFailure::Kind::kCrashed;
  std::string failure;

  double clock() const { return fabric.clock(id); }
  void advance(double seconds) { fabric.advance(id, seconds); }

  /// Attribute the clock advance since the last charge to `phase`: under
  /// faults/stragglers the deltas include the real retransmit and wait
  /// costs rather than a modeled residual.
  void charge_delta(Phase phase) {
    if (!charging) return;
    const double now = clock();
    if (now > mark) ledger.charge_traced(phase, now - mark, now);
    mark = now;
  }

  /// Narrate a write of a parameter buffer for the protocol checker
  /// (proto.v1 "acc" event). Buffer ids name PHYSICAL buffers — the center
  /// copy that lives on rank 0 and each rank's local replica — so a clean
  /// run's accesses are totally ordered per buffer and only genuinely racy
  /// schedules flag.
  void narrate_write(double buffer) const {
    if (!obs::tracing_enabled()) return;
    obs::proto::emit_acc(static_cast<std::int64_t>(id), clock(), buffer,
                         obs::proto::kAccWrite);
  }
  void narrate_local_write() const {
    narrate_write(obs::proto::local_buffer(static_cast<std::int64_t>(id)));
  }

  void step_done(double step_seconds = obs::monitor::kDeriveStep) const {
    obs::monitor::hook_step(static_cast<std::int64_t>(id), clock(),
                            step_seconds);
  }

  /// Center: round t is applied; snapshot it by the shared probe rule.
  void round_done(std::size_t t) {
    completed = t;
    if (detail::probe_due(t, cfg.eval_every, cfg.iterations)) {
      probes.push_back(Probe{t, clock(), center});
    }
  }
};

/// The harness of the fabric runners. It owns the fabric, the rank threads
/// and their bindings, failure handling and the RunResult; a runner
/// supplies only its protocol body.
class FabricRun {
 public:
  FabricRun(const AlgoContext& ctx_in, const FabricClusterConfig& cluster,
            std::size_t ranks, Roles roles)
      : ctx(ctx_in),
        cfg(ctx_in.config),
        fabric(ranks, cluster.network, cluster.faults),
        // Per-iteration local costs charged to each rank's fabric clock;
        // the communication costs come from the fabric itself, message by
        // message.
        fb_s(static_cast<double>(cfg.batch_size) *
             cluster.model.flops_per_sample / cluster.node_flops),
        up_s((cluster.model.weight_bytes / 4.0) *
             cluster.update_flops_per_param / cluster.node_flops),
        roles_(roles),
        wire_before_(obs::metrics().snapshot()) {
    obs::monitor::hook_run_begin(static_cast<std::int64_t>(ranks));
    for (std::size_t id = 0; id < ranks; ++id) {
      ranks_.emplace_back(fabric, cfg, id, !roles.spmd || id == 0);
    }
    if (roles.spmd) return;
    // W̄₀ (and the layer geometry) from one reference replica.
    reference = ctx.factory();
    initial.assign(reference->arena().full_params().begin(),
                   reference->arena().full_params().end());
    ranks_[0].center = initial;
  }

  /// Run body(rank) on one thread per rank. A RankFailure — this rank
  /// crashed (kCrashed, already marked failed in the fabric) or a peer
  /// vanished mid-protocol (kPeerGone/kTimeout) — unwinds the body; the
  /// rank records it and retires so blocked peers cascade out.
  void run(const std::function<void(Rank&)>& body) {
    parallel_for_threads(ranks_.size(), [&](std::size_t id) {
      Rank& r = ranks_[id];
      const RankClock rank_clock{&fabric, id};
      const obs::RankScope obs_rank(static_cast<std::int64_t>(id),
                                    &RankClock::read, &rank_clock);
      const obs::SpanGuard span(
          "algo", id == 0 ? roles_.center_span : roles_.worker_span);
      r.mark = r.clock();
      try {
        body(r);
      } catch (const RankFailure& failure) {
        r.failed = true;
        r.failure_kind = failure.kind();
        r.failure = failure.what();
        if (id == 0 && roles_.probe_on_abort &&
            (r.probes.empty() || r.probes.back().iteration < r.completed)) {
          r.probes.push_back(Probe{r.completed, r.clock(), r.center});
        }
        obs::monitor::hook_failure(static_cast<std::int64_t>(id), r.clock(),
                                   failure.what());
      }
      fabric.retire(id);
    });
    obs::monitor::hook_run_finalize(fabric.max_clock());
  }

  /// Assemble the result after the join: the center's probes evaluated,
  /// each rank's ledger merged in rank order, wire totals from the
  /// fabric's own metric counters.
  RunResult finish(std::string method, std::size_t workers) {
    RunResult res;
    res.method = std::move(method);
    res.workers = workers;
    res.workers_survived = workers - count_failed(fabric);
    if (const Rank* f = aborting_rank()) {
      res.aborted = true;
      std::ostringstream os;
      os << roles_.round_unit << ' ' << f->round << " aborted at ";
      if (roles_.spmd) {
        os << "rank " << f->id;
      } else {
        os << roles_.center_name;
      }
      os << ": " << f->failure;
      res.abort_reason = os.str();
    }
    const Rank& center = ranks_[0];
    Evaluator eval(ctx.factory, *ctx.test, cfg.eval_samples);
    for (const Probe& probe : center.probes) {
      detail::record_point(res, eval.evaluate_packed(probe.center),
                           probe.iteration, probe.vtime);
    }
    detail::finish(res, fabric.max_clock(),
                   res.aborted ? center.completed : cfg.iterations,
                   center.center);
    for (const Rank& r : ranks_) res.ledger += r.ledger;
    const obs::MetricsSnapshot after = obs::metrics().snapshot();
    res.messages_sent = static_cast<std::uint64_t>(
        after.delta(wire_before_, obs::names::kFabricMessagesSent));
    res.bytes_sent = static_cast<std::uint64_t>(
        after.delta(wire_before_, obs::names::kFabricBytesSent));
    res.retransmits = static_cast<std::uint64_t>(
        after.delta(wire_before_, obs::names::kFabricRetransmits));
    return res;
  }

  /// A center run's worker replica, starting from W̄₀.
  std::unique_ptr<Network> worker_replica() const {
    std::unique_ptr<Network> net = ctx.factory();
    copy(initial, net->arena().full_params());
    return net;
  }

  const AlgoContext& ctx;
  const TrainConfig& cfg;
  Fabric fabric;
  const double fb_s;  // modeled forward+backward seconds per iteration
  const double up_s;  // modeled full-model update seconds
  std::unique_ptr<Network> reference;  // center runs only
  std::vector<float> initial;          // center runs only: W̄₀

 private:
  /// The failure that aborts the run, chosen after the join by a fixed
  /// rule: a rank's own crash (kCrashed) before a peer's kPeerGone/
  /// kTimeout, then the lowest rank. Only rank 0 can abort a center run.
  const Rank* aborting_rank() const {
    const auto crashed = [](const Rank& r) {
      return r.failure_kind == RankFailure::Kind::kCrashed;
    };
    const Rank* pick = nullptr;
    const std::size_t candidates = roles_.spmd ? ranks_.size() : 1;
    for (std::size_t id = 0; id < candidates; ++id) {
      const Rank& r = ranks_[id];
      if (!r.failed) continue;
      if (pick == nullptr || (crashed(r) && !crashed(*pick))) pick = &r;
    }
    return pick;
  }

  Roles roles_;
  obs::MetricsSnapshot wire_before_;
  std::deque<Rank> ranks_;  // one slot per rank, merged in rank order
};

/// A rank's local data stream (Algorithm 4 line 10: each node samples its
/// own copy) and the batch it fills.
struct LocalData {
  LocalData(const AlgoContext& ctx, std::uint64_t seed)
      : sampler(*ctx.train, ctx.config.batch_size, seed) {}

  BatchSampler sampler;
  Tensor batch;
  std::vector<std::int32_t> labels;
};

/// Forward+backward on a fresh batch, advancing the rank's clock by the
/// modeled pass. Returns the rank's OWN compute seconds (straggler factor
/// and jitter included, recv waits excluded) — the per-step signal the
/// online straggler detector drifts on.
double local_pass(FabricRun& run, Rank& r, Network& net, LocalData& d) {
  const double begin = r.clock();
  d.sampler.next(d.batch, d.labels);
  net.zero_grads();
  net.forward_backward(d.batch, d.labels);
  r.advance(run.fb_s);
  const double seconds = r.clock() - begin;
  r.charge_delta(Phase::kForwardBackward);
  return seconds;
}

/// The bucketed pipeline's constants, one copy for every rank: the bucket
/// plan and the modeled split of a forward+backward pass — forward = fb/3,
/// backward = the remaining 2·fb/3 apportioned over layers by their flops
/// (uniform when the model reports none). The per-layer shares are what
/// the backprop hook advances the rank clock by, so bucket launch times
/// land inside the backward span exactly where the retiring layer does.
struct Buckets {
  Buckets(const Network& net, std::size_t bucket_bytes, double fb_s)
      : plan(net.arena().layer_sizes(), bucket_bytes), fwd_s(fb_s / 3.0) {
    const std::vector<double>& lf = net.layer_flops();
    double total = 0.0;
    for (double f : lf) total += f;
    const double span = fb_s - fwd_s;
    bwd_secs.assign(lf.size(), 0.0);
    for (std::size_t i = 0; i < lf.size(); ++i) {
      bwd_secs[i] = total > 0.0 ? span * lf[i] / total
                                : span / static_cast<double>(lf.size());
    }
  }

  /// Bucket b's share of the full-model update cost.
  double frac(std::size_t b) const {
    return static_cast<double>(plan.bucket(b).params) /
           static_cast<double>(plan.total_params());
  }

  /// Forward, then backward with `hook` retiring layers; same contract as
  /// local_pass().
  double pass(Rank& r, Network& net, LocalData& d,
              const Network::LayerReadyHook& hook) const {
    const double begin = r.clock();
    d.sampler.next(d.batch, d.labels);
    net.zero_grads();
    r.advance(fwd_s);
    net.forward_backward(d.batch, d.labels, hook);
    const double seconds = r.clock() - begin;
    r.charge_delta(Phase::kForwardBackward);
    return seconds;
  }

  /// The pipeline's producer: each retiring layer advances its modeled
  /// backward share; a layer that completes a bucket ships the PRE-update
  /// slice in flight (DMA-model send, riding under the remaining backward)
  /// and then hands the bucket to `shipped`, if any. The bucket id rides
  /// as payload[0] so every bucket shares ONE push tag (per-sender FIFO
  /// then delivers a worker's buckets in retire order, and a wildcard
  /// server can demultiplex).
  Network::LayerReadyHook producer(
      FabricRun& run, Rank& r, Network& net, int push_tag,
      std::function<void(std::size_t)> shipped = nullptr) const {
    return [this, &run, &r, &net, push_tag,
            shipped = std::move(shipped)](std::size_t layer) {
      r.advance(bwd_secs[layer]);
      const std::size_t b = plan.completes_at(layer);
      if (b == BucketPlan::kNoBucket) return;
      r.charge_delta(Phase::kForwardBackward);
      const auto s = plan.slice(
          std::span<const float>(net.arena().full_params()), b);
      std::vector<float> payload;
      payload.reserve(s.size() + 1);
      payload.push_back(static_cast<float>(b));
      payload.insert(payload.end(), s.begin(), s.end());
      run.fabric.send_overlapped(r.id, 0, push_tag, std::move(payload));
      r.charge_delta(Phase::kGpuGpuParamComm);
      if (shipped) shipped(b);
    };
  }

  /// Eq. (1) on bucket b's slice against its center slice `cs`. Safe
  /// mid-backward: the slice's gradients retired with the bucket and the
  /// remaining backward only touches lower layers.
  void apply(FabricRun& run, Rank& r, Network& net, std::size_t b,
             std::span<const float> cs, float lr) const {
    DS_CHECK(cs.size() == plan.bucket(b).params, "malformed bucket reply");
    easgd_worker_step(
        plan.slice(net.arena().full_params(), b),
        plan.slice(std::span<const float>(net.arena().full_grads()), b), cs,
        lr, run.cfg.rho);
    r.advance(run.up_s * frac(b));
    r.charge_delta(Phase::kGpuUpdate);
  }

  BucketPlan plan;
  double fwd_s;
  std::vector<double> bwd_secs;
};

/// Figure 5's elastic worker, shared by the parameter server and the plain
/// round-robin master: the gradient at the LOCAL weights, then push W_i,
/// receive W̄ (the server's reply, or the master's turn in its sweep) and
/// apply Eq. (1) against it. The worker overlaps with the round trip only
/// through the fabric's causal clocks.
void exchange_worker(FabricRun& run, Rank& r, std::uint64_t seed_salt,
                     int push_tag, int reply_tag, std::size_t interactions) {
  const TrainConfig& cfg = run.cfg;
  const std::unique_ptr<Network> net = run.worker_replica();
  LocalData d(run.ctx, cfg.seed * seed_salt + r.id);
  for (std::size_t t = 1; t <= interactions; ++t) {
    DS_TRACE_SPAN("algo", "interaction");
    const double compute = local_pass(run, r, *net, d);
    std::vector<float> w_i(net->arena().full_params().begin(),
                           net->arena().full_params().end());
    run.fabric.send(r.id, 0, push_tag, std::move(w_i));
    const std::vector<float> center = run.fabric.recv(r.id, 0, reply_tag);
    r.charge_delta(Phase::kGpuGpuParamComm);  // push + wait for the reply
    easgd_worker_step(net->arena().full_params(), net->arena().full_grads(),
                      center, cfg.lr_at(t), cfg.rho);
    r.advance(run.up_s);
    r.charge_delta(Phase::kGpuUpdate);
    r.narrate_local_write();
    r.step_done(compute);
  }
}

}  // namespace

RunResult run_fabric_easgd(const AlgoContext& ctx,
                           const FabricClusterConfig& cluster) {
  const TrainConfig& cfg = ctx.config;
  const std::size_t ranks = cfg.workers;
  DS_CHECK(ranks > 0, "need at least one rank");
  // Rank 0 attributes its own measured clock advances to the ledger, phase
  // by phase; its per-round deltas ARE the breakdown.
  FabricRun run(ctx, cluster, ranks,
                Roles{.center_span = "fabric_easgd_rank",
                      .worker_span = "fabric_easgd_rank",
                      .round_unit = "round",
                      .center_name = nullptr,
                      .spmd = true});
  Fabric& fabric = run.fabric;

  run.run([&](Rank& r) {
    const std::unique_ptr<Network> net = ctx.factory();
    // Rank 0's initial weights define W̄₀ for everyone (Algorithm 4 line 4:
    // "KNL1 broadcasts W to all KNLs").
    r.center.assign(net->arena().full_params().begin(),
                    net->arena().full_params().end());
    fabric.tree_broadcast(r.id, 0, r.center);
    copy(r.center, net->arena().full_params());
    r.charge_delta(Phase::kInit);

    LocalData d(ctx, cfg.seed * 48271 + r.id);
    std::vector<float> sum_w(net->param_count());
    for (std::size_t t = 1; t <= cfg.iterations; ++t) {
      r.round = t;
      DS_TRACE_SPAN("algo", "round");
      // Line 11: forward/backward on every node.
      const double compute = local_pass(run, r, *net, d);

      // Line 12: KNL1 broadcasts W̄_t.
      fabric.tree_broadcast(r.id, 0, r.center);

      // Line 13: KNL1 gets Σ W_j^t (pre-update weights). tree_reduce
      // consumes non-root buffers, so refill by assignment every round.
      const auto params = net->arena().full_params();
      sum_w.assign(params.begin(), params.end());
      fabric.tree_reduce(r.id, 0, sum_w);
      r.charge_delta(Phase::kGpuGpuParamComm);

      // Line 14: every node applies Eq. (1) against the broadcast W̄_t.
      easgd_worker_step(net->arena().full_params(), net->arena().full_grads(),
                        r.center, cfg.lr_at(t), cfg.rho);
      r.advance(run.up_s);
      r.charge_delta(Phase::kGpuUpdate);
      r.narrate_local_write();

      // Line 15: KNL1 applies Eq. (2).
      if (r.id == 0) {
        easgd_center_step_sum(r.center, sum_w, ranks, cfg.lr_at(t), cfg.rho);
        r.advance(run.up_s);
        r.charge_delta(Phase::kCpuUpdate);
        r.narrate_write(obs::proto::kCenterBuffer);
        r.round_done(t);
      }
      r.step_done(compute);
    }
  });
  return run.finish("Fabric EASGD (SPMD Algorithm 4)", ranks);
}

RunResult run_fabric_async_easgd(const AlgoContext& ctx,
                                 const FabricClusterConfig& cluster) {
  const TrainConfig& cfg = ctx.config;
  const std::size_t workers = cfg.workers;
  DS_CHECK(workers > 0, "need at least one worker");
  constexpr int kPushTag = 901;
  constexpr int kReplyTag = 902;
  // Rank 0 is the server. Each rank measures its own clock advances; the
  // rank-order sum is the cluster-wide breakdown.
  FabricRun run(ctx, cluster, workers + 1,
                Roles{.center_span = "async_server",
                      .worker_span = "async_worker",
                      .round_unit = "interaction",
                      .center_name = "server",
                      .probe_on_abort = false});
  Fabric& fabric = run.fabric;

  run.run([&](Rank& r) {
    if (r.id != 0) {
      // Interaction budget split across workers (remainder to low ranks).
      const std::size_t w = r.id - 1;
      const std::size_t quota =
          cfg.iterations / workers + (w < cfg.iterations % workers ? 1 : 0);
      exchange_worker(run, r, 31393, kPushTag, kReplyTag, quota);
      return;
    }
    // When the surviving workers exhaust their quotas (or the server itself
    // crashes), the FCFS loop ends with whatever interactions arrived.
    for (std::size_t done = 1; done <= cfg.iterations; ++done) {
      auto [src, w_i] = fabric.recv_any(0, kPushTag);
      r.charge_delta(Phase::kGpuGpuParamComm);  // blocked waiting for a push
      // Eq. (2) against the pushed worker weights, then return W̄.
      easgd_center_step(r.center, w_i, cfg.lr_at(done), cfg.rho);
      r.advance(run.up_s);
      r.charge_delta(Phase::kCpuUpdate);
      r.narrate_write(obs::proto::kCenterBuffer);
      fabric.send(0, src, kReplyTag, r.center);
      r.charge_delta(Phase::kGpuGpuParamComm);  // reply transmit
      r.step_done();
      r.round_done(done);
    }
  });
  RunResult res = run.finish("Fabric Async EASGD (parameter server)", workers);
  if (res.aborted) {  // the server's story is its cut budget
    std::ostringstream os;
    os << "interaction budget cut to " << res.iterations << '/'
       << cfg.iterations << " (" << (workers - res.workers_survived)
       << " worker(s) lost)";
    res.abort_reason = os.str();
  }
  return res;
}

RunResult run_fabric_bucketed_easgd(const AlgoContext& ctx,
                                    const FabricClusterConfig& cluster) {
  const TrainConfig& cfg = ctx.config;
  const std::size_t workers = cfg.workers;
  DS_CHECK(workers > 0, "need at least one worker");
  DS_CHECK(cfg.bucketing.enabled(),
           "run_fabric_bucketed_easgd needs cfg.bucketing.bucket_bytes > 0");
  const bool wait_free = cfg.bucketing.mode == BucketMode::kWaitFree;
  constexpr int kPushTag = 905;       // all buckets; payload[0] = bucket id
  constexpr int kReplyTagBase = 910;  // + bucket index
  FabricRun run(ctx, cluster, workers + 1,  // rank 0 is the center
                Roles{.center_span = "bucketed_center",
                      .worker_span = "bucketed_worker",
                      .round_unit = "round",
                      .center_name = "center"});
  Fabric& fabric = run.fabric;

  // The plan is a constant of the configuration — every rank uses this one.
  const Buckets bk(*run.reference, cfg.bucketing.bucket_bytes, run.fb_s);
  const std::size_t nbuckets = bk.plan.bucket_count();
  DS_CHECK(nbuckets > 0, "model has no parameters to bucket");

  auto center_main = [&](Rank& r) {
    // Apply Eq. (2) to one bucket slice from its fixed-order (deterministic)
    // or arrival-order (wait-free) Σ Wⱼ, charging the slice's share of the
    // paper-scale update cost.
    auto step_slice = [&](std::size_t b, const std::vector<float>& sum,
                          float lr) {
      easgd_center_step_sum(bk.plan.slice(std::span<float>(r.center), b), sum,
                            workers, lr, cfg.rho);
      r.advance(run.up_s * bk.frac(b));
      r.charge_delta(Phase::kCpuUpdate);
      r.narrate_write(obs::proto::center_slice_buffer(b));
    };
    auto reply_slice = [&](std::size_t dst, std::size_t b) {
      const auto cs = bk.plan.slice(std::span<const float>(r.center), b);
      fabric.send(0, dst, kReplyTagBase + static_cast<int>(b),
                  std::vector<float>(cs.begin(), cs.end()));
      r.charge_delta(Phase::kGpuGpuParamComm);
    };
    for (std::size_t t = 1; t <= cfg.iterations; ++t) {
      r.round = t;
      DS_TRACE_SPAN("algo", "round");
      const obs::SpanGuard exch("collective", "bucket_exchange");
      const float lr = cfg.lr_at(t);
      if (!wait_free) {
        // Deterministic service: buckets in retire order, workers in rank
        // order within each bucket. Per-sender FIFO on the shared push tag
        // means the w-th matched recv IS worker w's bucket b.
        std::vector<float> sum;
        for (std::size_t b = 0; b < nbuckets; ++b) {
          const std::size_t nb = bk.plan.bucket(b).params;
          std::vector<std::vector<float>> pushes;
          pushes.reserve(workers);
          for (std::size_t w = 1; w <= workers; ++w) {
            pushes.push_back(fabric.recv(0, w, kPushTag));
            r.charge_delta(Phase::kGpuGpuParamComm);
            DS_CHECK(pushes.back().size() == nb + 1 &&
                         static_cast<std::size_t>(pushes.back()[0]) == b,
                     "bucket push out of order");
          }
          // Reply the PRE-step slice in the same fixed order, then the
          // fixed-order sum: both are what makes deterministic-mode
          // results invariant across bucket sizes.
          for (std::size_t w = 1; w <= workers; ++w) reply_slice(w, b);
          sum.assign(nb, 0.0f);
          for (const std::vector<float>& p : pushes) {
            for (std::size_t k = 0; k < nb; ++k) sum[k] += p[k + 1];
          }
          step_slice(b, sum, lr);
        }
      } else {
        // Wait-free service: take pushes as they land, reply the pre-step
        // slice immediately, step a slice once all W contributions are
        // in. The LAST bucket's replies are held until the whole
        // iteration is served: a worker's final reply is the iteration
        // barrier, so no worker can push round t+1 into round t's sums.
        std::vector<std::vector<float>> sums(nbuckets);
        std::vector<std::size_t> got(nbuckets, 0);
        std::vector<std::size_t> last_srcs;
        for (std::size_t b = 0; b < nbuckets; ++b) {
          sums[b].assign(bk.plan.bucket(b).params, 0.0f);
        }
        const std::size_t last = nbuckets - 1;
        for (std::size_t n = 0; n < workers * nbuckets; ++n) {
          auto [src, push] = fabric.recv_any(0, kPushTag);
          r.charge_delta(Phase::kGpuGpuParamComm);
          DS_CHECK(!push.empty(), "empty bucket push");
          const std::size_t b = static_cast<std::size_t>(push[0]);
          DS_CHECK(b < nbuckets && push.size() == bk.plan.bucket(b).params + 1,
                   "malformed bucket push");
          if (b < last) {
            reply_slice(src, b);
          } else {
            last_srcs.push_back(src);
          }
          for (std::size_t k = 0; k + 1 < push.size(); ++k) {
            sums[b][k] += push[k + 1];
          }
          if (++got[b] == workers && b < last) step_slice(b, sums[b], lr);
        }
        // Every push of the round is in: release the barrier with the
        // last bucket's pre-step slice (arrival order), then step it.
        for (const std::size_t src : last_srcs) reply_slice(src, last);
        step_slice(last, sums[last], lr);
      }
      r.step_done();
      r.round_done(t);
    }
  };

  // A failing worker drops out cleanly, so the center's next recv on it
  // raises kPeerGone and aborts the round.
  auto worker_main = [&](Rank& r) {
    const std::unique_ptr<Network> net = run.worker_replica();
    LocalData d(ctx, cfg.seed * 40503 + r.id);
    std::vector<bool> applied(nbuckets, false);
    float lr = cfg.lr_at(1);
    auto apply = [&](std::size_t b, const std::vector<float>& cs) {
      bk.apply(run, r, *net, b, cs, lr);
      applied[b] = true;
    };
    // Wait-free, the producer also drains any earlier buckets whose
    // replies already landed.
    auto drain = [&](std::size_t b) {
      for (std::size_t p = 0; p < b; ++p) {
        if (applied[p]) continue;
        std::vector<float> reply;
        if (fabric.try_recv(r.id, 0, kReplyTagBase + static_cast<int>(p),
                            reply)) {
          r.charge_delta(Phase::kGpuGpuParamComm);
          apply(p, reply);
        }
      }
    };
    const Network::LayerReadyHook hook =
        bk.producer(run, r, *net, kPushTag,
                    wait_free ? std::function<void(std::size_t)>(drain)
                              : nullptr);

    for (std::size_t t = 1; t <= cfg.iterations; ++t) {
      DS_TRACE_SPAN("algo", "round");
      lr = cfg.lr_at(t);
      applied.assign(nbuckets, false);
      // Forward + the per-layer backward shares (straggler-scaled); the
      // overlapped bucket posts in between are alpha-only and negligible
      // next to the compute advances.
      const double compute = bk.pass(r, *net, d, hook);

      // Pipeline tail: buckets with no reply yet are collected in retire
      // order — this wait is exactly the exchange left EXPOSED past
      // backward.
      {
        const obs::SpanGuard exch("collective", "bucket_exchange");
        for (std::size_t b = 0; b < nbuckets; ++b) {
          if (applied[b]) continue;
          const std::vector<float> reply =
              fabric.recv(r.id, 0, kReplyTagBase + static_cast<int>(b));
          r.charge_delta(Phase::kGpuGpuParamComm);
          apply(b, reply);
        }
      }
      r.narrate_local_write();
      r.step_done(compute);
    }
  };

  run.run([&](Rank& r) {
    if (r.id == 0) {
      center_main(r);
    } else {
      worker_main(r);
    }
  });
  return run.finish(wait_free ? "Fabric Bucketed EASGD (wait-free)"
                              : "Fabric Bucketed EASGD (deterministic)",
                    workers);
}

RunResult run_fabric_round_robin_easgd(const AlgoContext& ctx,
                                       const FabricClusterConfig& cluster) {
  const TrainConfig& cfg = ctx.config;
  const std::size_t workers = cfg.workers;
  DS_CHECK(workers > 0, "need at least one worker");
  constexpr int kPushTag = 903;
  constexpr int kReplyTag = 904;
  FabricRun run(ctx, cluster, workers + 1,  // rank 0 is the master
                Roles{.center_span = "round_robin_master",
                      .worker_span = "round_robin_worker",
                      .round_unit = "sweep",
                      .center_name = "master"});
  Fabric& fabric = run.fabric;

  // Optional bucketing (DESIGN.md §10): workers ship buckets in flight as
  // backward retires them; the master's sweep serves each worker's buckets
  // in retire order — still matched receives only, so the schedule stays a
  // constant of (workers, iterations, plan).
  std::optional<Buckets> bk;
  if (cfg.bucketing.enabled()) {
    bk.emplace(*run.reference, cfg.bucketing.bucket_bytes, run.fb_s);
  }

  auto master_main = [&](Rank& r) {
    for (std::size_t t = 1; t <= cfg.iterations; ++t) {
      r.round = t;
      DS_TRACE_SPAN("algo", "sweep");
      // Algorithm 1's loop: visit every worker in rank order. Matched
      // receives make the schedule a constant of the configuration.
      for (std::size_t w = 1; w <= workers; ++w) {
        if (!bk) {
          std::vector<float> w_i = fabric.recv(0, w, kPushTag);
          r.charge_delta(Phase::kGpuGpuParamComm);  // blocked on w's push
          easgd_center_step(r.center, w_i, cfg.lr_at(t), cfg.rho);
          r.advance(run.up_s);
          r.charge_delta(Phase::kCpuUpdate);
          r.narrate_write(obs::proto::kCenterBuffer);
          fabric.send(0, w, kReplyTag, r.center);
          r.charge_delta(Phase::kGpuGpuParamComm);  // reply transmit
          continue;
        }
        // Serve worker w's buckets in retire order (per-sender FIFO on the
        // push tag delivers exactly that order): Eq. (2) per slice, reply
        // the POST-step slice — the round-robin master always returns the
        // fresh center.
        for (std::size_t b = 0; b < bk->plan.bucket_count(); ++b) {
          const std::vector<float> push = fabric.recv(0, w, kPushTag);
          r.charge_delta(Phase::kGpuGpuParamComm);
          DS_CHECK(push.size() == bk->plan.bucket(b).params + 1 &&
                       static_cast<std::size_t>(push[0]) == b,
                   "bucket push out of order");
          const auto cs = bk->plan.slice(std::span<float>(r.center), b);
          easgd_center_step(cs, std::span<const float>(push).subspan(1),
                            cfg.lr_at(t), cfg.rho);
          r.advance(run.up_s * bk->frac(b));
          r.charge_delta(Phase::kCpuUpdate);
          r.narrate_write(obs::proto::center_slice_buffer(b));
          fabric.send(0, w, kReplyTag,
                      std::vector<float>(cs.begin(), cs.end()));
          r.charge_delta(Phase::kGpuGpuParamComm);
        }
      }
      r.step_done();
      r.round_done(t);
    }
  };

  // A failing worker drops out cleanly, so the master's next matched recv
  // on it raises kPeerGone and aborts the sweep instead of deadlocking.
  auto bucketed_worker = [&](Rank& r) {
    const std::unique_ptr<Network> net = run.worker_replica();
    LocalData d(ctx, cfg.seed * 69621 + r.id);
    const Network::LayerReadyHook hook = bk->producer(run, r, *net, kPushTag);
    for (std::size_t t = 1; t <= cfg.iterations; ++t) {
      DS_TRACE_SPAN("algo", "interaction");
      const double compute = bk->pass(r, *net, d, hook);
      // Collect the POST-step center slices in retire order (single reply
      // tag: the master's send order IS bucket order) and apply Eq. (1)
      // slice by slice.
      for (std::size_t b = 0; b < bk->plan.bucket_count(); ++b) {
        const std::vector<float> cs = fabric.recv(r.id, 0, kReplyTag);
        r.charge_delta(Phase::kGpuGpuParamComm);
        bk->apply(run, r, *net, b, cs, cfg.lr_at(t));
      }
      r.narrate_local_write();
      r.step_done(compute);
    }
  };

  run.run([&](Rank& r) {
    if (r.id == 0) {
      master_main(r);
    } else if (bk) {
      bucketed_worker(r);
    } else {
      exchange_worker(run, r, 69621, kPushTag, kReplyTag, cfg.iterations);
    }
  });
  return run.finish(bk ? "Fabric Round-Robin EASGD (Algorithm 1, bucketed)"
                       : "Fabric Round-Robin EASGD (Algorithm 1)",
                    workers);
}

}  // namespace ds
