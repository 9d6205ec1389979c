// perfbench driver — one benchmark workload per process, single-threaded.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (README.md explains the choice of each):
//   train_alexnet_sync  AlexNet-S on cifar_like, Sync EASGD3 on the modeled
//                       4-GPU GpuSystem, 4 workers x batch 16 (closed loop).
//   serve_lenet_bursty  LeNet-S forward passes through serve::Server, max
//                       batch 8, admission on, autoscaler 1..4 replicas,
//                       open-loop bursty arrivals.
//   serve_sched_bursty  The same server on a much longer bursty trace with
//                       run_model = false: scheduling only, no model math.
//
// The seed only generates the inputs (dataset, arrival trace); the model
// initialisation and every library-side seed stay fixed.
//
// --trace 0 repeats {set up, run} until --seconds have passed and reports
// the end-to-end metrics (medians over the repetitions). --trace 1 runs the
// workload once untraced and once traced, checks that both produced the
// same bits, and then replays each layer's public entry points inside the
// benchmark's own obs spans; the per-layer metrics are read back from the
// recorded spans. Nothing inside the library is instrumented for this.
//
// Output: a "perfbench-detail {json}" line with the quantities that are
// not gated metrics, then the result line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Exit status 0 only when every correctness check passed.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "comm/collectives.hpp"
#include "core/easgd_rules.hpp"
#include "core/evaluator.hpp"
#include "core/sync_algorithms.hpp"
#include "data/dataset.hpp"
#include "data/sampler.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/models.hpp"
#include "obs/trace.hpp"
#include "serve/batcher.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "tensor/gemm.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile of an unsorted sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::uint64_t fnv1a(std::span<const float> values) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size_bytes(); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

long thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atol(line.c_str() + 8);
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Metrics and checks.
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  const char* unit = "";
};

/// Name-ordered metric set, printed as {"name": {"value": v, "unit": u}}.
using Metrics = std::map<std::string, Metric>;

/// Every per-layer metric, with its unit. A workload that never enters a
/// layer leaves that layer's metrics at 0.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"nn.step_ms", "ms"},           {"nn.infer_ms.b1", "ms"},
    {"nn.infer_ms.b8", "ms"},       {"nn.conv.fwd_ms", "ms"},
    {"nn.conv.bwd_ms", "ms"},       {"nn.lrn.fwd_ms", "ms"},
    {"nn.lrn.bwd_ms", "ms"},        {"nn.maxpool.fwd_ms", "ms"},
    {"nn.maxpool.bwd_ms", "ms"},    {"nn.relu.fwd_ms", "ms"},
    {"nn.relu.bwd_ms", "ms"},       {"nn.fc.fwd_ms", "ms"},
    {"nn.fc.bwd_ms", "ms"},         {"nn.layer_closure", "ratio"},
    {"tensor.gemm_gflops", "GFLOP/s"},
    {"tensor.conv_algo.im2col", "count"},
    {"tensor.conv_algo.direct", "count"},
    {"tensor.conv_algo.winograd", "count"},
    {"tensor.conv_algo.int8", "count"},
    {"data.synth_s", "s"},          {"data.gather_us", "us"},
    {"core.run_s", "s"},            {"core.update_us", "us"},
    {"core.eval_ms", "ms"},         {"comm.reduce_us", "us"},
    {"comm.messages", "count"},     {"comm.bytes", "bytes"},
    {"serve.run_s", "s"},           {"serve.us_per_request", "us"},
    {"serve.batcher_ns", "ns"},     {"serve.admission_ns", "ns"},
    {"serve.mean_batch", "requests"},
    {"serve.shed_ratio", "ratio"},  {"serve.peak_queue", "requests"},
    {"serve.scale_ups", "count"},   {"serve.arrivals_s", "s"},
    {"obs.trace_overhead", "ratio"},
    {"obs.events", "count"},
};

/// Correctness-check collector: every failed check is kept, in order.
struct Checks {
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

// ---------------------------------------------------------------------------
// The benchmark's own spans. Category "perfbench"; names are the metric
// stems. Durations come back from the recorder snapshot, pairing each
// span end with the innermost open span of its thread (the library's own
// spans nest inside ours and are skipped).
// ---------------------------------------------------------------------------

constexpr const char* kSpanCategory = "perfbench";

template <class F>
void traced(const char* name, F&& fn) {
  const ds::obs::SpanGuard span(kSpanCategory, name);
  fn();
}

/// Milliseconds of every completed perfbench span, by name, in order.
using SpanTimes = std::map<std::string, std::vector<double>>;

/// Adds the recorder's completed perfbench spans to `out`.
void collect_spans(SpanTimes& out) {
  for (const ds::obs::ThreadEvents& t : ds::obs::snapshot()) {
    std::vector<const ds::obs::Event*> open;
    for (const ds::obs::Event& e : t.events) {
      if (e.type == ds::obs::EventType::kSpanBegin) {
        open.push_back(&e);
      } else if (e.type == ds::obs::EventType::kSpanEnd && !open.empty()) {
        const ds::obs::Event* begin = open.back();
        open.pop_back();
        if (std::strcmp(begin->category, kSpanCategory) == 0) {
          out[begin->name].push_back(
              static_cast<double>(e.wall_ns - begin->wall_ns) / 1e6);
        }
      }
    }
  }
}

std::size_t recorded_events() {
  std::size_t n = 0;
  for (const ds::obs::ThreadEvents& t : ds::obs::snapshot()) {
    n += t.events.size();
  }
  return n;
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

/// What one execution of a workload produced.
struct RunOutcome {
  double items = 0.0;          // training samples or requests simulated
  double vtime_s = 0.0;        // virtual seconds the run covered
  double vgoodput_per_s = 0.0; // completed-in-time items per virtual second
  double vp50_ms = 0.0;        // virtual latency of one unit of work
  double vp99_ms = 0.0;
  std::size_t latency_samples = 0;
  std::uint64_t digest = 0;    // final_params or outcome_digest()
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> detail;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generate the inputs from `seed` and build everything run() needs.
  virtual void setup(std::uint64_t seed) = 0;
  /// Execute the workload once and check its outputs.
  virtual RunOutcome run(Checks& checks) = 0;
  /// Replay each layer's public entry points inside perfbench spans
  /// (tracing is on), after one traced setup() + run().
  virtual void replay_layers() = 0;
  /// Turn the recorded spans, the traced run's wall time and its results
  /// into the per-layer metrics of the layers this workload enters.
  virtual void layer_metrics(const SpanTimes& spans, double traced_run_s,
                             Metrics& out) = 0;
};

// Replays of short calls repeat this often; metrics take the median.
constexpr int kReplayRepeats = 15;

double median_of(const SpanTimes& spans, const std::string& name) {
  const auto it = spans.find(name);
  return it == spans.end() ? 0.0 : median(it->second);
}

/// Per-layer replay of one model at one batch size: every layer's
/// Layer::forward (and, for training, the backward pass in reverse order)
/// is timed in its own span, the same call sequence a Network runs.
class LayerReplay {
 public:
  LayerReplay(ds::Network& net, const ds::Tensor& batch,
              std::span<const std::int32_t> labels, bool train)
      : net_(net), batch_(batch), labels_(labels), train_(train) {
    for (std::size_t i = 0; i < net.layer_count(); ++i) {
      fwd_names_.push_back(ds::obs::intern("nn.fwd." + std::to_string(i)));
      bwd_names_.push_back(ds::obs::intern("nn.bwd." + std::to_string(i)));
    }
    acts_.resize(net.layer_count());
    grads_.resize(net.layer_count());
  }

  void pass() {
    // Network exposes its layers read-only; the replay drives the very
    // same (non-const) layer objects the network owns, so the timed calls
    // run on the model's real weights, scratch buffers and shapes.
    auto layer = [&](std::size_t i) -> ds::Layer& {
      return const_cast<ds::Layer&>(net_.layer(i));
    };
    const std::size_t n = net_.layer_count();
    net_.zero_grads();
    const ds::Tensor* x = &batch_;
    for (std::size_t i = 0; i < n; ++i) {
      traced(fwd_names_[i], [&] { layer(i).forward(*x, acts_[i], train_); });
      x = &acts_[i];
    }
    if (!train_) return;
    loss_.forward_backward(acts_.back(), labels_, dlogits_);
    const ds::Tensor* dy = &dlogits_;
    for (std::size_t i = n; i-- > 0;) {
      const ds::Tensor& in = i == 0 ? batch_ : acts_[i - 1];
      traced(bwd_names_[i],
             [&] { layer(i).backward(in, acts_[i], *dy, grads_[i]); });
      dy = &grads_[i];
    }
  }

  /// Adds the per-type layer times (nn.<type>.{fwd,bwd}_ms) and returns
  /// the sum over every replayed layer, typed or not.
  double report(const SpanTimes& spans, Metrics& out) const {
    double total = 0.0;
    for (std::size_t i = 0; i < net_.layer_count(); ++i) {
      const double fwd = median_of(spans, fwd_names_[i]);
      const double bwd = train_ ? median_of(spans, bwd_names_[i]) : 0.0;
      total += fwd + bwd;
      const char* type = layer_type(net_.layer(i));
      if (type == nullptr) continue;
      out[std::string("nn.") + type + ".fwd_ms"].value += fwd;
      out[std::string("nn.") + type + ".bwd_ms"].value += bwd;
    }
    return total;
  }

 private:
  static const char* layer_type(const ds::Layer& l) {
    if (dynamic_cast<const ds::Conv2D*>(&l)) return "conv";
    if (dynamic_cast<const ds::LocalResponseNorm*>(&l)) return "lrn";
    if (dynamic_cast<const ds::MaxPool2D*>(&l)) return "maxpool";
    if (dynamic_cast<const ds::ReLU*>(&l)) return "relu";
    if (dynamic_cast<const ds::FullyConnected*>(&l)) return "fc";
    return nullptr;  // flatten, dropout: in the closure sum only
  }

  ds::Network& net_;
  const ds::Tensor& batch_;
  std::span<const std::int32_t> labels_;
  bool train_;
  std::vector<const char*> fwd_names_, bwd_names_;
  std::vector<ds::Tensor> acts_, grads_;
  ds::SoftmaxCrossEntropy loss_;
  ds::Tensor dlogits_;
};

/// Conv layers of `net` with the input shape each sees at `batch`.
std::vector<std::pair<const ds::Conv2D*, ds::Shape>> conv_layers(
    const ds::Network& net, std::size_t batch) {
  std::vector<std::size_t> dims{batch};
  for (const std::size_t d : net.input_shape().dims()) dims.push_back(d);
  ds::Shape s(dims);
  std::vector<std::pair<const ds::Conv2D*, ds::Shape>> convs;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    if (const auto* c = dynamic_cast<const ds::Conv2D*>(&net.layer(i))) {
      convs.emplace_back(c, s);
    }
    s = net.layer(i).output_shape(s);
  }
  return convs;
}

/// tensor.conv_algo.<algo>: how the kAuto chain resolves each conv layer
/// (every resolved algorithm has its key in kLayerMetrics).
void count_conv_algos(const ds::Network& net, std::size_t batch,
                      Metrics& out) {
  for (const auto& [conv, shape] : conv_layers(net, batch)) {
    out.at(std::string("tensor.conv_algo.") +
           ds::conv_algo_name(conv->resolved_algo(shape)))
        .value += 1.0;
  }
}

/// One GEMM per conv layer at the shape im2col lowers it to: M = output
/// channels, K = in_channels x k x k, N = batch x output pixels.
class GemmReplay {
 public:
  GemmReplay(const ds::Network& net, std::size_t batch) {
    for (const auto& [conv, shape] : conv_layers(net, batch)) {
      const std::size_t m = conv->out_channels();
      const std::size_t in_c = conv->in_channels();
      // param_count = m * in_c * k * k + m (weights, then biases).
      const std::size_t kk = (conv->param_count() - m) / (m * in_c);
      const ds::Shape out = conv->output_shape(shape);
      shapes_.push_back({m, out.dim(0) * out.dim(2) * out.dim(3), in_c * kk});
    }
    for (const GemmShape& g : shapes_) {
      a_.emplace_back(g.m * g.k, 0.5f);
      b_.emplace_back(g.k * g.n, 0.25f);
      c_.emplace_back(g.m * g.n, 0.0f);
      flops_ += ds::gemm_flops(g.m, g.n, g.k);
    }
  }

  void pass() {
    traced("tensor.gemm", [&] {
      for (std::size_t i = 0; i < shapes_.size(); ++i) {
        const GemmShape& g = shapes_[i];
        ds::gemm(ds::Transpose::kNo, ds::Transpose::kNo, g.m, g.n, g.k, 1.0f,
                 a_[i].data(), b_[i].data(), 0.0f, c_[i].data());
      }
    });
  }

  double gflops(const SpanTimes& spans) const {
    const double ms = median_of(spans, "tensor.gemm");
    return ms > 0.0 ? flops_ / (ms * 1e6) : 0.0;
  }

 private:
  struct GemmShape {
    std::size_t m, n, k;
  };
  std::vector<GemmShape> shapes_;
  std::vector<std::vector<float>> a_, b_, c_;
  double flops_ = 0.0;
};

// --- train_alexnet_sync ----------------------------------------------------

class TrainAlexnetSync final : public Workload {
 public:
  static constexpr std::size_t kWorkers = 4;
  static constexpr std::size_t kBatch = 16;
  static constexpr std::size_t kIterations = 36;
  static constexpr std::size_t kTrainCount = 4096;
  static constexpr std::size_t kTestCount = 512;
  static constexpr std::uint64_t kModelSeed = 7;

  void setup(std::uint64_t seed) override {
    data_ = {};  // release the previous repetition's inputs first
    traced("data.synth",
           [&] { data_ = ds::cifar_like(seed, kTrainCount, kTestCount); });
    // Every replica run_sync_easgd asks the factory for (one per worker
    // plus the evaluator) is built here, so set-up covers network building.
    networks_.clear();
    for (std::size_t i = 0; i < kWorkers + 1; ++i) networks_.push_back(build());
    ctx_ = ds::AlgoContext{};
    ctx_.factory = [this] {
      if (networks_.empty()) return build();
      auto net = std::move(networks_.back());
      networks_.pop_back();
      return net;
    };
    ctx_.train = &data_.train;
    ctx_.test = &data_.test;
    ds::TrainConfig& cfg = ctx_.config;
    cfg.workers = kWorkers;
    cfg.batch_size = kBatch;
    cfg.iterations = kIterations;
    cfg.learning_rate = 0.1f;
    // EASGD moving-rate rule: eta * rho = 0.9 / P.
    cfg.rho = 0.9f / (static_cast<float>(kWorkers) * cfg.learning_rate);
    cfg.eval_every = kIterations;
    cfg.eval_samples = kTestCount;
    hw_ = std::make_unique<ds::GpuSystem>(ds::GpuSystemConfig{},
                                          ds::paper_alexnet(),
                                          3.0 * 32.0 * 32.0 * 4.0);
  }

  RunOutcome run(Checks& checks) override {
    result_ = ds::run_sync_easgd(ctx_, *hw_, ds::SyncEasgdVariant::kEasgd3);
    const ds::RunResult& r = result_;
    RunOutcome o;
    o.attempted = 1;
    const bool finite = std::isfinite(r.final_loss);
    o.failed = (r.aborted || !finite) ? 1 : 0;
    checks.expect(!r.aborted, "training run aborted: " + r.abort_reason);
    checks.expect(r.iterations == kIterations,
                  "training stopped after " + std::to_string(r.iterations) +
                      " of " + std::to_string(kIterations) + " iterations");
    checks.expect(finite, "final_loss is not finite");
    // 10 balanced classes: a chance-level model scores 0.1 give or take
    // sqrt(0.1 * 0.9 / n) on n eval samples; demand three of those above.
    const double chance =
        0.1 + 3.0 * std::sqrt(0.09 / static_cast<double>(kTestCount));
    checks.expect(r.final_accuracy > chance,
                  "final accuracy " + std::to_string(r.final_accuracy) +
                      " does not beat chance (" + std::to_string(chance) +
                      ")");
    checks.expect(!r.final_params.empty(), "run returned no final_params");

    o.items = static_cast<double>(r.iterations * kWorkers * kBatch);
    o.vtime_s = r.total_seconds;
    o.vgoodput_per_s = r.total_seconds > 0.0 ? o.items / r.total_seconds : 0.0;
    // Synchronous rounds: one step latency per iteration, read off the
    // trace points (every round of the modeled schedule costs the same).
    std::vector<double> step_ms;
    ds::TracePoint prev;  // iteration 0 at virtual time 0
    for (const ds::TracePoint& p : r.trace) {
      const std::size_t iters = p.iteration - prev.iteration;
      if (iters == 0) continue;
      step_ms.insert(step_ms.end(), iters,
                     (p.vtime - prev.vtime) * 1e3 / static_cast<double>(iters));
      prev = p;
    }
    checks.expect(step_ms.size() == r.iterations,
                  "trace points do not cover every iteration");
    o.vp50_ms = quantile(step_ms, 0.50);
    o.vp99_ms = quantile(step_ms, 0.99);
    o.latency_samples = step_ms.size();
    o.digest = fnv1a(r.final_params);
    o.detail = {{"final_loss", r.final_loss},
                {"final_accuracy", r.final_accuracy},
                {"iterations", static_cast<double>(r.iterations)}};
    return o;
  }

  void replay_layers() override {
    net_ = build();
    std::vector<std::size_t> idx(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) idx[i] = i;
    for (int rep = 0; rep < kReplayRepeats; ++rep) {
      traced("data.gather",
             [&] { ds::gather_batch(data_.train, idx, batch_, labels_); });
    }
    layers_.emplace(*net_, batch_, labels_, /*train=*/true);
    gemm_.emplace(*net_, kBatch);
    // Warm-up: size every activation and scratch buffer first.
    net_->zero_grads();
    net_->forward_backward(batch_, labels_);
    layers_->pass();
    // Whole steps and layer replays alternate, so the closure ratio
    // compares passes made under the same host conditions.
    for (int rep = 0; rep < kReplayRepeats; ++rep) {
      net_->zero_grads();
      traced("nn.step", [&] { net_->forward_backward(batch_, labels_); });
      layers_->pass();
    }
    for (int rep = 0; rep <= kReplayRepeats; ++rep) gemm_->pass();
    replay_update();
    replay_eval();
  }

  void layer_metrics(const SpanTimes& spans, double traced_run_s,
                     Metrics& out) override {
    const double step_ms = median_of(spans, "nn.step");
    out["nn.step_ms"].value = step_ms;
    const double layers_ms = layers_->report(spans, out);
    out["nn.layer_closure"].value = step_ms > 0.0 ? layers_ms / step_ms : 0.0;
    out["tensor.gemm_gflops"].value = gemm_->gflops(spans);
    count_conv_algos(*net_, kBatch, out);
    out["data.synth_s"].value = median_of(spans, "data.synth") / 1e3;
    out["data.gather_us"].value = median_of(spans, "data.gather") * 1e3;
    out["core.run_s"].value = traced_run_s;
    out["core.update_us"].value = median_of(spans, "core.update") * 1e3;
    out["core.eval_ms"].value = median_of(spans, "core.eval");
    out["comm.reduce_us"].value = median_of(spans, "comm.reduce") * 1e3;
    out["comm.messages"].value = static_cast<double>(result_.messages_sent);
    out["comm.bytes"].value = static_cast<double>(result_.bytes_sent);
  }

 private:
  static std::unique_ptr<ds::Network> build() {
    ds::Rng rng(kModelSeed);
    return ds::make_alexnet_s(rng);
  }

  /// Eq. (1) on every worker plus Eq. (2) on the center, and the reduce +
  /// broadcast that feed them, at this model's parameter count.
  void replay_update() {
    const std::size_t n = net_->param_count();
    std::vector<std::vector<float>> w(kWorkers, std::vector<float>(n, 0.5f));
    const std::vector<float> g(n, 0.01f);
    std::vector<float> center(n, 0.25f), sum(n, 0.0f);
    std::vector<std::span<const float>> ins(w.begin(), w.end());
    std::vector<std::span<float>> outs(w.begin(), w.end());
    for (int rep = 0; rep < kReplayRepeats; ++rep) {
      traced("comm.reduce", [&] {
        ds::reduce_sum(ins, sum);
        ds::broadcast(center, outs);
      });
      traced("core.update", [&] {
        for (auto& wj : w) {
          ds::easgd_worker_step(wj, g, center, ctx_.config.learning_rate,
                                ctx_.config.rho);
        }
        ds::easgd_center_step_sum(center, sum, kWorkers,
                                  ctx_.config.learning_rate, ctx_.config.rho);
      });
    }
  }

  void replay_eval() {
    ds::Evaluator eval([] { return build(); }, data_.test,
                       ctx_.config.eval_samples);
    eval.evaluate_packed(result_.final_params);  // warm-up
    for (int rep = 0; rep < 3; ++rep) {
      traced("core.eval", [&] { eval.evaluate_packed(result_.final_params); });
    }
  }

  ds::TrainTest data_;
  std::vector<std::unique_ptr<ds::Network>> networks_;
  ds::AlgoContext ctx_;
  std::unique_ptr<ds::GpuSystem> hw_;
  ds::RunResult result_;
  // Per-layer replay state (trace runs only).
  std::unique_ptr<ds::Network> net_;
  ds::Tensor batch_;
  std::vector<std::int32_t> labels_;
  std::optional<LayerReplay> layers_;
  std::optional<GemmReplay> gemm_;
};

// --- serving ---------------------------------------------------------------

/// Bursty open-loop serving over LeNet-S replicas. The base rate sits well
/// under one replica's capacity; bursts run past it, so the autoscaler has
/// to grow the fleet while admission prices every arrival.
class ServeBursty final : public Workload {
 public:
  static constexpr std::size_t kMaxBatch = 8;
  static constexpr std::uint64_t kModelSeed = 11;

  ServeBursty(bool run_model, double duration_s)
      : run_model_(run_model), duration_s_(duration_s) {}

  void setup(std::uint64_t seed) override {
    server_.reset();  // release the previous repetition's state first
    result_ = {};
    arrivals_ = {};
    pool_ = {};
    traced("data.synth", [&] {
      pool_ = ds::mnist_like(seed, run_model_ ? 8192 : 64, 1).train;
    });
    ds::serve::WorkloadConfig wl;
    wl.pattern = ds::serve::ArrivalPattern::kBursty;
    wl.rate_rps = 6000.0;
    wl.burst_rate_rps = 30000.0;
    wl.burst_every_s = 0.25;
    wl.burst_length_s = 0.05;
    wl.duration_s = duration_s_;
    wl.seed = seed;
    traced("serve.arrivals",
           [&] { arrivals_ = ds::serve::generate_arrivals(wl); });
    hw_ = std::make_unique<ds::GpuSystem>(ds::GpuSystemConfig{},
                                          ds::paper_lenet(), 28.0 * 28.0 * 4.0);
    server_ = std::make_unique<ds::serve::Server>(build_factory(), *hw_,
                                                  server_config());
  }

  RunOutcome run(Checks& checks) override {
    result_ = server_->run(arrivals_, pool_);
    const ds::serve::ServeResult& r = result_;
    RunOutcome o;
    const std::size_t sent = arrivals_.size();
    o.attempted = sent;
    o.failed = r.shed + r.deadline_misses;
    checks.expect(r.served + r.shed == sent,
                  "served " + std::to_string(r.served) + " + shed " +
                      std::to_string(r.shed) + " != sent " +
                      std::to_string(sent));
    checks.expect(r.requests.size() == sent, "request records != sent");
    std::vector<double> latency_ms;
    latency_ms.reserve(r.served);
    std::size_t late = 0;
    for (const ds::serve::RequestRecord& rec : r.requests) {
      if (rec.outcome != ds::serve::Outcome::kServed) continue;
      latency_ms.push_back(rec.latency() * 1e3);
      if (!rec.within_deadline()) ++late;
      if (!(rec.arrival <= rec.dispatch && rec.dispatch <= rec.done &&
            rec.done <= rec.reply)) {
        checks.expect(false, "request " + std::to_string(rec.id) +
                                 " has out-of-order lifecycle times");
        break;
      }
    }
    checks.expect(latency_ms.size() == r.served, "served records != served");
    checks.expect(late == r.deadline_misses, "deadline misses miscounted");
    o.items = static_cast<double>(sent);
    o.vtime_s = r.duration_s;
    o.vgoodput_per_s = r.goodput_rps;
    o.vp50_ms = quantile(latency_ms, 0.50);
    o.vp99_ms = quantile(latency_ms, 0.99);
    o.latency_samples = latency_ms.size();
    o.digest = r.outcome_digest();
    o.detail = {{"served", static_cast<double>(r.served)},
                {"shed", static_cast<double>(r.shed)},
                {"deadline_misses", static_cast<double>(r.deadline_misses)},
                {"scale_ups", static_cast<double>(r.scale_ups)},
                {"mean_batch", r.mean_batch}};
    return o;
  }

  void replay_layers() override {
    replay_batcher();
    if (!run_model_) return;
    net_ = build_factory()();
    const ds::Tensor single = pool_batch(1);
    batch_ = pool_batch(kMaxBatch);
    layers_.emplace(*net_, batch_, std::span<const std::int32_t>{},
                    /*train=*/false);
    gemm_.emplace(*net_, kMaxBatch);
    net_->infer(single);  // warm-up
    net_->infer(batch_);
    layers_->pass();
    // Whole passes and layer replays alternate, as in training.
    for (int rep = 0; rep < kReplayRepeats; ++rep) {
      traced("nn.infer.b1", [&] { net_->infer(single); });
      traced("nn.infer.b8", [&] { net_->infer(batch_); });
      layers_->pass();
    }
    for (int rep = 0; rep <= kReplayRepeats; ++rep) gemm_->pass();
  }

  void layer_metrics(const SpanTimes& spans, double traced_run_s,
                     Metrics& out) override {
    out["serve.run_s"].value = traced_run_s;
    out["serve.us_per_request"].value =
        traced_run_s * 1e6 / static_cast<double>(arrivals_.size());
    out["serve.batcher_ns"].value =
        median_of(spans, "serve.batcher") * 1e6 / replay_requests_;
    out["serve.admission_ns"].value =
        median_of(spans, "serve.admission") * 1e6 / replay_requests_;
    out["serve.mean_batch"].value = result_.mean_batch;
    out["serve.shed_ratio"].value = result_.shed_rate;
    out["serve.peak_queue"].value =
        static_cast<double>(result_.peak_queue_depth);
    out["serve.scale_ups"].value = static_cast<double>(result_.scale_ups);
    out["serve.arrivals_s"].value = median_of(spans, "serve.arrivals") / 1e3;
    out["data.synth_s"].value = median_of(spans, "data.synth") / 1e3;
    if (!run_model_) return;
    const double b8 = median_of(spans, "nn.infer.b8");
    out["nn.infer_ms.b1"].value = median_of(spans, "nn.infer.b1");
    out["nn.infer_ms.b8"].value = b8;
    const double layers_ms = layers_->report(spans, out);
    out["nn.layer_closure"].value = b8 > 0.0 ? layers_ms / b8 : 0.0;
    out["tensor.gemm_gflops"].value = gemm_->gflops(spans);
    count_conv_algos(*net_, kMaxBatch, out);
  }

 private:
  static ds::NetworkFactory build_factory() {
    return [] {
      ds::Rng rng(kModelSeed);
      return ds::make_lenet_s(rng);
    };
  }

  ds::serve::ServerConfig server_config() const {
    ds::serve::ServerConfig cfg;
    cfg.replicas = 1;
    cfg.batch.max_batch = kMaxBatch;
    cfg.admission.enabled = true;
    cfg.admission.deadline_s = 20e-3;
    cfg.autoscale.enabled = true;
    cfg.autoscale.min_replicas = 1;
    cfg.autoscale.max_replicas = 4;
    cfg.autoscale.scale_up_queue_depth = 16;
    cfg.autoscale.activation_delay_s = 2e-3;
    cfg.run_model = run_model_;
    return cfg;
  }

  /// The first b pool images as one request batch.
  ds::Tensor pool_batch(std::size_t b) const {
    ds::Tensor batch(ds::Shape({b, 1, 28, 28}));
    std::memcpy(batch.data(), pool_.images.data(),
                batch.numel() * sizeof(float));
    return batch;
  }

  /// The batcher's and the admission rule's per-request cost, replayed on
  /// this workload's arrival trace and server config: every arrival is
  /// priced by admission_feasible against a synthetic queue state and
  /// pushed; batches leave as the dispatch rules fire.
  void replay_batcher() {
    const ds::serve::ServerConfig cfg = server_config();
    const ds::serve::BatchPolicy& policy = cfg.batch;
    const double deadline_s = cfg.admission.deadline_s;
    // The full-batch service and reply times the server prices with.
    const double service_s = hw_->data_copy_seconds(policy.max_batch) +
                             hw_->infer_seconds(policy.max_batch);
    const double reply_s = hw_->reply_seconds(policy.max_batch);
    const std::size_t n = std::min<std::size_t>(arrivals_.size(), 200000);
    replay_requests_ = static_cast<double>(n);
    std::size_t admitted = 0;  // kept in replay_sink_ so no call is elided
    for (int rep = 0; rep < 5; ++rep) {
      traced("serve.admission", [&] {
        for (std::size_t i = 0; i < n; ++i) {
          const double t = arrivals_[i];
          admitted += ds::serve::admission_feasible(
              t, t + deadline_s, i % 64, 1 + i % 4, t + 1e-4 * (i % 8),
              policy, service_s, reply_s);
        }
      });
      traced("serve.batcher", [&] {
        ds::serve::Batcher batcher(policy);
        for (std::size_t i = 0; i < n; ++i) {
          batcher.push({i, arrivals_[i], arrivals_[i] + deadline_s});
          if (batcher.should_dispatch(arrivals_[i])) {
            admitted += batcher.take_batch().size();
          }
        }
      });
    }
    replay_sink_ = admitted;
  }

  bool run_model_;
  double duration_s_;
  ds::Dataset pool_;
  std::vector<double> arrivals_;
  std::unique_ptr<ds::GpuSystem> hw_;
  std::unique_ptr<ds::serve::Server> server_;
  ds::serve::ServeResult result_;
  // Per-layer replay state (trace runs only).
  std::unique_ptr<ds::Network> net_;
  ds::Tensor batch_;
  std::optional<LayerReplay> layers_;
  std::optional<GemmReplay> gemm_;
  double replay_requests_ = 1.0;
  std::size_t replay_sink_ = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "train_alexnet_sync") return std::make_unique<TrainAlexnetSync>();
  if (name == "serve_lenet_bursty") {
    return std::make_unique<ServeBursty>(/*run_model=*/true, 3.0);
  }
  if (name == "serve_sched_bursty") {
    return std::make_unique<ServeBursty>(/*run_model=*/false, 120.0);
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value);
    } else if (key == "--trace") {
      args.trace = std::string(value) == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

void append_json_number(std::ostringstream& os, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

std::string metrics_json(const Metrics& metrics) {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (const auto& [name, m] : metrics) {
    os << (first ? "" : ", ") << '"' << name << "\": {\"value\": ";
    append_json_number(os, m.value);
    os << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << '}';
  return os.str();
}

std::string detail_json(
    const std::vector<std::pair<std::string, double>>& detail) {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < detail.size(); ++i) {
    os << (i ? ", " : "") << '"' << detail[i].first << "\": ";
    append_json_number(os, detail[i].second);
  }
  os << '}';
  return os.str();
}

struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(const RunOutcome& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
};

/// End-to-end pass: repeated {setup, run} until the time budget is spent.
Metrics measure_end_to_end(Workload& w, const Args& args, Checks& checks,
                           Totals& totals,
                           std::vector<std::pair<std::string, double>>& detail) {
  constexpr int kMinRepeats = 3;
  std::vector<double> setup_s, items_per_s;
  RunOutcome first;
  const Clock::time_point start = Clock::now();
  for (int rep = 0; rep < kMinRepeats || seconds_since(start) < args.seconds;
       ++rep) {
    const Clock::time_point t0 = Clock::now();
    w.setup(args.seed);
    setup_s.push_back(seconds_since(t0));
    const Clock::time_point t1 = Clock::now();
    RunOutcome o = w.run(checks);
    const double run_s = seconds_since(t1);
    items_per_s.push_back(o.items / run_s);
    totals.add(o);
    if (rep == 0) {
      first = std::move(o);
    } else {
      checks.expect(o.digest == first.digest,
                    "repetition " + std::to_string(rep) +
                        " produced different bits from repetition 0");
    }
  }
  Metrics m;
  m["setup_s"] = {median(setup_s), "s"};
  m["items_per_s"] = {median(items_per_s), "1/s"};
  m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  m["vtime_s"] = {first.vtime_s, "vs"};
  m["vgoodput_per_s"] = {first.vgoodput_per_s, "1/vs"};
  m["vp50_ms"] = {first.vp50_ms, "vms"};
  m["vp99_ms"] = {first.vp99_ms, "vms"};
  detail = std::move(first.detail);
  detail.emplace_back("repetitions", static_cast<double>(setup_s.size()));
  detail.emplace_back("latency_samples",
                      static_cast<double>(first.latency_samples));
  detail.emplace_back("items_per_run", first.items);
  return m;
}

/// Traced pass: an untimed warm-up, then one untraced and one traced
/// execution of the same inputs, then the per-layer replays.
Metrics measure_layers(Workload& w, const Args& args, Checks& checks,
                       Totals& totals,
                       std::vector<std::pair<std::string, double>>& detail) {
  w.setup(args.seed);
  totals.add(w.run(checks));
  w.setup(args.seed);
  Clock::time_point t0 = Clock::now();
  const RunOutcome plain = w.run(checks);
  const double plain_s = seconds_since(t0);
  totals.add(plain);

  ds::obs::reset();
  ds::obs::set_tracing_enabled(true);
  w.setup(args.seed);
  t0 = Clock::now();
  const RunOutcome traced_run = w.run(checks);
  const double traced_s = seconds_since(t0);
  totals.add(traced_run);
  checks.expect(traced_run.digest == plain.digest,
                "traced run produced different bits from the untraced run");
  // A long traced run can fill the recorder (it caps events per thread and
  // counts the rest as dropped): harvest it, then give the replays a fresh
  // recorder.
  SpanTimes spans;
  collect_spans(spans);
  const std::size_t events = recorded_events();
  const std::uint64_t dropped = ds::obs::dropped_events();
  ds::obs::reset();

  w.replay_layers();
  ds::obs::set_tracing_enabled(false);
  collect_spans(spans);
  ds::obs::reset();

  Metrics m;
  for (const auto& [name, unit] : kLayerMetrics) m[name] = {0.0, unit};
  w.layer_metrics(spans, traced_s, m);
  m["obs.trace_overhead"].value = traced_s / plain_s - 1.0;
  m["obs.events"].value = static_cast<double>(events);
  detail = {{"untraced_run_s", plain_s},
            {"traced_run_s", traced_s},
            {"dropped_events", static_cast<double>(dropped)}};
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  std::unique_ptr<Workload> w = make_workload(args.workload);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  // Single-threaded by contract: no intra-GEMM threading.
  ds::kernel_config().gemm_threads = 1;
  // A fixed mmap threshold turns off glibc's adaptive one, under which
  // whether a freed block's pages stay resident depends on allocation
  // order, so peak_rss_mb would flip between runs of the same program.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  Checks checks;
  Totals totals;
  std::vector<std::pair<std::string, double>> detail;
  Metrics metrics;
  try {
    metrics = args.trace
                  ? measure_layers(*w, args, checks, totals, detail)
                  : measure_end_to_end(*w, args, checks, totals, detail);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  const long threads = thread_count();
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  checks.expect(threads >= 1 && threads <= cpus,
                "process ran " + std::to_string(threads) + " threads on " +
                    std::to_string(cpus) + " CPUs");
  detail.emplace_back("threads", static_cast<double>(threads));
  for (const auto& [name, m] : metrics) {
    checks.expect(std::isfinite(m.value), name + " is not finite");
  }
  for (const std::string& f : checks.failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }

  std::printf("perfbench-detail {\"workload\": \"%s\", \"seed\": %llu, "
              "\"build_type\": \"%s\", \"values\": %s}\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), PERFBENCH_BUILD_TYPE,
              detail_json(detail).c_str());
  const bool correct = checks.failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(totals.attempted),
              static_cast<unsigned long long>(totals.failed),
              metrics_json(metrics).c_str());
  return correct ? 0 : 1;
}
