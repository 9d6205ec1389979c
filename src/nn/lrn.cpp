#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "nn/layers.hpp"

namespace ds {

namespace {

// s^-β is memoised for the floats whose bit patterns lie in
// [bits(k), bits(k) + kPowMemoSize): with k > 0 and α ≥ 0,
// s = k + (α/n)·Σx² never drops below k, and at AlexNet's α = 1e-4 it stays
// within a few hundred ulps of it (1376 at most over a whole seeded
// train_alexnet_sync run of perfbench, with no miss).
constexpr std::uint32_t kPowMemoSize = 4096;

std::vector<float> make_pow_memo(float k, float neg_beta) {
  std::vector<float> memo(kPowMemoSize);
  const auto k_bits = std::bit_cast<std::uint32_t>(k);
  for (std::uint32_t d = 0; d < kPowMemoSize; ++d) {
    memo[d] = std::pow(std::bit_cast<float>(k_bits + d), neg_beta);
  }
  return memo;
}

}  // namespace

LocalResponseNorm::LocalResponseNorm(std::size_t size, double alpha,
                                     double beta, double k)
    : size_(size),
      alpha_(alpha),
      beta_(beta),
      k_(k),
      pow_memo_(make_pow_memo(static_cast<float>(k),
                              static_cast<float>(-beta))) {
  DS_CHECK(size_ >= 1, "LRN window must be at least 1");
  DS_CHECK(size_ % 2 == 1, "LRN window must be odd (centred)");
  // k ≤ 0 or α < 0 lets s reach 0 or go negative (pow then yields inf or
  // NaN), and the memo's s ≥ k reasoning assumes both.
  DS_CHECK(k_ > 0.0, "LRN k must be positive, got " << k_);
  DS_CHECK(alpha_ >= 0.0, "LRN alpha must be non-negative, got " << alpha_);
  DS_CHECK(std::isfinite(beta_), "LRN beta must be finite, got " << beta_);
}

std::string LocalResponseNorm::name() const {
  std::ostringstream os;
  os << "lrn n=" << size_ << " a=" << alpha_ << " b=" << beta_;
  return os.str();
}

// p[i] = std::pow(s[i], -β), exactly: a memo hit returns the pow of that
// very float. A row that is all hits (the common case) runs as one gather.
void LocalResponseNorm::pow_neg_beta(const float* s, float* p,
                                     std::size_t n) const {
  const auto k_bits = std::bit_cast<std::uint32_t>(static_cast<float>(k_));
  std::uint32_t worst = 0;
  for (std::size_t i = 0; i < n; ++i) {
    worst = std::max(worst, std::bit_cast<std::uint32_t>(s[i]) - k_bits);
  }
  if (worst < kPowMemoSize) {
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = pow_memo_[std::bit_cast<std::uint32_t>(s[i]) - k_bits];
    }
    return;
  }
  const float neg_beta = static_cast<float>(-beta_);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t d = std::bit_cast<std::uint32_t>(s[i]) - k_bits;
    p[i] = d < kPowMemoSize ? pow_memo_[d] : std::pow(s[i], neg_beta);
  }
}

// Both passes run their channel-window sums over whole rows of hw elements,
// so the inner loops vectorise over the spatial index i. Every element still
// sees 0 + t[lo] + … + t[hi] in channel order, so the bits match the
// per-element scalar sum (GCC contracts x·x into the same FMA either way).
// Squares are never stored: rounding x·x apart from the add would change
// the bits.
void LocalResponseNorm::forward(const Tensor& x, Tensor& y, bool /*train*/) {
  DS_CHECK(x.rank() == 4, "lrn input must be NCHW");
  if (y.shape() != x.shape()) y = Tensor(x.shape());
  const std::size_t batch = x.dim(0), channels = x.dim(1);
  const std::size_t hw = x.dim(2) * x.dim(3);
  scale_.resize(x.numel());
  const long half = static_cast<long>(size_ / 2);
  const float coeff = static_cast<float>(alpha_ / static_cast<double>(size_));
  const float kf = static_cast<float>(k_);

  for (std::size_t n = 0; n < batch; ++n) {
    const float* xn = x.data() + n * channels * hw;
    float* yn = y.data() + n * channels * hw;
    float* sn = scale_.data() + n * channels * hw;
    for (std::size_t c = 0; c < channels; ++c) {
      const long lo = std::max<long>(0, static_cast<long>(c) - half);
      const long hi = std::min<long>(static_cast<long>(channels) - 1,
                                     static_cast<long>(c) + half);
      float* s = sn + c * hw;
      std::fill(s, s + hw, 0.0f);
      for (long cc = lo; cc <= hi; ++cc) {
        const float* xc = xn + static_cast<std::size_t>(cc) * hw;
        for (std::size_t i = 0; i < hw; ++i) s[i] += xc[i] * xc[i];
      }
      for (std::size_t i = 0; i < hw; ++i) s[i] = kf + coeff * s[i];
      const float* xr = xn + c * hw;
      float* yr = yn + c * hw;
      pow_neg_beta(s, yr, hw);
      for (std::size_t i = 0; i < hw; ++i) yr[i] = xr[i] * yr[i];
    }
  }
}

void LocalResponseNorm::backward(const Tensor& x, const Tensor& y,
                                 const Tensor& dy, Tensor& dx) {
  DS_CHECK(scale_.size() == x.numel(), "lrn backward before forward");
  if (dx.shape() != x.shape()) dx = Tensor(x.shape());
  const std::size_t batch = x.dim(0), channels = x.dim(1);
  const std::size_t hw = x.dim(2) * x.dim(3);
  const long half = static_cast<long>(size_ / 2);
  const float coeff = static_cast<float>(alpha_ / static_cast<double>(size_));
  const float b = static_cast<float>(beta_);
  // dy·y/s is computed once per element, one channel row at a time, into a
  // ring of `size_` rows: enough to hold every row of the current window.
  ratio_.resize((size_ + 1) * hw);
  float* p = ratio_.data() + size_ * hw;  // s^-β of the current channel row
  const auto ratio_row = [&](long cc) {
    return ratio_.data() + static_cast<std::size_t>(cc) % size_ * hw;
  };

  // dL/dx[c] = dy[c]·s[c]^{-β} − 2·(α/n)·β·x[c]·Σ_{c'∋c} dy[c']·y[c']/s[c']
  for (std::size_t n = 0; n < batch; ++n) {
    const std::size_t base = n * channels * hw;
    const float* xn = x.data() + base;
    const float* yn = y.data() + base;
    const float* gn = dy.data() + base;
    const float* sn = scale_.data() + base;
    float* on = dx.data() + base;
    long next = 0;  // first channel whose ratio row is not yet in the ring
    for (std::size_t c = 0; c < channels; ++c) {
      // Channels whose window CONTAINS c (symmetric window ⇒ same range).
      const long lo = std::max<long>(0, static_cast<long>(c) - half);
      const long hi = std::min<long>(static_cast<long>(channels) - 1,
                                     static_cast<long>(c) + half);
      for (; next <= hi; ++next) {
        const std::size_t row = static_cast<std::size_t>(next) * hw;
        float* t = ratio_row(next);
        for (std::size_t i = 0; i < hw; ++i) {
          t[i] = gn[row + i] * yn[row + i] / sn[row + i];
        }
      }
      float* cross = on + c * hw;  // dx's own row accumulates the cross sum
      std::fill(cross, cross + hw, 0.0f);
      for (long cc = lo; cc <= hi; ++cc) {
        const float* t = ratio_row(cc);
        for (std::size_t i = 0; i < hw; ++i) cross[i] += t[i];
      }
      pow_neg_beta(sn + c * hw, p, hw);
      for (std::size_t i = 0; i < hw; ++i) {
        const std::size_t idx = c * hw + i;
        on[idx] = gn[idx] * p[i] - 2.0f * coeff * b * xn[idx] * cross[i];
      }
    }
  }
}

double LocalResponseNorm::flops_per_sample(const Shape& input) const {
  double elems = 1.0;
  for (std::size_t i = 1; i < input.rank(); ++i) {
    elems *= static_cast<double>(input.dim(i));
  }
  // window sum-of-squares + pow, forward and backward.
  return elems * (2.0 * static_cast<double>(size_) + 20.0) * 2.0;
}

}  // namespace ds
