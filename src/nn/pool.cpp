#include <limits>
#include <sstream>

#include "nn/layers.hpp"

namespace ds {
namespace {

Shape pooled_shape(const Shape& input, std::size_t kernel, std::size_t stride,
                   const char* what) {
  DS_CHECK(input.rank() == 4, what << " input must be NCHW");
  DS_CHECK(input.dim(2) >= kernel && input.dim(3) >= kernel,
           what << ": window " << kernel << " larger than " << input.str());
  const std::size_t ho = (input.dim(2) - kernel) / stride + 1;
  const std::size_t wo = (input.dim(3) - kernel) / stride + 1;
  return Shape{input.dim(0), input.dim(1), ho, wo};
}

}  // namespace

// -------------------------------- MaxPool ----------------------------------

MaxPool2D::MaxPool2D(std::size_t kernel, std::size_t stride, std::size_t pad)
    : kernel_(kernel), stride_(stride), pad_(pad) {
  DS_CHECK(kernel_ > 0 && stride_ > 0, "pool dims must be positive");
  DS_CHECK(pad_ < kernel_, "pool pad must be smaller than kernel");
}

std::string MaxPool2D::name() const {
  std::ostringstream os;
  os << "maxpool k" << kernel_ << " s" << stride_ << " p" << pad_;
  return os.str();
}

Shape MaxPool2D::output_shape(const Shape& input) const {
  DS_CHECK(input.rank() == 4, "maxpool input must be NCHW");
  DS_CHECK(input.dim(2) + 2 * pad_ >= kernel_ &&
               input.dim(3) + 2 * pad_ >= kernel_,
           "maxpool: window " << kernel_ << " larger than " << input.str());
  const std::size_t ho = (input.dim(2) + 2 * pad_ - kernel_) / stride_ + 1;
  const std::size_t wo = (input.dim(3) + 2 * pad_ - kernel_) / stride_ + 1;
  return Shape{input.dim(0), input.dim(1), ho, wo};
}

void MaxPool2D::forward(const Tensor& x, Tensor& y, bool /*train*/) {
  // Shape construction heap-allocates; memoize so the steady-state hot loop
  // (fixed or alternating train/eval batch shapes) does no allocation.
  if (x.shape() != in_cache_) {
    in_cache_ = x.shape();
    out_cache_ = output_shape(in_cache_);
  }
  const Shape& out = out_cache_;
  if (y.shape() != out) y = Tensor(out);
  argmax_.resize(out.numel());  // grow-only capacity, no realloc once warm
  const std::size_t planes = x.dim(0) * x.dim(1);
  const std::size_t h = x.dim(2), w = x.dim(3);
  const std::size_t ho = out.dim(2), wo = out.dim(3);
  if (kernel_ == 2 && stride_ == 2 && pad_ == 0) {
    // Unpadded 2×2/s2 windows (every zoo pool but the inception branch's
    // 3×3/s1/p1) are always in bounds, so their four taps are scanned
    // branch-free, in the generic loop's (kh, kw) order with the same strict
    // `>` from -inf at plane offset 0: ties keep the first tap, NaN taps
    // never win, and an all-NaN window yields -inf routed to offset 0. Kept
    // apart from the generic loop: sharing its loop nest made it 7× slower.
    for (std::size_t p = 0; p < planes; ++p) {
      const float* xp = x.data() + p * h * w;
      float* yp = y.data() + p * ho * wo;
      std::size_t* ap = argmax_.data() + p * ho * wo;
      for (std::size_t oh = 0; oh < ho; ++oh) {
        for (std::size_t ow = 0; ow < wo; ++ow) {
          const std::size_t tl = 2 * oh * w + 2 * ow;
          const std::size_t taps[4] = {tl, tl + 1, tl + w, tl + w + 1};
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (const std::size_t idx : taps) {
            const bool better = xp[idx] > best;
            best = better ? xp[idx] : best;
            best_idx = better ? idx : best_idx;
          }
          yp[oh * wo + ow] = best;
          ap[oh * wo + ow] = p * h * w + best_idx;
        }
      }
    }
    return;
  }
  for (std::size_t p = 0; p < planes; ++p) {
    const float* xp = x.data() + p * h * w;
    float* yp = y.data() + p * ho * wo;
    std::size_t* ap = argmax_.data() + p * ho * wo;
    for (std::size_t oh = 0; oh < ho; ++oh) {
      for (std::size_t ow = 0; ow < wo; ++ow) {
        float best = -std::numeric_limits<float>::infinity();
        std::size_t best_idx = 0;
        for (std::size_t kh = 0; kh < kernel_; ++kh) {
          const long ih = static_cast<long>(oh * stride_ + kh) -
                          static_cast<long>(pad_);
          if (ih < 0 || ih >= static_cast<long>(h)) continue;
          for (std::size_t kw = 0; kw < kernel_; ++kw) {
            const long iw = static_cast<long>(ow * stride_ + kw) -
                            static_cast<long>(pad_);
            if (iw < 0 || iw >= static_cast<long>(w)) continue;
            const std::size_t idx =
                static_cast<std::size_t>(ih) * w + static_cast<std::size_t>(iw);
            if (xp[idx] > best) {
              best = xp[idx];
              best_idx = idx;
            }
          }
        }
        yp[oh * wo + ow] = best;
        ap[oh * wo + ow] = p * h * w + best_idx;
      }
    }
  }
}

void MaxPool2D::backward(const Tensor& x, const Tensor& y, const Tensor& dy,
                         Tensor& dx) {
  if (dx.shape() != x.shape()) dx = Tensor(x.shape());
  dx.zero();
  DS_CHECK(argmax_.size() == y.numel(), "maxpool backward before forward");
  const float* g = dy.data();
  float* out = dx.data();
  for (std::size_t i = 0; i < argmax_.size(); ++i) out[argmax_[i]] += g[i];
}

double MaxPool2D::flops_per_sample(const Shape& input) const {
  const Shape out = output_shape(input);
  const double window = static_cast<double>(kernel_ * kernel_);
  double per_sample = 1.0;
  for (std::size_t i = 1; i < out.rank(); ++i) {
    per_sample *= static_cast<double>(out.dim(i));
  }
  return per_sample * window;
}

// -------------------------------- AvgPool ----------------------------------

AvgPool2D::AvgPool2D(std::size_t kernel, std::size_t stride)
    : kernel_(kernel), stride_(stride) {
  DS_CHECK(kernel_ > 0 && stride_ > 0, "pool dims must be positive");
}

std::string AvgPool2D::name() const {
  std::ostringstream os;
  os << "avgpool k" << kernel_ << " s" << stride_;
  return os.str();
}

Shape AvgPool2D::output_shape(const Shape& input) const {
  return pooled_shape(input, kernel_, stride_, "avgpool");
}

void AvgPool2D::forward(const Tensor& x, Tensor& y, bool /*train*/) {
  if (x.shape() != in_cache_) {
    in_cache_ = x.shape();
    out_cache_ = output_shape(in_cache_);
  }
  const Shape& out = out_cache_;
  if (y.shape() != out) y = Tensor(out);
  const std::size_t planes = x.dim(0) * x.dim(1);
  const std::size_t h = x.dim(2), w = x.dim(3);
  const std::size_t ho = out.dim(2), wo = out.dim(3);
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);
  for (std::size_t p = 0; p < planes; ++p) {
    const float* xp = x.data() + p * h * w;
    float* yp = y.data() + p * ho * wo;
    for (std::size_t oh = 0; oh < ho; ++oh) {
      for (std::size_t ow = 0; ow < wo; ++ow) {
        float acc = 0.0f;
        for (std::size_t kh = 0; kh < kernel_; ++kh) {
          const float* row = xp + (oh * stride_ + kh) * w + ow * stride_;
          for (std::size_t kw = 0; kw < kernel_; ++kw) acc += row[kw];
        }
        yp[oh * wo + ow] = acc * inv;
      }
    }
  }
}

void AvgPool2D::backward(const Tensor& x, const Tensor& y, const Tensor& dy,
                         Tensor& dx) {
  if (dx.shape() != x.shape()) dx = Tensor(x.shape());
  dx.zero();
  const std::size_t planes = x.dim(0) * x.dim(1);
  const std::size_t h = x.dim(2), w = x.dim(3);
  const std::size_t ho = y.dim(2), wo = y.dim(3);
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);
  for (std::size_t p = 0; p < planes; ++p) {
    const float* gp = dy.data() + p * ho * wo;
    float* dxp = dx.data() + p * h * w;
    for (std::size_t oh = 0; oh < ho; ++oh) {
      for (std::size_t ow = 0; ow < wo; ++ow) {
        const float g = gp[oh * wo + ow] * inv;
        for (std::size_t kh = 0; kh < kernel_; ++kh) {
          float* row = dxp + (oh * stride_ + kh) * w + ow * stride_;
          for (std::size_t kw = 0; kw < kernel_; ++kw) row[kw] += g;
        }
      }
    }
  }
}

double AvgPool2D::flops_per_sample(const Shape& input) const {
  const Shape out = output_shape(input);
  const double window = static_cast<double>(kernel_ * kernel_);
  double per_sample = 1.0;
  for (std::size_t i = 1; i < out.rank(); ++i) {
    per_sample *= static_cast<double>(out.dim(i));
  }
  return per_sample * window;
}

}  // namespace ds
