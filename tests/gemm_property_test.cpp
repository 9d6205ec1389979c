// Property-based GEMM tests: algebraic identities that must hold for every
// transpose mode and shape, checked over randomized sweeps, plus the packed
// kernel's contracts — non-contiguous leading dimensions, alpha/beta edge
// cases, ragged shapes around every blocking boundary, the fused bias
// epilogue, bitwise equality of concurrent callers with one serial caller,
// and the rejection of any thread count other than 1.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "tensor/direct_conv.hpp"
#include "tensor/gemm.hpp"

namespace ds {
namespace {

struct Mats {
  std::size_t m, n, k;
  std::vector<float> a, b, c;
};

// Reference triple loop, same op() semantics as gemm().
void naive_gemm(bool ta, bool tb, std::size_t m, std::size_t n, std::size_t k,
                float alpha, const std::vector<float>& a, std::size_t lda,
                const std::vector<float>& b, std::size_t ldb, float beta,
                std::vector<float>& c, std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = ta ? a[p * lda + i] : a[i * lda + p];
        const float bv = tb ? b[j * ldb + p] : b[p * ldb + j];
        acc += static_cast<double>(av) * static_cast<double>(bv);
      }
      c[i * ldc + j] = static_cast<float>(alpha * acc) + beta * c[i * ldc + j];
    }
  }
}

Mats random_mats(Rng& rng) {
  Mats mats;
  mats.m = 1 + rng.below(24);
  mats.n = 1 + rng.below(24);
  mats.k = 1 + rng.below(24);
  mats.a.resize(mats.m * mats.k);
  mats.b.resize(mats.k * mats.n);
  mats.c.resize(mats.m * mats.n);
  for (auto& v : mats.a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : mats.b) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : mats.c) v = static_cast<float>(rng.uniform(-1, 1));
  return mats;
}

class GemmPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GemmPropertyTest, AlphaIsLinear) {
  // gemm(2α) == 2 · gemm(α) when beta = 0.
  Rng rng(GetParam());
  const Mats mats = random_mats(rng);
  std::vector<float> c1(mats.m * mats.n), c2(mats.m * mats.n);
  gemm(Transpose::kNo, Transpose::kNo, mats.m, mats.n, mats.k, 0.7f,
       mats.a.data(), mats.b.data(), 0.0f, c1.data());
  gemm(Transpose::kNo, Transpose::kNo, mats.m, mats.n, mats.k, 1.4f,
       mats.a.data(), mats.b.data(), 0.0f, c2.data());
  for (std::size_t i = 0; i < c1.size(); ++i) {
    EXPECT_NEAR(c2[i], 2.0f * c1[i], 1e-4f);
  }
}

TEST_P(GemmPropertyTest, BetaAccumulates) {
  // gemm(beta=1) twice == gemm(alpha doubled) once onto zero C.
  Rng rng(GetParam() + 1000);
  const Mats mats = random_mats(rng);
  std::vector<float> acc(mats.m * mats.n, 0.0f), once(mats.m * mats.n, 0.0f);
  gemm(Transpose::kNo, Transpose::kNo, mats.m, mats.n, mats.k, 1.0f,
       mats.a.data(), mats.b.data(), 1.0f, acc.data());
  gemm(Transpose::kNo, Transpose::kNo, mats.m, mats.n, mats.k, 1.0f,
       mats.a.data(), mats.b.data(), 1.0f, acc.data());
  gemm(Transpose::kNo, Transpose::kNo, mats.m, mats.n, mats.k, 2.0f,
       mats.a.data(), mats.b.data(), 0.0f, once.data());
  for (std::size_t i = 0; i < acc.size(); ++i) {
    EXPECT_NEAR(acc[i], once[i], 1e-4f);
  }
}

TEST_P(GemmPropertyTest, TransposeModesAgree) {
  // Computing A·B via the NT path with Bᵀ materialised must match NN, and
  // likewise TN with Aᵀ materialised.
  Rng rng(GetParam() + 2000);
  const Mats mats = random_mats(rng);
  std::vector<float> nn(mats.m * mats.n, 0.0f);
  gemm(Transpose::kNo, Transpose::kNo, mats.m, mats.n, mats.k, 1.0f,
       mats.a.data(), mats.b.data(), 0.0f, nn.data());

  // B transposed into n×k storage.
  std::vector<float> bt(mats.n * mats.k);
  for (std::size_t p = 0; p < mats.k; ++p) {
    for (std::size_t j = 0; j < mats.n; ++j) {
      bt[j * mats.k + p] = mats.b[p * mats.n + j];
    }
  }
  std::vector<float> nt(mats.m * mats.n, 0.0f);
  gemm(Transpose::kNo, Transpose::kYes, mats.m, mats.n, mats.k, 1.0f,
       mats.a.data(), bt.data(), 0.0f, nt.data());

  // A transposed into k×m storage.
  std::vector<float> at(mats.k * mats.m);
  for (std::size_t i = 0; i < mats.m; ++i) {
    for (std::size_t p = 0; p < mats.k; ++p) {
      at[p * mats.m + i] = mats.a[i * mats.k + p];
    }
  }
  std::vector<float> tn(mats.m * mats.n, 0.0f);
  gemm(Transpose::kYes, Transpose::kNo, mats.m, mats.n, mats.k, 1.0f,
       at.data(), mats.b.data(), 0.0f, tn.data());

  std::vector<float> tt(mats.m * mats.n, 0.0f);
  gemm(Transpose::kYes, Transpose::kYes, mats.m, mats.n, mats.k, 1.0f,
       at.data(), bt.data(), 0.0f, tt.data());

  for (std::size_t i = 0; i < nn.size(); ++i) {
    EXPECT_NEAR(nt[i], nn[i], 1e-4f);
    EXPECT_NEAR(tn[i], nn[i], 1e-4f);
    EXPECT_NEAR(tt[i], nn[i], 1e-4f);
  }
}

TEST_P(GemmPropertyTest, IdentityMatrixIsNeutral) {
  Rng rng(GetParam() + 3000);
  Mats mats = random_mats(rng);
  // B = I (k×k), so A·I == A.
  mats.n = mats.k;
  std::vector<float> identity(mats.k * mats.k, 0.0f);
  for (std::size_t i = 0; i < mats.k; ++i) identity[i * mats.k + i] = 1.0f;
  std::vector<float> out(mats.m * mats.k, 0.0f);
  gemm(Transpose::kNo, Transpose::kNo, mats.m, mats.k, mats.k, 1.0f,
       mats.a.data(), identity.data(), 0.0f, out.data());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out[i], mats.a[i], 1e-5f);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, GemmPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST_P(GemmPropertyTest, NonContiguousLeadingDimensions) {
  // Matrices embedded in larger buffers (lda/ldb/ldc > minimum) must give
  // bitwise the same C entries as the compact call: packing normalises the
  // layout, so the arithmetic is identical.
  Rng rng(GetParam() + 4000);
  const Mats mats = random_mats(rng);
  const std::size_t pad_a = 1 + rng.below(5);
  const std::size_t pad_b = 1 + rng.below(5);
  const std::size_t pad_c = 1 + rng.below(5);
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      const std::size_t ar = ta ? mats.k : mats.m;  // stored rows of A
      const std::size_t ac = ta ? mats.m : mats.k;
      const std::size_t br = tb ? mats.n : mats.k;
      const std::size_t bc = tb ? mats.k : mats.n;
      const std::size_t lda = ac + pad_a;
      const std::size_t ldb = bc + pad_b;
      const std::size_t ldc = mats.n + pad_c;
      std::vector<float> sa(ar * lda, -7.0f), sb(br * ldb, -7.0f);
      for (std::size_t i = 0; i < ar; ++i) {
        for (std::size_t j = 0; j < ac; ++j) {
          sa[i * lda + j] = static_cast<float>(rng.uniform(-1, 1));
        }
      }
      for (std::size_t i = 0; i < br; ++i) {
        for (std::size_t j = 0; j < bc; ++j) {
          sb[i * ldb + j] = static_cast<float>(rng.uniform(-1, 1));
        }
      }
      std::vector<float> ca(ar * ac), cb(br * bc);
      for (std::size_t i = 0; i < ar; ++i) {
        for (std::size_t j = 0; j < ac; ++j) ca[i * ac + j] = sa[i * lda + j];
      }
      for (std::size_t i = 0; i < br; ++i) {
        for (std::size_t j = 0; j < bc; ++j) cb[i * bc + j] = sb[i * ldb + j];
      }
      std::vector<float> c_strided(mats.m * ldc, 3.0f);
      std::vector<float> c_compact(mats.m * mats.n, 3.0f);
      const auto t = [](bool yes) {
        return yes ? Transpose::kYes : Transpose::kNo;
      };
      gemm(t(ta), t(tb), mats.m, mats.n, mats.k, 1.3f, sa.data(), lda,
           sb.data(), ldb, 0.4f, c_strided.data(), ldc);
      gemm(t(ta), t(tb), mats.m, mats.n, mats.k, 1.3f, ca.data(), ac,
           cb.data(), bc, 0.4f, c_compact.data(), mats.n);
      for (std::size_t i = 0; i < mats.m; ++i) {
        for (std::size_t j = 0; j < mats.n; ++j) {
          EXPECT_EQ(c_strided[i * ldc + j], c_compact[i * mats.n + j])
              << "ta=" << ta << " tb=" << tb << " at (" << i << "," << j
              << ")";
        }
        // Padding beyond column n must be untouched.
        for (std::size_t j = mats.n; j < ldc; ++j) {
          EXPECT_EQ(c_strided[i * ldc + j], 3.0f);
        }
      }
    }
  }
}

TEST_P(GemmPropertyTest, AlphaBetaEdgeCases) {
  Rng rng(GetParam() + 5000);
  const Mats mats = random_mats(rng);
  for (const float alpha : {0.0f, 1.0f, -1.0f, 2.5f}) {
    for (const float beta : {0.0f, 1.0f, -1.0f, 0.5f}) {
      std::vector<float> got = mats.c, want = mats.c;
      gemm(Transpose::kNo, Transpose::kNo, mats.m, mats.n, mats.k, alpha,
           mats.a.data(), mats.k, mats.b.data(), mats.n, beta, got.data(),
           mats.n);
      naive_gemm(false, false, mats.m, mats.n, mats.k, alpha, mats.a, mats.k,
                 mats.b, mats.n, beta, want, mats.n);
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_NEAR(got[i], want[i], 1e-4f)
            << "alpha=" << alpha << " beta=" << beta << " i=" << i;
      }
    }
  }
}

TEST(GemmBlockingTest, RaggedShapesAroundEveryBoundary) {
  // One less / exactly / one more than each blocking parameter, in every
  // dimension it applies to: micro-tile (MR, NR), cache blocks (MC, KC),
  // and the NC panel in one large-n case.
  const std::size_t m_sizes[] = {1,         kGemmMR - 1, kGemmMR,
                                 kGemmMR + 1, kGemmMC - 1, kGemmMC,
                                 kGemmMC + 1};
  const std::size_t n_sizes[] = {1, kGemmNR - 1, kGemmNR, kGemmNR + 1};
  const std::size_t k_sizes[] = {1, kGemmKC - 1, kGemmKC, kGemmKC + 1};
  Rng rng(77);
  for (const std::size_t m : m_sizes) {
    for (const std::size_t n : n_sizes) {
      for (const std::size_t k : k_sizes) {
        Mats mats;
        mats.m = m;
        mats.n = n;
        mats.k = k;
        mats.a.resize(m * k);
        mats.b.resize(k * n);
        mats.c.resize(m * n);
        for (auto& v : mats.a) v = static_cast<float>(rng.uniform(-1, 1));
        for (auto& v : mats.b) v = static_cast<float>(rng.uniform(-1, 1));
        for (auto& v : mats.c) v = static_cast<float>(rng.uniform(-1, 1));
        std::vector<float> got = mats.c, want = mats.c;
        gemm(Transpose::kNo, Transpose::kNo, m, n, k, 1.0f, mats.a.data(),
             mats.b.data(), 1.0f, got.data());
        naive_gemm(false, false, m, n, k, 1.0f, mats.a, k, mats.b, n, 1.0f,
                   want, n);
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_NEAR(got[i], want[i], 2e-3f)
              << "m=" << m << " n=" << n << " k=" << k << " i=" << i;
        }
      }
    }
  }
  // NC boundary: n crossing the outermost panel split.
  for (const std::size_t n : {kGemmNC - 1, kGemmNC, kGemmNC + 1}) {
    const std::size_t m = 7, k = 33;
    std::vector<float> a(m * k), b(k * n), got(m * n, 0.5f), want(got);
    for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
    for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
    gemm(Transpose::kNo, Transpose::kNo, m, n, k, 1.0f, a.data(), b.data(),
         1.0f, got.data());
    naive_gemm(false, false, m, n, k, 1.0f, a, k, b, n, 1.0f, want, n);
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_NEAR(got[i], want[i], 2e-3f) << "n=" << n << " i=" << i;
    }
  }
}

TEST(GemmEpilogueTest, FusedBiasMatchesManualAdd) {
  Rng rng(88);
  const std::size_t m = 13, n = 37, k = 19;
  std::vector<float> a(m * k), b(k * n), row_bias(m), col_bias(n);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : row_bias) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : col_bias) v = static_cast<float>(rng.uniform(-1, 1));
  std::vector<float> fused(m * n, 0.25f), manual(m * n, 0.25f);
  GemmEpilogue ep;
  ep.row_bias = row_bias.data();
  ep.col_bias = col_bias.data();
  gemm(Transpose::kNo, Transpose::kNo, m, n, k, 1.0f, a.data(), k, b.data(),
       n, 0.5f, fused.data(), n, ep);
  gemm(Transpose::kNo, Transpose::kNo, m, n, k, 1.0f, a.data(), k, b.data(),
       n, 0.5f, manual.data(), n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      manual[i * n + j] += row_bias[i] + col_bias[j];
    }
  }
  for (std::size_t i = 0; i < fused.size(); ++i) {
    EXPECT_NEAR(fused[i], manual[i], 1e-5f) << "i=" << i;
  }
  // Degenerate cases (k == 0 and alpha == 0) must still apply the bias.
  std::vector<float> deg(m * n, 2.0f);
  gemm(Transpose::kNo, Transpose::kNo, m, n, 0, 1.0f, nullptr, k, nullptr, n,
       1.0f, deg.data(), n, ep);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_FLOAT_EQ(deg[i * n + j], 2.0f + row_bias[i] + col_bias[j]);
    }
  }
}

TEST(GemmThreadingTest, ConcurrentCallersMatchSerial) {
  // Fabric ranks call the kernel from one OS thread each, every thread on its
  // own thread-local packing workspace and kernel config. Several callers
  // running shapes that straddle every block boundary, in all transpose
  // modes, at once and in staggered order, must reproduce the serial bits.
  Rng rng(99);
  struct Case {
    std::size_t m, n, k;
    bool ta, tb;
    std::vector<float> a, b, c0, serial;
  };
  const std::size_t shapes[][3] = {{kGemmMC + 5, kGemmNR * 3 + 1, kGemmKC + 9},
                                   {kGemmMR - 1, 200, 64},
                                   {200, kGemmNR - 3, kGemmKC * 2 + 1},
                                   {64, 64, 64}};
  const auto t = [](bool yes) {
    return yes ? Transpose::kYes : Transpose::kNo;
  };
  const auto run = [&](const Case& cs, std::vector<float>& c) {
    c = cs.c0;
    gemm(t(cs.ta), t(cs.tb), cs.m, cs.n, cs.k, 1.1f, cs.a.data(),
         cs.ta ? cs.m : cs.k, cs.b.data(), cs.tb ? cs.k : cs.n, 0.3f,
         c.data(), cs.n);
  };
  std::vector<Case> cases;
  for (const auto& sh : shapes) {
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        Case cs{sh[0], sh[1], sh[2], ta, tb, {}, {}, {}, {}};
        cs.a.resize(cs.m * cs.k);
        cs.b.resize(cs.k * cs.n);
        cs.c0.resize(cs.m * cs.n);
        for (auto& v : cs.a) v = static_cast<float>(rng.uniform(-1, 1));
        for (auto& v : cs.b) v = static_cast<float>(rng.uniform(-1, 1));
        for (auto& v : cs.c0) v = static_cast<float>(rng.uniform(-1, 1));
        run(cs, cs.serial);
        cases.push_back(std::move(cs));
      }
    }
  }
  constexpr std::size_t kCallers = 4;
  std::vector<std::vector<std::vector<float>>> out(
      kCallers, std::vector<std::vector<float>>(cases.size()));
  parallel_for_threads(kCallers, [&](std::size_t caller) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const std::size_t idx = (i + caller * 3) % cases.size();
      run(cases[idx], out[caller][idx]);
    }
  });
  for (std::size_t caller = 0; caller < kCallers; ++caller) {
    for (std::size_t idx = 0; idx < cases.size(); ++idx) {
      const Case& cs = cases[idx];
      ASSERT_EQ(0, std::memcmp(cs.serial.data(), out[caller][idx].data(),
                               cs.serial.size() * sizeof(float)))
          << "m=" << cs.m << " n=" << cs.n << " k=" << cs.k
          << " ta=" << cs.ta << " tb=" << cs.tb << " caller=" << caller;
    }
  }
}

TEST(GemmTest, RejectsGemmThreadsOtherThanOne) {
  std::vector<float> a(4, 1.0f), b(4, 1.0f), c(4, 0.0f);
  const BlockedLayout layout{1, 2, 2, 1};
  std::vector<float> x(layout.image_floats(), 0.0f), w(9, 0.0f), y(4);
  std::vector<float> dw(9, 0.0f), db(1, 0.0f);
  for (const std::size_t threads : {std::size_t{0}, std::size_t{2}}) {
    kernel_config().gemm_threads = threads;
    EXPECT_THROW(gemm(Transpose::kNo, Transpose::kNo, 2, 2, 2, 1.0f, a.data(),
                      b.data(), 0.0f, c.data()),
                 Error);
    EXPECT_THROW(direct_conv3x3_forward(layout, 1, 1, x.data(), w.data(),
                                        nullptr, y.data()),
                 Error);
    EXPECT_THROW(direct_conv3x3_backward_weights(layout, 1, 1, x.data(),
                                                 x.data(), dw.data(),
                                                 db.data()),
                 Error);
  }
  kernel_config().gemm_threads = 1;
  gemm(Transpose::kNo, Transpose::kNo, 2, 2, 2, 1.0f, a.data(), b.data(),
       0.0f, c.data());
  EXPECT_EQ(c, std::vector<float>(4, 2.0f));
}

}  // namespace
}  // namespace ds
