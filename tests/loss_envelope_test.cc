// Property tests for core/loss_envelope: the precomputed envelope must
// return bitwise the value TemporalLossFunction::Evaluate (the sorted-
// prefix Algorithm 1) returns, at random alphas on both sides of the
// alpha < 30 branch, at every breakpoint and its neighbouring ulps, at
// alpha-grid points, and on degenerate matrices.

#include "core/loss_envelope.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/loss_cache.h"
#include "core/privacy_loss.h"
#include "markov/smoothing.h"
#include "markov/stochastic_matrix.h"

namespace tcdp {
namespace {

std::uint64_t Bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// The grid point at or above alpha, as TemporalLossCache snaps it.
double Snap(double alpha, double resolution) {
  auto key = static_cast<std::int64_t>(std::llround(alpha / resolution));
  double snapped = static_cast<double>(key) * resolution;
  if (snapped < alpha) snapped = static_cast<double>(key + 1) * resolution;
  return snapped;
}

/// Counts bitwise comparisons against the reference; reports the first
/// few mismatches in full.
class Checker {
 public:
  void Check(double got, const TemporalLossFunction& reference, double alpha,
             const std::string& what) {
    ++checks_;
    const double want = reference.Evaluate(alpha);
    if (Bits(got) == Bits(want)) return;
    if (++mismatches_ <= 10) {
      ADD_FAILURE() << what << ": alpha=" << alpha << " envelope=" << got
                    << " reference=" << want;
    }
  }
  void Check(const LossEvaluator& envelope,
             const TemporalLossFunction& reference, double alpha,
             const std::string& what) {
    Check(envelope.Evaluate(alpha), reference, alpha, what);
  }
  std::size_t checks() const { return checks_; }
  std::size_t mismatches() const { return mismatches_; }

 private:
  std::size_t checks_ = 0;
  std::size_t mismatches_ = 0;
};

/// \p x and its two neighbouring ulps on each side.
void AddUlpNeighbourhood(double x, std::vector<double>* out) {
  double lo = x;
  for (int k = 0; k < 2; ++k) lo = std::nextafter(lo, 0.0);
  for (int k = 0; k < 5; ++k) {
    out->push_back(lo);
    lo = std::nextafter(lo, std::numeric_limits<double>::infinity());
  }
}

/// Every place the envelope's piece structure or the reference's
/// formula changes: breakpoints, envelope crossings, the fixed cuts and
/// the alpha = 30 branch, each with +/- 2 ulps; plus a few alphas far
/// above 800.
std::vector<double> StructuralAlphas(const LossEnvelope& envelope) {
  std::vector<double> out;
  for (double b : envelope.breakpoints()) AddUlpNeighbourhood(b, &out);
  for (double c : envelope.crossings()) {
    if (c > 0.0) AddUlpNeighbourhood(c, &out);
  }
  for (double g : {1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 64.0, 512.0}) {
    AddUlpNeighbourhood(g, &out);
  }
  // Deep in the tabulated range, up to its top piece.
  for (double a : {1e4, 1e6, 1.5 * 0x1p29}) out.push_back(a);
  return out;
}

/// Runs every kind of check on one matrix: \p random_alphas log-uniform
/// alphas in [1e-12, 800], the structural alphas, and a tenth as many
/// alphas through a 1e-9-resolution cache (compared with the reference
/// at the snapped alpha).
void CheckMatrix(const StochasticMatrix& matrix, std::size_t random_alphas,
                 Rng* rng, const std::string& what, Checker* checker) {
  const LossEnvelope envelope(matrix);
  const TemporalLossFunction reference(matrix);
  const double lo = std::log(1e-12), hi = std::log(800.0);
  for (std::size_t i = 0; i < random_alphas; ++i) {
    checker->Check(envelope, reference, std::exp(rng->Uniform(lo, hi)), what);
  }
  for (double alpha : StructuralAlphas(envelope)) {
    checker->Check(envelope, reference, alpha, what + " (breakpoint)");
  }
  TemporalLossCache cache;  // alpha_resolution 1e-9
  const auto cached = cache.Intern(matrix);
  for (std::size_t i = 0; i < random_alphas / 10 + 1; ++i) {
    const double alpha = std::exp(rng->Uniform(std::log(1e-9), hi));
    checker->Check(cached->Evaluate(alpha), reference, Snap(alpha, 1e-9),
                   what + " (snapped)");
  }
}

StochasticMatrix Fig3Matrix() {
  return StochasticMatrix::FromRows({{0.8, 0.2}, {0.0, 1.0}});
}

/// Scales every row of nonnegative weights to sum 1.
StochasticMatrix FromWeights(Matrix m) {
  for (std::size_t i = 0; i < m.rows(); ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < m.cols(); ++j) sum += m.At(i, j);
    for (std::size_t j = 0; j < m.cols(); ++j) m.At(i, j) /= sum;
  }
  auto matrix = StochasticMatrix::Create(std::move(m));
  EXPECT_TRUE(matrix.ok()) << matrix.status().ToString();
  return std::move(matrix).value();
}

/// Rows of small integer weights: many exactly tied slopes and ratios.
StochasticMatrix QuantizedMatrix(std::size_t n, Rng* rng) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    m.At(i, rng->UniformInt(0, static_cast<std::int64_t>(n) - 1)) = 1.0;
    for (std::size_t j = 0; j < n; ++j) {
      m.At(i, j) += static_cast<double>(rng->UniformInt(0, 3));
    }
  }
  return FromWeights(std::move(m));
}

/// Random rows with about half the entries zero (d = 0 curves).
StochasticMatrix SparseMatrix(std::size_t n, Rng* rng) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    m.At(i, i) = rng->Uniform(0.1, 1.0);
    for (std::size_t j = 0; j < n; ++j) {
      if (rng->Uniform() < 0.5) m.At(i, j) = rng->Uniform();
    }
  }
  return FromWeights(std::move(m));
}

/// Random rows with some entries near the bottom of the double range
/// (large |log q| terms in the alpha >= 30 branch).
StochasticMatrix TinyEntryMatrix(std::size_t n, Rng* rng) {
  Matrix m(n, n);
  const double tiny[] = {1e-300, 1e-200, 1e-30, 1e-12};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      m.At(i, j) = rng->Uniform() < 0.4 ? tiny[rng->UniformInt(0, 3)]
                                        : rng->Uniform(0.05, 1.0);
    }
  }
  return FromWeights(std::move(m));
}

/// Random rows where row 1 repeats row 0.
StochasticMatrix DuplicatedRowMatrix(std::size_t n, Rng* rng) {
  Matrix m = StochasticMatrix::Random(n, rng).matrix();
  for (std::size_t j = 0; j < n; ++j) m.At(1, j) = m.At(0, j);
  auto matrix = StochasticMatrix::CreateExact(std::move(m));
  EXPECT_TRUE(matrix.ok()) << matrix.status().ToString();
  return std::move(matrix).value();
}

TEST(LossEnvelope, BitwiseEqualToReferenceOverAMillionChecks) {
  struct Plan {
    std::size_t n, matrices, alphas;
  };
  // The reference costs O(n^3 log n) per evaluation, so small n carry
  // most of the checks.
  const Plan plans[] = {{2, 80, 5000}, {3, 80, 5000}, {4, 50, 5000},
                        {8, 30, 2000}, {16, 6, 1000}, {32, 2, 400}};
  Checker checker;
  for (const Plan& plan : plans) {
    for (std::size_t k = 0; k < plan.matrices; ++k) {
      Rng rng(1000 * plan.n + k);
      const std::string what =
          "n=" + std::to_string(plan.n) + " matrix=" + std::to_string(k);
      CheckMatrix(StochasticMatrix::Random(plan.n, &rng), plan.alphas, &rng,
                  what, &checker);
    }
  }
  EXPECT_GE(checker.checks(), 1000000u);
  EXPECT_EQ(checker.mismatches(), 0u);
}

TEST(LossEnvelope, BitwiseEqualOnDegenerateMatrices) {
  Checker checker;
  for (std::size_t n : {2u, 3u, 4u, 8u, 16u}) {
    Rng rng(77 + n);
    const std::string tag = " n=" + std::to_string(n);
    const std::size_t alphas = n >= 16 ? 200 : 2000;
    CheckMatrix(StochasticMatrix::Identity(n), alphas, &rng, "identity" + tag,
                &checker);
    std::vector<std::size_t> perm(n);
    for (std::size_t i = 0; i < n; ++i) perm[i] = (i + 1) % n;
    CheckMatrix(*StochasticMatrix::Permutation(perm), alphas, &rng,
                "permutation" + tag, &checker);
    CheckMatrix(StochasticMatrix::Uniform(n), alphas, &rng, "uniform" + tag,
                &checker);
    for (int rep = 0; rep < 4; ++rep) {
      CheckMatrix(QuantizedMatrix(n, &rng), alphas, &rng, "quantized" + tag,
                  &checker);
      CheckMatrix(SparseMatrix(n, &rng), alphas, &rng, "zeros" + tag,
                  &checker);
      CheckMatrix(TinyEntryMatrix(n, &rng), alphas, &rng, "tiny" + tag,
                  &checker);
      CheckMatrix(DuplicatedRowMatrix(n, &rng), alphas, &rng,
                  "duplicated" + tag, &checker);
    }
    for (double s : {0.005, 0.1, 1.0}) {
      CheckMatrix(*SmoothedCorrelationMatrix(n, s), alphas, &rng,
                  "smoothed" + tag, &checker);
    }
  }
  Rng rng(3);
  CheckMatrix(Fig3Matrix(), 20000, &rng, "fig3", &checker);
  EXPECT_EQ(checker.mismatches(), 0u) << "of " << checker.checks();
}

TEST(LossEnvelope, IdentityLossIsAlphaAndUniformLossIsZero) {
  const LossEnvelope identity(StochasticMatrix::Identity(4));
  const LossEnvelope uniform(StochasticMatrix::Uniform(4));
  EXPECT_EQ(uniform.num_curves(), 0u);
  for (double alpha : {1e-9, 0.3, 1.0, 29.0, 31.0, 500.0}) {
    // Only q = 1, d = 0 curves: L(alpha) = log1p(e^alpha - 1) = alpha.
    EXPECT_NEAR(identity.Evaluate(alpha), alpha, 4e-16 * alpha);
    EXPECT_EQ(uniform.Evaluate(alpha), 0.0);
  }
}

TEST(LossEnvelope, OutsideTheTabulatedRangeScansEveryCurve) {
  Rng rng(5);
  const auto matrix = StochasticMatrix::Random(6, &rng);
  const LossEnvelope envelope(matrix);
  const TemporalLossFunction reference(matrix);
  Checker checker;
  for (double alpha :
       {LossEnvelope::kTop, 2.0 * LossEnvelope::kTop, 1e300,
        std::numeric_limits<double>::infinity(), LossEnvelope::kBottom,
        0.5 * LossEnvelope::kBottom, std::numeric_limits<double>::denorm_min(),
        std::nextafter(LossEnvelope::kTop, 0.0)}) {
    checker.Check(envelope, reference, alpha, "edge");
  }
  EXPECT_EQ(checker.mismatches(), 0u);
  EXPECT_EQ(envelope.Evaluate(0.0), 0.0);
  EXPECT_EQ(envelope.Evaluate(-1.0), 0.0);
  EXPECT_EQ(envelope.Evaluate(std::numeric_limits<double>::quiet_NaN()), 0.0);
}

TEST(LossEnvelope, PiecesAreFewAndSorted) {
  Rng rng(16);
  const LossEnvelope envelope(StochasticMatrix::Random(16, &rng));
  EXPECT_GT(envelope.num_curves(), envelope.num_live_curves());
  EXPECT_GE(envelope.num_pieces(), 1u);
  EXPECT_LE(envelope.num_pieces(), 64u);
  EXPECT_LE(envelope.num_candidates(), 8 * envelope.num_pieces());
  const auto& breaks = envelope.breakpoints();
  EXPECT_EQ(breaks.size() + 1, envelope.num_pieces());
  for (std::size_t i = 1; i < breaks.size(); ++i) {
    EXPECT_LT(breaks[i - 1], breaks[i]);
  }
}

}  // namespace
}  // namespace tcdp
