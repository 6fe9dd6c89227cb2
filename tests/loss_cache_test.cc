// Unit tests for core/loss_cache: envelope build/reuse accounting,
// matrix interning/deduplication, agreement with the direct Algorithm-1
// evaluation, the generic-LFP oracle regression, and thread safety.

#include "core/loss_cache.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/loss_envelope.h"
#include "lp/tpl_lfp.h"
#include "markov/stochastic_matrix.h"

namespace tcdp {
namespace {

StochasticMatrix Fig3Matrix() {
  return StochasticMatrix::FromRows({{0.8, 0.2}, {0.0, 1.0}});
}

TEST(TemporalLossCache, FirstInternBuildsEnvelopeLaterInternsReuseIt) {
  TemporalLossCache cache;
  auto loss = cache.Intern(Fig3Matrix());
  auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);  // one envelope built
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, LossEnvelope(Fig3Matrix()).num_pieces());

  // Evaluations touch no counter.
  const double first = loss->Evaluate(0.5);
  const double second = loss->Evaluate(0.5);
  EXPECT_EQ(first, second);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  auto again = cache.Intern(Fig3Matrix());
  stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);  // served by the existing envelope
  EXPECT_EQ(stats.entries, LossEnvelope(Fig3Matrix()).num_pieces());
  EXPECT_EQ(again->Evaluate(0.5), first);
}

TEST(TemporalLossCache, ZeroAlphaShortCircuits) {
  TemporalLossCache cache;
  auto loss = cache.Intern(Fig3Matrix());
  EXPECT_EQ(loss->Evaluate(0.0), 0.0);
  EXPECT_EQ(loss->Evaluate(-1.0), 0.0);
}

TEST(TemporalLossCache, InternDeduplicatesEqualMatrices) {
  TemporalLossCache cache;
  auto a = cache.Intern(Fig3Matrix());
  auto b = cache.Intern(Fig3Matrix());  // distinct object, same contents
  EXPECT_EQ(cache.stats().distinct_matrices, 1u);

  EXPECT_EQ(a->Evaluate(0.7), b->Evaluate(0.7));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(TemporalLossCache, DistinctMatricesGetDistinctEnvelopes) {
  TemporalLossCache cache;
  auto a = cache.Intern(Fig3Matrix());
  auto b = cache.Intern(StochasticMatrix::Identity(2));
  EXPECT_EQ(cache.stats().distinct_matrices, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);  // no cross-matrix sharing
  EXPECT_EQ(a->Evaluate(0.4), TemporalLossFunction(Fig3Matrix()).Evaluate(0.4));
  EXPECT_EQ(b->Evaluate(0.4),
            TemporalLossFunction(StochasticMatrix::Identity(2)).Evaluate(0.4));
}

TEST(TemporalLossCache, NeverUnderestimatesAndStaysNearDirect) {
  TemporalLossCache::Options options;
  options.alpha_resolution = 1e-9;
  TemporalLossCache cache(options);
  const auto matrix = Fig3Matrix();
  auto cached = cache.Intern(matrix);
  TemporalLossFunction direct(matrix);
  // The cache evaluates at the grid point >= alpha, so it must never
  // round a leakage down, and L's 1-Lipschitz bound keeps it within
  // two grid steps of the exact value.
  for (double alpha : {0.001, 0.1, 0.5, 1.0, 2.0, 10.0}) {
    const double got = cached->Evaluate(alpha);
    const double want = direct.Evaluate(alpha);
    EXPECT_GE(got, want) << "alpha=" << alpha;
    EXPECT_NEAR(got, want, 2e-9) << "alpha=" << alpha;
  }
}

TEST(TemporalLossCache, QuantizationErrorIsBounded) {
  TemporalLossCache::Options options;
  options.alpha_resolution = 1e-6;
  TemporalLossCache cache(options);
  const auto matrix = Fig3Matrix();
  auto cached = cache.Intern(matrix);
  TemporalLossFunction direct(matrix);
  Rng rng(20260728);
  for (int i = 0; i < 50; ++i) {
    const double alpha = rng.Uniform(1e-3, 5.0);
    // L is 1-Lipschitz in alpha, so the upward grid snap raises the
    // value by at most ~one resolution step — and never lowers it.
    const double got = cached->Evaluate(alpha);
    const double want = direct.Evaluate(alpha);
    EXPECT_GE(got, want) << "alpha=" << alpha;
    EXPECT_NEAR(got, want, 2e-6) << "alpha=" << alpha;
  }
}

TEST(TemporalLossCache, DisabledQuantizationUsesExactBits) {
  TemporalLossCache::Options options;
  options.alpha_resolution = 0.0;
  TemporalLossCache cache(options);
  auto cached = cache.Intern(Fig3Matrix());
  TemporalLossFunction direct(Fig3Matrix());
  const double alpha = 0.1 + 1e-13;  // off any coarse grid
  EXPECT_EQ(cached->Evaluate(alpha), direct.Evaluate(alpha));
}

// Satellite regression: cached L(alpha) agrees with the generic-LFP
// route (the paper's Figure 5 baseline) on small matrices.
TEST(TemporalLossCache, MatchesTemporalLossViaLfpOnSmallMatrices) {
  TemporalLossCache cache;
  Rng rng(42);
  for (std::size_t n : {2u, 3u, 4u}) {
    const auto matrix = StochasticMatrix::Random(n, &rng);
    auto cached = cache.Intern(matrix);
    for (double alpha : {0.1, 0.5, 1.0}) {
      auto oracle = TemporalLossViaLfp(matrix, alpha, LfpMethod::kCharnesCooper,
                                       LfpFormulation::kPairwise);
      ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
      EXPECT_NEAR(cached->Evaluate(alpha), *oracle, 1e-6)
          << "n=" << n << " alpha=" << alpha;
    }
  }
}

TEST(TemporalLossCache, GridPointsEvaluateBitwiseLikeTheReference) {
  // Snapping is the only step in front of the envelope, so at an alpha
  // already on the grid the cache returns the reference's exact bits —
  // the value the earlier memo stored for that grid point.
  TemporalLossCache cache;
  Rng rng(9);
  const auto matrix = StochasticMatrix::Random(5, &rng);
  auto cached = cache.Intern(matrix);
  TemporalLossFunction direct(matrix);
  for (std::int64_t key : {1LL, 7LL, 1000LL, 123456789LL, 40000000000LL}) {
    const double alpha = static_cast<double>(key) * 1e-9;
    EXPECT_EQ(cached->Evaluate(alpha), direct.Evaluate(alpha)) << alpha;
  }
}

TEST(TemporalLossCache, EvaluatorOutlivesCacheHandle) {
  std::shared_ptr<const LossEvaluator> loss;
  double direct = 0.0;
  {
    TemporalLossCache cache;
    loss = cache.Intern(Fig3Matrix());
    direct = TemporalLossFunction(Fig3Matrix()).Evaluate(0.25);
  }
  EXPECT_NEAR(loss->Evaluate(0.25), direct, 2e-9);
}

TEST(TemporalLossCache, ConcurrentInternsAndEvaluationsAgree) {
  TemporalLossCache cache;
  const double expected = cache.Intern(Fig3Matrix())->Evaluate(0.5);
  std::vector<std::thread> threads;
  std::vector<double> results(8, -1.0);
  for (std::size_t i = 0; i < results.size(); ++i) {
    threads.emplace_back([&cache, &results, i] {
      auto loss = cache.Intern(Fig3Matrix());
      for (int rep = 0; rep < 100; ++rep) results[i] = loss->Evaluate(0.5);
    });
  }
  for (auto& t : threads) t.join();
  for (double r : results) EXPECT_EQ(r, expected);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);  // one envelope, however the interns race
  EXPECT_EQ(stats.hits, results.size());
  EXPECT_EQ(stats.distinct_matrices, 1u);
}

}  // namespace
}  // namespace tcdp
