// Unit tests for service/fleet_engine: agreement with the standalone
// TplAccountant, serial-vs-parallel determinism, cache accounting,
// late-joining users, and the population aggregates.

#include "service/fleet_engine.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "workload/generators.h"

namespace tcdp {
namespace {

StochasticMatrix Fig3Matrix() {
  return StochasticMatrix::FromRows({{0.8, 0.2}, {0.0, 1.0}});
}

TemporalCorrelations Fig3Both() {
  auto c = TemporalCorrelations::Both(Fig3Matrix(), Fig3Matrix());
  EXPECT_TRUE(c.ok());
  return std::move(c).value();
}

FleetEngine MakeEngine(std::size_t threads, bool cache,
                       std::size_t users, const TemporalCorrelations& corr) {
  FleetEngineOptions options;
  options.num_threads = threads;
  options.share_loss_cache = cache;
  FleetEngine engine(options);
  for (std::size_t u = 0; u < users; ++u) {
    engine.AddUser("user-" + std::to_string(u), corr);
  }
  return engine;
}

TEST(FleetEngine, RejectsBadEpsilon) {
  FleetEngine engine;
  engine.AddUser("u", Fig3Both());
  EXPECT_FALSE(engine.RecordRelease(0.0).ok());
  EXPECT_FALSE(engine.RecordRelease(-1.0).ok());
  EXPECT_EQ(engine.horizon(), 0u);
}

TEST(FleetEngine, MatchesStandaloneAccountant) {
  // The cached fleet path must reproduce the plain accountant's series
  // (grid alphas only shift values by ~1e-9 resolution; allow 1e-7).
  const std::vector<double> schedule = {0.1, 0.2, 0.05, 0.3, 0.1};
  TplAccountant reference(Fig3Both());
  for (double eps : schedule) ASSERT_TRUE(reference.RecordRelease(eps).ok());

  auto engine = MakeEngine(/*threads=*/1, /*cache=*/true, /*users=*/3,
                           Fig3Both());
  ASSERT_TRUE(engine.RecordReleases(schedule).ok());

  for (std::size_t u = 0; u < engine.num_users(); ++u) {
    const auto got = engine.user(u).TplSeries();
    const auto want = reference.TplSeries();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i], want[i], 1e-7) << "user " << u << " t=" << i + 1;
    }
  }
}

TEST(FleetEngine, UncachedModeIsExactlyTheStandaloneAccountant) {
  const std::vector<double> schedule = {0.1, 0.2, 0.05};
  TplAccountant reference(Fig3Both());
  for (double eps : schedule) ASSERT_TRUE(reference.RecordRelease(eps).ok());

  auto engine = MakeEngine(/*threads=*/1, /*cache=*/false, /*users=*/2,
                           Fig3Both());
  ASSERT_TRUE(engine.RecordReleases(schedule).ok());
  EXPECT_EQ(engine.user(0).TplSeries(), reference.TplSeries());
}

TEST(FleetEngine, ParallelSeriesBitwiseIdenticalToSerial) {
  auto clickstream = ClickstreamModel(12);
  ASSERT_TRUE(clickstream.ok());
  auto corr = TemporalCorrelations::Both(*clickstream, *clickstream);
  ASSERT_TRUE(corr.ok());
  const std::vector<double> schedule(10, 0.1);

  auto serial = MakeEngine(/*threads=*/1, /*cache=*/true, /*users=*/64, *corr);
  auto parallel = MakeEngine(/*threads=*/4, /*cache=*/true, /*users=*/64,
                             *corr);
  ASSERT_TRUE(serial.RecordReleases(schedule).ok());
  ASSERT_TRUE(parallel.RecordReleases(schedule).ok());

  for (std::size_t u = 0; u < serial.num_users(); ++u) {
    EXPECT_EQ(serial.user(u).TplSeries(), parallel.user(u).TplSeries())
        << "user " << u;
    EXPECT_EQ(serial.user(u).BplSeries(), parallel.user(u).BplSeries())
        << "user " << u;
  }
  EXPECT_EQ(serial.OverallAlpha(), parallel.OverallAlpha());
}

TEST(FleetEngine, CacheHitMissAccountingOnUniformFleet) {
  // 50 users, one shared matrix: the first intern builds its envelope
  // (miss) and the forward direction reuses it (hit). Releases and the
  // FPL pass evaluate through the envelope without touching the counts.
  auto engine = MakeEngine(/*threads=*/1, /*cache=*/true, /*users=*/50,
                           Fig3Both());
  const auto interned = engine.cache_stats();
  ASSERT_TRUE(engine.RecordReleases(std::vector<double>(6, 0.1)).ok());
  (void)engine.OverallAlpha();  // forces the FPL backward pass
  const auto stats = engine.cache_stats();
  EXPECT_EQ(stats.distinct_matrices, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.HitRate(), 0.5);
  EXPECT_GE(stats.entries, 1u);  // the envelope's pieces
  EXPECT_EQ(stats.hits, interned.hits);
  EXPECT_EQ(stats.misses, interned.misses);
  EXPECT_EQ(stats.entries, interned.entries);
}

TEST(FleetEngine, HeterogeneousMatricesStayIsolated) {
  FleetEngineOptions options;
  options.num_threads = 1;
  FleetEngine engine(options);
  engine.AddUser("a", Fig3Both());
  engine.AddUser("b", TemporalCorrelations::BackwardOnly(
                          StochasticMatrix::Identity(2)));
  engine.AddUser("c", TemporalCorrelations::None());
  ASSERT_TRUE(engine.RecordReleases({0.1, 0.1, 0.1}).ok());
  EXPECT_EQ(engine.cache_stats().distinct_matrices, 2u);
  // Identity correlation: BPL grows linearly; no-correlation user stays
  // flat at eps.
  EXPECT_NEAR(*engine.user(1).Bpl(3), 0.3, 1e-9);
  EXPECT_NEAR(*engine.user(2).Tpl(2), 0.1, 1e-12);
}

TEST(FleetEngine, LateJoinerAccruesOnlyTheSubScheduleAfterJoining) {
  // A user added mid-stream joins at the current horizon: the feed's
  // past releases never included them, so nothing is replayed and the
  // leakage series starts fresh.
  auto engine = MakeEngine(/*threads=*/1, /*cache=*/true, /*users=*/1,
                           Fig3Both());
  ASSERT_TRUE(engine.RecordReleases({0.1, 0.2}).ok());
  const std::size_t late = engine.AddUser("late", Fig3Both());
  EXPECT_EQ(engine.user(late).join_release(), 2u);
  EXPECT_EQ(engine.user(late).horizon(), 0u);
  ASSERT_TRUE(engine.RecordRelease(0.05).ok());
  EXPECT_EQ(engine.user(late).horizon(), 1u);
  EXPECT_DOUBLE_EQ(engine.user(late).UserLevelTpl(), 0.05);

  // The late joiner's series equals a fresh accountant over the
  // sub-schedule it actually saw.
  TplAccountant reference(Fig3Both());
  ASSERT_TRUE(reference.RecordRelease(0.05).ok());
  const auto got = engine.user(late).TplSeries();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_NEAR(got[0], reference.TplSeries()[0], 1e-7);
  // The original user keeps its longer history.
  EXPECT_EQ(engine.user(0).horizon(), 3u);
  EXPECT_DOUBLE_EQ(engine.user(0).UserLevelTpl(), 0.35);
}

TEST(FleetEngine, SparseParticipationMatchesReferenceWithSkips) {
  // Heterogeneous schedule: user 0 sees every release, user 1 only the
  // 1st and 3rd. The bank must match reference accountants driven with
  // RecordRelease/RecordSkip through an identically quantized cache —
  // bitwise.
  FleetEngineOptions options;
  options.num_threads = 1;
  FleetEngine engine(options);
  engine.AddUser("always", Fig3Both());
  engine.AddUser("sometimes", Fig3Both());
  ASSERT_TRUE(engine.RecordRelease(0.1, {0, 1}).ok());
  ASSERT_TRUE(engine.RecordRelease(0.2, {0}).ok());
  ASSERT_TRUE(engine.RecordRelease(0.15, {0, 1}).ok());

  TemporalLossCache cache(options.cache);
  auto make_reference = [&cache]() {
    auto corr = Fig3Both();
    auto b = cache.Intern(corr.backward());
    auto f = cache.Intern(corr.forward());
    return TplAccountant(std::move(corr), std::move(b), std::move(f));
  };
  TplAccountant always = make_reference();
  ASSERT_TRUE(always.RecordRelease(0.1).ok());
  ASSERT_TRUE(always.RecordRelease(0.2).ok());
  ASSERT_TRUE(always.RecordRelease(0.15).ok());
  TplAccountant sometimes = make_reference();
  ASSERT_TRUE(sometimes.RecordRelease(0.1).ok());
  ASSERT_TRUE(sometimes.RecordSkip().ok());
  ASSERT_TRUE(sometimes.RecordRelease(0.15).ok());

  EXPECT_EQ(engine.user(0).BplSeries(), always.BplSeries());
  EXPECT_EQ(engine.user(0).FplSeries(), always.FplSeries());
  EXPECT_EQ(engine.user(0).TplSeries(), always.TplSeries());
  EXPECT_EQ(engine.user(1).BplSeries(), sometimes.BplSeries());
  EXPECT_EQ(engine.user(1).FplSeries(), sometimes.FplSeries());
  EXPECT_EQ(engine.user(1).TplSeries(), sometimes.TplSeries());
  EXPECT_DOUBLE_EQ(engine.user(1).UserLevelTpl(), 0.25);
  // The absent release still advanced the FPL horizon: the skipped
  // step's leakage is nonzero because later releases back-propagate.
  EXPECT_GT(*engine.user(1).Fpl(2), 0.0);
}

TEST(FleetEngine, SparseParticipationRejectsBadIndices) {
  FleetEngine engine;
  engine.AddUser("only", Fig3Both());
  EXPECT_FALSE(engine.RecordRelease(0.1, {1}).ok());
  EXPECT_EQ(engine.horizon(), 0u);
}

TEST(FleetEngine, CohortsDeduplicateByMatrixPairContents) {
  FleetEngineOptions options;
  options.num_threads = 1;
  FleetEngine engine(options);
  engine.AddUser("a", Fig3Both());
  engine.AddUser("b", Fig3Both());  // same pair contents -> same cohort
  engine.AddUser("c", TemporalCorrelations::BackwardOnly(Fig3Matrix()));
  engine.AddUser("d", TemporalCorrelations::ForwardOnly(Fig3Matrix()));
  engine.AddUser("e", TemporalCorrelations::None());
  EXPECT_EQ(engine.num_cohorts(), 4u);
  // Backward-only and forward-only over the same matrix must NOT share
  // a cohort (their recurrences differ) even though the interned loss
  // table is shared underneath.
  EXPECT_EQ(engine.cache_stats().distinct_matrices, 1u);
}

TEST(FleetEngine, PopulationAggregates) {
  FleetEngineOptions options;
  options.num_threads = 2;
  FleetEngine engine(options);
  engine.AddUser("correlated", Fig3Both());
  engine.AddUser("uncorrelated", TemporalCorrelations::None());
  ASSERT_TRUE(engine.RecordReleases(std::vector<double>(4, 0.1)).ok());

  const auto alphas = engine.PersonalizedAlphas();
  ASSERT_EQ(alphas.size(), 2u);
  EXPECT_GT(alphas[0], alphas[1]);  // correlation amplifies leakage
  EXPECT_NEAR(alphas[1], 0.1, 1e-12);
  EXPECT_EQ(engine.OverallAlpha(), std::max(alphas[0], alphas[1]));

  auto at2 = engine.MaxTplAt(2);
  ASSERT_TRUE(at2.ok());
  EXPECT_EQ(*at2, *engine.user(0).Tpl(2));
  EXPECT_FALSE(engine.MaxTplAt(0).ok());
  EXPECT_FALSE(engine.MaxTplAt(5).ok());
}

TEST(FleetEngine, MaxTplAtWithoutUsersFails) {
  FleetEngine engine;
  EXPECT_FALSE(engine.MaxTplAt(1).ok());
}

TEST(FleetEngine, StatsCountUserReleases) {
  auto engine = MakeEngine(/*threads=*/1, /*cache=*/true, /*users=*/10,
                           Fig3Both());
  ASSERT_TRUE(engine.RecordReleases(std::vector<double>(3, 0.1)).ok());
  EXPECT_EQ(engine.stats().user_releases, 30u);
  EXPECT_GE(engine.stats().record_seconds, 0.0);
}

}  // namespace
}  // namespace tcdp
