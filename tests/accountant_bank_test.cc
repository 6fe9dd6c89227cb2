// Unit and property tests for core/accountant_bank: cohort grouping,
// heterogeneous/sparse schedules, late joiners, and the bank's
// equivalence contract — every per-user series bitwise equal to the
// single-user TplAccountant reference, at any thread count.

#include "core/accountant_bank.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/tpl_accountant.h"
#include "markov/stochastic_matrix.h"

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

TEST(AccountantBank, RejectsBadEpsilon) {
  AccountantBank bank;
  bank.AddUser(Fig3Both());
  EXPECT_FALSE(bank.RecordRelease(0.0).ok());
  EXPECT_FALSE(bank.RecordRelease(-1.0).ok());
  EXPECT_EQ(bank.horizon(), 0u);
}

TEST(AccountantBank, UniformFleetMatchesReferenceBitwise) {
  AccountantBankOptions options;
  AccountantBank bank(options);
  for (int u = 0; u < 5; ++u) bank.AddUser(Fig3Both());
  const std::vector<double> schedule = {0.1, 0.2, 0.05, 0.3};
  for (double eps : schedule) ASSERT_TRUE(bank.RecordRelease(eps).ok());

  // Reference through a separately built but identically quantized
  // cache: determinism makes shared state unnecessary for equality.
  TemporalLossCache cache(options.cache);
  auto corr = Fig3Both();
  TplAccountant reference(corr, cache.Intern(corr.backward()),
                          cache.Intern(corr.forward()),
                          options.cache.alpha_resolution);
  for (double eps : schedule) ASSERT_TRUE(reference.RecordRelease(eps).ok());

  for (std::size_t u = 0; u < bank.num_users(); ++u) {
    EXPECT_EQ(bank.BplSeriesFor(u), reference.BplSeries()) << "user " << u;
    EXPECT_EQ(bank.FplSeriesFor(u), reference.FplSeries()) << "user " << u;
    EXPECT_EQ(bank.TplSeriesFor(u), reference.TplSeries()) << "user " << u;
    EXPECT_EQ(bank.MaxTplFor(u), reference.MaxTpl());
    EXPECT_DOUBLE_EQ(bank.UserEpsSum(u), reference.UserLevelTpl());
  }
  EXPECT_EQ(bank.num_cohorts(), 1u);
  EXPECT_EQ(*bank.MaxTplAt(2), *reference.Tpl(2));
}

TEST(AccountantBank, UncachedModeMatchesDirectReferenceBitwise) {
  AccountantBankOptions options;
  options.share_loss_cache = false;
  AccountantBank bank(options);
  bank.AddUser(Fig3Both());
  TplAccountant reference(Fig3Both());
  for (double eps : {0.1, 0.2, 0.05}) {
    ASSERT_TRUE(bank.RecordRelease(eps).ok());
    ASSERT_TRUE(reference.RecordRelease(eps).ok());
  }
  EXPECT_EQ(bank.TplSeriesFor(0), reference.TplSeries());
  EXPECT_EQ(bank.cache_stats().hits + bank.cache_stats().misses, 0u);
}

TEST(AccountantBank, SkippedUsersPropagateLossWithoutAccruingBudget) {
  AccountantBank bank;
  const std::size_t user = bank.AddUser(Fig3Both());
  ASSERT_TRUE(bank.RecordRelease(0.5, {user}).ok());
  ASSERT_TRUE(bank.RecordRelease(0.5, {}).ok());  // nobody participates
  ASSERT_TRUE(bank.RecordRelease(0.5, {user}).ok());
  EXPECT_DOUBLE_EQ(bank.UserEpsSum(user), 1.0);
  EXPECT_TRUE(bank.Participated(user, 0));
  EXPECT_FALSE(bank.Participated(user, 1));
  EXPECT_EQ(bank.EpsilonsFor(user), (std::vector<double>{0.5, 0.0, 0.5}));

  const auto bpl = bank.BplSeriesFor(user);
  // The gap step accrues no eps but prior leakage still propagates:
  // 0 < BPL_2 = L^B(BPL_1) <= BPL_1 (Remark 1).
  EXPECT_GT(bpl[1], 0.0);
  EXPECT_LE(bpl[1], bpl[0]);
  // And BPL_3 = L^B(BPL_2) + 0.5 > BPL_1.
  EXPECT_GT(bpl[2], bpl[0]);
}

TEST(AccountantBank, LateJoinerSeriesCoversOnlyItsSubSchedule) {
  AccountantBank bank;
  const std::size_t early = bank.AddUser(Fig3Both());
  ASSERT_TRUE(bank.RecordRelease(0.1).ok());
  ASSERT_TRUE(bank.RecordRelease(0.2).ok());
  const std::size_t late = bank.AddUser(Fig3Both());
  EXPECT_EQ(bank.join_release(late), 2u);
  EXPECT_EQ(bank.user_horizon(late), 0u);
  ASSERT_TRUE(bank.RecordRelease(0.3).ok());
  EXPECT_EQ(bank.user_horizon(late), 1u);
  EXPECT_EQ(bank.user_horizon(early), 3u);
  // Same cohort, different join: slots stay independent.
  EXPECT_EQ(bank.num_cohorts(), 1u);
  EXPECT_DOUBLE_EQ(bank.UserEpsSum(late), 0.3);
  EXPECT_EQ(bank.BplSeriesFor(late), (std::vector<double>{0.3}));
  // MaxTplAt(1) ignores the late joiner (no series there).
  EXPECT_EQ(*bank.MaxTplAt(1), bank.TplSeriesFor(early)[0]);
}

// ----------------------------------------------------------------------
// Property tests: random participation masks, random cohort sizes, late
// joiners — bank vs reference and serial vs parallel, bitwise, per the
// ISSUE acceptance criteria.

struct RandomFleet {
  std::vector<TemporalCorrelations> profiles;  // cohort exemplars
  std::vector<std::size_t> profile_of_user;
  std::vector<std::size_t> join_of_user;          // release index at join
  std::vector<double> schedule;
  std::vector<std::vector<std::size_t>> participants;  // per release
};

RandomFleet MakeRandomFleet(Rng* rng) {
  RandomFleet fleet;
  const std::size_t num_profiles = 1 + static_cast<std::size_t>(
                                           rng->UniformInt(0, 2));
  for (std::size_t p = 0; p < num_profiles; ++p) {
    const auto pb = StochasticMatrix::Random(3, rng);
    const auto pf = StochasticMatrix::Random(3, rng);
    switch (rng->UniformInt(0, 3)) {
      case 0:
        fleet.profiles.push_back(TemporalCorrelations::Both(pb, pf).value());
        break;
      case 1:
        fleet.profiles.push_back(TemporalCorrelations::BackwardOnly(pb));
        break;
      case 2:
        fleet.profiles.push_back(TemporalCorrelations::ForwardOnly(pf));
        break;
      default:
        fleet.profiles.push_back(TemporalCorrelations::None());
        break;
    }
  }
  const std::size_t horizon = 4 + static_cast<std::size_t>(
                                      rng->UniformInt(0, 4));
  const std::size_t initial_users =
      1 + static_cast<std::size_t>(rng->UniformInt(0, 8));
  for (std::size_t u = 0; u < initial_users; ++u) {
    fleet.profile_of_user.push_back(
        static_cast<std::size_t>(rng->UniformInt(0, num_profiles - 1)));
    fleet.join_of_user.push_back(0);
  }
  for (std::size_t t = 0; t < horizon; ++t) {
    // Occasionally a user joins mid-stream.
    if (rng->Uniform() < 0.3) {
      fleet.profile_of_user.push_back(
          static_cast<std::size_t>(rng->UniformInt(0, num_profiles - 1)));
      fleet.join_of_user.push_back(t);
    }
    fleet.schedule.push_back(0.05 + 0.4 * rng->Uniform());
    std::vector<std::size_t> in_release;
    for (std::size_t u = 0; u < fleet.profile_of_user.size(); ++u) {
      if (fleet.join_of_user[u] <= t && rng->Uniform() < 0.6) {
        in_release.push_back(u);
      }
    }
    fleet.participants.push_back(std::move(in_release));
  }
  return fleet;
}

/// Drives a bank through the fleet; users are added in join order.
void DriveBank(const RandomFleet& fleet, AccountantBank* bank) {
  std::size_t next_user = 0;
  for (std::size_t t = 0; t < fleet.schedule.size(); ++t) {
    while (next_user < fleet.join_of_user.size() &&
           fleet.join_of_user[next_user] <= t) {
      bank->AddUser(fleet.profiles[fleet.profile_of_user[next_user]]);
      ++next_user;
    }
    ASSERT_TRUE(
        bank->RecordRelease(fleet.schedule[t], fleet.participants[t]).ok());
  }
}

/// The single-user reference for user \p u, driven over its
/// sub-schedule with skips, through an identically quantized cache.
TplAccountant MakeReference(const RandomFleet& fleet, std::size_t u,
                            const TemporalLossCache::Options& cache_options,
                            TemporalLossCache* cache) {
  TemporalCorrelations corr = fleet.profiles[fleet.profile_of_user[u]];
  std::shared_ptr<const LossEvaluator> b;
  std::shared_ptr<const LossEvaluator> f;
  if (corr.has_backward()) b = cache->Intern(corr.backward());
  if (corr.has_forward()) f = cache->Intern(corr.forward());
  TplAccountant reference(std::move(corr), std::move(b), std::move(f),
                          cache_options.alpha_resolution);
  for (std::size_t t = fleet.join_of_user[u]; t < fleet.schedule.size();
       ++t) {
    const auto& in_release = fleet.participants[t];
    const bool participated =
        std::find(in_release.begin(), in_release.end(), u) !=
        in_release.end();
    if (participated) {
      EXPECT_TRUE(reference.RecordRelease(fleet.schedule[t]).ok());
    } else {
      EXPECT_TRUE(reference.RecordSkip().ok());
    }
  }
  return reference;
}

class BankEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(BankEquivalenceTest, BankMatchesReferenceBitwiseUnderSparseSchedules) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 77000);
  const RandomFleet fleet = MakeRandomFleet(&rng);

  AccountantBankOptions options;
  AccountantBank bank(options);
  DriveBank(fleet, &bank);

  TemporalLossCache reference_cache(options.cache);
  for (std::size_t u = 0; u < bank.num_users(); ++u) {
    TplAccountant reference =
        MakeReference(fleet, u, options.cache, &reference_cache);
    EXPECT_EQ(bank.BplSeriesFor(u), reference.BplSeries()) << "user " << u;
    EXPECT_EQ(bank.FplSeriesFor(u), reference.FplSeries()) << "user " << u;
    EXPECT_EQ(bank.TplSeriesFor(u), reference.TplSeries()) << "user " << u;
    EXPECT_EQ(bank.MaxTplFor(u), reference.MaxTpl()) << "user " << u;
    EXPECT_DOUBLE_EQ(bank.UserEpsSum(u), reference.UserLevelTpl());
  }
}

TEST_P(BankEquivalenceTest, SerialAndParallelBanksAgreeBitwise) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 88000);
  const RandomFleet fleet = MakeRandomFleet(&rng);

  AccountantBank serial;  // no pool: inline
  DriveBank(fleet, &serial);

  for (std::size_t threads : {2u, 5u}) {
    ThreadPool pool(threads);
    AccountantBank parallel;
    parallel.set_pool(&pool);
    DriveBank(fleet, &parallel);
    ASSERT_EQ(parallel.num_users(), serial.num_users());
    for (std::size_t u = 0; u < serial.num_users(); ++u) {
      EXPECT_EQ(parallel.BplSeriesFor(u), serial.BplSeriesFor(u))
          << "threads=" << threads << " user " << u;
      EXPECT_EQ(parallel.TplSeriesFor(u), serial.TplSeriesFor(u))
          << "threads=" << threads << " user " << u;
    }
    EXPECT_EQ(parallel.OverallAlpha(), serial.OverallAlpha());
  }
}

TEST_P(BankEquivalenceTest, UncachedBankMatchesDirectReferenceBitwise) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 99000);
  const RandomFleet fleet = MakeRandomFleet(&rng);

  AccountantBankOptions options;
  options.share_loss_cache = false;
  AccountantBank bank(options);
  DriveBank(fleet, &bank);

  for (std::size_t u = 0; u < bank.num_users(); ++u) {
    TplAccountant reference(fleet.profiles[fleet.profile_of_user[u]]);
    for (std::size_t t = fleet.join_of_user[u]; t < fleet.schedule.size();
         ++t) {
      const auto& in_release = fleet.participants[t];
      if (std::find(in_release.begin(), in_release.end(), u) !=
          in_release.end()) {
        ASSERT_TRUE(reference.RecordRelease(fleet.schedule[t]).ok());
      } else {
        ASSERT_TRUE(reference.RecordSkip().ok());
      }
    }
    EXPECT_EQ(bank.TplSeriesFor(u), reference.TplSeries()) << "user " << u;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BankEquivalenceTest, ::testing::Range(1, 13));

// ----------------------------------------------------------------------
// Live-list property tests: masked releases step only participants and
// slots whose skip step can still move them. Schedules alternate dense
// bursts with long quiet runs so users freeze and come back, interleave
// unmasked releases, and restore the bank mid-run; every series and
// column must stay bitwise equal to the TplAccountant reference.

bool BitsEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool BitsEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

struct FreezeFleet {
  std::vector<TemporalCorrelations> profiles;
  std::vector<std::size_t> profile_of_user;
  std::vector<std::size_t> join_of_user;
  std::vector<double> schedule;
  std::vector<bool> unmasked;                          // per release
  std::vector<std::vector<std::size_t>> participants;  // masked releases
  std::size_t restore_at = 0;  // export + restore before this release
};

enum class ProfileMix { kMixed, kIdentity, kBackwardless };

std::vector<TemporalCorrelations> MakeProfiles(ProfileMix mix, Rng* rng) {
  std::vector<TemporalCorrelations> profiles;
  switch (mix) {
    case ProfileMix::kIdentity:
      // L(a) = a: a skipping slot freezes on its first skip step.
      profiles.push_back(TemporalCorrelations::Both(StochasticMatrix::Identity(2),
                                                    StochasticMatrix::Identity(2))
                             .value());
      profiles.push_back(
          TemporalCorrelations::BackwardOnly(StochasticMatrix::Identity(3)));
      break;
    case ProfileMix::kBackwardless:
      profiles.push_back(
          TemporalCorrelations::ForwardOnly(StochasticMatrix::Random(3, rng)));
      profiles.push_back(TemporalCorrelations::None());
      break;
    case ProfileMix::kMixed:
      profiles.push_back(Fig3Both());
      profiles.push_back(TemporalCorrelations::Both(
                             StochasticMatrix::Random(3, rng),
                             StochasticMatrix::Random(3, rng))
                             .value());
      profiles.push_back(
          TemporalCorrelations::BackwardOnly(StochasticMatrix::Random(4, rng)));
      profiles.push_back(TemporalCorrelations::Both(StochasticMatrix::Identity(2),
                                                    Fig3Matrix())
                             .value());
      profiles.push_back(TemporalCorrelations::None());
      break;
  }
  return profiles;
}

/// Dense bursts (most users participate) alternate with quiet runs of
/// \p quiet_len releases where each user participates with probability
/// 0.003, long enough for skipping users to reach a fixed point.
FreezeFleet MakeFreezeFleet(Rng* rng, ProfileMix mix, std::size_t users,
                            std::size_t quiet_len) {
  FreezeFleet fleet;
  fleet.profiles = MakeProfiles(mix, rng);
  const std::int64_t last_profile =
      static_cast<std::int64_t>(fleet.profiles.size()) - 1;
  for (std::size_t u = 0; u < users; ++u) {
    fleet.profile_of_user.push_back(
        static_cast<std::size_t>(rng->UniformInt(0, last_profile)));
    fleet.join_of_user.push_back(0);
  }
  const std::size_t burst_len = 6;
  const std::size_t horizon = 3 * (burst_len + quiet_len);
  for (std::size_t t = 0; t < horizon; ++t) {
    if (rng->Uniform() < 0.05) {  // a late joiner
      fleet.profile_of_user.push_back(
          static_cast<std::size_t>(rng->UniformInt(0, last_profile)));
      fleet.join_of_user.push_back(t);
    }
    const bool burst = t % (burst_len + quiet_len) < burst_len;
    fleet.schedule.push_back(0.05 + 0.4 * rng->Uniform());
    fleet.unmasked.push_back(rng->Uniform() < 0.03);
    std::vector<std::size_t> in_release;
    for (std::size_t u = 0; u < fleet.profile_of_user.size(); ++u) {
      if (fleet.join_of_user[u] <= t &&
          rng->Uniform() < (burst ? 0.6 : 0.003)) {
        in_release.push_back(u);
      }
    }
    fleet.participants.push_back(std::move(in_release));
  }
  // Mid-run, inside a quiet run, while slots are still decaying.
  fleet.restore_at = burst_len + quiet_len + burst_len + quiet_len / 4;
  return fleet;
}

/// Returns the fewest live slots seen after any release.
std::size_t DriveFreezeBank(const FreezeFleet& fleet,
                            const AccountantBankOptions& options,
                            ThreadPool* pool, AccountantBank* bank) {
  bank->set_pool(pool);
  std::size_t min_live = static_cast<std::size_t>(-1);
  std::size_t next_user = 0;
  for (std::size_t t = 0; t < fleet.schedule.size(); ++t) {
    if (t == fleet.restore_at) {
      auto restored = AccountantBank::Restore(bank->ExportImage(), options);
      EXPECT_TRUE(restored.ok()) << restored.status().ToString();
      if (!restored.ok()) return min_live;
      *bank = std::move(restored).value();
      bank->set_pool(pool);
    }
    while (next_user < fleet.join_of_user.size() &&
           fleet.join_of_user[next_user] <= t) {
      bank->AddUser(fleet.profiles[fleet.profile_of_user[next_user]]);
      ++next_user;
    }
    EXPECT_TRUE((fleet.unmasked[t]
                     ? bank->RecordRelease(fleet.schedule[t])
                     : bank->RecordRelease(fleet.schedule[t],
                                           fleet.participants[t]))
                    .ok());
    min_live = std::min(min_live, bank->num_live_slots());
  }
  return min_live;
}

/// Counts users whose series, running BPL or budget differ in any bit
/// from the single-user reference.
std::size_t CountMismatches(const FreezeFleet& fleet,
                            const AccountantBankOptions& options,
                            const AccountantBank& bank) {
  TemporalLossCache cache(options.cache);
  std::size_t mismatches = 0;
  for (std::size_t u = 0; u < bank.num_users(); ++u) {
    TemporalCorrelations corr = fleet.profiles[fleet.profile_of_user[u]];
    std::shared_ptr<const LossEvaluator> b;
    std::shared_ptr<const LossEvaluator> f;
    if (corr.has_backward()) b = cache.Intern(corr.backward());
    if (corr.has_forward()) f = cache.Intern(corr.forward());
    TplAccountant reference(std::move(corr), std::move(b), std::move(f),
                            options.cache.alpha_resolution);
    for (std::size_t t = fleet.join_of_user[u]; t < fleet.schedule.size();
         ++t) {
      const auto& in_release = fleet.participants[t];
      if (fleet.unmasked[t] ||
          std::find(in_release.begin(), in_release.end(), u) !=
              in_release.end()) {
        EXPECT_TRUE(reference.RecordRelease(fleet.schedule[t]).ok());
      } else {
        EXPECT_TRUE(reference.RecordSkip().ok());
      }
    }
    const std::vector<double> bpl = reference.BplSeries();
    const bool same =
        BitsEqual(bank.BplSeriesFor(u), bpl) &&
        BitsEqual(bank.FplSeriesFor(u), reference.FplSeries()) &&
        BitsEqual(bank.TplSeriesFor(u), reference.TplSeries()) &&
        BitsEqual(bank.MaxTplFor(u), reference.MaxTpl()) &&
        BitsEqual(bank.UserEpsSum(u), reference.UserLevelTpl()) &&
        BitsEqual(bank.UserBplLast(u), bpl.empty() ? 0.0 : bpl.back());
    if (!same) {
      ADD_FAILURE() << "user " << u << " differs from the reference";
      ++mismatches;
    }
  }
  return mismatches;
}

struct LiveListCase {
  ProfileMix mix;
  double alpha_resolution;
  std::size_t users;
  std::size_t quiet_len;
};

class LiveListPropertyTest
    : public ::testing::TestWithParam<std::tuple<LiveListCase, int>> {};

TEST_P(LiveListPropertyTest, BankMatchesReferenceAtOneAndFourThreads) {
  const LiveListCase c = std::get<0>(GetParam());
  Rng rng(static_cast<std::uint64_t>(std::get<1>(GetParam())) + 123000);
  const FreezeFleet fleet = MakeFreezeFleet(&rng, c.mix, c.users, c.quiet_len);
  AccountantBankOptions options;
  options.cache.alpha_resolution = c.alpha_resolution;

  AccountantBank inline_bank(options);
  const std::size_t min_live =
      DriveFreezeBank(fleet, options, nullptr, &inline_bank);
  EXPECT_EQ(CountMismatches(fleet, options, inline_bank), 0u);
  for (std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    AccountantBank bank(options);
    DriveFreezeBank(fleet, options, &pool, &bank);
    EXPECT_EQ(CountMismatches(fleet, options, bank), 0u)
        << "threads=" << threads;
    EXPECT_EQ(bank.num_live_slots(), inline_bank.num_live_slots());
    if (threads == 4 && c.users >= 1100) {
      // The live walk was large enough to go to the pool.
      EXPECT_GT(pool.stats().tasks_executed, 0u);
    }
  }
  // Quiet runs froze users: some masked release walked fewer slots
  // than the fleet holds.
  EXPECT_LT(min_live, inline_bank.num_users() / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, LiveListPropertyTest,
    ::testing::Combine(
        ::testing::Values(
            // Enough users that a masked release's live walk and an
            // unmasked sweep both fan out over four threads.
            LiveListCase{ProfileMix::kMixed, 1e-9, 1100, 100},
            LiveListCase{ProfileMix::kIdentity, 1e-9, 80, 20},
            LiveListCase{ProfileMix::kBackwardless, 1e-9, 80, 20},
            // No grid snap: decay runs down through the subnormals.
            LiveListCase{ProfileMix::kMixed, 0.0, 24, 1500}),
        ::testing::Range(1, 4)));

TEST(AccountantBankLiveList, LongSkipRunOnContractingMatrixEmptiesLiveList) {
  for (double resolution : {1e-9, 0.0}) {
    AccountantBankOptions options;
    options.cache.alpha_resolution = resolution;
    AccountantBank bank(options);
    for (int u = 0; u < 8; ++u) bank.AddUser(Fig3Both());
    EXPECT_EQ(bank.num_live_slots(), 0u);  // BPL 0 is already frozen
    ASSERT_TRUE(bank.RecordRelease(0.3).ok());
    ASSERT_TRUE(bank.RecordRelease(0.2, {0, 3, 5}).ok());
    EXPECT_EQ(bank.num_live_slots(), 8u);
    std::size_t steps = 0;
    while (bank.num_live_slots() > 0 && steps < 10000) {
      ASSERT_TRUE(bank.RecordRelease(0.1, {}).ok());
      ++steps;
    }
    EXPECT_EQ(bank.num_live_slots(), 0u) << "resolution " << resolution;
    // Frozen means fixed: further skips change no bit of the columns.
    std::vector<double> frozen;
    for (std::size_t u = 0; u < bank.num_users(); ++u) {
      frozen.push_back(bank.UserBplLast(u));
    }
    ASSERT_TRUE(bank.RecordRelease(0.1, {}).ok());
    for (std::size_t u = 0; u < bank.num_users(); ++u) {
      EXPECT_TRUE(BitsEqual(bank.UserBplLast(u), frozen[u])) << u;
    }
    // Participating brings a user back onto its cohort's list.
    ASSERT_TRUE(bank.RecordRelease(0.1, {2}).ok());
    EXPECT_EQ(bank.num_live_slots(), 1u);
  }
}

TEST(AccountantBankLiveList, LargeUnmaskedSweepFansOutBitwise) {
  // Enough slots that an unmasked release is split over the pool.
  Rng rng(4242);
  const std::vector<TemporalCorrelations> profiles = {
      Fig3Both(), TemporalCorrelations::BackwardOnly(
                      StochasticMatrix::Random(3, &rng))};
  const std::size_t users = 20000;
  ThreadPool pool(4);
  AccountantBank serial;
  AccountantBank parallel;
  parallel.set_pool(&pool);
  for (std::size_t u = 0; u < users; ++u) {
    serial.AddUser(profiles[u % 2]);
    parallel.AddUser(profiles[u % 2]);
  }
  std::vector<std::size_t> some;
  for (std::size_t u = 0; u < users; u += 7) some.push_back(u);
  for (AccountantBank* bank : {&serial, &parallel}) {
    ASSERT_TRUE(bank->RecordRelease(0.2).ok());
    ASSERT_TRUE(bank->RecordRelease(0.1, some).ok());
    ASSERT_TRUE(bank->RecordRelease(0.3).ok());
  }
  EXPECT_GT(pool.stats().tasks_executed, 0u);
  for (std::size_t u = 0; u < users; ++u) {
    ASSERT_TRUE(BitsEqual(parallel.UserBplLast(u), serial.UserBplLast(u)))
        << u;
    ASSERT_TRUE(BitsEqual(parallel.UserEpsSum(u), serial.UserEpsSum(u))) << u;
  }
}

TEST(AccountantBankLiveList, IdentityMatrixFreezesAtOnce) {
  // L(a) = a: with no grid the first skip step is a fixed point; on the
  // default grid the first skip snaps BPL up onto it and the second is.
  for (double resolution : {0.0, 1e-9}) {
    AccountantBankOptions options;
    options.cache.alpha_resolution = resolution;
    AccountantBank bank(options);
    for (int u = 0; u < 4; ++u) {
      bank.AddUser(
          TemporalCorrelations::BackwardOnly(StochasticMatrix::Identity(2)));
    }
    ASSERT_TRUE(bank.RecordRelease(0.3).ok());
    EXPECT_EQ(bank.num_live_slots(), 4u);
    ASSERT_TRUE(bank.RecordRelease(0.2, {1}).ok());
    if (resolution > 0.0) {
      EXPECT_EQ(bank.num_live_slots(), 4u);
      ASSERT_TRUE(bank.RecordRelease(0.2, {1}).ok());
    }
    EXPECT_EQ(bank.num_live_slots(), 1u) << "resolution " << resolution;
  }
}

TEST(AccountantBankLiveList, RestoreListsOnlyMovingSlots) {
  AccountantBank bank;
  for (int u = 0; u < 5; ++u) bank.AddUser(Fig3Both());
  ASSERT_TRUE(bank.RecordRelease(0.3, {0, 2}).ok());
  EXPECT_EQ(bank.num_live_slots(), 2u);
  auto restored = AccountantBank::Restore(bank.ExportImage());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->num_live_slots(), 2u);
}

}  // namespace
}  // namespace tcdp
