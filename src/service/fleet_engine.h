#ifndef TCDP_SERVICE_FLEET_ENGINE_H_
#define TCDP_SERVICE_FLEET_ENGINE_H_

/// \file
/// Fleet-scale release accounting: a thin façade over the
/// structure-of-arrays AccountantBank (core/accountant_bank.h) that
/// adds user naming, a thread pool, wall-clock stats, and convenience
/// aggregates.
///
/// The bank groups users into cohorts by interned transition-matrix
/// pair and advances Equation 13 in a tight loop over contiguous
/// column slices, fanned out over the pool in range chunks — per-user
/// work no longer collapses to a hash lookup, so parallel recording
/// stays profitable on warm caches (bench_fleet_throughput tracks
/// this).
///
/// Heterogeneous schedules: `RecordRelease(epsilon, participants)`
/// charges only the listed users; absent users record skips whose
/// leakage still propagates. Users added after releases started join
/// at the current horizon and accrue only the sub-schedule from then
/// on (they do NOT replay history — the joining feed's past releases
/// never included them).
///
/// Determinism: every per-user series is bitwise identical to the
/// single-user TplAccountant reference driven with the same
/// sub-schedule, whatever the thread count or chunking
/// (property-tested, and reasserted by bench_fleet_throughput).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/accountant_bank.h"
#include "core/loss_cache.h"
#include "core/tpl_accountant.h"

namespace tcdp {

struct FleetEngineOptions {
  /// Worker threads for fan-out; 0 = hardware concurrency, 1 = run the
  /// per-user loop inline (no pool is created).
  std::size_t num_threads = 0;
  /// When false, every cohort builds a direct TemporalLossFunction that
  /// re-solves Algorithm 1 per evaluation (the uncached ablation
  /// baseline).
  bool share_loss_cache = true;
  TemporalLossCache::Options cache;
};

/// \brief A population of named users behind one release feed.
///
/// Thread-compatible: concurrent calls on one FleetEngine must be
/// externally serialized (the internal parallelism is the engine's own).
class FleetEngine {
 public:
  explicit FleetEngine(FleetEngineOptions options = {});

  /// \brief Read-only view of one user's accounting, computed on demand
  /// from the bank's columns. All series/time indices are relative to
  /// the user's own sub-schedule (1-based t in [1, horizon()]).
  class UserView {
   public:
    /// Length of this user's series (releases since the user joined).
    std::size_t horizon() const { return bank_->user_horizon(index_); }
    /// Global release index (0-based) at which the user joined.
    std::size_t join_release() const { return bank_->join_release(index_); }
    /// Effective spend sequence; 0 entries are skipped releases.
    std::vector<double> epsilons() const {
      return bank_->EpsilonsFor(index_);
    }
    std::vector<double> BplSeries() const {
      return bank_->BplSeriesFor(index_);
    }
    std::vector<double> FplSeries() const {
      return bank_->FplSeriesFor(index_);
    }
    std::vector<double> TplSeries() const {
      return bank_->TplSeriesFor(index_);
    }
    StatusOr<double> Bpl(std::size_t t) const;
    StatusOr<double> Fpl(std::size_t t) const;
    StatusOr<double> Tpl(std::size_t t) const;
    /// max_t TPL_t (0 for an empty series).
    double MaxTpl() const { return bank_->MaxTplFor(index_); }
    /// Corollary 1: sum of accrued budgets.
    double UserLevelTpl() const { return bank_->UserEpsSum(index_); }

   private:
    friend class FleetEngine;
    UserView(const AccountantBank* bank, std::size_t index)
        : bank_(bank), index_(index) {}
    const AccountantBank* bank_;
    std::size_t index_;
  };

  /// Registers a user and returns its index. The user joins at the
  /// current horizon (no replay of earlier releases).
  std::size_t AddUser(std::string name, TemporalCorrelations correlations);

  /// Records one release of budget \p epsilon > 0 for every user.
  Status RecordRelease(double epsilon);

  /// Heterogeneous-schedule release: only \p participants (user
  /// indices) accrue \p epsilon; everyone else records a skip.
  Status RecordRelease(double epsilon,
                       const std::vector<std::size_t>& participants);

  /// Records a whole schedule in order (every user participates).
  Status RecordReleases(const std::vector<double>& schedule);

  std::size_t num_users() const { return bank_.num_users(); }
  std::size_t num_cohorts() const { return bank_.num_cohorts(); }
  std::size_t horizon() const { return bank_.horizon(); }
  const std::vector<double>& schedule() const { return bank_.schedule(); }

  UserView user(std::size_t index) const { return UserView(&bank_, index); }
  const std::string& user_name(std::size_t index) const {
    return names_[index];
  }

  /// Definition 5's outer max at one global time point: max over users
  /// whose series covers t. OutOfRange for t outside [1, horizon];
  /// FailedPrecondition with no users.
  StatusOr<double> MaxTplAt(std::size_t t) const { return bank_.MaxTplAt(t); }

  /// Per-user event-level alpha (max_t TPL_t), computed in parallel —
  /// the personalized privacy profile of Section III-D.
  std::vector<double> PersonalizedAlphas() const {
    return bank_.PersonalizedAlphas();
  }

  /// Overall alpha of the recorded sequence: max over users and t.
  double OverallAlpha() const { return bank_.OverallAlpha(); }

  const AccountantBank& bank() const { return bank_; }

  /// Zeroed stats when share_loss_cache is false.
  TemporalLossCache::Stats cache_stats() const { return bank_.cache_stats(); }
  /// Zeroed stats when running inline (num_threads == 1).
  ThreadPool::Stats pool_stats() const;

  struct Stats {
    /// User x release steps driven. Skipped users count: a skip still
    /// advances state (the backward loss propagates), so this is the
    /// work denominator, not the number of budgets accrued.
    std::uint64_t user_releases = 0;
    double record_seconds = 0.0;      ///< wall time inside RecordRelease
    double UserReleasesPerSecond() const {
      return record_seconds > 0.0
                 ? static_cast<double>(user_releases) / record_seconds
                 : 0.0;
    }
  };
  const Stats& stats() const { return stats_; }

 private:
  Status TimedRecord(double epsilon,
                     const std::vector<std::size_t>* participants);

  FleetEngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;  // null when inline
  AccountantBank bank_;
  std::vector<std::string> names_;
  Stats stats_;
};

}  // namespace tcdp

#endif  // TCDP_SERVICE_FLEET_ENGINE_H_
