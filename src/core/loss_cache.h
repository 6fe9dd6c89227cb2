#ifndef TCDP_CORE_LOSS_CACHE_H_
#define TCDP_CORE_LOSS_CACHE_H_

/// \file
/// A fleet-wide, thread-safe registry of per-matrix loss envelopes.
///
/// Every user whose adversary knows the same transition matrix induces
/// the *same* loss function L(alpha) (Equations 23/24).
/// `TemporalLossCache` builds that function once per distinct matrix:
///
///  * `Intern` content-deduplicates transition matrices and builds a
///    LossEnvelope (core/loss_envelope.h) the first time a matrix is
///    seen; every later Intern of an equal matrix shares it;
///  * evaluation first snaps alpha up to the `alpha_resolution` grid
///    point at or above it (L is nondecreasing, so the value stays an
///    upper bound on the true loss and never under-reports leakage),
///    then evaluates the envelope there. The envelope is bitwise equal
///    to TemporalLossFunction::Evaluate, so every value equals the one
///    the earlier memoizing cache stored for that grid point: logs and
///    snapshots written under it replay unchanged.
///
/// Evaluation reads only immutable data: no lock, no table, no shared
/// counter. The returned evaluators own their envelope through a
/// shared_ptr, so they may outlive the `TemporalLossCache` handle.

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/privacy_loss.h"
#include "markov/stochastic_matrix.h"

namespace tcdp {

class LossEnvelope;

class TemporalLossCache {
 public:
  struct Options {
    /// Grid spacing for the alpha argument. Evaluations are performed at
    /// the grid point >= alpha (L is nondecreasing, so the value stays
    /// an upper bound on the true loss); 0 evaluates at alpha itself.
    double alpha_resolution = 1e-9;
  };

  struct Stats {
    std::uint64_t hits = 0;    ///< interns served by an existing envelope
    std::uint64_t misses = 0;  ///< envelopes built
    std::size_t entries = 0;   ///< stored envelope pieces
    std::size_t distinct_matrices = 0;  ///< interned after deduplication
    /// Share of interns that reused an envelope.
    double HitRate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
  };

  TemporalLossCache();  // default Options
  explicit TemporalLossCache(const Options& options);

  /// Returns a shared, thread-safe evaluator for \p matrix's loss
  /// function. Matrices with identical contents map to the same
  /// envelope (compared exactly, not by hash alone).
  std::shared_ptr<const LossEvaluator> Intern(const StochasticMatrix& matrix);

  Stats stats() const;

 private:
  const Options options_;
  mutable std::mutex mu_;
  /// fingerprint -> envelopes (a bucket list guards against hash
  /// collision).
  std::unordered_map<std::uint64_t,
                     std::vector<std::shared_ptr<const LossEnvelope>>>
      registry_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::size_t pieces_ = 0;
};

}  // namespace tcdp

#endif  // TCDP_CORE_LOSS_CACHE_H_
