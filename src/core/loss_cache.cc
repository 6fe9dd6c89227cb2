#include "core/loss_cache.h"

#include <cmath>
#include <utility>

#include "core/loss_envelope.h"
#include "obs/metrics.h"

namespace tcdp {
namespace {

/// Process-global cache instruments (every TemporalLossCache instance
/// feeds the same totals, mirroring the per-instance counts that back
/// `stats()`).
struct CacheObs {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* interned;
  obs::Gauge* entries;
  static const CacheObs& Get() {
    static const CacheObs instruments = [] {
      obs::Registry& registry = obs::Registry::Default();
      CacheObs o;
      o.hits = registry.GetCounter("tcdp_loss_cache_hits_total");
      o.misses = registry.GetCounter("tcdp_loss_cache_misses_total");
      o.interned = registry.GetCounter("tcdp_loss_cache_interned_total");
      o.entries = registry.GetGauge("tcdp_loss_cache_entries");
      return o;
    }();
    return instruments;
  }
};

/// The evaluator handed to accountants: grid snap, then the envelope.
class CachedLoss : public LossEvaluator {
 public:
  CachedLoss(std::shared_ptr<const LossEnvelope> envelope,
             double alpha_resolution)
      : envelope_(std::move(envelope)), resolution_(alpha_resolution) {}

  double Evaluate(double alpha) const override {
    if (!(alpha > 0.0)) return 0.0;
    if (resolution_ > 0.0) {
      const double scaled = alpha / resolution_;
      // Past 9e18 llround would overflow; leakage this deep is
      // astronomically past any real budget, so evaluate unsnapped.
      if (scaled < 9.0e18) {
        // Snap to the grid point at or above alpha: L is nondecreasing,
        // so a larger argument keeps the value an upper bound on the
        // true loss — an accountant must never round a leakage down.
        auto key = static_cast<std::int64_t>(std::llround(scaled));
        double snapped = static_cast<double>(key) * resolution_;
        if (snapped < alpha) {
          ++key;
          snapped = static_cast<double>(key) * resolution_;
        }
        alpha = snapped;
      }
    }
    return envelope_->Evaluate(alpha);
  }

 private:
  std::shared_ptr<const LossEnvelope> envelope_;
  double resolution_;
};

}  // namespace

TemporalLossCache::TemporalLossCache() : TemporalLossCache(Options()) {}

TemporalLossCache::TemporalLossCache(const Options& options)
    : options_(options) {}

std::shared_ptr<const LossEvaluator> TemporalLossCache::Intern(
    const StochasticMatrix& matrix) {
  const std::uint64_t fp = FingerprintStochasticMatrix(matrix);
  std::shared_ptr<const LossEnvelope> envelope;
  bool built = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = registry_.try_emplace(fp);
    for (const auto& existing : it->second) {
      if (ExactlyEquals(existing->transition(), matrix)) {
        envelope = existing;
        break;
      }
    }
    if (envelope != nullptr) {
      ++hits_;
    } else {
      // Built under the lock: interning is rare (once per cohort) and a
      // build takes well under a millisecond.
      envelope = std::make_shared<const LossEnvelope>(matrix);
      it->second.push_back(envelope);
      built = true;
      ++misses_;
      pieces_ += envelope->num_pieces();
    }
  }
  if (obs::MetricsEnabled()) {
    const CacheObs& o = CacheObs::Get();
    if (built) {
      o.misses->Increment();
      o.interned->Increment();
      o.entries->Add(static_cast<std::int64_t>(envelope->num_pieces()));
    } else {
      o.hits->Increment();
    }
  }
  return std::make_shared<CachedLoss>(std::move(envelope),
                                      options_.alpha_resolution);
}

TemporalLossCache::Stats TemporalLossCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.entries = pieces_;
  for (const auto& [fp, envelopes] : registry_) {
    s.distinct_matrices += envelopes.size();
  }
  return s;
}

}  // namespace tcdp
