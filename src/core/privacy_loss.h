#ifndef TCDP_CORE_PRIVACY_LOSS_H_
#define TCDP_CORE_PRIVACY_LOSS_H_

/// \file
/// The paper's Algorithm 1: polynomial-time evaluation of the temporal
/// privacy-loss functions L^B / L^F of Equations (23)/(24).
///
/// For a transition matrix P and previous/next leakage alpha >= 0,
///
///   L(alpha) = max over ordered pairs of distinct rows (q, d) of
///              log [ (q_hat (e^alpha - 1) + 1) / (d_hat (e^alpha - 1) + 1) ]
///
/// where q_hat = sum_{j in S} q_j, d_hat = sum_{j in S} d_j for the
/// subset S selected by Theorem 4 / Corollary 2: start from
/// S = { j : q_j > d_j } and repeatedly drop every j whose ratio
/// q_j / d_j fails Inequality (21), until stable.
///
/// Numerics: all ratios are evaluated in log space so that alpha in the
/// hundreds (deep accumulation under strong correlations) cannot
/// overflow. The recurrence value satisfies 0 <= L(alpha) <= alpha
/// (Remark 1) — property-tested.
///
/// TemporalLossFunction re-solves every row pair on each call; it is
/// the reference. Served paths evaluate the same function through
/// LossEnvelope (core/loss_envelope.h), which enumerates the sorted
/// prefixes once per matrix and is bitwise equal to Evaluate here.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "markov/stochastic_matrix.h"

namespace tcdp {

/// \brief log( c * (e^alpha - 1) + 1 ) evaluated stably for c in [0, 1]
/// and alpha >= 0 (helper exposed for tests and Theorem 5).
double LogLinearInExpAlpha(double c, double alpha);

/// \brief The alpha-only factor of LogLinearInExpAlpha: e^alpha - 1 on
/// the alpha < 30 branch, e^-alpha on the other. Evaluating many c at
/// one alpha through it skips the repeated exp calls and gives the same
/// bits as LogLinearInExpAlpha(c, alpha).
struct ExpAlpha {
  explicit ExpAlpha(double alpha);
  double alpha;
  double factor;
};
double LogLinearInExpAlpha(double c, const ExpAlpha& e);

/// \brief Corollary 2 candidates of the ordered row pair (q, d) in
/// Theorem 4's threshold order: writes every j with q_j > d_j into
/// \p order, sorted by ratio q_j/d_j descending (d_j = 0 first), and
/// returns their count. \p order needs room for n entries.
std::size_t SortedPrefixOrder(const double* q, const double* d, std::size_t n,
                              std::uint32_t* order);

/// \brief Calls visit(q_hat, d_hat, len) for every prefix of the
/// SortedPrefixOrder of (q, d). Each prefix is one curve
/// log((q_hat x + 1) / (d_hat x + 1)), x = e^alpha - 1, and the pair's
/// loss is the largest of them. ComputePairLossSorted and LossEnvelope
/// (core/loss_envelope.h) both enumerate through here, so their
/// prefix sums carry the same bits.
template <typename Visit>
void ForEachSortedPrefix(const double* q, const double* d, std::size_t n,
                         std::uint32_t* order, Visit&& visit) {
  const std::size_t m = SortedPrefixOrder(q, d, n, order);
  double q_acc = 0.0, d_acc = 0.0;
  for (std::size_t len = 1; len <= m; ++len) {
    q_acc += q[order[len - 1]];
    d_acc += d[order[len - 1]];
    visit(q_acc, d_acc, len);
  }
}

/// \brief Outcome of the subset search for one ordered row pair.
struct PairLossResult {
  double loss = 0.0;             ///< log-ratio at the optimum (>= 0)
  double q_sum = 0.0;            ///< q_hat over the selected subset
  double d_sum = 0.0;            ///< d_hat over the selected subset
  std::vector<std::size_t> subset;  ///< selected coordinate indices
  std::size_t update_rounds = 0;    ///< removal passes performed
};

/// \brief Algorithm 1, Lines 3–11: optimal subset for one ordered pair.
///
/// Returns InvalidArgument when sizes mismatch or alpha is negative /
/// non-finite. alpha == 0 returns loss 0 with the initial Corollary-2
/// subset.
StatusOr<PairLossResult> ComputePairLoss(const std::vector<double>& q,
                                         const std::vector<double>& d,
                                         double alpha);

/// \brief Exact O(n log n) alternative to the Theorem 4 refinement loop.
///
/// Inequalities (21)/(22) say the optimal subset is a *threshold set* on
/// the per-coordinate ratio q_j/d_j: every kept coordinate's ratio
/// strictly exceeds the aggregate ratio, every dropped one's does not.
/// In the order sorted by q_j/d_j descending the optimum is therefore a
/// prefix; scanning all prefixes with cumulative sums finds it directly.
/// Agreement with ComputePairLoss (and with exhaustive subset
/// enumeration) is property-tested.
StatusOr<PairLossResult> ComputePairLossSorted(const std::vector<double>& q,
                                               const std::vector<double>& d,
                                               double alpha);

/// \brief Interface for a temporal loss function L(alpha): alpha >= 0 ->
/// [0, alpha]. Lets accountants share one evaluation backend — a direct
/// per-user TemporalLossFunction, the trivial zero loss, or a per-matrix
/// envelope interned by the fleet-wide cache (core/loss_envelope.h,
/// core/loss_cache.h).
class LossEvaluator {
 public:
  virtual ~LossEvaluator() = default;
  virtual double Evaluate(double alpha) const = 0;
};

/// How TemporalLossFunction solves each ordered row pair.
enum class PairLossMethod {
  kIterativeRefinement,  ///< the paper's Algorithm 1 removal loop
  kSortedPrefix,         ///< the O(n log n) threshold-set scan
};

/// Evaluation knobs for TemporalLossFunction. The default is the
/// O(n log n) threshold-set scan: it is property-tested equivalent to
/// the paper's iterative refinement (see LossBoundsTest) and
/// asymptotically cheaper per pair; kIterativeRefinement remains
/// available as the literal Algorithm-1 transcription.
struct LossEvalOptions {
  PairLossMethod method = PairLossMethod::kSortedPrefix;
};

/// \brief The full loss function for a transition matrix: the maximum
/// pair loss over all ordered pairs of distinct rows (Algorithm 1).
///
/// Construction copies the matrix; evaluation is O(n^4) worst case
/// with kIterativeRefinement (n^2 pairs x O(n^2) subset refinement),
/// matching the paper's bound, and O(n^3 log n) with the default
/// kSortedPrefix.
class TemporalLossFunction : public LossEvaluator {
 public:
  explicit TemporalLossFunction(StochasticMatrix transition);

  const StochasticMatrix& transition() const { return transition_; }
  std::size_t domain_size() const { return transition_.size(); }

  /// L(alpha) for alpha >= 0. alpha = 0 gives 0. Asserts on negative
  /// alpha in debug builds; clamps to 0 otherwise.
  double Evaluate(double alpha) const override;

  using EvalOptions = LossEvalOptions;

  /// Detailed evaluation: the loss plus the maximizing pair's aggregates
  /// (q_hat, d_hat) and row indices — the inputs Theorem 5 needs
  /// (Algorithm 2 Lines 3–4).
  struct Detail {
    double loss = 0.0;
    double q_sum = 0.0;
    double d_sum = 0.0;
    std::size_t row_q = 0;   ///< numerator row index
    std::size_t row_d = 0;   ///< denominator row index
    std::size_t pairs_examined = 0;  ///< ordered pairs considered
  };
  Detail EvaluateDetailed(double alpha, const EvalOptions& options = {}) const;

 private:
  StochasticMatrix transition_;
};

/// \brief Trivial loss function L(alpha) = 0 used when the adversary
/// lacks the corresponding correlation knowledge (BPL/FPL collapse to
/// PL0, Examples 2 and 3 case (iii)).
class ZeroLossFunction : public LossEvaluator {
 public:
  double Evaluate(double) const override { return 0.0; }
};

}  // namespace tcdp

#endif  // TCDP_CORE_PRIVACY_LOSS_H_
