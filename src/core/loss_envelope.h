#ifndef TCDP_CORE_LOSS_ENVELOPE_H_
#define TCDP_CORE_LOSS_ENVELOPE_H_

/// \file
/// The loss function L(alpha) of one transition matrix, precomputed as
/// the upper envelope of a finite family of curves and evaluated
/// bitwise equal to TemporalLossFunction::Evaluate.
///
/// By Theorem 4 / Corollary 2 the optimal subset of every ordered row
/// pair is a prefix in ratio order, so
///
///   L(alpha) = max(0, max over curves (q, d) of g(x)),
///   g(x) = log((q x + 1) / (d x + 1)),  x = e^alpha - 1,
///
/// over the prefix sums (q, d) of every pair (ForEachSortedPrefix).
/// For two curves A, B the numerator of g_A - g_B is x (s + r x) with
/// s = (q_A - d_A) - (q_B - d_B) and r = q_A d_B - q_B d_A, so two
/// curves cross at most once, at x* = -s/r. The envelope starts at the
/// largest slope q - d near alpha = 0 and ends at the largest ratio q/d.
///
/// Construction, once per matrix:
///  1. enumerate and deduplicate the curves;
///  2. drop every curve another one beats by a margin at every alpha up
///     to kTop (coordinate-wise dominance with a 2^-12 gap);
///  3. sweep the envelope of the survivors from alpha = 0 by repeated
///     next-crossing search;
///  4. cut alpha at the envelope crossings plus a fixed grid (1, 2, 4,
///     8, 16, 30 and powers of two up to kTop) and, on each cut piece,
///     keep as candidates every curve whose gap to the piece's envelope
///     curve falls within a rounding margin anywhere on the piece (the
///     gap's rational form takes its minimum at an end point, or is
///     negative at one);
///  5. merge neighbouring pieces with equal candidate lists.
///
/// Evaluation is one binary search over the piece starts, then the same
/// LogLinearInExpAlpha difference the reference computes, on the
/// piece's few candidates only. The rounding margin (2^-44 relative to
/// alpha, plus the |log q| terms of the alpha >= 30 branch) is over 20
/// times the worst error of one computed curve value, so every curve
/// whose computed value could be the reference's maximum is a
/// candidate, and the maximum over candidates has the same bits.
/// Correctness needs only that margin: the sweep's envelope curve is
/// just the yardstick that keeps candidate lists short. Outside
/// [kBottom, kTop) evaluation falls back to the reference itself.
///
/// Immutable after construction, so concurrent Evaluate calls need no
/// synchronization.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/privacy_loss.h"
#include "markov/stochastic_matrix.h"

namespace tcdp {

class LossEnvelope : public LossEvaluator {
 public:
  /// Below kBottom, subnormal rounding can exceed the relative margin.
  static constexpr double kBottom = 0x1p-1000;
  /// End of the tabulated range; the margin grows with alpha.
  static constexpr double kTop = 0x1p30;

  explicit LossEnvelope(StochasticMatrix transition);

  const StochasticMatrix& transition() const {
    return reference_.transition();
  }

  /// Bitwise equal to TemporalLossFunction(transition).Evaluate(alpha);
  /// 0 for alpha <= 0 or NaN.
  double Evaluate(double alpha) const override;

  /// Distinct curves with q > d (the full family).
  std::size_t num_curves() const { return num_curves_; }
  /// Curves left after dominance pruning.
  std::size_t num_live_curves() const { return num_live_; }
  /// Tabulated pieces covering [0, kTop).
  std::size_t num_pieces() const { return offsets_.size() - 1; }
  /// Candidate curves stored over all pieces.
  std::size_t num_candidates() const { return candidates_.size(); }
  /// Start of pieces 1..num_pieces()-1 (piece 0 starts at 0).
  const std::vector<double>& breakpoints() const { return breaks_; }
  /// Alphas where the swept envelope changes curve, before the grid
  /// cuts and the merging.
  const std::vector<double>& crossings() const { return crossings_; }

 private:
  struct Curve {
    double q;
    double d;
  };

  TemporalLossFunction reference_;
  std::size_t num_curves_ = 0;
  std::size_t num_live_ = 0;
  std::vector<double> breaks_;
  std::vector<std::uint32_t> offsets_;  ///< piece p: [offsets_[p], [p+1])
  std::vector<Curve> candidates_;
  std::vector<double> crossings_;
};

}  // namespace tcdp

#endif  // TCDP_CORE_LOSS_ENVELOPE_H_
