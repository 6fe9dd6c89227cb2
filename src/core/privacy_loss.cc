#include "core/privacy_loss.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <string>

#include "common/math_util.h"
#include "kernels/kernels.h"

namespace tcdp {

ExpAlpha::ExpAlpha(double a)
    : alpha(a), factor(a < 30.0 ? std::expm1(a) : std::exp(-a)) {}

double LogLinearInExpAlpha(double c, const ExpAlpha& e) {
  assert(c >= 0.0 && c <= 1.0 + 1e-12 && e.alpha >= 0.0);
  if (c <= 0.0 || e.alpha == 0.0) return 0.0;
  if (e.alpha < 30.0) {
    return std::log1p(c * e.factor);
  }
  // c(e^a - 1) + 1 = c e^a (1 + (1-c) e^-a / c):
  //   log = a + log(c) + log1p((1-c) e^-a / c).
  return e.alpha + std::log(c) + std::log1p((1.0 - c) * e.factor / c);
}

double LogLinearInExpAlpha(double c, double alpha) {
  return LogLinearInExpAlpha(c, ExpAlpha(alpha));
}

namespace {

/// log-ratio of the objective for aggregates (q_sum, d_sum) at alpha.
double PairLogRatio(double q_sum, double d_sum, double alpha) {
  return LogLinearInExpAlpha(q_sum, alpha) - LogLinearInExpAlpha(d_sum, alpha);
}

/// Reusable per-thread working set for the pair scans. One candidate
/// index buffer plus one parallel payload buffer (log-ratios for the
/// refinement filter, unused by the sorted scan) replace the per-call
/// `subset`/`kept`/`order` vectors: after the first few pairs of a
/// matrix sweep these never reallocate.
struct PairScanScratch {
  std::vector<std::uint32_t> idx;
  std::vector<double> logr;

  void Reserve(std::size_t n) {
    if (idx.size() < n) idx.resize(n);
    if (logr.size() < n) logr.resize(n);
  }
};

PairScanScratch& Scratch() {
  thread_local PairScanScratch scratch;
  return scratch;
}

/// Algorithm 1 refinement on raw rows. Fills loss/q_sum/d_sum/
/// update_rounds of *result; materializes result->subset only when
/// want_subset is set (the matrix sweep skips it).
void PairLossIterativeCore(const double* q, const double* d, std::size_t n,
                           double alpha, bool want_subset,
                           PairLossResult* result) {
  const auto& k = kernels::ActiveBackend();
  PairScanScratch& scratch = Scratch();
  scratch.Reserve(n);
  std::uint32_t* idx = scratch.idx.data();
  double* logr = scratch.logr.data();

  // Corollary 2 seed: candidates are exactly the coordinates with
  // q_j > d_j.
  std::size_t m = k.select_greater(q, d, n, idx);

  // The per-candidate log ratio log(q_j) - log(d_j) is loop-invariant
  // across refinement rounds; compute it once. d_j = 0 candidates have
  // infinite ratio and survive every filter (q_j > d_j = 0 in the
  // seed, so log(q_j) is finite).
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint32_t j = idx[i];
    logr[i] = d[j] == 0.0 ? std::numeric_limits<double>::infinity()
                          : std::log(q[j]) - std::log(d[j]);
  }

  // Theorem 4 refinement (Algorithm 1 Lines 6–11): drop every candidate
  // whose individual ratio fails Inequality (21) against the aggregate
  // ratio; repeat until a full pass removes nothing. All comparisons in
  // log space.
  while (m > 0) {
    ++result->update_rounds;
    double q_sum = 0.0, d_sum = 0.0;
    k.gather_pair_sums(q, d, idx, m, &q_sum, &d_sum);
    const double log_ratio = PairLogRatio(q_sum, d_sum, alpha);
    const std::size_t kept = k.filter_gt(logr, idx, m, log_ratio);
    if (kept == m) {
      result->q_sum = q_sum;
      result->d_sum = d_sum;
      result->loss = log_ratio;
      if (want_subset) result->subset.assign(idx, idx + m);
      return;
    }
    m = kept;
  }
  // Empty subset: identical rows (or alpha-independent tie) -> loss 0.
  result->q_sum = 0.0;
  result->d_sum = 0.0;
  result->loss = 0.0;
}

/// Threshold-set prefix scan on raw rows (see ComputePairLossSorted).
void PairLossSortedCore(const double* q, const double* d, std::size_t n,
                        double alpha, bool want_subset,
                        PairLossResult* result) {
  PairScanScratch& scratch = Scratch();
  scratch.Reserve(n);
  std::uint32_t* order = scratch.idx.data();

  const ExpAlpha e(alpha);
  double best_q = 0.0, best_d = 0.0;
  std::size_t best_len = 0;
  ForEachSortedPrefix(q, d, n, order,
                      [&](double q_acc, double d_acc, std::size_t len) {
                        const double value = LogLinearInExpAlpha(q_acc, e) -
                                             LogLinearInExpAlpha(d_acc, e);
                        if (value > result->loss) {
                          result->loss = value;
                          best_q = q_acc;
                          best_d = d_acc;
                          best_len = len;
                        }
                      });
  result->q_sum = best_q;
  result->d_sum = best_d;
  result->update_rounds = 1;  // single scan
  if (want_subset) {
    result->subset.assign(order, order + best_len);
    std::sort(result->subset.begin(), result->subset.end());
  }
}

Status ValidatePairInputs(const char* fn, const std::vector<double>& q,
                          const std::vector<double>& d, double alpha) {
  if (q.size() != d.size()) {
    return Status::InvalidArgument(std::string(fn) + ": |q| != |d|");
  }
  if (q.empty()) {
    return Status::InvalidArgument(std::string(fn) + ": empty rows");
  }
  if (!(alpha >= 0.0) || !std::isfinite(alpha)) {
    return Status::InvalidArgument(
        std::string(fn) + ": alpha must be finite and >= 0, got " +
        std::to_string(alpha));
  }
  return Status::OK();
}

}  // namespace

std::size_t SortedPrefixOrder(const double* q, const double* d, std::size_t n,
                              std::uint32_t* order) {
  // Candidates (Corollary 2) sorted by ratio q_j/d_j descending; d_j = 0
  // candidates (infinite ratio) first.
  const std::size_t m = kernels::ActiveBackend().select_greater(q, d, n, order);
  std::sort(order, order + m, [&](std::uint32_t a, std::uint32_t b) {
    const bool a_inf = d[a] == 0.0;
    const bool b_inf = d[b] == 0.0;
    if (a_inf != b_inf) return a_inf;
    if (a_inf) return q[a] > q[b];  // both infinite: any stable order
    return q[a] * d[b] > q[b] * d[a];
  });
  return m;
}

StatusOr<PairLossResult> ComputePairLoss(const std::vector<double>& q,
                                         const std::vector<double>& d,
                                         double alpha) {
  Status status = ValidatePairInputs("ComputePairLoss", q, d, alpha);
  if (!status.ok()) return status;
  PairLossResult result;
  PairLossIterativeCore(q.data(), d.data(), q.size(), alpha,
                        /*want_subset=*/true, &result);
  return result;
}

StatusOr<PairLossResult> ComputePairLossSorted(const std::vector<double>& q,
                                               const std::vector<double>& d,
                                               double alpha) {
  Status status = ValidatePairInputs("ComputePairLossSorted", q, d, alpha);
  if (!status.ok()) return status;
  PairLossResult result;
  PairLossSortedCore(q.data(), d.data(), q.size(), alpha,
                     /*want_subset=*/true, &result);
  return result;
}

TemporalLossFunction::TemporalLossFunction(StochasticMatrix transition)
    : transition_(std::move(transition)) {
  assert(!transition_.empty());
}

double TemporalLossFunction::Evaluate(double alpha) const {
  return EvaluateDetailed(alpha).loss;
}

TemporalLossFunction::Detail TemporalLossFunction::EvaluateDetailed(
    double alpha, const EvalOptions& options) const {
  assert(alpha >= 0.0);
  if (alpha < 0.0) alpha = 0.0;
  const std::size_t n = transition_.size();
  Detail best;
  if (n < 2) return best;  // single state: rows identical, loss 0
  // Rows are contiguous slices of the row-major storage; the pair cores
  // take raw pointers, so the sweep does no per-pair copies or
  // allocations (the scratch buffers warm up on the first pair).
  const double* base = transition_.matrix().data().data();
  for (std::size_t a = 0; a < n; ++a) {
    const double* q = base + a * n;
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b) continue;
      ++best.pairs_examined;
      const double* d = base + b * n;
      PairLossResult pair;
      if (options.method == PairLossMethod::kSortedPrefix) {
        PairLossSortedCore(q, d, n, alpha, /*want_subset=*/false, &pair);
      } else {
        PairLossIterativeCore(q, d, n, alpha, /*want_subset=*/false, &pair);
      }
      if (pair.loss > best.loss ||
          (best.loss == 0.0 && best.q_sum == 0.0 && pair.q_sum > 0.0)) {
        best.loss = pair.loss;
        best.q_sum = pair.q_sum;
        best.d_sum = pair.d_sum;
        best.row_q = a;
        best.row_d = b;
      }
    }
  }
  return best;
}

}  // namespace tcdp
