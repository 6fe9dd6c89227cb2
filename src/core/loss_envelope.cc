#include "core/loss_envelope.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace tcdp {
namespace {

/// The construction works in long double: products such as
/// q_E d_C - q_C d_E or (d_E + u)(q_C + u) of entries near 1e-300 and
/// u = 1/(e^alpha - 1) underflow in double, and a gap that underflows
/// to 0 or infinity would misjudge a candidate.
using Real = long double;
static_assert(std::numeric_limits<Real>::min_exponent <= -16000 &&
                  std::numeric_limits<Real>::digits >= 53,
              "LossEnvelope needs a long double with extended exponent range");

constexpr Real kEps = std::numeric_limits<double>::epsilon();
/// A curve is a candidate wherever its gap to the piece's envelope
/// curve is at most kMargin * alpha (alpha < 30) or
/// kMargin * (alpha + 2 Lambda + 1) (alpha >= 30), Lambda = the largest
/// |log q|, |log d|. One computed curve value is off by at most about
/// 6 eps alpha, resp. 4 eps (alpha + 2 |log c| + 1); kMargin = 256 eps.
constexpr Real kMargin = 0x1p-44;
/// A curve beaten coordinate-wise by this much (q larger or d smaller)
/// trails the winner by at least ~kGap / 2 at every alpha in
/// (0, kTop], far above the rounding margin, so it is never a
/// candidate.
constexpr double kGap = 0x1p-12;
/// LogLinearInExpAlpha switches formula here.
constexpr double kBranch = 30.0;
/// Fixed cuts: they bound how loosely the gap test scales the margin
/// across one piece. Beyond 30 they double up to kTop.
constexpr double kGrid[] = {1.0, 2.0, 4.0, 8.0, 16.0, kBranch};

struct Live {
  double q;
  double d;
  Real s;      ///< q - d: the slope at alpha = 0
  Real kappa;  ///< d / q: ascending kappa is descending ratio q/d
};

/// The gap g_E - g_C equals log1p(w) with
///   w = x (s + r x) / ((d_E x + 1)(q_C x + 1))
///     = (s u + r) / ((d_E + u)(q_C + u)),   u = 1/x,
/// s = s_E - s_C, r = q_E d_C - q_C d_E. GapBound returns a lower bound,
/// net of rounding, on the minimum over the piece of w / x ("v form",
/// for x in [lo, hi]) or of w ("u form", for u in [lo, hi]). Both take
/// their minimum at an end point unless one end point is already
/// negative (C above E): the derivative's numerator is a quadratic
/// whose sign pattern, case by case in the signs of s and r, only
/// allows an interior maximum, or an interior minimum past the
/// crossing -s/r where the function is negative.
Real GapBound(const Live& e, const Live& c, bool v_form, Real lo, Real hi) {
  const Real eq = e.q, ed = e.d, cq = c.q, cd = c.d;
  const Real s = e.s - c.s;
  const Real r = eq * cd - cq * ed;
  const Real cross = eq * cd + cq * ed;
  const bool both_d_zero = e.d == 0.0 && c.d == 0.0;  // then r == 0
  auto lower = [&](Real t) {
    Real num, den, err;
    if (v_form) {
      num = s + r * t;
      den = (ed * t + 1) * (cq * t + 1);
      err = 8 * kEps * (1 + cross * t + std::fabs(num));
    } else if (both_d_zero) {
      num = s;
      den = cq + t;
      err = 8 * kEps * (1 + std::fabs(num));
    } else {
      num = s * t + r;
      den = (ed + t) * (cq + t);
      err = 8 * kEps * (t + cross + std::fabs(num));
      // d_E = 0 at u = 0 (alpha = inf): E grows without bound over C.
      if (den == 0) return std::numeric_limits<Real>::infinity();
    }
    return (num - err) / den;
  };
  return std::min(lower(lo), lower(hi));
}

/// One cut piece [lo, hi] of alpha, in the form GapBound takes. Pieces
/// never straddle 1 or kBranch.
struct CutPiece {
  CutPiece(double lo, double hi, double lambda) : v_form(hi <= 1.0) {
    if (v_form) {
      // alpha <= x, so w <= margin * alpha implies w / x <= margin.
      t_lo = std::expm1(Real{lo});
      t_hi = std::expm1(Real{hi});
      threshold = kMargin;
    } else {
      // The margin grows with alpha; its value at hi covers the piece.
      t_lo = 1 / std::expm1(Real{hi});
      t_hi = 1 / std::expm1(Real{lo});
      threshold = kMargin * (hi <= kBranch ? hi : hi + 2.0 * lambda + 1.0);
    }
  }
  /// Whether C may come within the rounding margin of E on the piece.
  bool Near(const Live& e, const Live& c) const {
    return GapBound(e, c, v_form, t_lo, t_hi) <= threshold;
  }
  bool v_form;
  Real t_lo, t_hi;  ///< x range (v form) or u range (u form)
  Real threshold;
};

/// Drops every curve some other curve dominates by kGap: q_A >= q_C +
/// kGap with d_A <= d_C, or q_A >= q_C with d_A <= d_C - kGap. Then
/// g_A - g_C >= log1p(kGap x / (x + 1)) for all x. \p sorted is in
/// ascending (q, d) order.
template <typename Curve>
std::vector<Live> PruneDominated(const std::vector<Curve>& sorted) {
  const std::size_t m = sorted.size();
  // min_d[k]: smallest d among the k + 1 largest q.
  std::vector<double> min_d(m);
  for (std::size_t k = 0; k < m; ++k) {
    const double d = sorted[m - 1 - k].d;
    min_d[k] = k == 0 ? d : std::min(min_d[k - 1], d);
  }
  std::vector<Live> live;
  std::size_t gapped = 0;  // how many curves have q >= q_C + kGap
  std::size_t group = 0;   // how many curves have q >= q_C
  for (std::size_t k = 0; k < m; ++k) {
    const Curve& c = sorted[m - 1 - k];
    while (gapped < m && sorted[m - 1 - gapped].q >= c.q + kGap) ++gapped;
    group = std::max(group, k + 1);
    while (group < m && sorted[m - 1 - group].q >= c.q) ++group;
    if (gapped > 0 && min_d[gapped - 1] <= c.d) continue;
    if (min_d[group - 1] <= c.d - kGap) continue;
    live.push_back({c.q, c.d, Real{c.q} - c.d, Real{c.d} / c.q});
  }
  return live;
}

}  // namespace

LossEnvelope::LossEnvelope(StochasticMatrix transition)
    : reference_(std::move(transition)) {
  // 1. Every sorted prefix of every ordered pair, exactly as the
  //    reference enumerates them. q == d curves evaluate to exactly 0.
  const std::size_t n = reference_.domain_size();
  const double* base = reference_.transition().matrix().data().data();
  std::vector<std::uint32_t> order(n);
  std::vector<Curve> curves;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b) continue;
      ForEachSortedPrefix(base + a * n, base + b * n, n, order.data(),
                          [&](double q, double d, std::size_t) {
                            if (q > d) curves.push_back({q, d});
                          });
    }
  }
  std::sort(curves.begin(), curves.end(), [](const Curve& x, const Curve& y) {
    return x.q < y.q || (x.q == y.q && x.d < y.d);
  });
  curves.erase(std::unique(curves.begin(), curves.end(),
                           [](const Curve& x, const Curve& y) {
                             return x.q == y.q && x.d == y.d;
                           }),
               curves.end());
  num_curves_ = curves.size();

  // 2. Dominance pruning.
  const std::vector<Live> live = PruneDominated(curves);
  num_live_ = live.size();
  if (live.empty()) {  // L == 0: identical or uniform rows
    offsets_ = {0, 0};
    return;
  }
  double lambda = 0.0;
  for (const Live& c : live) {
    lambda = std::max(lambda, std::fabs(std::log(c.q)));
    if (c.d > 0.0) lambda = std::max(lambda, std::fabs(std::log(c.d)));
  }

  // 3. Envelope sweep. Each step moves to a curve of strictly smaller
  //    kappa, so it ends after at most |live| steps.
  std::size_t cur = 0;
  for (std::size_t j = 1; j < live.size(); ++j) {
    if (live[j].s > live[cur].s ||
        (live[j].s == live[cur].s && live[j].kappa < live[cur].kappa)) {
      cur = j;
    }
  }
  // Crossings are compared as x = e^alpha - 1, in long double.
  std::vector<std::pair<double, std::size_t>> runs = {{0.0, cur}};
  Real x_cur = 0;
  for (;;) {
    const Live& e = live[cur];
    std::size_t next = live.size();
    Real next_x = std::numeric_limits<Real>::infinity();
    for (std::size_t j = 0; j < live.size(); ++j) {
      const Live& c = live[j];
      if (!(c.kappa < e.kappa)) continue;
      const Real r = Real{e.q} * c.d - Real{c.q} * e.d;
      if (!(r < 0)) continue;  // C never overtakes E
      const Real s = e.s - c.s;
      const Real x = s > 0 ? std::max(x_cur, s / -r) : x_cur;
      if (x < next_x || (x == next_x && next < live.size() &&
                         c.kappa < live[next].kappa)) {
        next = j;
        next_x = x;
      }
    }
    if (next == live.size()) break;
    const double alpha = static_cast<double>(std::log1p(next_x));
    if (!(alpha < kTop)) break;
    runs.emplace_back(std::max(alpha, runs.back().first), next);
    crossings_.push_back(runs.back().first);
    cur = next;
    x_cur = next_x;
  }

  // 4. Cut [0, kTop) at the crossings and the grid; test every live
  //    curve on every cut piece against that piece's envelope curve.
  std::vector<double> cuts;
  for (double c : crossings_) {
    // Narrow pieces around each crossing hold both curves; the wide
    // piece between two crossings then holds its envelope curve alone.
    for (double f : {1.0 - 0x1p-20, 1.0, 1.0 + 0x1p-20}) {
      if (c * f < kTop) cuts.push_back(c * f);
    }
  }
  cuts.insert(cuts.end(), std::begin(kGrid), std::end(kGrid));
  for (double g = 64.0; g < kTop; g *= 2.0) cuts.push_back(g);
  cuts.push_back(0.0);
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  cuts.push_back(kTop);

  std::vector<std::uint32_t> prev, set;
  std::size_t run = 0;
  offsets_.push_back(0);
  for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
    const double lo = cuts[k];
    while (run + 1 < runs.size() && runs[run + 1].first <= lo) ++run;
    const Live& e = live[runs[run].second];
    const CutPiece piece(lo, cuts[k + 1], lambda);
    set.clear();
    for (std::size_t j = 0; j < live.size(); ++j) {
      if (j == runs[run].second || piece.Near(e, live[j])) {
        set.push_back(static_cast<std::uint32_t>(j));
      }
    }
    // 5. A piece whose candidates equal its predecessor's extends it.
    if (k > 0 && set == prev) continue;
    if (k > 0) {
      breaks_.push_back(lo);
      offsets_.push_back(static_cast<std::uint32_t>(candidates_.size()));
    }
    for (std::uint32_t j : set) candidates_.push_back({live[j].q, live[j].d});
    std::swap(prev, set);
  }
  offsets_.push_back(static_cast<std::uint32_t>(candidates_.size()));
}

double LossEnvelope::Evaluate(double alpha) const {
  if (!(alpha > 0.0)) return 0.0;
  if (alpha < kBottom || alpha >= kTop) return reference_.Evaluate(alpha);
  const std::size_t piece = static_cast<std::size_t>(
      std::upper_bound(breaks_.begin(), breaks_.end(), alpha) -
      breaks_.begin());
  // The reference's expression and comparison, so the bits agree.
  const ExpAlpha e(alpha);
  double best = 0.0;
  const Curve* last = candidates_.data() + offsets_[piece + 1];
  for (const Curve* c = candidates_.data() + offsets_[piece]; c != last; ++c) {
    const double value =
        LogLinearInExpAlpha(c->q, e) - LogLinearInExpAlpha(c->d, e);
    if (value > best) best = value;
  }
  return best;
}

}  // namespace tcdp
