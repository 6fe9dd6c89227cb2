#include "core/tpl_accountant.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <numeric>
#include <string_view>

#include "core/loss_cache.h"
#include "markov/io.h"

namespace tcdp {

TplAccountant::TplAccountant(TemporalCorrelations correlations)
    : correlations_(std::move(correlations)) {
  if (correlations_.has_backward()) {
    backward_loss_ =
        std::make_shared<TemporalLossFunction>(correlations_.backward());
  }
  if (correlations_.has_forward()) {
    forward_loss_ =
        std::make_shared<TemporalLossFunction>(correlations_.forward());
  }
}

TplAccountant::TplAccountant(TemporalCorrelations correlations,
                             std::shared_ptr<const LossEvaluator> backward_loss,
                             std::shared_ptr<const LossEvaluator> forward_loss,
                             double cache_alpha_resolution)
    : correlations_(std::move(correlations)),
      backward_loss_(std::move(backward_loss)),
      forward_loss_(std::move(forward_loss)),
      cache_alpha_resolution_(cache_alpha_resolution) {}

void TplAccountant::AppendStep(double epsilon) {
  double bpl = epsilon;
  if (!bpl_.empty() && backward_loss_ != nullptr) {
    bpl += backward_loss_->Evaluate(bpl_.back());
  }
  epsilons_.push_back(epsilon);
  bpl_.push_back(bpl);
  fpl_dirty_ = true;
}

Status TplAccountant::RecordRelease(double epsilon) {
  if (!(epsilon > 0.0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument(
        "TplAccountant: epsilon must be finite and > 0");
  }
  AppendStep(epsilon);
  return Status::OK();
}

Status TplAccountant::RecordSkip() {
  AppendStep(0.0);
  return Status::OK();
}

Status TplAccountant::RecordUniformReleases(double epsilon,
                                            std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    TCDP_RETURN_IF_ERROR(RecordRelease(epsilon));
  }
  return Status::OK();
}

void TplAccountant::EnsureFplCache() const {
  if (!fpl_dirty_) return;
  const std::size_t t_len = epsilons_.size();
  fpl_.assign(t_len, 0.0);
  for (std::size_t idx = t_len; idx-- > 0;) {
    double fpl = epsilons_[idx];
    if (idx + 1 < t_len && forward_loss_ != nullptr) {
      fpl += forward_loss_->Evaluate(fpl_[idx + 1]);
    }
    fpl_[idx] = fpl;
  }
  fpl_dirty_ = false;
}

StatusOr<double> TplAccountant::Bpl(std::size_t t) const {
  if (t < 1 || t > horizon()) {
    return Status::OutOfRange("Bpl: t outside [1, horizon]");
  }
  return bpl_[t - 1];
}

StatusOr<double> TplAccountant::Fpl(std::size_t t) const {
  if (t < 1 || t > horizon()) {
    return Status::OutOfRange("Fpl: t outside [1, horizon]");
  }
  EnsureFplCache();
  return fpl_[t - 1];
}

StatusOr<double> TplAccountant::Tpl(std::size_t t) const {
  TCDP_ASSIGN_OR_RETURN(double bpl, Bpl(t));
  TCDP_ASSIGN_OR_RETURN(double fpl, Fpl(t));
  return bpl + fpl - epsilons_[t - 1];
}

std::vector<double> TplAccountant::BplSeries() const { return bpl_; }

std::vector<double> TplAccountant::FplSeries() const {
  EnsureFplCache();
  return fpl_;
}

std::vector<double> TplAccountant::TplSeries() const {
  EnsureFplCache();
  std::vector<double> out(horizon());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = bpl_[i] + fpl_[i] - epsilons_[i];
  }
  return out;
}

double TplAccountant::MaxTpl() const {
  double best = 0.0;
  for (double v : TplSeries()) best = std::max(best, v);
  return best;
}

StatusOr<double> TplAccountant::SequenceTpl(std::size_t t,
                                            std::size_t j) const {
  if (t < 1 || t + j > horizon()) {
    return Status::OutOfRange("SequenceTpl: [t, t+j] outside horizon");
  }
  if (j == 0) return Tpl(t);
  EnsureFplCache();
  const double bpl_t = bpl_[t - 1];
  const double fpl_tj = fpl_[t + j - 1];
  double middle = 0.0;
  for (std::size_t k = 1; k + 1 <= j; ++k) middle += epsilons_[t + k - 1];
  return bpl_t + fpl_tj + middle;
}

double TplAccountant::UserLevelTpl() const {
  return std::accumulate(epsilons_.begin(), epsilons_.end(), 0.0);
}

StatusOr<double> TplAccountant::MaxWindowTpl(std::size_t w) const {
  if (w == 0) {
    return Status::InvalidArgument("MaxWindowTpl: w must be >= 1");
  }
  double best = 0.0;
  for (std::size_t t = 1; t <= horizon(); ++t) {
    const std::size_t j = std::min(w - 1, horizon() - t);
    TCDP_ASSIGN_OR_RETURN(double v, SequenceTpl(t, j));
    best = std::max(best, v);
  }
  return best;
}

std::string SerializeAccountantImage(const AccountantImage& image) {
  const TemporalCorrelations& corr = image.correlations;
  const std::size_t n = corr.domain_size();
  std::string out;
  out.reserve(64 + 2 * n * n * 24 + image.epsilons.size() * 24);
  out += "tcdp-accountant-v2\nquantization ";
  AppendDoubleText(&out, image.cache_alpha_resolution);
  out += "\nbackward ";
  out += std::to_string(corr.has_backward() ? corr.backward().size() : 0);
  out += '\n';
  if (corr.has_backward()) AppendStochasticMatrix(&out, corr.backward());
  out += "forward ";
  out += std::to_string(corr.has_forward() ? corr.forward().size() : 0);
  out += '\n';
  if (corr.has_forward()) AppendStochasticMatrix(&out, corr.forward());
  out += "epsilons ";
  out += std::to_string(image.epsilons.size());
  out += '\n';
  for (double e : image.epsilons) {
    AppendDoubleText(&out, e);
    out += '\n';
  }
  return out;
}

namespace {

/// In-place scanner over an accountant blob: getline-style lines and
/// whitespace-delimited tokens, as the format was first read with
/// std::istream.
class BlobScanner {
 public:
  explicit BlobScanner(std::string_view text) : text_(text) {}

  /// The next line without its '\n'; false at the end of the text.
  bool ReadLine(std::string_view* line) {
    if (pos_ >= text_.size()) return false;
    std::size_t eol = text_.find('\n', pos_);
    if (eol == std::string_view::npos) eol = text_.size();
    *line = text_.substr(pos_, eol - pos_);
    pos_ = std::min(eol + 1, text_.size());
    return true;
  }

  /// Skips whitespace, then returns the token up to the next whitespace.
  bool ReadToken(std::string_view* token) {
    while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
    const std::size_t start = pos_;
    while (pos_ < text_.size() && !IsSpace(text_[pos_])) ++pos_;
    *token = text_.substr(start, pos_ - start);
    return !token->empty();
  }

  bool ReadKeyword(std::string_view keyword) {
    std::string_view token;
    return ReadToken(&token) && token == keyword;
  }

  bool ReadCount(std::size_t* count) {
    std::string_view token;
    if (!ReadToken(&token)) return false;
    const char* last = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), last, *count);
    return ec == std::errc() && ptr == last;
  }

  bool ReadDouble(double* value) {
    std::string_view token;
    return ReadToken(&token) && ParseDoubleText(token, value);
  }

  /// Drops the character after a count (its line's '\n').
  void SkipChar() {
    if (pos_ < text_.size()) ++pos_;
  }

  std::size_t pos() const { return pos_; }
  std::string_view text() const { return text_; }

 private:
  static bool IsSpace(char ch) {
    return ch == ' ' || ch == '\n' || ch == '\t' || ch == '\r' ||
           ch == '\v' || ch == '\f';
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

StatusOr<AccountantImage> ParseAccountantImage(const std::string& text) {
  BlobScanner in(text);
  std::string_view header;
  if (!in.ReadLine(&header) ||
      (header != "tcdp-accountant-v1" && header != "tcdp-accountant-v2")) {
    return Status::InvalidArgument(
        "ParseAccountantImage: bad header (expected tcdp-accountant-v1 or "
        "tcdp-accountant-v2)");
  }
  AccountantImage image;
  // v1 predates cached accounting: always restores direct evaluators.
  if (header == "tcdp-accountant-v2") {
    if (!in.ReadKeyword("quantization") ||
        !in.ReadDouble(&image.cache_alpha_resolution) ||
        !std::isfinite(image.cache_alpha_resolution)) {
      return Status::InvalidArgument(
          "ParseAccountantImage: expected 'quantization <step>'");
    }
  }
  using OptionalMatrix = std::optional<StochasticMatrix>;
  auto read_matrix =
      [&](const std::string& keyword) -> StatusOr<OptionalMatrix> {
    std::size_t n = 0;
    if (!in.ReadKeyword(keyword) || !in.ReadCount(&n)) {
      return Status::InvalidArgument(
          "ParseAccountantImage: expected '" + keyword + " <n>'");
    }
    // A corrupted count cannot exceed the bytes available to hold the
    // rows (>= 2 chars per row): bound it before any allocation.
    if (n > text.size()) {
      return Status::InvalidArgument(
          "ParseAccountantImage: declared " + keyword + " size " +
          std::to_string(n) + " exceeds the input");
    }
    in.SkipChar();
    if (n == 0) return std::optional<StochasticMatrix>{};
    const std::size_t block_start = in.pos();
    std::string_view line;
    for (std::size_t r = 0; r < n; ++r) {
      if (!in.ReadLine(&line)) {
        return Status::InvalidArgument(
            "ParseAccountantImage: truncated " + keyword + " matrix");
      }
    }
    // Exact parse: blobs are machine-written, and a forgiving
    // renormalization would shift entries by ULPs — the restored
    // series would drift off the live one.
    TCDP_ASSIGN_OR_RETURN(
        StochasticMatrix m,
        ParseStochasticMatrixExact(
            in.text().substr(block_start, in.pos() - block_start)));
    if (m.size() != n) {
      return Status::InvalidArgument(
          "ParseAccountantImage: " + keyword + " matrix size " +
          std::to_string(m.size()) + " != declared " + std::to_string(n));
    }
    return std::optional<StochasticMatrix>{std::move(m)};
  };

  TCDP_ASSIGN_OR_RETURN(auto backward, read_matrix("backward"));
  TCDP_ASSIGN_OR_RETURN(auto forward, read_matrix("forward"));

  std::size_t count = 0;
  if (!in.ReadKeyword("epsilons") || !in.ReadCount(&count)) {
    return Status::InvalidArgument(
        "ParseAccountantImage: expected 'epsilons <count>'");
  }
  // Same bound as the matrices: a count that cannot fit in the input
  // (every entry needs at least "0\n") is corruption, not data. This
  // keeps a flipped digit from requesting an exabyte vector.
  if (count > text.size()) {
    return Status::InvalidArgument(
        "ParseAccountantImage: declared epsilon count " +
        std::to_string(count) + " exceeds the input");
  }
  image.epsilons.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (!in.ReadDouble(&image.epsilons[i])) {
      return Status::InvalidArgument(
          "ParseAccountantImage: truncated epsilon list");
    }
    if (!std::isfinite(image.epsilons[i]) || image.epsilons[i] < 0.0) {
      return Status::InvalidArgument(
          "ParseAccountantImage: epsilon " + std::to_string(i) +
          " is not finite and >= 0");
    }
  }

  if (backward.has_value() && forward.has_value()) {
    TCDP_ASSIGN_OR_RETURN(
        image.correlations,
        TemporalCorrelations::Both(std::move(*backward), std::move(*forward)));
  } else if (backward.has_value()) {
    image.correlations =
        TemporalCorrelations::BackwardOnly(std::move(*backward));
  } else if (forward.has_value()) {
    image.correlations = TemporalCorrelations::ForwardOnly(std::move(*forward));
  }
  return image;
}

std::string TplAccountant::Serialize() const {
  AccountantImage image;
  image.correlations = correlations_;
  image.cache_alpha_resolution = cache_alpha_resolution_;
  image.epsilons = epsilons_;
  return SerializeAccountantImage(image);
}

StatusOr<TplAccountant> TplAccountant::Deserialize(const std::string& text) {
  TCDP_ASSIGN_OR_RETURN(AccountantImage image, ParseAccountantImage(text));
  TemporalCorrelations corr = image.correlations;
  auto make_accountant = [&]() -> TplAccountant {
    if (image.cache_alpha_resolution < 0.0) {
      return TplAccountant(std::move(corr));
    }
    // Rebuild an identically quantized cache; the interned evaluators
    // keep its internals alive past this scope, and replaying below
    // reproduces the live series bitwise.
    TemporalLossCache::Options options;
    options.alpha_resolution = image.cache_alpha_resolution;
    TemporalLossCache cache(options);
    std::shared_ptr<const LossEvaluator> b;
    std::shared_ptr<const LossEvaluator> f;
    if (corr.has_backward()) b = cache.Intern(corr.backward());
    if (corr.has_forward()) f = cache.Intern(corr.forward());
    return TplAccountant(std::move(corr), std::move(b), std::move(f),
                         image.cache_alpha_resolution);
  };
  TplAccountant accountant = make_accountant();
  for (double e : image.epsilons) {
    if (e == 0.0) {
      TCDP_RETURN_IF_ERROR(accountant.RecordSkip());
    } else {
      TCDP_RETURN_IF_ERROR(accountant.RecordRelease(e));
    }
  }
  return accountant;
}

std::size_t PopulationAccountant::AddUser(std::string name,
                                          TemporalCorrelations correlations) {
  users_.push_back(UserEntry{std::move(name),
                             TplAccountant(std::move(correlations))});
  return users_.size() - 1;
}

Status PopulationAccountant::RecordRelease(double epsilon) {
  for (auto& u : users_) {
    TCDP_RETURN_IF_ERROR(u.accountant.RecordRelease(epsilon));
  }
  return Status::OK();
}

Status PopulationAccountant::RecordRelease(
    double epsilon, const std::vector<std::size_t>& participants) {
  // Validate before mutating any accountant: a mid-loop failure would
  // leave users at inconsistent horizons.
  if (!(epsilon > 0.0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument(
        "PopulationAccountant: epsilon must be finite and > 0");
  }
  std::vector<bool> in_release(users_.size(), false);
  for (std::size_t index : participants) {
    if (index >= users_.size()) {
      return Status::InvalidArgument(
          "PopulationAccountant: participant index " +
          std::to_string(index) + " out of range");
    }
    in_release[index] = true;
  }
  for (std::size_t i = 0; i < users_.size(); ++i) {
    if (in_release[i]) {
      TCDP_RETURN_IF_ERROR(users_[i].accountant.RecordRelease(epsilon));
    } else {
      TCDP_RETURN_IF_ERROR(users_[i].accountant.RecordSkip());
    }
  }
  return Status::OK();
}

std::size_t PopulationAccountant::horizon() const {
  return users_.empty() ? 0 : users_.front().accountant.horizon();
}

StatusOr<double> PopulationAccountant::MaxTplAt(std::size_t t) const {
  if (users_.empty()) {
    return Status::FailedPrecondition("MaxTplAt: no users registered");
  }
  double best = 0.0;
  for (const auto& u : users_) {
    TCDP_ASSIGN_OR_RETURN(double v, u.accountant.Tpl(t));
    best = std::max(best, v);
  }
  return best;
}

double PopulationAccountant::OverallAlpha() const {
  double best = 0.0;
  for (const auto& u : users_) best = std::max(best, u.accountant.MaxTpl());
  return best;
}

}  // namespace tcdp
