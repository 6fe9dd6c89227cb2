#include "markov/io.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "linalg/matrix.h"

namespace tcdp {
namespace {

bool IsFieldSeparator(char ch) {
  return ch == ',' || ch == ' ' || ch == '\t' || ch == '\r';
}

/// Splits a line on commas and whitespace, skipping empty fields.
std::vector<std::string> SplitFields(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  for (char ch : line) {
    if (IsFieldSeparator(ch)) {
      if (!current.empty()) {
        fields.push_back(current);
        current.clear();
      }
    } else {
      current.push_back(ch);
    }
  }
  if (!current.empty()) fields.push_back(current);
  return fields;
}

bool IsCommentOrBlank(std::string_view line) {
  for (char ch : line) {
    if (ch == '#') return true;
    if (ch != ' ' && ch != '\t' && ch != '\r') return false;
  }
  return true;
}

StatusOr<double> ParseDouble(std::string_view field, std::size_t line_no) {
  double value = 0.0;
  if (!ParseDoubleText(field, &value)) {
    return Status::InvalidArgument("line " + std::to_string(line_no) +
                                   ": cannot parse number '" +
                                   std::string(field) + "'");
  }
  return value;
}

StatusOr<std::size_t> ParseIndex(const std::string& field,
                                 std::size_t line_no) {
  for (char ch : field) {
    if (ch < '0' || ch > '9') {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": cannot parse state index '" + field +
                                     "'");
    }
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(field.c_str(), &end, 10);
  if (end == field.c_str() || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument("line " + std::to_string(line_no) +
                                   ": cannot parse state index '" + field +
                                   "'");
  }
  return static_cast<std::size_t>(value);
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    return Status::NotFound("cannot write file: " + path);
  }
  out << content;
  if (!out) {
    return Status::Internal("write failed for file: " + path);
  }
  return Status::OK();
}

StatusOr<Matrix> ParseMatrixRows(std::string_view text) {
  std::vector<double> data;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t line_no = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (IsCommentOrBlank(line)) continue;
    const std::size_t row_start = data.size();
    const char* p = line.data();
    const char* end = p + line.size();
    for (;;) {
      while (p < end && IsFieldSeparator(*p)) ++p;
      if (p == end) break;
      // One pass per field: from_chars finds the field's end itself
      // whenever the field is a plain decimal number.
      double v = 0.0;
      auto [q, ec] = std::from_chars(p, end, v);
      if (ec != std::errc() || (q != end && !IsFieldSeparator(*q))) {
        q = p;
        while (q < end && !IsFieldSeparator(*q)) ++q;
        TCDP_ASSIGN_OR_RETURN(
            v, ParseDouble(std::string_view(p, q - p), line_no));
      }
      data.push_back(v);
      p = q;
    }
    const std::size_t width = data.size() - row_start;
    if (rows > 0 && width != cols) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_no) + ": ragged row (got " +
          std::to_string(width) + " fields, expected " +
          std::to_string(cols) + ")");
    }
    cols = width;
    ++rows;
  }
  if (rows == 0) {
    return Status::InvalidArgument("matrix text contains no data rows");
  }
  return Matrix::FromFlat(rows, cols, std::move(data));
}

}  // namespace

bool ParseDoubleText(std::string_view token, double* value) {
  const char* last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), last, *value);
  if (ec == std::errc() && ptr == last) return true;
  if (ec == std::errc::result_out_of_range) return false;
  // from_chars lacks a few spellings strtod takes (a leading '+', hex
  // floats, leading whitespace); those rare tokens keep strtod's grammar.
  const std::string copy(token);
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(copy.c_str(), &end);
  if (end == copy.c_str() || *end != '\0') return false;
  // glibc flags exact subnormals with ERANGE too; only overflow and
  // underflow to zero lose the token's value.
  if (errno == ERANGE && (parsed == 0.0 || std::isinf(parsed))) return false;
  *value = parsed;
  return true;
}

void AppendDoubleText(std::string* out, double value) {
  char buffer[32];  // "%.17g" needs at most 24 ("-1.2345678901234567e-308")
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value,
                                    std::chars_format::general, 17);
  out->append(buffer, result.ptr);
}

StatusOr<StochasticMatrix> ParseStochasticMatrix(std::string_view text) {
  TCDP_ASSIGN_OR_RETURN(Matrix m, ParseMatrixRows(text));
  return StochasticMatrix::Create(std::move(m));
}

StatusOr<StochasticMatrix> ParseStochasticMatrixExact(std::string_view text) {
  TCDP_ASSIGN_OR_RETURN(Matrix m, ParseMatrixRows(text));
  return StochasticMatrix::CreateExact(std::move(m));
}

void AppendStochasticMatrix(std::string* out, const StochasticMatrix& matrix,
                            char separator) {
  for (std::size_t r = 0; r < matrix.size(); ++r) {
    for (std::size_t c = 0; c < matrix.size(); ++c) {
      if (c > 0) out->push_back(separator);
      AppendDoubleText(out, matrix.At(r, c));
    }
    out->push_back('\n');
  }
}

std::string SerializeStochasticMatrix(const StochasticMatrix& matrix,
                                      char separator) {
  std::string out;
  out.reserve(matrix.size() * matrix.size() * 24);
  AppendStochasticMatrix(&out, matrix, separator);
  return out;
}

StatusOr<StochasticMatrix> LoadStochasticMatrix(const std::string& path) {
  TCDP_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return ParseStochasticMatrix(text);
}

Status SaveStochasticMatrix(const StochasticMatrix& matrix,
                            const std::string& path) {
  return WriteFile(path, SerializeStochasticMatrix(matrix));
}

StatusOr<std::vector<Trajectory>> ParseTrajectories(const std::string& text,
                                                    std::size_t num_states) {
  std::vector<Trajectory> trajectories;
  std::istringstream stream(text);
  std::string line;
  std::size_t line_no = 0;
  std::size_t max_state = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    if (IsCommentOrBlank(line)) continue;
    Trajectory traj;
    for (const std::string& field : SplitFields(line)) {
      TCDP_ASSIGN_OR_RETURN(std::size_t s, ParseIndex(field, line_no));
      if (num_states > 0 && s >= num_states) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_no) + ": state " +
            std::to_string(s) + " outside domain of size " +
            std::to_string(num_states));
      }
      max_state = std::max(max_state, s);
      traj.push_back(s);
    }
    if (traj.empty()) continue;
    trajectories.push_back(std::move(traj));
  }
  if (trajectories.empty()) {
    return Status::InvalidArgument("trajectory text contains no data rows");
  }
  (void)max_state;
  return trajectories;
}

std::string SerializeTrajectories(const std::vector<Trajectory>& trajectories,
                                  char separator) {
  std::ostringstream out;
  for (const Trajectory& traj : trajectories) {
    for (std::size_t i = 0; i < traj.size(); ++i) {
      if (i > 0) out << separator;
      out << traj[i];
    }
    out << '\n';
  }
  return out.str();
}

StatusOr<std::vector<Trajectory>> LoadTrajectories(const std::string& path,
                                                   std::size_t num_states) {
  TCDP_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return ParseTrajectories(text, num_states);
}

Status SaveTrajectories(const std::vector<Trajectory>& trajectories,
                        const std::string& path) {
  return WriteFile(path, SerializeTrajectories(trajectories));
}

}  // namespace tcdp
