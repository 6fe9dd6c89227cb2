// Unit tests for markov/io: text parsing/serialization of matrices and
// trajectories, with file round-trips.

#include "markov/io.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>

#include <gtest/gtest.h>

#include "common/random.h"

namespace tcdp {
namespace {

/// The format every machine-written matrix has always used.
std::string PrintfG17(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string ReferenceSerialize(const StochasticMatrix& m) {
  std::string out;
  for (std::size_t r = 0; r < m.size(); ++r) {
    for (std::size_t c = 0; c < m.size(); ++c) {
      if (c > 0) out += ',';
      out += PrintfG17(m.At(r, c));
    }
    out += '\n';
  }
  return out;
}

std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Rows are rotations of entries that include 0, -0.0, 1/3, 1e-300 and
/// subnormals; each row sums to 1 within CreateExact's tolerance.
StochasticMatrix EdgeMatrix() {
  const double denorm_min = std::numeric_limits<double>::denorm_min();
  const std::vector<double> row = {1.0 / 3, 1.0 / 3, 1.0 / 3, 0.0, -0.0,
                                   1e-300,  1e-310,  denorm_min};
  Matrix m(row.size(), row.size());
  for (std::size_t r = 0; r < row.size(); ++r) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      m(r, c) = row[(r + c) % row.size()];
    }
  }
  return StochasticMatrix::CreateExact(std::move(m)).value();
}

TEST(ParseStochasticMatrix, ParsesCommaAndWhitespace) {
  auto m = ParseStochasticMatrix("0.5,0.5\n0.25 0.75\n");
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(m->size(), 2u);
  EXPECT_DOUBLE_EQ(m->At(1, 0), 0.25);
}

TEST(ParseStochasticMatrix, SkipsCommentsAndBlanks) {
  auto m = ParseStochasticMatrix(
      "# forward correlation\n\n0.9, 0.1\n  \n0.2, 0.8\n");
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->size(), 2u);
}

TEST(ParseStochasticMatrix, RejectsRaggedRows) {
  auto m = ParseStochasticMatrix("0.5,0.5\n1.0\n");
  EXPECT_FALSE(m.ok());
  EXPECT_NE(m.status().message().find("ragged"), std::string::npos);
}

TEST(ParseStochasticMatrix, RejectsGarbageFields) {
  auto m = ParseStochasticMatrix("0.5,abc\n0.5,0.5\n");
  EXPECT_FALSE(m.ok());
  EXPECT_NE(m.status().message().find("line 1"), std::string::npos);
}

TEST(ParseStochasticMatrix, RejectsNonStochasticRows) {
  EXPECT_FALSE(ParseStochasticMatrix("0.5,0.6\n0.5,0.5\n").ok());
  EXPECT_FALSE(ParseStochasticMatrix("").ok());
}

TEST(SerializeStochasticMatrix, RoundTripsExactly) {
  auto original = StochasticMatrix::FromRows(
      {{0.123456789012345, 0.876543210987655}, {1.0 / 3, 2.0 / 3}});
  auto parsed = ParseStochasticMatrix(SerializeStochasticMatrix(original));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->ApproxEquals(original, 1e-15));
}

TEST(MatrixCodec, NumbersMatchPrintfG17Bytewise) {
  const double denorm_min = std::numeric_limits<double>::denorm_min();
  for (double v : {0.0, -0.0, 1.0, -1.0, 1.0 / 3, 0.1, 1e-300, 1e-310,
                   denorm_min, 1e-9, 1e16, 1e17, 1e22, 5e-5, 1e-5, 1e-4,
                   std::numeric_limits<double>::max(),
                   std::numeric_limits<double>::min()}) {
    std::string out;
    AppendDoubleText(&out, v);
    EXPECT_EQ(out, PrintfG17(v)) << v;
  }
  std::mt19937_64 engine(7);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t bits = engine();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    if (!std::isfinite(v)) continue;
    std::string out;
    AppendDoubleText(&out, v);
    ASSERT_EQ(out, PrintfG17(v)) << "bits " << bits;
    double back = 0.0;
    ASSERT_TRUE(ParseDoubleText(out, &back)) << out;
    ASSERT_EQ(Bits(back), bits) << out;
  }
}

TEST(MatrixCodec, SerializeMatchesPrintfReferenceAndRoundTripsBitwise) {
  Rng rng(11);
  std::vector<StochasticMatrix> matrices = {EdgeMatrix(),
                                            StochasticMatrix::Identity(3)};
  for (int i = 0; i < 300; ++i) {
    matrices.push_back(StochasticMatrix::Random(
        static_cast<std::size_t>(rng.UniformInt(1, 20)), &rng));
  }
  for (const StochasticMatrix& m : matrices) {
    const std::string text = SerializeStochasticMatrix(m);
    ASSERT_EQ(text, ReferenceSerialize(m));
    auto parsed = ParseStochasticMatrixExact(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    ASSERT_EQ(parsed->size(), m.size());
    for (std::size_t r = 0; r < m.size(); ++r) {
      for (std::size_t c = 0; c < m.size(); ++c) {
        ASSERT_EQ(Bits(parsed->At(r, c)), Bits(m.At(r, c)))
            << "entry (" << r << "," << c << ") of\n" << text;
      }
    }
  }
}

TEST(MatrixCodec, SubnormalRowRoundTrips) {
  // CreateExact accepts {1e-310, 1}; the writer renders 1e-310 as
  // 9.9999999999999694e-311, which the parser must take back exactly.
  auto m = StochasticMatrix::CreateExact(Matrix({{1e-310, 1.0}, {0.5, 0.5}}));
  ASSERT_TRUE(m.ok()) << m.status();
  const std::string text = SerializeStochasticMatrix(*m);
  EXPECT_EQ(text, "9.9999999999999694e-311,1\n0.5,0.5\n");
  auto parsed = ParseStochasticMatrixExact(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(Bits(parsed->At(0, 0)), Bits(1e-310));
}

TEST(MatrixCodec, TokenGrammarKeepsStrtodSpellings) {
  // Every spelling strtod takes for a whole token still parses, to the
  // value strtod gives it.
  for (const char* token : {"0.5", "+0.5", ".5", "5.", "1E-1", "0x1p-1",
                            "+0x1p-2", "-0", "1e-310", "inf", "nan"}) {
    double value = 0.0;
    ASSERT_TRUE(ParseDoubleText(token, &value)) << token;
    const double expected = std::strtod(token, nullptr);
    if (std::isnan(expected)) {
      EXPECT_TRUE(std::isnan(value)) << token;
    } else {
      EXPECT_EQ(Bits(value), Bits(expected)) << token;
    }
  }
  // Overflow and underflow to zero lose the token's value: rejected, as
  // strtod's ERANGE always rejected them.
  for (const char* token :
       {"", "+", "-", "abc", "0.5x", "1e400", "-1e400", "1e-400", "+1e-400",
        "+-1", "0x", "1..2"}) {
    double value = 0.0;
    EXPECT_FALSE(ParseDoubleText(token, &value)) << token;
  }
  auto signed_rows = ParseStochasticMatrix("+0.5,+0.5\n0x1p-1 0.5\n");
  ASSERT_TRUE(signed_rows.ok()) << signed_rows.status();
  EXPECT_EQ(signed_rows->At(1, 0), 0.5);
  EXPECT_FALSE(ParseStochasticMatrix("1e400,0\n0,1\n").ok());
}

TEST(MatrixFileIo, SaveAndLoad) {
  const std::string path = "/tmp/tcdp_io_test_matrix.csv";
  auto m = StochasticMatrix::FromRows({{0.7, 0.3}, {0.4, 0.6}});
  ASSERT_TRUE(SaveStochasticMatrix(m, path).ok());
  auto loaded = LoadStochasticMatrix(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->ApproxEquals(m, 1e-15));
  std::remove(path.c_str());
}

TEST(MatrixFileIo, LoadMissingFileIsNotFound) {
  auto m = LoadStochasticMatrix("/tmp/definitely_missing_tcdp_file.csv");
  EXPECT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kNotFound);
}

TEST(ParseTrajectories, ParsesMultipleUsers) {
  auto t = ParseTrajectories("0,1,2\n2 2 0\n# comment\n");
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->size(), 2u);
  EXPECT_EQ((*t)[0], (Trajectory{0, 1, 2}));
  EXPECT_EQ((*t)[1], (Trajectory{2, 2, 0}));
}

TEST(ParseTrajectories, EnforcesDomainWhenGiven) {
  EXPECT_TRUE(ParseTrajectories("0,1\n", 2).ok());
  auto bad = ParseTrajectories("0,5\n", 2);
  EXPECT_FALSE(bad.ok());
}

TEST(ParseTrajectories, RejectsNegativeAndGarbage) {
  EXPECT_FALSE(ParseTrajectories("0,-1\n").ok());
  EXPECT_FALSE(ParseTrajectories("a,b\n").ok());
  EXPECT_FALSE(ParseTrajectories("").ok());
}

TEST(TrajectoryFileIo, RoundTrip) {
  const std::string path = "/tmp/tcdp_io_test_traj.csv";
  std::vector<Trajectory> trajs = {{0, 1, 0}, {2, 2, 2}, {1}};
  ASSERT_TRUE(SaveTrajectories(trajs, path).ok());
  auto loaded = LoadTrajectories(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, trajs);
  std::remove(path.c_str());
}

TEST(SerializeTrajectories, CustomSeparator) {
  EXPECT_EQ(SerializeTrajectories({{1, 2, 3}}, ' '), "1 2 3\n");
}

}  // namespace
}  // namespace tcdp
