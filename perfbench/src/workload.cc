#include "workload.h"

#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "markov/stochastic_matrix.h"
#include "net/messages.h"

namespace perfbench {
namespace {

using tcdp::Rng;
using tcdp::Status;
using tcdp::StatusOr;

constexpr std::size_t kStates = 16;
constexpr std::size_t kCohorts = 16;
constexpr std::uint64_t kCohortMatrixSeed = 0x5A5A0000ULL;
constexpr double kSparseEpsilons[] = {0.05, 0.1, 0.2};

// Loads scale linearly with --seconds; the rates are per second of
// run length. At 5 s, sparse-personal reaches a horizon of about 10^4
// global releases (its load then takes about 3 s) and durable-churn's
// load takes about 5 s on a 4-core x86 host. Set-up sizes do not
// scale: set-up time is its own metric and must mean the same thing at
// any length.
constexpr std::size_t kSparseUsers = 4000;
constexpr double kSparseReleasesPerSecond = 14000;
constexpr std::size_t kSparseQueries = 200;
constexpr std::size_t kChurnUsers = 4000;
constexpr double kChurnReleasesPerSecond = 2400;
constexpr std::size_t kChurnJoinEvery = 40;
constexpr std::size_t kChurnQueryEvery = 50;
constexpr std::size_t kChurnQueries = 1000;

StatusOr<tcdp::TemporalCorrelations> RandomPair(Rng* rng) {
  tcdp::StochasticMatrix matrix = tcdp::StochasticMatrix::Random(kStates, rng);
  return tcdp::TemporalCorrelations::Both(matrix, matrix);
}

std::size_t Scaled(double per_second, double seconds) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(per_second * seconds)));
}

void AddUsers(Workload* w, std::size_t count, Rng* rng) {
  for (std::size_t u = 0; u < count; ++u) {
    w->names.push_back("u" + std::to_string(w->names.size()));
    w->user_matrix.push_back(static_cast<std::uint32_t>(
        rng->UniformInt(0, static_cast<std::int64_t>(kCohorts) - 1)));
  }
}

/// The kCohorts cohort matrices are the same for every seed. A
/// loss-cache miss costs a solve whose price depends on the matrix, so
/// with matrices drawn per seed, the seed set sparse-personal's release
/// rate (perfbench/README.md, Workloads). The seed draws everything
/// else: cohort membership, the request stream, the queried users and
/// the newcomers' matrices.
Status AddCohortMatrices(Workload* w) {
  Rng rng(kCohortMatrixSeed);
  for (std::size_t c = 0; c < kCohorts; ++c) {
    TCDP_ASSIGN_OR_RETURN(auto pair, RandomPair(&rng));
    w->matrices.push_back(std::move(pair));
  }
  return Status::OK();
}

std::uint32_t RandomUser(std::size_t enrolled, Rng* rng) {
  return static_cast<std::uint32_t>(
      rng->UniformInt(0, static_cast<std::int64_t>(enrolled) - 1));
}

double RandomEpsilon(Rng* rng) {
  return kSparseEpsilons[rng->UniformInt(0, 2)];
}

StatusOr<Workload> SparsePersonal(std::uint64_t seed, double seconds) {
  Rng rng(seed ^ 0x5A5A0001ULL);
  Workload w;
  w.name = "sparse-personal";
  w.batch_window = 16;
  TCDP_RETURN_IF_ERROR(AddCohortMatrices(&w));
  AddUsers(&w, kSparseUsers, &rng);
  w.initial_users = kSparseUsers;
  const std::size_t releases = Scaled(kSparseReleasesPerSecond, seconds);
  w.load_block.reserve(releases);
  for (std::size_t r = 0; r < releases; ++r) {
    w.load_block.push_back(
        {OpKind::kRelease, RandomUser(kSparseUsers, &rng), RandomEpsilon(&rng)});
  }
  for (std::size_t q = 0; q < kSparseQueries; ++q) {
    w.query_phase.push_back(RandomUser(kSparseUsers, &rng));
  }
  return w;
}

StatusOr<Workload> DurableChurn(std::uint64_t seed, double seconds) {
  Rng rng(seed ^ 0x5A5A0003ULL);
  Workload w;
  w.name = "durable-churn";
  w.batch_window = 16;
  w.durable = true;
  TCDP_RETURN_IF_ERROR(AddCohortMatrices(&w));
  AddUsers(&w, kChurnUsers, &rng);
  w.initial_users = kChurnUsers;
  const std::size_t releases = Scaled(kChurnReleasesPerSecond, seconds);
  for (std::size_t r = 1; r <= releases; ++r) {
    w.load_block.push_back({OpKind::kRelease,
                            RandomUser(w.names.size(), &rng),
                            RandomEpsilon(&rng)});
    if (r % kChurnJoinEvery == 0) {
      // A newcomer brings a matrix no one else has: a fresh cohort.
      const auto user = static_cast<std::uint32_t>(w.names.size());
      w.names.push_back("u" + std::to_string(user));
      w.user_matrix.push_back(static_cast<std::uint32_t>(w.matrices.size()));
      TCDP_ASSIGN_OR_RETURN(auto pair, RandomPair(&rng));
      w.matrices.push_back(std::move(pair));
      w.load_block.push_back({OpKind::kJoin, user, 0.0});
    }
    if (r % kChurnQueryEvery == 0) {
      w.load_block.push_back(
          {OpKind::kQuery, RandomUser(w.names.size(), &rng), 0.0});
    }
  }
  for (std::size_t q = 0; q < kChurnQueries; ++q) {
    w.query_phase.push_back(RandomUser(w.names.size(), &rng));
  }
  return w;
}

void AppendOpFrame(const Workload& workload, const Op& op, EncodedFrames* out) {
  using tcdp::net::MsgType;
  switch (op.kind) {
    case OpKind::kJoin:
      out->Append(MsgType::kJoin,
                  tcdp::net::EncodeJoin(
                      workload.names[op.user],
                      workload.matrices[workload.user_matrix[op.user]]));
      break;
    case OpKind::kRelease:
      out->Append(MsgType::kRelease,
                  tcdp::net::EncodeRelease(workload.names[op.user], op.epsilon));
      break;
    case OpKind::kQuery:
      out->Append(MsgType::kQuery, tcdp::net::EncodeName(workload.names[op.user]));
      break;
    case OpKind::kFlush:
      out->Append(MsgType::kFlush, "");
      break;
  }
}

}  // namespace

std::size_t Workload::release_ops() const {
  return static_cast<std::size_t>(
      std::count_if(load_block.begin(), load_block.end(),
                    [](const Op& op) { return op.kind == OpKind::kRelease; }));
}

StatusOr<Workload> MakeWorkload(const std::string& workload_name,
                                std::uint64_t seed, double seconds) {
  if (!(seconds > 0.0)) {
    return Status::InvalidArgument("--seconds must be > 0");
  }
  if (workload_name == "sparse-personal") return SparsePersonal(seed, seconds);
  if (workload_name == "durable-churn") return DurableChurn(seed, seconds);
  return Status::InvalidArgument("unknown workload '" + workload_name + "'");
}

void EncodedFrames::Append(tcdp::net::MsgType type, const std::string& payload) {
  tcdp::net::AppendFrame(&bytes, type, payload);
  ends.push_back(bytes.size());
}

std::vector<Op> InitialJoins(const Workload& workload) {
  std::vector<Op> ops;
  for (std::size_t u = 0; u < workload.initial_users; ++u) {
    ops.push_back({OpKind::kJoin, static_cast<std::uint32_t>(u), 0.0});
  }
  return ops;
}

std::vector<Op> QueryOps(const std::vector<std::uint32_t>& users) {
  std::vector<Op> ops;
  for (std::uint32_t user : users) ops.push_back({OpKind::kQuery, user, 0.0});
  return ops;
}

EncodedFrames EncodeOps(const Workload& workload, const std::vector<Op>& ops) {
  EncodedFrames frames;
  for (const Op& op : ops) AppendOpFrame(workload, op, &frames);
  return frames;
}

}  // namespace perfbench
