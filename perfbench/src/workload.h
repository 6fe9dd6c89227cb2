#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

/// \file
/// The two served workloads, generated from a seed, and their
/// pre-encoded wire form. Everything the server or the in-process
/// replays see comes from a Workload, so equal seeds give equal runs.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/temporal_correlations.h"
#include "net/wire.h"

namespace perfbench {

enum class OpKind : std::uint8_t { kJoin, kRelease, kQuery, kFlush };

struct Op {
  OpKind kind = OpKind::kRelease;
  std::uint32_t user = 0;
  double epsilon = 0.0;
};

/// Shards of every served server and in-process service replay.
constexpr std::size_t kShards = 2;
/// Durable servers fdatasync every acknowledged release and snapshot
/// every kSnapshotEvery releases per shard. No auto-compaction: a
/// compacted primary cannot bootstrap a follower
/// (replication/log_stream.cc), and the run measures follower catch-up.
constexpr std::size_t kSyncEvery = 1;
constexpr std::size_t kSnapshotEvery = 800;

struct Workload {
  std::string name;
  std::size_t batch_window = 16;
  bool durable = false;

  /// One correlation pair per matrix id (P^B = P^F).
  std::vector<tcdp::TemporalCorrelations> matrices;
  /// Per user: wire name and matrix id. Users [0, initial_users) are
  /// enrolled in set-up; the rest join during the load.
  std::vector<std::string> names;
  std::vector<std::uint32_t> user_matrix;
  std::size_t initial_users = 0;

  /// The load phase: `load_block`, then a Flush (sent by the
  /// generator, not stored here).
  std::vector<Op> load_block;
  /// Timed query phase after the load (may be empty).
  std::vector<std::uint32_t> query_phase;

  std::size_t release_ops() const;
};

/// Builds \p workload_name ("sparse-personal" or "durable-churn") for
/// \p seed, sized for a load of about \p seconds.
tcdp::StatusOr<Workload> MakeWorkload(const std::string& workload_name,
                                      std::uint64_t seed, double seconds);

/// Frames laid end to end with their boundaries: frame i is
/// bytes[ends[i-1], ends[i]).
struct EncodedFrames {
  std::string bytes;
  std::vector<std::size_t> ends;

  std::size_t size() const { return ends.size(); }
  std::size_t begin_of(std::size_t i) const { return i == 0 ? 0 : ends[i - 1]; }
  void Append(tcdp::net::MsgType type, const std::string& payload);
};

/// One Join per initially enrolled user, in user order.
std::vector<Op> InitialJoins(const Workload& workload);
/// One Query per user of \p users.
std::vector<Op> QueryOps(const std::vector<std::uint32_t>& users);
/// The request frame of each op.
EncodedFrames EncodeOps(const Workload& workload, const std::vector<Op>& ops);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
