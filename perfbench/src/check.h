#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

/// \file
/// Correctness: the in-process reference every served answer is
/// compared against, bit for bit.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "server/sharded_service.h"
#include "workload.h"

namespace perfbench {

using Reports = std::vector<std::pair<std::uint32_t, tcdp::server::UserReport>>;

/// What the reference answered, in request order.
struct ReferenceRun {
  Reports load_reports;   ///< queries inside the load
  Reports phase_reports;  ///< the query phase
  Reports final_reports;  ///< the closing query of the top-alpha user
  double overall_alpha = 0.0;
  std::uint32_t top_user = 0;  ///< a user whose event-level alpha is overall_alpha
  std::uint64_t horizon = 0;   ///< global releases after the load
};

/// Enrolls the workload's initial users into \p service, then flushes.
tcdp::Status Enroll(tcdp::server::ShardedReleaseService* service,
                    const Workload& workload);

/// Feeds the load, in the served order, into \p service; no closing
/// Flush. A Query closes the micro-batch window, so queries are part of
/// the stream: each one is answered into \p load_reports and its time
/// added to \p query_seconds, when those are not null.
tcdp::Status FeedLoad(tcdp::server::ShardedReleaseService* service,
                      const Workload& workload, Reports* load_reports,
                      double* query_seconds);

/// Feeds the workload's whole request stream, in the served order and
/// with the same batch window, through an in-process 1-shard
/// ShardedReleaseService. Per-user series do not depend on the shard
/// count, so the served 2-shard answers must equal these bitwise.
tcdp::StatusOr<ReferenceRun> RunReference(const Workload& workload);

/// The closing query: one Query of the reference's top-alpha user.
std::vector<Op> FinalQueries(const ReferenceRun& reference);

/// Names of the fields on which \p served differs from \p reference
/// (doubles compared by bit pattern; the shard index is not compared).
std::vector<std::string> DiffReports(const tcdp::server::UserReport& served,
                                     const tcdp::server::UserReport& reference);

/// Compares served answers with the reference's, position by
/// position; returns one message per mismatch (missing answers too).
std::vector<std::string> CompareReports(const std::string& phase,
                                        const Reports& served,
                                        const Reports& reference);

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
