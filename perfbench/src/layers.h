#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

/// \file
/// The traced run's per-layer attribution. Each layer is replayed on
/// the workload's own inputs by calling its public functions from the
/// benchmark (nothing inside src/ is instrumented): wire (the served
/// run), in-process service, accountant bank, loss evaluation. A
/// layer's self time is its replay time minus the replay of the layer
/// below.

#include <cstdint>
#include <string>
#include <vector>

#include "check.h"
#include "report.h"
#include "served.h"
#include "workload.h"

namespace perfbench {

/// What the served runs measured that the layer metrics build on.
struct ServedRun {
  /// One entry per round (a fresh server each): set-up time, load time,
  /// server CPU during the load, and the server's peak RSS.
  std::vector<double> setup_seconds;
  std::vector<double> load_seconds;
  std::vector<double> load_cpu_seconds;
  std::vector<double> peak_rss_mb;
  /// Query round trips of every round's query phase, pooled.
  std::vector<double> query_ms;
  /// Round trips of the queries inside the loads, pooled (durable-churn).
  std::vector<double> load_query_ms;
  std::uint64_t load_requests = 0;  ///< frames in one load, closing Flush included
  // Durable workloads only.
  double catchup_seconds = 0.0;
  double promote_seconds = 0.0;
  double recover_seconds = 0.0;
  std::uint64_t repl_records_applied = 0;
  std::uint64_t repl_batches_applied = 0;
  std::uint64_t replayed_records = 0;
  std::uint64_t restored_shards = 0;
  // Traced runs only: server counters read after the load.
  std::uint64_t ticks = 0;
  std::uint64_t global_releases = 0;
  std::uint64_t enqueue_blocks = 0;
  std::uint64_t snapshots = 0;
  std::int64_t queue_depth_hwm = 0;
  /// A second, traced load on a fresh server.
  double traced_load_seconds = 0.0;
  double traced_wait_seconds = 0.0;
};

/// Replays the layers below the wire and returns every per-layer
/// metric. \p scratch_dir receives WAL and service files. Mismatches
/// between a replay and the reference are counted into \p tally.
tcdp::StatusOr<std::vector<Metric>> LayerMetrics(const Workload& workload,
                                                 const ReferenceRun& reference,
                                                 const ServedRun& served,
                                                 const std::string& scratch_dir,
                                                 const std::string& spans_path,
                                                 Tally* tally);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
