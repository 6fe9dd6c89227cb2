// perfbench: spawns `tcdp serve`, drives it over loopback TCP
// from one closed-loop generator thread, checks every answer against an
// in-process reference, and prints the end-to-end metrics (--trace 0)
// or the per-layer attribution (--trace 1). perfbench/run.py builds it
// and passes --server-bin and --work-dir; see perfbench/README.md.

#include <sched.h>
#include <stdlib.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "check.h"
#include "layers.h"
#include "net/messages.h"
#include "obs/metrics.h"
#include "replication/follower.h"
#include "report.h"
#include "served.h"
#include "server/sharded_service.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

using tcdp::Status;
using tcdp::StatusOr;
using tcdp::net::MsgType;
using Clock = std::chrono::steady_clock;

/// Rounds per run, each on a fresh server: set-up, load, query phase.
/// setup_s, release_rps and server_rss_mb are medians over rounds, so a
/// burst of host noise in one round does not move them; the query
/// percentiles pool every round's samples.
constexpr std::size_t kRounds = 5;
/// Bound on the follower catch-up wait (a stuck follower is a failure).
constexpr double kCatchupLimitSeconds = 60.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server_bin;
  std::string work_dir;
};

StatusOr<Args> ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      return Status::InvalidArgument("unexpected argument " + key);
    }
    flags[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 1) return Status::InvalidArgument("flags take one value each");
  for (const char* required : {"workload", "seed", "seconds", "trace",
                               "server-bin", "work-dir"}) {
    if (flags.count(required) == 0) {
      return Status::InvalidArgument(std::string("missing --") + required);
    }
  }
  Args args;
  args.workload = flags["workload"];
  args.seed = std::stoull(flags["seed"]);
  args.seconds = std::stod(flags["seconds"]);
  args.trace = flags["trace"] != "0";
  args.server_bin = flags["server-bin"];
  args.work_dir = flags["work-dir"];
  return args;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Logs how long a run phase took (stderr; the result is on stdout).
void LogPhase(const char* phase, Clock::time_point* start) {
  std::fprintf(stderr, "perfbench: %-22s %8.3f s\n", phase, SecondsSince(*start));
  *start = Clock::now();
}

std::vector<std::string> ServeArgs(const Workload& workload,
                                   const std::string& log_dir) {
  std::vector<std::string> args = {
      "serve", "--listen", "0", "--shards", std::to_string(kShards),
      "--batch-window", std::to_string(workload.batch_window),
      // No watchdog thread: server threads + generator stay <= 4 cores.
      "--watchdog-interval-ms", "0"};
  if (workload.durable) {
    for (const std::string& arg :
         {std::string("--log-dir"), log_dir, std::string("--sync-every"),
          std::to_string(kSyncEvery), std::string("--snapshot-every"),
          std::to_string(kSnapshotEvery), std::string("--repl-listen"),
          std::string("0")}) {
      args.push_back(arg);
    }
  }
  return args;
}

/// With at least 4 usable CPUs, the generator thread runs on the last
/// one and the server on the rest, so neither preempts the other.
/// Untimed work (reference, replays, recovery) uses every CPU.
class CpuSplit {
 public:
  CpuSplit() {
    CPU_ZERO(&all_);
    CPU_ZERO(&generator_);
    CPU_ZERO(&server_);
    if (::sched_getaffinity(0, sizeof(all_), &all_) != 0) return;
    std::vector<int> cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all_)) cpus.push_back(cpu);
    }
    if (cpus.size() < 4) return;
    CPU_SET(cpus.back(), &generator_);
    for (std::size_t i = 0; i + 1 < cpus.size(); ++i) CPU_SET(cpus[i], &server_);
    split_ = true;
  }
  const cpu_set_t* server() const { return split_ ? &server_ : nullptr; }
  void PinGenerator() const {
    if (split_) (void)::sched_setaffinity(0, sizeof(generator_), &generator_);
  }
  void Unpin() const {
    if (split_) (void)::sched_setaffinity(0, sizeof(all_), &all_);
  }

 private:
  bool split_ = false;
  cpu_set_t all_;
  cpu_set_t generator_;
  cpu_set_t server_;
};

/// One request answered by one response, outside any timed phase.
StatusOr<tcdp::net::Frame> Call(Connection* conn, MsgType type, Tally* tally) {
  std::string frame;
  tcdp::net::AppendFrame(&frame, type, "");
  ++tally->attempted;
  Status sent = conn->Send(frame.data(), frame.size());
  auto response = sent.ok() ? conn->Next() : StatusOr<tcdp::net::Frame>(sent);
  if (!response.ok()) tally->Fail(response.status().ToString());
  return response;
}

/// A server with every initial user enrolled, and the set-up time:
/// spawn to the ack of the Flush after the last Join.
struct Enrolled {
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<Connection> conn;
  double setup_seconds = 0.0;
};

StatusOr<Enrolled> SpawnAndEnroll(const Args& args, const Workload& workload,
                                  const EncodedFrames& joins,
                                  const std::vector<Op>& join_ops,
                                  const std::string& log_dir, const CpuSplit& cpus,
                                  bool traced, Tally* tally) {
  Enrolled enrolled;
  const Clock::time_point start = Clock::now();
  TCDP_ASSIGN_OR_RETURN(enrolled.server,
                        ServerProcess::Spawn(args.server_bin,
                                             ServeArgs(workload, log_dir),
                                             cpus.server()));
  TCDP_ASSIGN_OR_RETURN(enrolled.conn,
                        Connection::Open(enrolled.server->port(), traced));
  PhaseResult phase;
  TCDP_RETURN_IF_ERROR(RunFrames(enrolled.conn.get(), joins, join_ops,
                                 /*flush_at_end=*/true, tally, &phase));
  enrolled.setup_seconds = SecondsSince(start);
  return enrolled;
}

void Mismatches(const std::vector<std::string>& mismatches, Tally* tally) {
  for (const std::string& mismatch : mismatches) tally->Fail(mismatch);
}

/// A fresh follower, in this process, streams the primary's log until
/// it reaches \p horizon.
Status CatchUp(const std::string& replica_dir, std::uint16_t repl_port,
               std::uint64_t horizon, ServedRun* run, Tally* tally) {
  tcdp::replication::FollowerOptions options;
  options.primary_port = repl_port;
  options.log_dir = replica_dir;
  const Clock::time_point start = Clock::now();
  TCDP_ASSIGN_OR_RETURN(auto follower, tcdp::replication::Follower::Open(options));
  TCDP_RETURN_IF_ERROR(follower->Start());
  ++tally->attempted;
  while (true) {
    const tcdp::replication::FollowerStatus status = follower->status();
    if (status.release_horizon >= horizon) {
      run->repl_records_applied = status.records_applied;
      run->repl_batches_applied = status.batches_applied;
      break;
    }
    if (status.diverged || SecondsSince(start) > kCatchupLimitSeconds) {
      tally->Fail("follower did not reach the primary's horizon: " +
                  status.last_error.ToString());
      follower->Stop();
      return Status::OK();
    }
    // The follower has no completion wait; polling at 0.2 ms bounds
    // the error of a multi-second catch-up well below its spread.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  run->catchup_seconds = SecondsSince(start);
  const Clock::time_point promote_start = Clock::now();
  auto promoted = follower->Promote();
  run->promote_seconds = SecondsSince(promote_start);
  if (!promoted.ok()) {
    tally->Fail("promote: " + promoted.status().ToString());
    return Status::OK();
  }
  return (*promoted)->Close();
}

/// Recovers the killed primary's log dir and checks the recovered
/// state against the reference: the top user's report and the overall
/// alpha, bit for bit.
Status RecoverAndCheck(const Workload& workload, const std::string& log_dir,
                       const ReferenceRun& reference, ServedRun* run,
                       Tally* tally) {
  ++tally->attempted;
  const Clock::time_point start = Clock::now();
  auto recovered = tcdp::server::ShardedReleaseService::Recover(log_dir);
  run->recover_seconds = SecondsSince(start);
  if (!recovered.ok()) {
    tally->Fail("recover: " + recovered.status().ToString());
    return Status::OK();
  }
  auto& service = *recovered;
  for (std::size_t s = 0; s < service->num_shards(); ++s) {
    const tcdp::server::ShardStats stats = service->shard_stats(s);
    run->replayed_records += stats.replayed_records;
    run->restored_shards += stats.restored_from_snapshot ? 1 : 0;
  }
  Reports recovered_final;
  for (const Op& op : FinalQueries(reference)) {
    TCDP_ASSIGN_OR_RETURN(auto report, service->Query(workload.names[op.user]));
    recovered_final.emplace_back(op.user, std::move(report));
  }
  Mismatches(CompareReports("recovered", recovered_final, reference.final_reports),
             tally);
  ++tally->attempted;
  TCDP_ASSIGN_OR_RETURN(const double overall_alpha, service->OverallAlpha());
  if (std::memcmp(&overall_alpha, &reference.overall_alpha, sizeof(double)) != 0) {
    tally->Fail("recovered overall alpha differs from the reference's");
  }
  return service->Close();
}

Status ReadServerCounters(Connection* conn, ServedRun* run, Tally* tally) {
  TCDP_ASSIGN_OR_RETURN(auto stats_frame, Call(conn, MsgType::kStats, tally));
  if (stats_frame.type != MsgType::kStatsReport) {
    CountAck(stats_frame, tally);
    return Status::OK();
  }
  TCDP_ASSIGN_OR_RETURN(auto stats, tcdp::net::DecodeStatsReport(stats_frame.payload));
  run->ticks = stats.ticks;
  run->global_releases = stats.global_releases;
  for (const auto& shard : stats.shards) {
    run->enqueue_blocks += shard.enqueue_blocks;
    run->snapshots += shard.snapshots_written;
  }
  TCDP_ASSIGN_OR_RETURN(auto metrics_frame, Call(conn, MsgType::kMetrics, tally));
  if (metrics_frame.type != MsgType::kMetricsReport) {
    CountAck(metrics_frame, tally);
    return Status::OK();
  }
  TCDP_ASSIGN_OR_RETURN(auto snapshot,
                        tcdp::obs::DecodeMetricsSnapshot(metrics_frame.payload));
  for (const auto& [name, value] : snapshot.gauges) {
    if (name.rfind("tcdp_shard_queue_depth_hwm", 0) == 0) {
      run->queue_depth_hwm = std::max(run->queue_depth_hwm, value);
    }
  }
  return Status::OK();
}

Status Run(const Args& args) {
  TCDP_ASSIGN_OR_RETURN(const Workload workload,
                        MakeWorkload(args.workload, args.seed, args.seconds));
  std::string dir_template = args.work_dir + "/run-XXXXXX";
  if (::mkdtemp(dir_template.data()) == nullptr) {
    return Status::Internal("cannot create a run directory under " + args.work_dir);
  }
  const std::string run_dir = dir_template;
  struct RemoveOnExit {
    std::string path;
    ~RemoveOnExit() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } cleanup{run_dir};

  Clock::time_point phase = Clock::now();
  // The reference is not measured; without metrics its bank threads do
  // not contend on the registry's shared counters.
  tcdp::obs::SetMetricsEnabled(false);
  TCDP_ASSIGN_OR_RETURN(const ReferenceRun reference, RunReference(workload));
  tcdp::obs::SetMetricsEnabled(true);
  LogPhase("reference", &phase);

  // Every frame is encoded before any clock starts.
  const std::vector<Op> join_ops = InitialJoins(workload);
  const EncodedFrames joins = EncodeOps(workload, join_ops);
  const EncodedFrames load = EncodeOps(workload, workload.load_block);
  const std::vector<Op> query_ops = QueryOps(workload.query_phase);
  const EncodedFrames queries = EncodeOps(workload, query_ops);
  const std::vector<Op> final_ops = FinalQueries(reference);
  const EncodedFrames finals = EncodeOps(workload, final_ops);
  LogPhase("encode", &phase);

  Tally tally;
  ServedRun run;
  std::string log_dir;
  Enrolled primary;
  const CpuSplit cpus;
  cpus.PinGenerator();
  for (std::size_t k = 0; k < kRounds; ++k) {
    const std::string round = "round " + std::to_string(k) + " ";
    log_dir = workload.durable ? run_dir + "/primary-" + std::to_string(k) : "";
    TCDP_ASSIGN_OR_RETURN(Enrolled enrolled,
                          SpawnAndEnroll(args, workload, joins, join_ops, log_dir,
                                         cpus, /*traced=*/false, &tally));
    run.setup_seconds.push_back(enrolled.setup_seconds);
    PhaseResult load_phase;
    PhaseResult query_phase;
    PhaseResult final_phase;
    TCDP_ASSIGN_OR_RETURN(const double cpu_before, enrolled.server->CpuSeconds());
    TCDP_RETURN_IF_ERROR(RunFrames(enrolled.conn.get(), load, workload.load_block,
                                   /*flush_at_end=*/true, &tally, &load_phase));
    TCDP_ASSIGN_OR_RETURN(const double cpu_after, enrolled.server->CpuSeconds());
    run.load_seconds.push_back(load_phase.seconds);
    run.load_cpu_seconds.push_back(cpu_after - cpu_before);
    TCDP_RETURN_IF_ERROR(RunFrames(enrolled.conn.get(), queries, query_ops,
                                   /*flush_at_end=*/false, &tally, &query_phase));
    TCDP_RETURN_IF_ERROR(RunFrames(enrolled.conn.get(), finals, final_ops,
                                   /*flush_at_end=*/false, &tally, &final_phase));
    TCDP_ASSIGN_OR_RETURN(const double rss, enrolled.server->PeakRssMb());
    run.peak_rss_mb.push_back(rss);
    run.query_ms.insert(run.query_ms.end(), query_phase.query_ms.begin(),
                        query_phase.query_ms.end());
    run.load_query_ms.insert(run.load_query_ms.end(), load_phase.query_ms.begin(),
                             load_phase.query_ms.end());
    // Correctness: every served answer against the reference. The final
    // query's user attains the reference's overall alpha, so its served
    // max_tpl must equal that alpha bit for bit.
    Mismatches(CompareReports(round + "load", load_phase.reports,
                              reference.load_reports), &tally);
    Mismatches(CompareReports(round + "query", query_phase.reports,
                              reference.phase_reports), &tally);
    Mismatches(CompareReports(round + "final", final_phase.reports,
                              reference.final_reports), &tally);
    std::fprintf(stderr, "perfbench: round %zu: set-up %.3f s, load %.3f s\n", k,
                 enrolled.setup_seconds, load_phase.seconds);
    LogPhase(("round " + std::to_string(k)).c_str(), &phase);
    if (k + 1 == kRounds) {
      primary = std::move(enrolled);
      break;
    }
    // Servers are killed, not shut down: a graceful exit spends seconds
    // on a closing pass over every user's series that no metric covers.
    enrolled.conn.reset();
    enrolled.server.reset();
    if (!log_dir.empty()) std::filesystem::remove_all(log_dir);
  }
  run.load_requests = load.size() + 1;
  cpus.Unpin();

  if (workload.durable && args.trace) {
    TCDP_RETURN_IF_ERROR(CatchUp(run_dir + "/replica", primary.server->repl_port(),
                                 reference.horizon, &run, &tally));
    LogPhase("catch-up", &phase);
  }
  if (args.trace) {
    TCDP_RETURN_IF_ERROR(ReadServerCounters(primary.conn.get(), &run, &tally));
  }
  // Every acknowledged durable write was fdatasynced (--sync-every 1),
  // so recovering the killed primary's log dir is ordinary crash
  // recovery.
  primary.conn.reset();
  primary.server.reset();
  if (workload.durable) {
    TCDP_RETURN_IF_ERROR(RecoverAndCheck(workload, log_dir, reference, &run, &tally));
    LogPhase("recover", &phase);
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    const Percentile p50 = PercentileOf(run.query_ms, 50);
    const Percentile p90 = PercentileOf(run.query_ms, 90);
    if (!p90.supported()) {
      return Status::FailedPrecondition("too few query samples for p90");
    }
    auto samples = [](const Percentile& p) {
      return "n=" + std::to_string(p.samples) + ", " + std::to_string(p.beyond) +
             " beyond";
    };
    const double releases = static_cast<double>(workload.release_ops());
    std::vector<double> rates;
    for (double seconds : run.load_seconds) rates.push_back(releases / seconds);
    const std::string rounds = " of " + std::to_string(kRounds) + " rounds";
    metrics = {
        {"setup_s", Median(run.setup_seconds), "s", "median" + rounds},
        {"release_rps", Median(rates), "1/s",
         "median" + rounds + ", " + std::to_string(workload.release_ops()) +
             " releases each"},
        {"query_p50_ms", p50.value, "ms", samples(p50)},
        {"query_p90_ms", p90.value, "ms", samples(p90)},
        {"server_rss_mb", Median(run.peak_rss_mb), "MiB", "VmHWM, median" + rounds},
    };
  } else {
    // A second load on a fresh server, with the generator traced.
    const std::string traced_dir = workload.durable ? run_dir + "/traced" : "";
    cpus.PinGenerator();
    TCDP_ASSIGN_OR_RETURN(Enrolled traced,
                          SpawnAndEnroll(args, workload, joins, join_ops, traced_dir,
                                         cpus, /*traced=*/true, &tally));
    const double wait_before = traced.conn->wait_seconds();
    PhaseResult traced_load;
    TCDP_RETURN_IF_ERROR(RunFrames(traced.conn.get(), load, workload.load_block,
                                   /*flush_at_end=*/true, &tally, &traced_load));
    run.traced_load_seconds = traced_load.seconds;
    run.traced_wait_seconds = traced.conn->wait_seconds() - wait_before;
    cpus.Unpin();
    traced.conn.reset();
    traced.server.reset();
    LogPhase("traced load", &phase);
    TCDP_ASSIGN_OR_RETURN(
        metrics, LayerMetrics(workload, reference, run, run_dir,
                              args.work_dir + "/spans-" + workload.name + ".json",
                              &tally));
    LogPhase("layer replays", &phase);
  }
  for (const std::string& error : tally.errors) {
    std::fprintf(stderr, "perfbench: failure: %s\n", error.c_str());
  }
  PrintResult(metrics, tally.failed == 0, tally.attempted, tally.failed, std::cout);
  return Status::OK();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  auto args = perfbench::ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", args.status().ToString().c_str());
    return 2;
  }
  const tcdp::Status status = perfbench::Run(*args);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
