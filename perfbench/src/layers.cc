#include "layers.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>

#include "core/accountant_bank.h"
#include "core/loss_cache.h"
#include "core/privacy_loss.h"
#include "net/messages.h"
#include "server/event_log.h"
#include "server/records.h"
#include "server/sharded_service.h"
#include "stats.h"

namespace perfbench {
namespace {

using tcdp::Status;
using tcdp::StatusOr;
using Clock = std::chrono::steady_clock;

/// Running-BPL points sampled per shard, spread over the replay, for
/// loss timing; and users whose series are recomputed for
/// core.series_ms.
constexpr std::size_t kLossSamplesPerShard = 1024;
constexpr std::size_t kSeriesSamples = 100;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ------------------------------------------------------------- spans

/// Benchmark-side spans, kept in memory and written once at the end.
/// A span's parent is the layer below it on the same inputs; its self
/// time is its duration minus its children's.
class Spans {
 public:
  int Add(const std::string& name, int parent, double seconds) {
    spans_.push_back({name, parent, seconds});
    return static_cast<int>(spans_.size()) - 1;
  }
  double Self(int id) const {
    double self = spans_[id].seconds;
    for (const Span& span : spans_) {
      if (span.parent == id) self -= span.seconds;
    }
    return self;
  }
  Status Write(const std::string& path) const {
    std::ofstream out(path);
    out << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"name\": \""
          << spans_[i].name << "\", \"parent\": " << spans_[i].parent
          << ", \"seconds\": " << spans_[i].seconds
          << ", \"self_seconds\": " << Self(static_cast<int>(i)) << "}";
    }
    out << "\n]\n";
    if (!out) return Status::Internal("cannot write " + path);
    return Status::OK();
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double seconds;
  };
  std::vector<Span> spans_;
};

// ------------------------------------------------ recorded shard logs

/// One kAddUser or kRelease record of a shard log, decoded.
struct ShardCommand {
  bool add_user = false;
  std::uint32_t user = 0;  ///< global user index (add_user)
  double epsilon = 0.0;
  bool all = false;
  std::vector<std::size_t> participants;  ///< shard-local indices (!all)
};

struct ShardLog {
  std::vector<tcdp::server::EventRecord> records;  ///< in log order
  std::vector<ShardCommand> commands;             ///< records[i], decoded
  /// Global user index of each shard-local index.
  std::vector<std::uint32_t> members;
};

struct RecordedLogs {
  std::vector<ShardLog> shards;
  std::vector<std::pair<std::size_t, std::size_t>> location;  ///< (shard, local)
  std::uint64_t global_releases = 0;
};

/// The command stream each shard applies, as the server's own WAL
/// records it: set-up and load go through an untimed in-process
/// kShards-shard service logging to \p dir, and each shard log is read
/// back. The micro-batch policy therefore lives in sharded_service
/// alone.
StatusOr<RecordedLogs> RecordShardLogs(const Workload& workload,
                                       const std::string& dir) {
  tcdp::server::ShardedServiceOptions options;
  options.num_shards = kShards;
  options.batch_window = workload.batch_window;
  TCDP_ASSIGN_OR_RETURN(auto service, tcdp::server::ShardedReleaseService::Create(
                                          dir, options));
  TCDP_RETURN_IF_ERROR(Enroll(service.get(), workload));
  TCDP_RETURN_IF_ERROR(FeedLoad(service.get(), workload, nullptr, nullptr));
  TCDP_RETURN_IF_ERROR(service->Close());

  std::map<std::string, std::uint32_t> user_of;
  for (std::size_t u = 0; u < workload.names.size(); ++u) {
    user_of[workload.names[u]] = static_cast<std::uint32_t>(u);
  }
  RecordedLogs logs;
  logs.shards.resize(kShards);
  logs.location.resize(workload.names.size());
  for (std::size_t s = 0; s < kShards; ++s) {
    TCDP_ASSIGN_OR_RETURN(auto read, tcdp::server::ReadEventLog(
                                         dir + "/shard-" + std::to_string(s) + ".wal"));
    if (!read.clean) return Status::Internal("recorded log: " + read.tail_error);
    ShardLog& log = logs.shards[s];
    std::uint64_t releases = 0;
    for (tcdp::server::EventRecord& record : read.records) {
      ShardCommand command;
      if (record.type == tcdp::server::EventType::kAddUser) {
        TCDP_ASSIGN_OR_RETURN(auto add, tcdp::server::DecodeAddUser(record.payload));
        const auto user = user_of.find(add.name);
        if (user == user_of.end()) {
          return Status::Internal("recorded log: unknown user " + add.name);
        }
        command.add_user = true;
        command.user = user->second;
        logs.location[user->second] = {s, log.members.size()};
        log.members.push_back(user->second);
      } else if (record.type == tcdp::server::EventType::kRelease) {
        TCDP_ASSIGN_OR_RETURN(auto release, tcdp::server::DecodeRelease(record.payload));
        command.epsilon = release.epsilon;
        command.all = release.all;
        for (std::size_t local = 0; !release.all && local < log.members.size();
             ++local) {
          if (release.mask.bit(local)) command.participants.push_back(local);
        }
        ++releases;
      } else {
        continue;  // the manifest
      }
      log.records.push_back(std::move(record));
      log.commands.push_back(std::move(command));
    }
    // Every shard logs every global release.
    logs.global_releases = releases;
  }
  return logs;
}

// ---------------------------------------------------- layer replays

/// The in-process service (2 shards, the server's options) on the
/// same request stream, without sockets.
struct ServiceReplay {
  double join_seconds = 0.0;
  double load_seconds = 0.0;
  double flush_seconds = 0.0;
  double query_seconds = 0.0;  ///< all queries, in the load and after it
  std::uint64_t queries = 0;
  double snapshot_seconds = 0.0;
  double compact_seconds = 0.0;
  std::uint64_t compactions = 0;
};

StatusOr<ServiceReplay> ReplayService(const Workload& workload,
                                      const std::string& log_dir) {
  tcdp::server::ShardedServiceOptions options;
  options.num_shards = kShards;
  options.batch_window = workload.batch_window;
  if (workload.durable) {
    options.sync_every = kSyncEvery;
    options.snapshot_every = kSnapshotEvery;
  }
  TCDP_ASSIGN_OR_RETURN(auto service, tcdp::server::ShardedReleaseService::Create(
                                          log_dir, options));
  ServiceReplay replay;
  Clock::time_point start = Clock::now();
  TCDP_RETURN_IF_ERROR(Enroll(service.get(), workload));
  replay.join_seconds = SecondsSince(start);
  start = Clock::now();
  Reports load_reports;
  TCDP_RETURN_IF_ERROR(
      FeedLoad(service.get(), workload, &load_reports, &replay.query_seconds));
  const Clock::time_point flush_start = Clock::now();
  TCDP_RETURN_IF_ERROR(service->Flush());
  replay.flush_seconds = SecondsSince(flush_start);
  replay.load_seconds = SecondsSince(start);
  start = Clock::now();
  for (std::uint32_t user : workload.query_phase) {
    TCDP_RETURN_IF_ERROR(service->Query(workload.names[user]).status());
  }
  replay.query_seconds += SecondsSince(start);
  replay.queries = load_reports.size() + workload.query_phase.size();
  if (workload.durable) {
    start = Clock::now();
    TCDP_RETURN_IF_ERROR(service->Snapshot());
    replay.snapshot_seconds = SecondsSince(start);
    start = Clock::now();
    TCDP_RETURN_IF_ERROR(service->Compact());
    replay.compact_seconds = SecondsSince(start);
    for (std::size_t s = 0; s < service->num_shards(); ++s) {
      replay.compactions += service->shard_stats(s).compactions;
    }
  }
  TCDP_RETURN_IF_ERROR(service->Close());
  return replay;
}

struct BankReplay {
  std::vector<tcdp::AccountantBank> banks;
  std::vector<double> release_seconds;  ///< per shard, RecordRelease only
  std::vector<std::uint64_t> hits;      ///< per shard loss-cache hits
  std::vector<std::uint64_t> misses;
  double add_user_seconds = 0.0;
  std::uint64_t add_users = 0;
  std::uint64_t user_steps = 0;  ///< enrolled users summed over shard releases
  std::uint64_t shard_releases = 0;
  /// (matrix, running BPL) of users sampled across the replay: the
  /// arguments the loss cache is asked for as the run goes on.
  std::vector<std::pair<std::uint32_t, double>> bpl_points;
};

StatusOr<BankReplay> ReplayBanks(const Workload& workload, const RecordedLogs& logs) {
  BankReplay replay;
  const std::uint64_t sample_every =
      std::max<std::uint64_t>(1, logs.global_releases / kLossSamplesPerShard);
  for (std::size_t s = 0; s < logs.shards.size(); ++s) {
    tcdp::AccountantBank bank;
    double release_seconds = 0.0;
    for (const ShardCommand& command : logs.shards[s].commands) {
      const Clock::time_point start = Clock::now();
      if (command.add_user) {
        bank.AddUser(workload.matrices[workload.user_matrix[command.user]]);
        replay.add_user_seconds += SecondsSince(start);
        ++replay.add_users;
        continue;
      }
      TCDP_RETURN_IF_ERROR(
          command.all ? bank.RecordRelease(command.epsilon)
                      : bank.RecordRelease(command.epsilon, command.participants));
      release_seconds += SecondsSince(start);
      replay.user_steps += bank.num_users();
      ++replay.shard_releases;
      if (replay.shard_releases % sample_every == 0 && bank.num_users() > 0) {
        const std::size_t local = (replay.shard_releases * 7919) % bank.num_users();
        replay.bpl_points.emplace_back(
            workload.user_matrix[logs.shards[s].members[local]], bank.UserBplLast(local));
      }
    }
    replay.release_seconds.push_back(release_seconds);
    replay.hits.push_back(bank.cache_stats().hits);
    replay.misses.push_back(bank.cache_stats().misses);
    replay.banks.push_back(std::move(bank));
  }
  return replay;
}

/// Loss evaluation at the workload's own running-BPL points: a direct
/// TemporalLossFunction::Evaluate (what a cache miss solves) and a
/// memoized lookup that hits.
struct LossTiming {
  double eval_seconds = 0.0;  ///< per evaluation
  double hit_seconds = 0.0;   ///< per cache hit
  std::size_t points = 0;
};

LossTiming TimeLoss(const Workload& workload, const BankReplay& banks) {
  const std::vector<std::pair<std::uint32_t, double>>& points = banks.bpl_points;
  std::map<std::uint32_t, std::unique_ptr<tcdp::TemporalLossFunction>> direct;
  tcdp::TemporalLossCache cache;
  std::map<std::uint32_t, std::shared_ptr<const tcdp::LossEvaluator>> cached;
  for (const auto& [matrix, alpha] : points) {
    if (direct.count(matrix) > 0) continue;
    const tcdp::StochasticMatrix& m = workload.matrices[matrix].backward();
    direct[matrix] = std::make_unique<tcdp::TemporalLossFunction>(m);
    cached[matrix] = cache.Intern(m);
  }
  LossTiming timing;
  timing.points = points.size();
  // The evaluators are virtual calls into the library, so the timed
  // loops cannot be optimized away.
  Clock::time_point start = Clock::now();
  for (const auto& [matrix, alpha] : points) (void)direct[matrix]->Evaluate(alpha);
  timing.eval_seconds = Ratio(SecondsSince(start), static_cast<double>(points.size()));
  for (const auto& [matrix, alpha] : points) (void)cached[matrix]->Evaluate(alpha);
  start = Clock::now();
  for (const auto& [matrix, alpha] : points) (void)cached[matrix]->Evaluate(alpha);
  timing.hit_seconds = Ratio(SecondsSince(start), static_cast<double>(points.size()));
  return timing;
}

/// Per-release WAL cost: each shard's recorded records re-appended
/// through EventLogWriter, fdatasynced every kSyncEvery releases.
struct WalTiming {
  double append_seconds = 0.0;  ///< per release record
  double sync_seconds = 0.0;    ///< per fdatasync
  double bytes_per_release = 0.0;
};

StatusOr<WalTiming> TimeWal(const RecordedLogs& logs, const std::string& dir) {
  WalTiming timing;
  std::uint64_t releases = 0;
  std::uint64_t syncs = 0;
  std::uint64_t release_bytes = 0;
  for (std::size_t s = 0; s < logs.shards.size(); ++s) {
    TCDP_ASSIGN_OR_RETURN(auto writer, tcdp::server::EventLogWriter::Create(
                                           dir + "/wal-" + std::to_string(s)));
    std::size_t since_sync = 0;
    for (const tcdp::server::EventRecord& record : logs.shards[s].records) {
      if (record.type != tcdp::server::EventType::kRelease) {
        TCDP_RETURN_IF_ERROR(writer.Append(record.type, record.payload));
        continue;
      }
      const std::uint64_t bytes_before = writer.bytes_written();
      Clock::time_point start = Clock::now();
      TCDP_RETURN_IF_ERROR(writer.Append(record.type, record.payload));
      timing.append_seconds += SecondsSince(start);
      release_bytes += writer.bytes_written() - bytes_before;
      ++releases;
      if (++since_sync >= kSyncEvery) {
        start = Clock::now();
        TCDP_RETURN_IF_ERROR(writer.Sync());
        timing.sync_seconds += SecondsSince(start);
        ++syncs;
        since_sync = 0;
      } else {
        TCDP_RETURN_IF_ERROR(writer.Flush());
      }
    }
    TCDP_RETURN_IF_ERROR(writer.Close());
  }
  timing.append_seconds = Ratio(timing.append_seconds, static_cast<double>(releases));
  timing.sync_seconds = Ratio(timing.sync_seconds, static_cast<double>(syncs));
  timing.bytes_per_release =
      Ratio(static_cast<double>(release_bytes), static_cast<double>(releases));
  return timing;
}

double MeanFrameBytes(const EncodedFrames& frames) {
  return Ratio(static_cast<double>(frames.bytes.size()),
               static_cast<double>(frames.size()));
}

}  // namespace

StatusOr<std::vector<Metric>> LayerMetrics(const Workload& workload,
                                           const ReferenceRun& reference,
                                           const ServedRun& served,
                                           const std::string& scratch_dir,
                                           const std::string& spans_path,
                                           Tally* tally) {
  // net: frame sizes and join decoding, from the pre-encoded frames.
  const EncodedFrames joins = EncodeOps(workload, InitialJoins(workload));
  std::vector<Op> release_ops;
  for (const Op& op : workload.load_block) {
    if (op.kind == OpKind::kRelease) release_ops.push_back(op);
  }
  const EncodedFrames releases = EncodeOps(workload, release_ops);
  std::vector<std::string> join_payloads;
  for (std::size_t i = 0; i < joins.size(); ++i) {
    const std::size_t begin = joins.begin_of(i) + tcdp::net::kFrameHeaderBytes;
    join_payloads.push_back(joins.bytes.substr(begin, joins.ends[i] - begin));
  }
  Clock::time_point start = Clock::now();
  for (const std::string& payload : join_payloads) {
    TCDP_RETURN_IF_ERROR(tcdp::net::DecodeJoin(payload).status());
  }
  const double decode_seconds = SecondsSince(start);

  // server: the in-process service on the same stream.
  const std::string service_dir = workload.durable ? scratch_dir + "/inprocess" : "";
  TCDP_ASSIGN_OR_RETURN(const ServiceReplay service, ReplayService(workload, service_dir));

  // core + kernels: the banks on each shard's recorded command stream,
  // then loss timing.
  TCDP_ASSIGN_OR_RETURN(const RecordedLogs logs,
                        RecordShardLogs(workload, scratch_dir + "/recorded"));
  TCDP_ASSIGN_OR_RETURN(const BankReplay banks, ReplayBanks(workload, logs));
  const LossTiming loss = TimeLoss(workload, banks);
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::size_t cohorts = 0;
  std::size_t critical = 0;  // the shard whose bank work is longest
  for (std::size_t s = 0; s < banks.banks.size(); ++s) {
    hits += banks.hits[s];
    misses += banks.misses[s];
    cohorts += banks.banks[s].num_cohorts();
    if (banks.release_seconds[s] > banks.release_seconds[critical]) critical = s;
  }
  auto loss_seconds = [&](std::size_t s) {
    return static_cast<double>(banks.misses[s]) * loss.eval_seconds +
           static_cast<double>(banks.hits[s]) * loss.hit_seconds;
  };
  double bank_seconds = 0.0;
  double all_loss_seconds = 0.0;
  for (std::size_t s = 0; s < banks.banks.size(); ++s) {
    bank_seconds += banks.release_seconds[s];
    all_loss_seconds += loss_seconds(s);
  }

  // Series recompute, and a self-check of the bank replay: the top
  // user's alpha must equal the reference's bit for bit.
  std::vector<std::uint32_t> series_users(workload.query_phase.begin(),
                                          workload.query_phase.end());
  for (const Op& op : workload.load_block) {
    if (op.kind == OpKind::kQuery) series_users.push_back(op.user);
  }
  if (series_users.size() > kSeriesSamples) series_users.resize(kSeriesSamples);
  start = Clock::now();
  for (std::uint32_t user : series_users) {
    const auto [shard, local] = logs.location[user];
    (void)banks.banks[shard].TplSeriesFor(local);
    (void)banks.banks[shard].MaxTplFor(local);
  }
  const double series_seconds =
      Ratio(SecondsSince(start), static_cast<double>(series_users.size()));
  ++tally->attempted;
  const auto [top_shard, top_local] = logs.location[reference.top_user];
  if (banks.banks[top_shard].MaxTplFor(top_local) != reference.overall_alpha ||
      logs.global_releases != reference.horizon) {
    tally->Fail("bank replay disagrees with the reference");
  }

  WalTiming wal;
  if (workload.durable) {
    TCDP_ASSIGN_OR_RETURN(wal, TimeWal(logs, scratch_dir));
  }

  // Spans: each layer's replay, parented to the layer above it.
  Spans spans;
  const double wire_s = Median(served.load_seconds);
  const int wire = spans.Add("net.load", -1, wire_s);
  const int svc = spans.Add("server.load", wire, service.load_seconds);
  const int bank = spans.Add("core.bank_release", svc, banks.release_seconds[critical]);
  spans.Add("core.loss", bank, loss_seconds(critical));
  TCDP_RETURN_IF_ERROR(spans.Write(spans_path));

  const double users = static_cast<double>(workload.initial_users);
  const double global_releases = static_cast<double>(logs.global_releases);
  const double load_kreq = static_cast<double>(served.load_requests) / 1e3;
  std::vector<Metric> m = {
      {"net.generator_busy_frac",
       1.0 - Ratio(served.traced_wait_seconds, served.traced_load_seconds), "frac"},
      {"net.wire_overhead_frac", Ratio(spans.Self(wire), wire_s), "frac"},
      {"net.bytes_per_join", MeanFrameBytes(joins), "B"},
      {"net.bytes_per_release", MeanFrameBytes(releases), "B"},
      {"server.self_frac", Ratio(spans.Self(svc), wire_s), "frac"},
      {"core.bank_self_frac", Ratio(spans.Self(bank), wire_s), "frac"},
      {"core.loss_frac", Ratio(loss_seconds(critical), wire_s), "frac"},
      {"server.join_decode_us", Ratio(decode_seconds, users) * 1e6, "us"},
      {"server.join_us", Ratio(service.join_seconds, users) * 1e6, "us"},
      {"core.add_user_us",
       Ratio(banks.add_user_seconds, static_cast<double>(banks.add_users)) * 1e6, "us"},
      {"core.cohorts", static_cast<double>(cohorts), "count"},
      {"server.release_us",
       Ratio(service.load_seconds, static_cast<double>(workload.release_ops())) * 1e6,
       "us"},
      {"server.flush_ms", service.flush_seconds * 1e3, "ms"},
      {"server.enqueue_blocks", static_cast<double>(served.enqueue_blocks), "count"},
      {"server.queue_depth_hwm", static_cast<double>(served.queue_depth_hwm), "count"},
      {"server.ticks", static_cast<double>(served.ticks), "count"},
      {"server.global_releases", static_cast<double>(served.global_releases), "count"},
      {"server.query_ms",
       Ratio(service.query_seconds, static_cast<double>(service.queries)) * 1e3, "ms"},
      {"server.query_samples", static_cast<double>(served.query_ms.size()), "count"},
      {"server.load_query_p50_ms", Median(served.load_query_ms), "ms"},
      {"core.series_ms", series_seconds * 1e3, "ms"},
      {"core.record_release_ms", Ratio(bank_seconds, global_releases) * 1e3, "ms"},
      {"core.loss_lookups_per_release",
       Ratio(static_cast<double>(hits + misses), global_releases), "count"},
      {"core.loss_misses", static_cast<double>(misses), "count"},
      {"core.loss_hit_ratio",
       Ratio(static_cast<double>(hits), static_cast<double>(hits + misses)), "frac"},
      {"core.loss_eval_us", loss.eval_seconds * 1e6, "us"},
      {"kernels.sweep_ns_per_user",
       Ratio(bank_seconds - all_loss_seconds, static_cast<double>(banks.user_steps)) * 1e9,
       "ns"},
      {"server.wal_append_us", wal.append_seconds * 1e6, "us"},
      {"server.wal_sync_us", wal.sync_seconds * 1e6, "us"},
      {"server.wal_bytes_per_release", wal.bytes_per_release, "B"},
      {"server.snapshot_ms", service.snapshot_seconds * 1e3, "ms"},
      {"server.compact_ms", service.compact_seconds * 1e3, "ms"},
      {"server.snapshots", static_cast<double>(served.snapshots), "count"},
      {"server.compactions", static_cast<double>(service.compactions), "count"},
      {"server.recover_s", served.recover_seconds, "s"},
      {"server.replayed_records", static_cast<double>(served.replayed_records), "count"},
      {"server.restored_from_snapshot", static_cast<double>(served.restored_shards),
       "count"},
      {"replication.catchup_s", served.catchup_seconds, "s"},
      {"replication.records_applied", static_cast<double>(served.repl_records_applied),
       "count"},
      {"replication.batches_applied", static_cast<double>(served.repl_batches_applied),
       "count"},
      {"replication.promote_s", served.promote_seconds, "s"},
      {"server.cpu_ms_per_kreq", Ratio(Median(served.load_cpu_seconds) * 1e3, load_kreq),
       "ms"},
      {"trace.overhead_frac", Ratio(served.traced_load_seconds, wire_s) - 1.0, "frac"},
  };
  return m;
}

}  // namespace perfbench
