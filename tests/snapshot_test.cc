// Shard snapshot layout: v2 writes one kSnapCohort record per distinct
// (bitwise) correlation pair and one kSnapMember per user, restores
// bitwise; v1 snapshots (one kSnapUser blob per user) still read and
// restore; malformed v2 layouts come back as InvalidArgument.

#include "server/snapshot.h"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/accountant_bank.h"
#include "markov/stochastic_matrix.h"
#include "net/messages.h"
#include "server/event_log.h"
#include "server/records.h"
#include "server/sharded_service.h"

namespace tcdp {
namespace server {
namespace {

namespace fs = std::filesystem;

const char kV1Fixture[] = TCDP_TEST_DATA_DIR "/snapshot_v1";

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TemporalCorrelations Pair(const StochasticMatrix& m) {
  return TemporalCorrelations::Both(m, m).value();
}

/// Four pairs that are distinct bit for bit; the last two differ only
/// in the sign of a zero entry.
std::vector<TemporalCorrelations> DistinctPairs() {
  Matrix neg_zero({{0.8, 0.2}, {0.0, 1.0}});
  neg_zero(1, 0) = -0.0;
  return {
      Pair(StochasticMatrix::FromRows({{0.6, 0.4}, {0.3, 0.7}})),
      TemporalCorrelations::BackwardOnly(
          StochasticMatrix::FromRows({{0.9, 0.1}, {0.5, 0.5}})),
      Pair(StochasticMatrix::FromRows({{0.8, 0.2}, {0.0, 1.0}})),
      Pair(StochasticMatrix::CreateExact(std::move(neg_zero)).value()),
  };
}

/// 13 users over DistinctPairs() (first appearances out of index
/// order), sparse and dense releases, and late joiners.
AccountantBank LiveBank() {
  const std::vector<TemporalCorrelations> pairs = DistinctPairs();
  AccountantBankOptions options;
  options.cache.alpha_resolution = 1e-9;
  AccountantBank bank(options);
  const int order[] = {2, 0, 2, 3, 1, 0, 0, 3, 2};
  for (int p : order) bank.AddUser(pairs[p]);
  EXPECT_TRUE(bank.RecordRelease(0.1).ok());
  EXPECT_TRUE(bank.RecordRelease(0.2, {1, 4}).ok());
  for (int p : {1, 3, 0, 2}) bank.AddUser(pairs[p]);
  EXPECT_TRUE(bank.RecordRelease(0.05).ok());
  EXPECT_TRUE(bank.RecordRelease(0.3, {0, 9, 12}).ok());
  EXPECT_TRUE(bank.RecordRelease(0.15, {7}).ok());
  return bank;
}

ShardSnapshot SnapshotOf(const AccountantBank& bank) {
  ShardSnapshot snapshot;
  snapshot.applied_records = 1 + bank.num_users() + bank.horizon();
  snapshot.bank = bank.ExportImage();
  snapshot.alpha_resolution = bank.cache_alpha_resolution();
  for (std::size_t u = 0; u < bank.num_users(); ++u) {
    snapshot.names.push_back("user" + std::to_string(u));
  }
  return snapshot;
}

/// Writes \p records as a framed log at \p path (no validation).
void WriteRecords(const std::string& path,
                  const std::vector<EventRecord>& records) {
  auto writer = EventLogWriter::Create(path);
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (const EventRecord& record : records) {
    ASSERT_TRUE(writer->Append(record.type, record.payload).ok());
  }
  ASSERT_TRUE(writer->Close().ok());
}

std::vector<EventRecord> RecordsOf(const std::string& path) {
  auto log = ReadEventLog(path);
  EXPECT_TRUE(log.ok()) << log.status();
  return log.ok() ? log->records : std::vector<EventRecord>{};
}

std::size_t CountType(const std::vector<EventRecord>& records,
                      EventType type) {
  std::size_t n = 0;
  for (const EventRecord& record : records) n += record.type == type;
  return n;
}

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() / "tcdp_snapshot_test").string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    path_ = dir_ + "/shard-0.snap";
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// The v2 records of LiveBank()'s snapshot.
  std::vector<EventRecord> LiveRecords() {
    EXPECT_TRUE(WriteShardSnapshot(path_, SnapshotOf(LiveBank())).ok());
    return RecordsOf(path_);
  }

  void ExpectRejected(const std::vector<EventRecord>& records,
                      const std::string& context) {
    WriteRecords(path_, records);
    auto read = ReadShardSnapshot(path_);
    ASSERT_FALSE(read.ok()) << context;
    EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument)
        << context << ": " << read.status();
  }

  std::string dir_;
  std::string path_;
};

TEST_F(SnapshotTest, OneCohortRecordPerDistinctPairAndBitwiseRestore) {
  const AccountantBank live = LiveBank();
  const ShardSnapshot written = SnapshotOf(live);
  ASSERT_TRUE(WriteShardSnapshot(path_, written).ok());
  const std::vector<EventRecord> records = RecordsOf(path_);
  const std::size_t k = DistinctPairs().size();
  EXPECT_EQ(CountType(records, EventType::kSnapCohort), k);
  EXPECT_EQ(CountType(records, EventType::kSnapMember), live.num_users());
  EXPECT_EQ(CountType(records, EventType::kSnapUser), 0u);
  EXPECT_EQ(records.size(), 1 + k + live.num_users() + live.horizon());
  // Cohorts come in order of first appearance: user 0 holds pair 2.
  auto first = DecodeSnapCohort(records[1].payload);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->image.correlations.backward().At(1, 1), 1.0);

  auto read = ReadShardSnapshot(path_);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->names, written.names);
  EXPECT_EQ(read->applied_records, written.applied_records);
  EXPECT_EQ(read->alpha_resolution, written.alpha_resolution);
  AccountantBankOptions options;
  options.cache.alpha_resolution = read->alpha_resolution;
  auto restored = AccountantBank::Restore(std::move(read->bank), options);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ASSERT_EQ(restored->num_users(), live.num_users());
  for (std::size_t u = 0; u < live.num_users(); ++u) {
    EXPECT_TRUE(BitwiseEqual(restored->TplSeriesFor(u), live.TplSeriesFor(u)))
        << "user " << u;
    EXPECT_EQ(restored->SerializeUser(u), live.SerializeUser(u))
        << "user " << u;
  }
  // Rewriting the restored state gives the same bytes.
  const std::string first_bytes = ReadFileBytes(path_).value();
  ASSERT_TRUE(WriteShardSnapshot(path_, SnapshotOf(*restored)).ok());
  EXPECT_EQ(ReadFileBytes(path_).value(), first_bytes);
}

TEST_F(SnapshotTest, ZeroUserSnapshotRoundTrips) {
  AccountantBankOptions options;
  options.cache.alpha_resolution = 1e-9;
  AccountantBank bank(options);
  ASSERT_TRUE(WriteShardSnapshot(path_, SnapshotOf(bank)).ok());
  EXPECT_EQ(RecordsOf(path_).size(), 1u);
  auto read = ReadShardSnapshot(path_);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_TRUE(read->bank.users.empty());
  EXPECT_EQ(read->alpha_resolution, 1e-9);
}

TEST_F(SnapshotTest, V1FixtureStillReadsAndRestores) {
  // tests/data/snapshot_v1 was written by tcdp before cohort records
  // existed (script.txt, one shard): its snapshot holds one kSnapUser
  // blob per user at horizon 4, and its WAL two releases more.
  const std::vector<EventRecord> records =
      RecordsOf(std::string(kV1Fixture) + "/shard-0.snap");
  EXPECT_EQ(CountType(records, EventType::kSnapUser), 6u);
  EXPECT_EQ(CountType(records, EventType::kSnapCohort), 0u);
  auto snapshot = ReadShardSnapshot(std::string(kV1Fixture) + "/shard-0.snap");
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  EXPECT_EQ(snapshot->names,
            (std::vector<std::string>{"ann", "ben", "cat", "dan", "eve", "fay"}));
  EXPECT_EQ(snapshot->bank.schedule.size(), 4u);

  // Recovery from the v1 snapshot equals a full WAL replay bitwise.
  const std::string with_snap = dir_ + "/with_snap";
  const std::string wal_only = dir_ + "/wal_only";
  for (const std::string& to : {with_snap, wal_only}) {
    fs::create_directories(to);
    for (const char* name : {"MANIFEST", "shard-0.wal", "shard-0.snap"}) {
      fs::copy_file(std::string(kV1Fixture) + "/" + name, to + "/" + name);
    }
  }
  fs::remove(wal_only + "/shard-0.snap");
  auto from_snap = ShardedReleaseService::Recover(with_snap, 1);
  ASSERT_TRUE(from_snap.ok()) << from_snap.status();
  auto from_wal = ShardedReleaseService::Recover(wal_only, 1);
  ASSERT_TRUE(from_wal.ok()) << from_wal.status();
  EXPECT_TRUE((*from_snap)->shard_stats(0).restored_from_snapshot);
  EXPECT_FALSE((*from_wal)->shard_stats(0).restored_from_snapshot);
  for (const std::string& name : snapshot->names) {
    auto a = (*from_snap)->Query(name);
    auto b = (*from_wal)->Query(name);
    ASSERT_TRUE(a.ok() && b.ok()) << name;
    EXPECT_EQ(a->join_release, b->join_release) << name;
    EXPECT_TRUE(BitwiseEqual(a->epsilons, b->epsilons)) << name;
    EXPECT_TRUE(BitwiseEqual(a->tpl_series, b->tpl_series)) << name;
    EXPECT_EQ(a->join_release + a->tpl_series.size(), 6u) << name;
  }
  EXPECT_TRUE((*from_snap)->Close().ok());
  EXPECT_TRUE((*from_wal)->Close().ok());
}

TEST_F(SnapshotTest, MalformedCohortLayoutsAreInvalidArgument) {
  const std::vector<EventRecord> good = LiveRecords();
  const std::size_t k = DistinctPairs().size();
  const std::size_t members = 13;
  ASSERT_EQ(CountType(good, EventType::kSnapCohort), k);

  auto member_with_cohort = [&](std::size_t at, std::uint64_t cohort) {
    std::vector<EventRecord> records = good;
    SnapMemberRecord member = DecodeSnapMember(records[at].payload).value();
    member.cohort = cohort;
    records[at].payload = EncodeSnapMember(member);
    return records;
  };
  const std::size_t first_member = 1 + k;
  const std::size_t last_member = first_member + members - 1;
  ExpectRejected(member_with_cohort(last_member, k), "cohort index == C");
  ExpectRejected(member_with_cohort(last_member, 1u << 30),
                 "cohort index far out of range");
  ExpectRejected(member_with_cohort(first_member, 1),
                 "cohort named before its first appearance");

  // A v1 user record among v2 members (and a member among v1 users).
  {
    std::vector<EventRecord> records = good;
    SnapUserRecord user;
    user.name = "user0";
    user.image.correlations = DistinctPairs()[2];
    user.image.cache_alpha_resolution = 1e-9;
    records[first_member] = {EventType::kSnapUser, EncodeSnapUser(user)};
    ExpectRejected(records, "kSnapUser among kSnapMember");
    std::vector<EventRecord> v1 = {good[0]};
    for (std::size_t i = 0; i < members; ++i) v1.push_back(records[first_member]);
    v1.back() = good[first_member];
    for (std::size_t i = last_member + 1; i < good.size(); ++i) {
      v1.push_back(good[i]);
    }
    ExpectRejected(v1, "kSnapMember among kSnapUser");
  }

  // A cohort record after a member, with and without fixing the count.
  {
    std::vector<EventRecord> moved = good;
    std::swap(moved[k], moved[first_member]);
    ExpectRejected(moved, "last cohort swapped behind the first member");
    std::vector<EventRecord> extra = good;
    extra.insert(extra.begin() + static_cast<std::ptrdiff_t>(last_member + 1),
                 good[1]);
    ExpectRejected(extra, "extra cohort after the members");
  }

  // An orphan cohort: every member points at cohort 0.
  {
    std::vector<EventRecord> records = good;
    for (std::size_t at = first_member; at <= last_member; ++at) {
      SnapMemberRecord member = DecodeSnapMember(records[at].payload).value();
      member.cohort = 0;
      records[at].payload = EncodeSnapMember(member);
    }
    ExpectRejected(records, "cohort records without members");
  }

  // A cohort blob whose quantization disagrees with the header.
  {
    std::vector<EventRecord> records = good;
    SnapCohortRecord cohort = DecodeSnapCohort(records[2].payload).value();
    cohort.image.cache_alpha_resolution = 1e-6;
    records[2].payload = EncodeSnapCohort(cohort);
    ExpectRejected(records, "cohort quantization");
  }

  // Header counts that do not tile the records.
  {
    std::vector<EventRecord> records = good;
    SnapHeaderRecord header = DecodeSnapHeader(records[0].payload).value();
    header.num_users += 1;
    records[0].payload = EncodeSnapHeader(header);
    ExpectRejected(records, "num_users one too many");
    header.num_users = std::numeric_limits<std::uint64_t>::max();
    records[0].payload = EncodeSnapHeader(header);
    ExpectRejected(records, "num_users near UINT64_MAX");
  }
}

TEST_F(SnapshotTest, EveryPayloadByteFlipIsAcceptedOrRejectedCleanly) {
  // Framing CRCs are recomputed, so each flip reaches the decoders.
  const std::vector<EventRecord> good = LiveRecords();
  for (std::size_t r = 0; r < good.size(); ++r) {
    for (std::size_t i = 0; i < good[r].payload.size(); ++i) {
      std::vector<EventRecord> records = good;
      records[r].payload[i] = static_cast<char>(records[r].payload[i] ^ 0x5A);
      WriteRecords(path_, records);
      auto read = ReadShardSnapshot(path_);
      if (!read.ok()) {
        // Truncated fields are OutOfRange (BinaryCursor), the rest
        // InvalidArgument.
        ASSERT_TRUE(read.status().code() == StatusCode::kInvalidArgument ||
                    read.status().code() == StatusCode::kOutOfRange)
            << "record " << r << " byte " << i << ": " << read.status();
      }
    }
  }
}

TEST_F(SnapshotTest, SubnormalCorrelationsSurviveJoinWalAndSnapshot) {
  // CreateExact takes {1e-310, 1}; the durable formats must take back
  // what the writer renders for it.
  const StochasticMatrix m =
      StochasticMatrix::CreateExact(Matrix({{1e-310, 1.0}, {0.5, 0.5}}))
          .value();
  const TemporalCorrelations pair = Pair(m);
  auto join = net::DecodeJoin(net::EncodeJoin("sub", pair));
  ASSERT_TRUE(join.ok()) << join.status();
  EXPECT_EQ(join->image.correlations.backward().At(0, 0), 1e-310);

  const std::string log_dir = dir_ + "/service";
  ShardedServiceOptions options;
  options.num_shards = 1;
  std::vector<double> live_series;
  {
    auto service = ShardedReleaseService::Create(log_dir, options);
    ASSERT_TRUE(service.ok()) << service.status();
    ASSERT_TRUE((*service)->Join("sub", pair).ok());
    ASSERT_TRUE((*service)->ReleaseAll(0.1).ok());
    ASSERT_TRUE((*service)->Snapshot().ok());
    ASSERT_TRUE((*service)->ReleaseAll(0.2).ok());
    ASSERT_TRUE((*service)->Flush().ok());
    auto report = (*service)->Query("sub");
    ASSERT_TRUE(report.ok()) << report.status();
    live_series = report->tpl_series;
    ASSERT_TRUE((*service)->Close().ok());
  }
  ASSERT_TRUE(ReadShardSnapshot(log_dir + "/shard-0.snap").ok());
  for (bool keep_snapshot : {true, false}) {
    if (!keep_snapshot) fs::remove(log_dir + "/shard-0.snap");
    auto recovered = ShardedReleaseService::Recover(log_dir, 1);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_EQ((*recovered)->shard_stats(0).restored_from_snapshot,
              keep_snapshot);
    auto report = (*recovered)->Query("sub");
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_TRUE(BitwiseEqual(report->tpl_series, live_series));
    ASSERT_TRUE((*recovered)->Close().ok());
  }
}

}  // namespace
}  // namespace server
}  // namespace tcdp
