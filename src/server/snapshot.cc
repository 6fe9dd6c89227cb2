#include "server/snapshot.h"

#include <unordered_map>
#include <utility>

#include "server/event_log.h"
#include "server/records.h"

namespace tcdp {
namespace server {
namespace {

/// The exact bits of a correlation pair: two pairs share a key iff they
/// are bitwise equal, so 0.0 and -0.0 entries stay apart.
std::string CorrelationKey(const TemporalCorrelations& correlations) {
  std::string key(1, static_cast<char>(correlations.has_backward() +
                                       2 * correlations.has_forward()));
  auto append = [&key](const StochasticMatrix& matrix) {
    const std::vector<double>& data = matrix.matrix().data();
    key.append(reinterpret_cast<const char*>(data.data()),
               data.size() * sizeof(double));
  };
  if (correlations.has_backward()) append(correlations.backward());
  if (correlations.has_forward()) append(correlations.forward());
  return key;
}

}  // namespace

Status WriteShardSnapshot(const std::string& path,
                          const ShardSnapshot& snapshot) {
  if (snapshot.names.size() != snapshot.bank.users.size()) {
    return Status::InvalidArgument(
        "WriteShardSnapshot: " + std::to_string(snapshot.names.size()) +
        " names for " + std::to_string(snapshot.bank.users.size()) +
        " users");
  }
  const std::string tmp_path = path + ".tmp";
  TCDP_ASSIGN_OR_RETURN(EventLogWriter writer,
                        EventLogWriter::Create(tmp_path));
  SnapHeaderRecord header;
  header.applied_records = snapshot.applied_records;
  header.horizon = snapshot.bank.schedule.size();
  header.num_users = snapshot.bank.users.size();
  header.alpha_resolution = snapshot.alpha_resolution;
  TCDP_RETURN_IF_ERROR(
      writer.Append(EventType::kSnapHeader, EncodeSnapHeader(header)));
  // One kSnapCohort per distinct pair, in order of first appearance,
  // then one small kSnapMember per user pointing at it.
  std::unordered_map<std::string, std::uint64_t> cohort_of;
  std::vector<std::uint64_t> member_cohort(snapshot.bank.users.size());
  for (std::size_t u = 0; u < snapshot.bank.users.size(); ++u) {
    const AccountantBank::UserImage& user = snapshot.bank.users[u];
    const auto [it, inserted] = cohort_of.emplace(
        CorrelationKey(user.correlations), cohort_of.size());
    member_cohort[u] = it->second;
    if (!inserted) continue;
    SnapCohortRecord cohort;
    cohort.image.correlations = user.correlations;
    cohort.image.cache_alpha_resolution = snapshot.alpha_resolution;
    TCDP_RETURN_IF_ERROR(
        writer.Append(EventType::kSnapCohort, EncodeSnapCohort(cohort)));
  }
  for (std::size_t u = 0; u < snapshot.bank.users.size(); ++u) {
    const AccountantBank::UserImage& user = snapshot.bank.users[u];
    SnapMemberRecord record;
    record.name = snapshot.names[u];
    record.join = user.join;
    record.bpl_last = user.bpl_last;
    record.eps_sum = user.eps_sum;
    record.cohort = member_cohort[u];
    TCDP_RETURN_IF_ERROR(
        writer.Append(EventType::kSnapMember, EncodeSnapMember(record)));
  }
  for (std::size_t t = 0; t < snapshot.bank.schedule.size(); ++t) {
    ReleaseRecord record;
    record.epsilon = snapshot.bank.schedule[t];
    record.all = snapshot.bank.participation[t].is_all();
    if (!record.all) record.mask = snapshot.bank.participation[t];
    TCDP_RETURN_IF_ERROR(
        writer.Append(EventType::kSnapRelease, EncodeRelease(record)));
  }
  TCDP_RETURN_IF_ERROR(writer.Sync());
  TCDP_RETURN_IF_ERROR(writer.Close());
  return DurableRename(tmp_path, path);
}

StatusOr<ShardSnapshot> ReadShardSnapshot(const std::string& path) {
  TCDP_ASSIGN_OR_RETURN(ReadLogResult log, ReadEventLog(path));
  if (!log.clean) {
    return Status::InvalidArgument("ReadShardSnapshot: " + path +
                                   " has a torn tail (" + log.tail_error +
                                   ") — snapshots must be complete");
  }
  if (log.records.empty() ||
      log.records[0].type != EventType::kSnapHeader) {
    return Status::InvalidArgument(
        "ReadShardSnapshot: missing kSnapHeader record");
  }
  TCDP_ASSIGN_OR_RETURN(SnapHeaderRecord header,
                        DecodeSnapHeader(log.records[0].payload));
  // v2 puts its cohort records first; v1 has none.
  std::uint64_t cohorts = 0;
  while (1 + cohorts < log.records.size() &&
         log.records[1 + cohorts].type == EventType::kSnapCohort) {
    ++cohorts;
  }
  // Bound each count by the actual record count BEFORE summing — a
  // crafted header with num_users near UINT64_MAX would otherwise wrap
  // the sum and sail past this check into out-of-bounds indexing.
  const std::uint64_t available = log.records.size();
  if (header.num_users >= available || header.horizon >= available ||
      1 + cohorts + header.num_users + header.horizon != available) {
    return Status::InvalidArgument(
        "ReadShardSnapshot: " + std::to_string(available) +
        " records, header declares 1+" + std::to_string(cohorts) + "+" +
        std::to_string(header.num_users) + "+" +
        std::to_string(header.horizon));
  }
  ShardSnapshot snapshot;
  snapshot.applied_records = header.applied_records;
  snapshot.alpha_resolution = header.alpha_resolution;
  std::vector<TemporalCorrelations> pairs;
  pairs.reserve(cohorts);
  for (std::uint64_t c = 0; c < cohorts; ++c) {
    TCDP_ASSIGN_OR_RETURN(SnapCohortRecord cohort,
                          DecodeSnapCohort(log.records[1 + c].payload));
    if (cohort.image.cache_alpha_resolution != snapshot.alpha_resolution) {
      return Status::InvalidArgument(
          "ReadShardSnapshot: cohort quantization disagrees with the header");
    }
    pairs.push_back(std::move(cohort.image.correlations));
  }
  // v2 members name cohorts in order of first appearance, and every
  // cohort has a member: the writer's canonical form, nothing else.
  const EventType user_type =
      cohorts > 0 ? EventType::kSnapMember : EventType::kSnapUser;
  std::uint64_t cohorts_seen = 0;
  const std::uint64_t users_begin = 1 + cohorts;
  for (std::uint64_t u = 0; u < header.num_users; ++u) {
    const EventRecord& record = log.records[users_begin + u];
    if (record.type != user_type) {
      return Status::InvalidArgument(
          "ReadShardSnapshot: record " + std::to_string(users_begin + u) +
          (cohorts > 0 ? " is not kSnapMember" : " is not kSnapUser"));
    }
    AccountantBank::UserImage image;
    std::string name;
    std::uint64_t join = 0;
    if (cohorts > 0) {
      TCDP_ASSIGN_OR_RETURN(SnapMemberRecord member,
                            DecodeSnapMember(record.payload));
      if (member.cohort > cohorts_seen || member.cohort >= cohorts) {
        return Status::InvalidArgument(
            "ReadShardSnapshot: member cohort " +
            std::to_string(member.cohort) + " out of order or range");
      }
      if (member.cohort == cohorts_seen) ++cohorts_seen;
      image.correlations = pairs[member.cohort];
      name = std::move(member.name);
      join = member.join;
      image.bpl_last = member.bpl_last;
      image.eps_sum = member.eps_sum;
    } else {
      TCDP_ASSIGN_OR_RETURN(SnapUserRecord user,
                            DecodeSnapUser(record.payload));
      if (user.image.cache_alpha_resolution != snapshot.alpha_resolution) {
        return Status::InvalidArgument(
            "ReadShardSnapshot: user quantization disagrees with the header");
      }
      image.correlations = std::move(user.image.correlations);
      name = std::move(user.name);
      join = user.join;
      image.bpl_last = user.bpl_last;
      image.eps_sum = user.eps_sum;
    }
    if (join > header.horizon) {
      return Status::InvalidArgument(
          "ReadShardSnapshot: user join past the snapshot horizon");
    }
    image.join = static_cast<std::uint32_t>(join);
    snapshot.names.push_back(std::move(name));
    snapshot.bank.users.push_back(std::move(image));
  }
  if (cohorts_seen != cohorts) {
    return Status::InvalidArgument(
        "ReadShardSnapshot: " + std::to_string(cohorts - cohorts_seen) +
        " cohort records have no member");
  }
  const std::uint64_t releases_begin = users_begin + header.num_users;
  for (std::uint64_t t = 0; t < header.horizon; ++t) {
    const EventRecord& record = log.records[releases_begin + t];
    if (record.type != EventType::kSnapRelease) {
      return Status::InvalidArgument(
          "ReadShardSnapshot: record " + std::to_string(releases_begin + t) +
          " is not kSnapRelease");
    }
    TCDP_ASSIGN_OR_RETURN(ReleaseRecord release,
                          DecodeRelease(record.payload));
    snapshot.bank.schedule.push_back(release.epsilon);
    snapshot.bank.participation.push_back(
        release.all ? PackedMask::All() : std::move(release.mask));
  }
  return snapshot;
}

}  // namespace server
}  // namespace tcdp
