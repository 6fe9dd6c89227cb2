#include "server/records.h"

#include <cmath>

#include "common/binary_io.h"

namespace tcdp {
namespace server {
namespace {

/// Serializes an image with its epsilon list intentionally dropped —
/// WAL/snapshot records carry history as release rows, not per-user
/// epsilon lists (which would duplicate it num_users times).
std::string CorrelationsBlob(const AccountantImage& image) {
  AccountantImage stripped;
  stripped.correlations = image.correlations;
  stripped.cache_alpha_resolution = image.cache_alpha_resolution;
  return SerializeAccountantImage(stripped);
}

/// Decodes a length-prefixed correlations blob; \p what names the record.
StatusOr<AccountantImage> ReadCorrelationsBlob(BinaryCursor* cursor,
                                               const char* what) {
  std::string blob;
  TCDP_RETURN_IF_ERROR(cursor->ReadLengthPrefixed(&blob));
  TCDP_ASSIGN_OR_RETURN(AccountantImage image, ParseAccountantImage(blob));
  if (!image.epsilons.empty()) {
    return Status::InvalidArgument(
        std::string(what) + ": embedded accountant blob carries history");
  }
  return image;
}

Status ExpectConsumed(const BinaryCursor& cursor, const char* what) {
  if (!cursor.empty()) {
    return Status::InvalidArgument(std::string(what) +
                                   ": trailing bytes in payload");
  }
  return Status::OK();
}

}  // namespace

std::string EncodeManifest(const ManifestRecord& record) {
  std::string out;
  PutVarint64(&out, record.format_version);
  PutVarint64(&out, record.shard_index);
  PutVarint64(&out, record.num_shards);
  out.push_back(record.share_loss_cache ? 1 : 0);
  PutDoubleBits(&out, record.alpha_resolution);
  return out;
}

StatusOr<ManifestRecord> DecodeManifest(const std::string& payload) {
  BinaryCursor cursor(payload);
  ManifestRecord record;
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&record.format_version));
  if (record.format_version != 1) {
    return Status::InvalidArgument(
        "DecodeManifest: unsupported format version " +
        std::to_string(record.format_version));
  }
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&record.shard_index));
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&record.num_shards));
  std::uint8_t share = 0;
  TCDP_RETURN_IF_ERROR(cursor.ReadByte(&share));
  if (share > 1) {
    return Status::InvalidArgument("DecodeManifest: bad share_loss_cache");
  }
  record.share_loss_cache = share == 1;
  TCDP_RETURN_IF_ERROR(cursor.ReadDoubleBits(&record.alpha_resolution));
  if (!std::isfinite(record.alpha_resolution)) {
    return Status::InvalidArgument(
        "DecodeManifest: alpha_resolution not finite");
  }
  if (record.num_shards == 0 || record.shard_index >= record.num_shards) {
    return Status::InvalidArgument("DecodeManifest: shard " +
                                   std::to_string(record.shard_index) +
                                   " of " +
                                   std::to_string(record.num_shards));
  }
  TCDP_RETURN_IF_ERROR(ExpectConsumed(cursor, "DecodeManifest"));
  return record;
}

std::string EncodeAddUser(const AddUserRecord& record) {
  std::string out;
  PutLengthPrefixed(&out, record.name);
  PutLengthPrefixed(&out, CorrelationsBlob(record.image));
  return out;
}

StatusOr<AddUserRecord> DecodeAddUser(const std::string& payload) {
  BinaryCursor cursor(payload);
  AddUserRecord record;
  TCDP_RETURN_IF_ERROR(cursor.ReadLengthPrefixed(&record.name));
  TCDP_ASSIGN_OR_RETURN(record.image,
                        ReadCorrelationsBlob(&cursor, "DecodeAddUser"));
  TCDP_RETURN_IF_ERROR(ExpectConsumed(cursor, "DecodeAddUser"));
  return record;
}

std::string EncodeRelease(const ReleaseRecord& record) {
  std::string out;
  PutDoubleBits(&out, record.epsilon);
  out.push_back(record.all ? 1 : 0);
  if (!record.all) record.mask.EncodeTo(&out);
  return out;
}

StatusOr<ReleaseRecord> DecodeRelease(const std::string& payload) {
  BinaryCursor cursor(payload);
  ReleaseRecord record;
  TCDP_RETURN_IF_ERROR(cursor.ReadDoubleBits(&record.epsilon));
  if (!(record.epsilon > 0.0) || !std::isfinite(record.epsilon)) {
    return Status::InvalidArgument(
        "DecodeRelease: epsilon not finite and > 0");
  }
  std::uint8_t all = 0;
  TCDP_RETURN_IF_ERROR(cursor.ReadByte(&all));
  if (all > 1) {
    return Status::InvalidArgument("DecodeRelease: bad 'all' flag");
  }
  record.all = all == 1;
  if (!record.all) {
    TCDP_ASSIGN_OR_RETURN(record.mask, PackedMask::Decode(cursor));
    if (record.mask.is_all()) {
      return Status::InvalidArgument(
          "DecodeRelease: explicit mask cannot be the All mask");
    }
  }
  TCDP_RETURN_IF_ERROR(ExpectConsumed(cursor, "DecodeRelease"));
  return record;
}

std::string EncodeCompaction(const CompactionRecord& record) {
  std::string out;
  PutVarint64(&out, record.format_version);
  PutVarint64(&out, record.base_records);
  PutVarint64(&out, record.base_releases);
  PutVarint64(&out, record.base_users);
  return out;
}

StatusOr<CompactionRecord> DecodeCompaction(const std::string& payload) {
  BinaryCursor cursor(payload);
  CompactionRecord record;
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&record.format_version));
  if (record.format_version != 1) {
    return Status::InvalidArgument(
        "DecodeCompaction: unsupported format version " +
        std::to_string(record.format_version));
  }
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&record.base_records));
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&record.base_releases));
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&record.base_users));
  // The replaced prefix is manifest + adds + releases (nothing else is
  // a WAL record type), so the base counts must tile it exactly.
  if (record.base_records < 1 ||
      1 + record.base_releases + record.base_users != record.base_records) {
    return Status::InvalidArgument(
        "DecodeCompaction: base counts 1+" +
        std::to_string(record.base_users) + "+" +
        std::to_string(record.base_releases) + " do not tile " +
        std::to_string(record.base_records) + " records");
  }
  TCDP_RETURN_IF_ERROR(ExpectConsumed(cursor, "DecodeCompaction"));
  return record;
}

std::string EncodeRouterEndpoint(const RouterEndpointRecord& record) {
  std::string out;
  PutVarint64(&out, record.format_version);
  PutLengthPrefixed(&out, record.endpoint);
  out.push_back(record.removed ? 1 : 0);
  return out;
}

StatusOr<RouterEndpointRecord> DecodeRouterEndpoint(
    const std::string& payload) {
  BinaryCursor cursor(payload);
  RouterEndpointRecord record;
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&record.format_version));
  if (record.format_version != 1) {
    return Status::InvalidArgument(
        "DecodeRouterEndpoint: unsupported format version " +
        std::to_string(record.format_version));
  }
  TCDP_RETURN_IF_ERROR(cursor.ReadLengthPrefixed(&record.endpoint));
  if (record.endpoint.empty()) {
    return Status::InvalidArgument("DecodeRouterEndpoint: empty endpoint");
  }
  std::uint8_t removed = 0;
  TCDP_RETURN_IF_ERROR(cursor.ReadByte(&removed));
  if (removed > 1) {
    return Status::InvalidArgument("DecodeRouterEndpoint: bad removed flag");
  }
  record.removed = removed == 1;
  TCDP_RETURN_IF_ERROR(ExpectConsumed(cursor, "DecodeRouterEndpoint"));
  return record;
}

std::string EncodeMigrateUser(const MigrateUserRecord& record) {
  std::string out;
  PutVarint64(&out, record.format_version);
  PutLengthPrefixed(&out, record.name);
  PutLengthPrefixed(&out, record.endpoint);
  return out;
}

StatusOr<MigrateUserRecord> DecodeMigrateUser(const std::string& payload) {
  BinaryCursor cursor(payload);
  MigrateUserRecord record;
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&record.format_version));
  if (record.format_version != 1) {
    return Status::InvalidArgument(
        "DecodeMigrateUser: unsupported format version " +
        std::to_string(record.format_version));
  }
  TCDP_RETURN_IF_ERROR(cursor.ReadLengthPrefixed(&record.name));
  if (record.name.empty()) {
    return Status::InvalidArgument("DecodeMigrateUser: empty user name");
  }
  TCDP_RETURN_IF_ERROR(cursor.ReadLengthPrefixed(&record.endpoint));
  TCDP_RETURN_IF_ERROR(ExpectConsumed(cursor, "DecodeMigrateUser"));
  return record;
}

std::string EncodeSnapHeader(const SnapHeaderRecord& record) {
  std::string out;
  PutVarint64(&out, record.applied_records);
  PutVarint64(&out, record.horizon);
  PutVarint64(&out, record.num_users);
  PutDoubleBits(&out, record.alpha_resolution);
  return out;
}

StatusOr<SnapHeaderRecord> DecodeSnapHeader(const std::string& payload) {
  BinaryCursor cursor(payload);
  SnapHeaderRecord record;
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&record.applied_records));
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&record.horizon));
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&record.num_users));
  TCDP_RETURN_IF_ERROR(cursor.ReadDoubleBits(&record.alpha_resolution));
  if (!std::isfinite(record.alpha_resolution)) {
    return Status::InvalidArgument(
        "DecodeSnapHeader: alpha_resolution not finite");
  }
  TCDP_RETURN_IF_ERROR(ExpectConsumed(cursor, "DecodeSnapHeader"));
  return record;
}

std::string EncodeSnapUser(const SnapUserRecord& record) {
  std::string out;
  PutLengthPrefixed(&out, record.name);
  PutVarint64(&out, record.join);
  PutDoubleBits(&out, record.bpl_last);
  PutDoubleBits(&out, record.eps_sum);
  PutLengthPrefixed(&out, CorrelationsBlob(record.image));
  return out;
}

StatusOr<SnapUserRecord> DecodeSnapUser(const std::string& payload) {
  BinaryCursor cursor(payload);
  SnapUserRecord record;
  TCDP_RETURN_IF_ERROR(cursor.ReadLengthPrefixed(&record.name));
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&record.join));
  TCDP_RETURN_IF_ERROR(cursor.ReadDoubleBits(&record.bpl_last));
  TCDP_RETURN_IF_ERROR(cursor.ReadDoubleBits(&record.eps_sum));
  TCDP_ASSIGN_OR_RETURN(record.image,
                        ReadCorrelationsBlob(&cursor, "DecodeSnapUser"));
  TCDP_RETURN_IF_ERROR(ExpectConsumed(cursor, "DecodeSnapUser"));
  return record;
}

std::string EncodeSnapCohort(const SnapCohortRecord& record) {
  std::string out;
  PutLengthPrefixed(&out, CorrelationsBlob(record.image));
  return out;
}

StatusOr<SnapCohortRecord> DecodeSnapCohort(const std::string& payload) {
  BinaryCursor cursor(payload);
  SnapCohortRecord record;
  TCDP_ASSIGN_OR_RETURN(record.image,
                        ReadCorrelationsBlob(&cursor, "DecodeSnapCohort"));
  TCDP_RETURN_IF_ERROR(ExpectConsumed(cursor, "DecodeSnapCohort"));
  return record;
}

std::string EncodeSnapMember(const SnapMemberRecord& record) {
  std::string out;
  PutLengthPrefixed(&out, record.name);
  PutVarint64(&out, record.join);
  PutDoubleBits(&out, record.bpl_last);
  PutDoubleBits(&out, record.eps_sum);
  PutVarint64(&out, record.cohort);
  return out;
}

StatusOr<SnapMemberRecord> DecodeSnapMember(const std::string& payload) {
  BinaryCursor cursor(payload);
  SnapMemberRecord record;
  TCDP_RETURN_IF_ERROR(cursor.ReadLengthPrefixed(&record.name));
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&record.join));
  TCDP_RETURN_IF_ERROR(cursor.ReadDoubleBits(&record.bpl_last));
  TCDP_RETURN_IF_ERROR(cursor.ReadDoubleBits(&record.eps_sum));
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&record.cohort));
  TCDP_RETURN_IF_ERROR(ExpectConsumed(cursor, "DecodeSnapMember"));
  return record;
}

}  // namespace server
}  // namespace tcdp
