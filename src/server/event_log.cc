#include "server/event_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/binary_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tcdp {
namespace server {
namespace {

/// WAL instruments are process-global (shared across shard writers):
/// latency histograms for the two durability-critical operations plus
/// byte/record throughput counters. Resolved once, leaked with the
/// registry.
struct WalObs {
  obs::Histogram* append_seconds;
  obs::Histogram* fsync_seconds;
  obs::Counter* appended_bytes;
  obs::Counter* appended_records;
  static const WalObs& Get() {
    static const WalObs instruments = [] {
      obs::Registry& registry = obs::Registry::Default();
      WalObs o;
      o.append_seconds = registry.GetHistogram("tcdp_wal_append_seconds");
      o.fsync_seconds = registry.GetHistogram("tcdp_wal_fsync_seconds");
      o.appended_bytes = registry.GetCounter("tcdp_wal_appended_bytes_total");
      o.appended_records =
          registry.GetCounter("tcdp_wal_appended_records_total");
      return o;
    }();
    return instruments;
  }
};

constexpr char kMagic[8] = {'T', 'C', 'D', 'P', 'W', 'A', 'L', '1'};
constexpr std::size_t kHeaderBytes = 1 + 4 + 4;  // type + len + crc

Status ErrnoStatus(const std::string& op, const std::string& path) {
  return Status::Internal(op + " " + path + ": " + std::strerror(errno));
}

bool ValidEventType(std::uint8_t type) {
  switch (static_cast<EventType>(type)) {
    case EventType::kManifest:
    case EventType::kAddUser:
    case EventType::kRelease:
    case EventType::kCompaction:
    case EventType::kMigrateUser:
    case EventType::kRouterEndpoint:
    case EventType::kSnapHeader:
    case EventType::kSnapUser:
    case EventType::kSnapRelease:
    case EventType::kSnapCohort:
    case EventType::kSnapMember:
      return true;
  }
  return false;
}

}  // namespace

EventLogWriter::~EventLogWriter() {
  if (fd_ >= 0) {
    (void)Flush();
    ::close(fd_);
  }
}

EventLogWriter::EventLogWriter(EventLogWriter&& other) noexcept
    : fd_(other.fd_),
      path_(std::move(other.path_)),
      buffer_(std::move(other.buffer_)),
      bytes_written_(other.bytes_written_),
      records_written_(other.records_written_) {
  other.fd_ = -1;
}

EventLogWriter& EventLogWriter::operator=(EventLogWriter&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) {
      (void)Flush();
      ::close(fd_);
    }
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    buffer_ = std::move(other.buffer_);
    bytes_written_ = other.bytes_written_;
    records_written_ = other.records_written_;
    other.fd_ = -1;
  }
  return *this;
}

StatusOr<EventLogWriter> EventLogWriter::Create(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("EventLogWriter::Create", path);
  EventLogWriter writer;
  writer.fd_ = fd;
  writer.path_ = path;
  writer.buffer_.append(kMagic, sizeof(kMagic));
  writer.bytes_written_ = sizeof(kMagic);
  return writer;
}

StatusOr<EventLogWriter> EventLogWriter::OpenForAppend(
    const std::string& path, std::uint64_t resume_offset,
    std::uint64_t resume_records) {
  const int fd = ::open(path.c_str(), O_WRONLY, 0644);
  if (fd < 0) return ErrnoStatus("EventLogWriter::OpenForAppend", path);
  if (::lseek(fd, static_cast<off_t>(resume_offset), SEEK_SET) < 0) {
    ::close(fd);
    return ErrnoStatus("EventLogWriter::OpenForAppend lseek", path);
  }
  EventLogWriter writer;
  writer.fd_ = fd;
  writer.path_ = path;
  writer.bytes_written_ = resume_offset;
  writer.records_written_ = resume_records;
  return writer;
}

Status EventLogWriter::Append(EventType type, const std::string& payload) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("EventLogWriter: appending to a closed log");
  }
  if (payload.size() > 0xFFFFFFFFull) {
    return Status::InvalidArgument("EventLogWriter: payload exceeds 4 GiB");
  }
  const WalObs& wal_obs = WalObs::Get();
  obs::ScopedLatencyTimer timer(wal_obs.append_seconds);
  const std::uint8_t type_byte = static_cast<std::uint8_t>(type);
  std::uint32_t crc = Crc32(&type_byte, 1);
  crc = Crc32(payload.data(), payload.size(), crc);
  buffer_.push_back(static_cast<char>(type_byte));
  PutFixed32(&buffer_, static_cast<std::uint32_t>(payload.size()));
  PutFixed32(&buffer_, crc);
  buffer_.append(payload);
  bytes_written_ += kHeaderBytes + payload.size();
  ++records_written_;
  if (obs::MetricsEnabled()) {
    wal_obs.appended_bytes->Add(kHeaderBytes + payload.size());
    wal_obs.appended_records->Increment();
  }
  return Status::OK();
}

Status EventLogWriter::Flush() {
  if (fd_ < 0) {
    return Status::FailedPrecondition("EventLogWriter: flushing a closed log");
  }
  const char* data = buffer_.data();
  std::size_t left = buffer_.size();
  while (left > 0) {
    const ssize_t n = ::write(fd_, data, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("EventLogWriter::Flush write", path_);
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  buffer_.clear();
  return Status::OK();
}

Status EventLogWriter::Sync() {
  TCDP_RETURN_IF_ERROR(Flush());
  obs::ScopedLatencyTimer timer(WalObs::Get().fsync_seconds);
  obs::ScopedSpan span("wal_fsync", "wal");
  if (::fdatasync(fd_) < 0) {
    return ErrnoStatus("EventLogWriter::Sync fdatasync", path_);
  }
  return Status::OK();
}

Status EventLogWriter::Close() {
  if (fd_ < 0) return Status::OK();
  const Status flushed = Flush();
  const int rc = ::close(fd_);
  fd_ = -1;
  if (!flushed.ok()) return flushed;
  if (rc < 0) return ErrnoStatus("EventLogWriter::Close", path_);
  return Status::OK();
}

StatusOr<std::string> ReadFileBytes(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::NotFound("cannot open " + path);
  struct stat st;
  if (::fstat(fd, &st) < 0) {
    const Status failed = ErrnoStatus("fstat", path);
    ::close(fd);
    return failed;
  }
  // One spare byte: a file that has not grown ends in a short read.
  std::string contents(static_cast<std::size_t>(st.st_size) + 1, '\0');
  std::size_t got = 0;
  for (;;) {
    if (got == contents.size()) contents.resize(2 * contents.size());
    const ssize_t n = ::read(fd, &contents[got], contents.size() - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status failed = ErrnoStatus("read", path);
      ::close(fd);
      return failed;
    }
    if (n == 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  contents.resize(got);
  return contents;
}

Status DurableRename(const std::string& from, const std::string& to) {
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    return ErrnoStatus("rename " + from + " to", to);
  }
  std::string dir = std::filesystem::path(to).parent_path().string();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return ErrnoStatus("open directory", dir);
  if (::fsync(fd) < 0) {
    const Status failed = ErrnoStatus("fsync directory", dir);
    ::close(fd);
    return failed;
  }
  ::close(fd);
  return Status::OK();
}

StatusOr<ReadLogResult> ReadEventLog(const std::string& path) {
  TCDP_ASSIGN_OR_RETURN(const std::string contents, ReadFileBytes(path));
  if (contents.size() < sizeof(kMagic) ||
      std::memcmp(contents.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("ReadEventLog: " + path +
                                   " is not a tcdp event log (bad magic)");
  }
  ReadLogResult result;
  std::size_t pos = sizeof(kMagic);
  result.valid_bytes = pos;
  while (pos < contents.size()) {
    if (contents.size() - pos < kHeaderBytes) {
      result.clean = false;
      result.tail_error = "truncated record header at offset " +
                          std::to_string(pos);
      break;
    }
    const std::uint8_t type_byte =
        static_cast<std::uint8_t>(contents[pos]);
    BinaryCursor cursor(contents.data() + pos + 1, 8);
    std::uint32_t payload_len = 0;
    std::uint32_t stored_crc = 0;
    (void)cursor.ReadFixed32(&payload_len);
    (void)cursor.ReadFixed32(&stored_crc);
    if (!ValidEventType(type_byte)) {
      result.clean = false;
      result.tail_error = "unknown record type " +
                          std::to_string(type_byte) + " at offset " +
                          std::to_string(pos);
      break;
    }
    if (contents.size() - pos - kHeaderBytes < payload_len) {
      result.clean = false;
      result.tail_error = "truncated record payload at offset " +
                          std::to_string(pos);
      break;
    }
    const char* payload = contents.data() + pos + kHeaderBytes;
    std::uint32_t crc = Crc32(&type_byte, 1);
    crc = Crc32(payload, payload_len, crc);
    if (crc != stored_crc) {
      result.clean = false;
      result.tail_error =
          "CRC mismatch at offset " + std::to_string(pos);
      break;
    }
    EventRecord record;
    record.type = static_cast<EventType>(type_byte);
    record.payload.assign(payload, payload_len);
    result.records.push_back(std::move(record));
    pos += kHeaderBytes + payload_len;
    result.record_end.push_back(pos);
    result.valid_bytes = pos;
  }
  return result;
}

Status TruncateFile(const std::string& path, std::uint64_t size) {
  if (::truncate(path.c_str(), static_cast<off_t>(size)) < 0) {
    return ErrnoStatus("TruncateFile", path);
  }
  return Status::OK();
}

}  // namespace server
}  // namespace tcdp
