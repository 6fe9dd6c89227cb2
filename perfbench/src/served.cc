#include "served.h"

#include <fcntl.h>
#include <sched.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>

#include "net/messages.h"

namespace perfbench {
namespace {

using tcdp::Status;
using tcdp::StatusOr;
using tcdp::net::Frame;
using tcdp::net::MsgType;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMaxErrorsKept = 8;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Status ErrnoStatus(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

/// Port from a "<label> <host>:<port>" line.
StatusOr<std::uint16_t> PortOf(const std::string& line) {
  const std::size_t colon = line.rfind(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("no port in server line '" + line + "'");
  }
  const long port = std::strtol(line.c_str() + colon + 1, nullptr, 10);
  if (port <= 0 || port > 65535) {
    return Status::InvalidArgument("bad port in server line '" + line + "'");
  }
  return static_cast<std::uint16_t>(port);
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

void Tally::Fail(const std::string& why) {
  ++failed;
  if (errors.size() < kMaxErrorsKept) errors.push_back(why);
}

void CountAck(const Frame& frame, Tally* tally) {
  if (frame.type == MsgType::kOk) return;
  if (frame.type == MsgType::kError) {
    Status error;
    const Status decoded = tcdp::net::DecodeError(frame.payload, &error);
    tally->Fail("kError: " +
                (decoded.ok() ? error.ToString() : decoded.ToString()));
    return;
  }
  tally->Fail("unexpected response type " +
              std::to_string(static_cast<unsigned>(frame.type)));
}

// ------------------------------------------------------------ process

StatusOr<std::unique_ptr<ServerProcess>> ServerProcess::Spawn(
    const std::string& binary, const std::vector<std::string>& args,
    const cpu_set_t* server_cpus) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) return ErrnoStatus("pipe2");
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return ErrnoStatus("fork");
  }
  if (pid == 0) {
    // The server must not outlive the benchmark, even if it crashes.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (server_cpus != nullptr) {
      (void)::sched_setaffinity(0, sizeof(cpu_set_t), server_cpus);
    }
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  std::unique_ptr<ServerProcess> process(new ServerProcess());
  process->pid_ = pid;
  process->stdout_fd_ = pipe_fds[0];
  while (true) {
    TCDP_ASSIGN_OR_RETURN(const std::string line, process->ReadLine());
    if (StartsWith(line, "replication stream on ")) {
      TCDP_ASSIGN_OR_RETURN(process->repl_port_, PortOf(line));
    } else if (StartsWith(line, "listening on ")) {
      TCDP_ASSIGN_OR_RETURN(process->port_, PortOf(line));
      return process;
    }
  }
}

StatusOr<std::string> ServerProcess::ReadLine() {
  while (true) {
    const std::size_t newline = pending_.find('\n');
    if (newline != std::string::npos) {
      std::string line = pending_.substr(0, newline);
      pending_.erase(0, newline + 1);
      return line;
    }
    char buffer[4096];
    const ssize_t n = ::read(stdout_fd_, buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return Status::Internal("server exited before printing its address");
    }
    pending_.append(buffer, static_cast<std::size_t>(n));
  }
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
}

StatusOr<double> ServerProcess::PeakRssMb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (StartsWith(line, "VmHWM:")) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return Status::NotFound("no VmHWM for server pid " + std::to_string(pid_));
}

StatusOr<double> ServerProcess::CpuSeconds() const {
  std::ifstream stat("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line, so 12th and 13th after ')'.
  const std::size_t paren = text.rfind(')');
  if (paren == std::string::npos) {
    return Status::NotFound("no /proc stat for server pid " +
                            std::to_string(pid_));
  }
  std::istringstream fields(text.substr(paren + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 1; i <= 13 && (fields >> field); ++i) {
    if (i >= 12) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

// --------------------------------------------------------- connection

StatusOr<std::unique_ptr<Connection>> Connection::Open(std::uint16_t port,
                                                       bool traced) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return ErrnoStatus("socket");
  std::unique_ptr<Connection> conn(new Connection(fd, traced));
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return ErrnoStatus("connect 127.0.0.1:" + std::to_string(port));
  }
  std::string preamble;
  tcdp::net::AppendPreamble(&preamble);
  TCDP_RETURN_IF_ERROR(conn->Send(preamble.data(), preamble.size()));
  return conn;
}

Connection::~Connection() { ::close(fd_); }

Status Connection::Send(const char* data, std::size_t size) {
  std::size_t offset = 0;
  while (offset < size) {
    const ssize_t n = ::send(fd_, data + offset, size - offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("send");
    }
    offset += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

StatusOr<Frame> Connection::Next() {
  char buffer[64 * 1024];
  while (!decoder_.has_frame()) {
    const Clock::time_point start = traced_ ? Clock::now() : Clock::time_point();
    const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (traced_) wait_seconds_ += SecondsSince(start);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("recv");
    }
    if (n == 0) return Status::Internal("server closed the connection");
    TCDP_RETURN_IF_ERROR(decoder_.Feed(buffer, static_cast<std::size_t>(n)));
  }
  return decoder_.PopFrame();
}

// ---------------------------------------------------------- generator

Status RunFrames(Connection* conn, const EncodedFrames& frames,
                 const std::vector<Op>& ops, bool flush_at_end, Tally* tally,
                 PhaseResult* result) {
  const std::size_t n = frames.size();
  std::size_t outstanding = 0;
  auto read_ack = [&]() -> Status {
    auto frame = conn->Next();
    if (!frame.ok()) {
      // The connection is gone: every unanswered request failed.
      for (std::size_t k = 0; k < outstanding; ++k) tally->Fail(frame.status().ToString());
      return frame.status();
    }
    --outstanding;
    CountAck(*frame, tally);
    return Status::OK();
  };
  auto drain = [&]() -> Status {
    while (outstanding > 0) TCDP_RETURN_IF_ERROR(read_ack());
    return Status::OK();
  };
  const Clock::time_point phase_start = Clock::now();
  auto round_trip = [&](const char* data, std::size_t size,
                        const Op& op) -> Status {
    TCDP_RETURN_IF_ERROR(drain());
    ++tally->attempted;
    const Clock::time_point start = Clock::now();
    Status sent = conn->Send(data, size);
    auto frame = sent.ok() ? conn->Next() : StatusOr<Frame>(sent);
    const double ms = SecondsSince(start) * 1e3;
    if (!frame.ok()) {
      tally->Fail(frame.status().ToString());
      return frame.status();
    }
    if (op.kind != OpKind::kQuery) {
      CountAck(*frame, tally);
      return Status::OK();
    }
    if (frame->type != MsgType::kReport) {
      CountAck(*frame, tally);  // kError or a wrong type: a failure
      return Status::OK();
    }
    auto report = tcdp::net::DecodeReport(frame->payload);
    if (!report.ok()) {
      tally->Fail("undecodable report: " + report.status().ToString());
      return Status::OK();
    }
    result->query_ms.push_back(ms);
    result->reports.emplace_back(op.user, std::move(*report));
    return Status::OK();
  };

  std::size_t i = 0;
  while (i < n) {
    const Op& op = ops[i];
    if (op.kind == OpKind::kQuery || op.kind == OpKind::kFlush) {
      TCDP_RETURN_IF_ERROR(round_trip(frames.bytes.data() + frames.begin_of(i),
                                      frames.ends[i] - frames.begin_of(i), op));
      ++i;
      continue;
    }
    // A window-sized slice of consecutive mutations.
    std::size_t end = i + 1;
    while (end < n && end - i < kWindow && ops[end].kind != OpKind::kQuery &&
           ops[end].kind != OpKind::kFlush) {
      ++end;
    }
    const std::size_t count = end - i;
    while (outstanding + count > 2 * kWindow) TCDP_RETURN_IF_ERROR(read_ack());
    const std::size_t begin = frames.begin_of(i);
    tally->attempted += count;
    outstanding += count;
    const Status sent =
        conn->Send(frames.bytes.data() + begin, frames.ends[end - 1] - begin);
    if (!sent.ok()) {
      for (std::size_t k = 0; k < outstanding; ++k) tally->Fail(sent.ToString());
      return sent;
    }
    i = end;
  }
  TCDP_RETURN_IF_ERROR(drain());
  if (flush_at_end) {
    std::string flush;
    tcdp::net::AppendFrame(&flush, MsgType::kFlush, "");
    TCDP_RETURN_IF_ERROR(round_trip(flush.data(), flush.size(),
                                    Op{OpKind::kFlush, 0, 0.0}));
  }
  result->seconds = SecondsSince(phase_start);
  return Status::OK();
}

}  // namespace perfbench
