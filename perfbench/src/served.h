#ifndef PERFBENCH_SERVED_H_
#define PERFBENCH_SERVED_H_

/// \file
/// The served side of the benchmark: a `tcdp serve` child process, one
/// loopback connection to it, and the single-threaded closed-loop
/// generator that drives pre-encoded frames through that connection.

#include <sched.h>
#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/wire.h"
#include "server/sharded_service.h"
#include "workload.h"

namespace perfbench {

/// Operations attempted and failed over a whole run. A kError frame, a
/// transport error and a correctness mismatch each count as a failure.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure reasons

  void Fail(const std::string& why);
};

/// Counts the response to one pipelined mutation: kOk succeeds, any
/// other frame (kError included) fails.
void CountAck(const tcdp::net::Frame& frame, Tally* tally);

class ServerProcess {
 public:
  /// Starts \p binary with \p args, restricted to \p server_cpus when
  /// not null, and blocks until it prints its `listening on` line
  /// (after the `replication stream on` line when it has one). Fails if
  /// the process exits first.
  static tcdp::StatusOr<std::unique_ptr<ServerProcess>> Spawn(
      const std::string& binary, const std::vector<std::string>& args,
      const cpu_set_t* server_cpus);

  /// Kills the process, then reaps it.
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  std::uint16_t port() const { return port_; }
  std::uint16_t repl_port() const { return repl_port_; }

  /// Peak resident set (VmHWM) so far, in MiB.
  tcdp::StatusOr<double> PeakRssMb() const;
  /// User + system CPU time so far, in seconds.
  tcdp::StatusOr<double> CpuSeconds() const;

 private:
  ServerProcess() = default;

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::string pending_;  ///< stdout read past the last consumed line
  std::uint16_t port_ = 0;
  std::uint16_t repl_port_ = 0;

  tcdp::StatusOr<std::string> ReadLine();
};

/// One blocking loopback connection. When traced, it times every
/// recv(), which is where the generator waits for the server.
class Connection {
 public:
  static tcdp::StatusOr<std::unique_ptr<Connection>> Open(std::uint16_t port,
                                                          bool traced);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  tcdp::Status Send(const char* data, std::size_t size);
  /// Next response frame, blocking until one is complete.
  tcdp::StatusOr<tcdp::net::Frame> Next();

  double wait_seconds() const { return wait_seconds_; }

 private:
  Connection(int fd, bool traced) : fd_(fd), traced_(traced) {}

  int fd_;
  bool traced_;
  tcdp::net::FrameDecoder decoder_;
  double wait_seconds_ = 0.0;
};

/// Mutations per generator write; up to two windows are unacknowledged.
/// Large windows keep syscalls and wake-ups per request low, which is
/// what a noisy host makes expensive.
constexpr std::size_t kWindow = 4096;

struct PhaseResult {
  double seconds = 0.0;  ///< first frame sent to the last response
  std::vector<double> query_ms;
  /// Query answers in request order; a failed query leaves no entry.
  std::vector<std::pair<std::uint32_t, tcdp::server::UserReport>> reports;
};

/// Drives \p frames (one per op of \p ops), then a Flush when
/// \p flush_at_end. Mutations are written in
/// kWindow-sized slices with at most two windows unacknowledged; a
/// Query or Flush first waits for every outstanding ack and is then
/// timed alone as one round trip.
tcdp::Status RunFrames(Connection* conn, const EncodedFrames& frames,
                       const std::vector<Op>& ops, bool flush_at_end,
                       Tally* tally, PhaseResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_SERVED_H_
