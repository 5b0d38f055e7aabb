// Deployment-mode harness: fork/exec real mds_daemon processes so a
// client can kill -9 them between 2PC phases.
//
// DaemonProcess runs one mds_daemon on an ephemeral port. The child binds
// port 0, and the parent parses the actual port from the
// "listening on 127.0.0.1:<port>" line on the child's stdout, so
// concurrent harnesses never collide. Kill9() delivers exactly the fault
// the crash matrix is about: SIGKILL, no flush, no goodbye. Start() on the
// same data dir afterwards is the recovery under test.
//
// The txn_chaos tool drives TxnDriver through it, with DaemonClient::Call
// as the transport and !running() as confirmed death. The daemon-mode
// gtest (TxnDaemonTest) does not link this library; it execs txn_chaos.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>

#include "common/lookup_outcome.hpp"
#include "common/status.hpp"

namespace ghba {

/// One mds_daemon child process.
class DaemonProcess {
 public:
  struct Options {
    std::string binary;     ///< path to the mds_daemon executable
    MdsId id = 0;
    std::string data_dir;   ///< empty: volatile (no WAL, no recovery)
    std::string fsync = "always";
    std::uint64_t expected_files = 10000;
    /// How long Start() waits for the child's listening line.
    std::uint32_t start_timeout_ms = 10000;
  };

  DaemonProcess() = default;
  explicit DaemonProcess(Options options) : options_(std::move(options)) {}
  ~DaemonProcess();
  DaemonProcess(DaemonProcess&&) noexcept;
  DaemonProcess& operator=(DaemonProcess&&) noexcept;
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  /// Fork/exec the daemon and wait until it reports its port. Restart after
  /// a Kill9() is the same call: same data dir, fresh (ephemeral) port.
  Status Start();

  /// SIGKILL + reap: the machine-failure fault. No-op if not running.
  void Kill9();

  /// SIGTERM + reap: a graceful stop for teardown. No-op if not running.
  void Terminate();

  bool running() const { return pid_ > 0; }
  pid_t pid() const { return pid_; }
  /// The port the CURRENT incarnation listens on (changes across Start()s).
  std::uint16_t port() const { return port_; }
  const Options& options() const { return options_; }

 private:
  void Reap();

  Options options_;
  pid_t pid_ = -1;
  int stdout_fd_ = -1;  ///< read end of the child's stdout pipe
  std::uint16_t port_ = 0;
};

}  // namespace ghba
