// perfbench/src/daemon.hpp
//
// The expmk_serve daemon as a child process, and a loopback TCP client
// speaking its length-prefixed frames.

#pragma once

#include <sys/types.h>

#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"
#include "util/framing.hpp"

namespace perfbench {

/// One client connection (TCP_NODELAY; blocking I/O). With `quick_ack`
/// the client acknowledges every response at once (TCP_QUICKACK) instead
/// of waiting to piggyback the ACK on its next request.
class Connection {
 public:
  explicit Connection(int port, bool quick_ack = false);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Writes every byte; throws on a transport error.
  void send_all(std::string_view bytes);
  /// Frames `payload` and waits for the next response frame.
  std::string request(std::string_view payload);
  /// Blocks until one frame arrives or `timeout_ms` passes; returns false
  /// on timeout or a closed stream.
  bool read_frame(std::string& payload, int timeout_ms);

 private:
  void quick_ack_now();

  int fd_ = -1;
  bool quick_ack_ = false;
  expmk::util::FrameDecoder decoder_;
};

/// expmk_serve as a child process. The constructor returns once the
/// daemon printed its port and accepts a connection; the destructor kills
/// a daemon that was not stopped and always reaps it.
class Daemon {
 public:
  Daemon(const std::string& bin, const std::vector<std::string>& args);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] int port() const noexcept { return port_; }
  [[nodiscard]] pid_t pid() const noexcept { return pid_; }

  /// Sends a protocol shutdown frame and waits for the process to exit.
  /// Returns true when it exited with status 0.
  bool stop();

 private:
  void reap(bool kill_first);

  pid_t pid_ = -1;
  int out_fd_ = -1;  // read end of the daemon's stdout
  int port_ = 0;
  bool reaped_ = false;
  int status_ = 0;
};

}  // namespace perfbench
