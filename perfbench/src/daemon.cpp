#include "daemon.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace eu = expmk::util;

Connection::Connection(int port, bool quick_ack) : quick_ack_(quick_ack) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("connect() to the daemon failed");
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

void Connection::send_all(std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      throw std::runtime_error("send() to the daemon failed");
    }
    sent += static_cast<std::size_t>(n);
  }
  // Sending data puts the socket back into delayed-ACK mode; re-arm so
  // the answer to this request is acknowledged as soon as it arrives.
  if (quick_ack_) quick_ack_now();
}

void Connection::quick_ack_now() {
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
}

bool Connection::read_frame(std::string& payload, int timeout_ms) {
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  char buf[64 * 1024];
  for (;;) {
    const auto status = decoder_.next(payload);
    if (status == eu::FrameDecoder::Status::Frame) return true;
    if (status == eu::FrameDecoder::Status::Error) return false;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    if (left <= 0) return false;
    pollfd p{fd_, POLLIN, 0};
    const int ready = ::poll(&p, 1, static_cast<int>(left));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    if (quick_ack_) quick_ack_now();  // the kernel drops it after reads too
    decoder_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
  }
}

std::string Connection::request(std::string_view payload) {
  send_all(eu::encode_frame(payload));
  std::string response;
  if (!read_frame(response, 60'000)) {
    throw std::runtime_error("no response from the daemon");
  }
  return response;
}

// ------------------------------------------------------------------ Daemon

Daemon::Daemon(const std::string& bin, const std::vector<std::string>& args) {
  std::vector<std::string> argv{bin};
  argv.insert(argv.end(), args.begin(), args.end());
  const Child child = spawn_piped(std::move(argv));
  pid_ = child.pid;
  out_fd_ = child.out_fd;

  // Ready = the port line was printed and a connection is accepted.
  std::string text;
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  const std::string marker = "listening on port ";
  while (port_ == 0) {
    if (Clock::now() > deadline) {
      reap(true);
      throw std::runtime_error("daemon did not report a port");
    }
    pollfd p{out_fd_, POLLIN, 0};
    if (::poll(&p, 1, 100) <= 0) continue;
    char buf[256];
    const ssize_t n = ::read(out_fd_, buf, sizeof buf);
    if (n <= 0) {
      reap(true);
      throw std::runtime_error("daemon exited during start-up");
    }
    text.append(buf, static_cast<std::size_t>(n));
    const std::size_t at = text.find(marker);
    const std::size_t eol =
        at == std::string::npos ? at : text.find('\n', at);
    if (eol != std::string::npos) {
      port_ = std::atoi(text.c_str() + at + marker.size());
    }
  }
  for (;;) {
    try {
      const Connection probe(port_);
      break;
    } catch (const std::exception&) {
      if (Clock::now() > deadline) {
        reap(true);
        throw;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

Daemon::~Daemon() { reap(true); }

bool Daemon::stop() {
  if (reaped_) return false;
  try {
    Connection c(port_);
    (void)c.request(R"({"v": 1, "type": "shutdown"})");
  } catch (const std::exception&) {
    reap(true);
    return false;
  }
  // Drain the daemon's stdout so its last line never blocks, then reap.
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  char buf[256];
  while (Clock::now() < deadline) {
    pollfd p{out_fd_, POLLIN, 0};
    if (::poll(&p, 1, 100) <= 0) continue;
    if (::read(out_fd_, buf, sizeof buf) <= 0) break;  // EOF: exited
  }
  reap(Clock::now() >= deadline);
  return WIFEXITED(status_) && WEXITSTATUS(status_) == 0;
}

void Daemon::reap(bool kill_first) {
  if (reaped_) return;
  if (kill_first) ::kill(pid_, SIGKILL);
  while (::waitpid(pid_, &status_, 0) < 0 && errno == EINTR) {
  }
  reaped_ = true;
  if (out_fd_ >= 0) ::close(out_fd_);
  out_fd_ = -1;
}

}  // namespace perfbench
