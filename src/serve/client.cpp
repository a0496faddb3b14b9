#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#include "report/json.hpp"

namespace adc {
namespace serve {

namespace {

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

ServeClient::~ServeClient() { close(); }

ServeClient::ServeClient(ServeClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      max_frame_bytes_(other.max_frame_bytes_) {}

ServeClient& ServeClient::operator=(ServeClient&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    max_frame_bytes_ = other.max_frame_bytes_;
  }
  return *this;
}

void ServeClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

ServeClient ServeClient::connect_unix(const std::string& path,
                                      std::uint32_t max_frame_bytes) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("serve: unix socket path too long: " + path);
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0)
    throw std::runtime_error("serve: socket(AF_UNIX) failed: " +
                             std::string(std::strerror(errno)));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int err = errno;
    ::close(fd);
    throw std::runtime_error("serve: cannot connect to " + path + ": " +
                             std::strerror(err));
  }
  return ServeClient(fd, max_frame_bytes);
}

ServeClient ServeClient::connect_tcp(const std::string& host, int port,
                                     std::uint32_t max_frame_bytes) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    throw std::runtime_error("serve: bad host '" + host + "'");
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0)
    throw std::runtime_error("serve: socket(AF_INET) failed: " +
                             std::string(std::strerror(errno)));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int err = errno;
    ::close(fd);
    throw std::runtime_error("serve: cannot connect to " + host + ":" +
                             std::to_string(port) + ": " + std::strerror(err));
  }
  return ServeClient(fd, max_frame_bytes);
}

JsonValue ServeClient::request(const std::string& payload) {
  if (fd_ < 0) throw std::runtime_error("serve: client not connected");
  if (!send_all(fd_, encode_frame(payload, max_frame_bytes_)))
    throw std::runtime_error("serve: send failed: " +
                             std::string(std::strerror(errno)));
  FrameReader reader(max_frame_bytes_);
  char buf[64 * 1024];
  std::string reply;
  while (!reader.next(reply)) {
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0)
      throw std::runtime_error("serve: connection closed mid-reply");
    reader.feed(buf, static_cast<std::size_t>(n));
  }
  return parse_json(reply);
}

std::uint64_t ServeClient::submit(const std::string& payload, int max_attempts) {
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    JsonValue reply = request(payload);
    if (const JsonValue* ok = reply.find("ok"); ok && ok->is_bool() && ok->boolean) {
      const JsonValue* id = reply.find("id");
      std::optional<std::uint64_t> n =
          id ? json_integer<std::uint64_t>(*id) : std::nullopt;
      if (!n) throw std::runtime_error("serve: submit reply missing id");
      return *n;
    }
    const JsonValue* code = reply.find("code");
    if (!code || !code->is_string() || code->string != "busy") {
      const JsonValue* err = reply.find("error");
      throw std::runtime_error("serve: submit rejected: " +
                               (err && err->is_string() ? err->string
                                                        : std::string("?")));
    }
    std::uint64_t pause_ms = 50;
    if (const JsonValue* ra = reply.find("retry_after_ms"))
      pause_ms = json_integer<std::uint64_t>(*ra).value_or(pause_ms);
    if (pause_ms > 250) pause_ms = 250;  // bounded so saturation tests finish
    std::this_thread::sleep_for(std::chrono::milliseconds(pause_ms));
  }
  throw std::runtime_error("serve: submit still rejected after retries");
}

JsonValue ServeClient::wait_result(std::uint64_t id) {
  JsonWriter w;
  w.begin_object();
  w.kv("op", "result");
  w.kv("id", id);
  w.kv("wait", true);
  w.end_object();
  JsonValue reply = request(w.str());
  const JsonValue* ok = reply.find("ok");
  if (!ok || !ok->is_bool() || !ok->boolean) {
    const JsonValue* err = reply.find("error");
    throw std::runtime_error("serve: result failed: " +
                             (err && err->is_string() ? err->string
                                                      : std::string("?")));
  }
  const JsonValue* point = reply.find("point");
  if (!point || !point->is_object())
    throw std::runtime_error("serve: result reply missing point");
  return *point;
}

}  // namespace serve
}  // namespace adc
