#include "serve/client.hpp"

#include <errno.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>

#include "serve/protocol.hpp"
#include "support/error.hpp"

namespace plin::serve {

Client::Client(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  PLIN_CHECK_MSG(socket_path.size() < sizeof(addr.sun_path),
                 "serve: socket path too long for AF_UNIX");
  std::strncpy(addr.sun_path, socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) throw IoError("serve client: socket() failed");
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw IoError("serve client: connect(" + socket_path +
                  ") failed: " + std::strerror(errno));
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

std::string Client::read_line() {
  for (;;) {
    const std::size_t newline = inbuf_.find('\n');
    if (newline != std::string::npos) {
      std::string line = inbuf_.substr(0, newline);
      inbuf_.erase(0, newline + 1);
      return line;
    }
    char buffer[4096];
    const ssize_t n = ::read(fd_, buffer, sizeof(buffer));
    if (n > 0) {
      inbuf_.append(buffer, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throw IoError("serve client: connection closed mid-response");
  }
}

json::Value Client::request(const json::Value& body) {
  std::string line = json::serialize(body);
  line += '\n';
  std::size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n = ::write(fd_, line.data() + sent, line.size() - sent);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throw IoError("serve client: write failed");
  }
  return json::parse(read_line());
}

json::Value Client::ping() {
  json::Value body = json::make_object();
  body.set("op", "ping");
  return request(body);
}

json::Value Client::submit(const batch::JobSpec& spec,
                           const std::string& tenant, bool wait,
                           const std::string& tag) {
  json::Value body = json::make_object();
  body.set("op", "submit");
  body.set("tenant", tenant);
  if (wait) body.set("wait", true);
  if (!tag.empty()) body.set("tag", tag);
  body.set("spec", batch::spec_to_json(spec));
  return request(body);
}

json::Value Client::wait_key(const std::string& key) {
  json::Value body = json::make_object();
  body.set("op", "wait");
  body.set("key", key);
  return request(body);
}

json::Value Client::stats() {
  json::Value body = json::make_object();
  body.set("op", "stats");
  return request(body);
}

json::Value Client::drain() {
  json::Value body = json::make_object();
  body.set("op", "drain");
  return request(body);
}

}  // namespace plin::serve
