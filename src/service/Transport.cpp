//===- Transport.cpp - Stream transports for the build daemon -------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "service/Transport.h"

#include "support/StringUtils.h"

#include <cerrno>
#include <cstring>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

using namespace ipra;

std::string Endpoint::str() const {
  if (K == Kind::Unix)
    return Path;
  return (Host.empty() ? std::string("*") : Host) + ":" +
         std::to_string(Port);
}

bool ipra::parseEndpoint(const std::string &Spec, Endpoint &Out,
                         std::string &Error) {
  size_t Colon = Spec.rfind(':');
  bool LooksTcp = Colon != std::string::npos &&
                  Spec.find('/') == std::string::npos &&
                  Colon + 1 < Spec.size();
  if (LooksTcp)
    for (size_t I = Colon + 1; I < Spec.size(); ++I)
      if (Spec[I] < '0' || Spec[I] > '9') {
        LooksTcp = false;
        break;
      }
  if (!LooksTcp) {
    if (Spec.empty()) {
      Error = "empty endpoint";
      return false;
    }
    Out = Endpoint::unixPath(Spec);
    return true;
  }
  int Port = 0;
  if (!parseInt(Spec.substr(Colon + 1), Port) || Port < 1 || Port > 65535) {
    Error = "TCP port must be 1-65535 in '" + Spec + "'";
    return false;
  }
  Out = Endpoint::tcp(Spec.substr(0, Colon), Port);
  return true;
}

namespace {

int listenUnix(const std::string &Path, std::string &Error) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    Error = "socket path too long: " + Path;
    return -1;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  // A stale socket file from a dead daemon would fail the bind; remove
  // it (a live daemon would still hold the file, but two daemons on
  // one path is operator error either way).
  ::unlink(Path.c_str());
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Error = "bind " + Path + ": " + std::strerror(errno);
    ::close(Fd);
    return -1;
  }
  if (::listen(Fd, 64) != 0) {
    Error = "listen " + Path + ": " + std::strerror(errno);
    ::close(Fd);
    return -1;
  }
  return Fd;
}

int connectUnix(const std::string &Path, std::string &Error) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    Error = "socket path too long: " + Path;
    return -1;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    Error = "connect " + Path + ": " + std::strerror(errno);
    ::close(Fd);
    return -1;
  }
  return Fd;
}

/// getaddrinfo over the endpoint's host/port. \p Passive selects
/// AI_PASSIVE (wildcard bind for empty host) vs loopback connect.
addrinfo *resolveTcp(const Endpoint &E, bool Passive, std::string &Error) {
  addrinfo Hints{};
  Hints.ai_family = AF_UNSPEC;
  Hints.ai_socktype = SOCK_STREAM;
  if (Passive)
    Hints.ai_flags = AI_PASSIVE;
  std::string Host = E.Host;
  if (Host == "*")
    Host.clear();
  const char *Node = Host.empty() ? nullptr : Host.c_str();
  std::string PortText = std::to_string(E.Port);
  addrinfo *Res = nullptr;
  int RC = ::getaddrinfo(Node, PortText.c_str(), &Hints, &Res);
  if (RC != 0) {
    Error = "resolve " + E.str() + ": " + ::gai_strerror(RC);
    return nullptr;
  }
  return Res;
}

} // namespace

int ipra::listenOn(const Endpoint &E, std::string &Error) {
  if (!E.isTcp())
    return listenUnix(E.Path, Error);
  addrinfo *Res = resolveTcp(E, /*Passive=*/true, Error);
  if (!Res)
    return -1;
  int Fd = -1;
  for (addrinfo *AI = Res; AI; AI = AI->ai_next) {
    Fd = ::socket(AI->ai_family, AI->ai_socktype, AI->ai_protocol);
    if (Fd < 0)
      continue;
    int One = 1;
    ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    if (::bind(Fd, AI->ai_addr, AI->ai_addrlen) == 0 &&
        ::listen(Fd, 64) == 0)
      break;
    ::close(Fd);
    Fd = -1;
  }
  if (Fd < 0)
    Error = "bind/listen " + E.str() + ": " + std::strerror(errno);
  ::freeaddrinfo(Res);
  return Fd;
}

int ipra::connectTo(const Endpoint &E, std::string &Error) {
  if (!E.isTcp())
    return connectUnix(E.Path, Error);
  Endpoint Target = E;
  if (Target.Host.empty() || Target.Host == "*")
    Target.Host = "127.0.0.1"; // A wildcard listen is dialed via loopback.
  addrinfo *Res = resolveTcp(Target, /*Passive=*/false, Error);
  if (!Res)
    return -1;
  int Fd = -1;
  for (addrinfo *AI = Res; AI; AI = AI->ai_next) {
    Fd = ::socket(AI->ai_family, AI->ai_socktype, AI->ai_protocol);
    if (Fd < 0)
      continue;
    if (::connect(Fd, AI->ai_addr, AI->ai_addrlen) == 0)
      break;
    ::close(Fd);
    Fd = -1;
  }
  if (Fd < 0)
    Error = "connect " + Target.str() + ": " + std::strerror(errno);
  else
    setNoDelay(Fd); // Request/reply framing; Nagle only adds latency.
  ::freeaddrinfo(Res);
  return Fd;
}

int ipra::boundPort(int ListenFd) {
  sockaddr_storage Addr{};
  socklen_t Len = sizeof(Addr);
  if (::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Addr), &Len) !=
      0)
    return 0;
  if (Addr.ss_family == AF_INET)
    return ntohs(reinterpret_cast<sockaddr_in *>(&Addr)->sin_port);
  if (Addr.ss_family == AF_INET6)
    return ntohs(reinterpret_cast<sockaddr_in6 *>(&Addr)->sin6_port);
  return 0;
}

void ipra::setIoDeadline(int Fd, unsigned Seconds) {
  timeval TV{};
  TV.tv_sec = static_cast<time_t>(Seconds);
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &TV, sizeof(TV));
  ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &TV, sizeof(TV));
}

void ipra::setNoDelay(int Fd) {
  int One = 1;
  // Fails with ENOTSUP/ENOPROTOOPT on unix sockets; ignored by design.
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
}
