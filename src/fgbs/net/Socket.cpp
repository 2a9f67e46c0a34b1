//===- fgbs/net/Socket.cpp - RAII TCP sockets with deadlines --------------===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "fgbs/net/Socket.h"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace fgbs::net;

namespace {

std::uint64_t nowMs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Milliseconds left before \p Deadline (at least 0).
int remainingMs(std::uint64_t Deadline) {
  std::uint64_t Now = nowMs();
  if (Now >= Deadline)
    return 0;
  std::uint64_t Left = Deadline - Now;
  return Left > 1u << 30 ? 1 << 30 : static_cast<int>(Left);
}

bool setNonBlocking(int Fd, bool NonBlocking) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  if (Flags < 0)
    return false;
  Flags = NonBlocking ? (Flags | O_NONBLOCK) : (Flags & ~O_NONBLOCK);
  return ::fcntl(Fd, F_SETFL, Flags) == 0;
}

void setNoDelay(int Fd) {
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
}

/// Waits for \p Events on \p Fd until \p Deadline.  1 ready, 0 timeout,
/// -1 error.
int pollUntil(int Fd, short Events, std::uint64_t Deadline) {
  for (;;) {
    struct pollfd P = {Fd, Events, 0};
    int R = ::poll(&P, 1, remainingMs(Deadline));
    if (R > 0)
      return 1;
    if (R == 0)
      return 0;
    if (errno != EINTR)
      return -1;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Socket
//===----------------------------------------------------------------------===//

Socket::Socket(int Fd) : Fd(Fd) {}

Socket::~Socket() { close(); }

Socket::Socket(Socket &&Other) noexcept : Fd(Other.Fd) { Other.Fd = -1; }

Socket &Socket::operator=(Socket &&Other) noexcept {
  if (this != &Other) {
    close();
    Fd = Other.Fd;
    Other.Fd = -1;
  }
  return *this;
}

void Socket::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

Socket Socket::connectTo(const std::string &Host, std::uint16_t Port,
                         std::uint64_t TimeoutMs, std::string *Error) {
  const std::uint64_t Deadline = nowMs() + TimeoutMs;
  struct addrinfo Hints;
  std::memset(&Hints, 0, sizeof(Hints));
  Hints.ai_family = AF_UNSPEC;
  Hints.ai_socktype = SOCK_STREAM;
  struct addrinfo *Addrs = nullptr;
  const std::string PortText = std::to_string(Port);
  int Rc = ::getaddrinfo(Host.c_str(), PortText.c_str(), &Hints, &Addrs);
  if (Rc != 0) {
    if (Error)
      *Error = "cannot resolve '" + Host + "': " + ::gai_strerror(Rc);
    return Socket();
  }

  std::string LastError = "no usable address for '" + Host + "'";
  for (struct addrinfo *A = Addrs; A; A = A->ai_next) {
    int Fd = ::socket(A->ai_family, A->ai_socktype, A->ai_protocol);
    if (Fd < 0) {
      LastError = std::string("socket: ") + std::strerror(errno);
      continue;
    }
    // Non-blocking connect so the deadline holds even against a
    // blackholed address (a blocking connect can take minutes).
    if (!setNonBlocking(Fd, true)) {
      LastError = std::string("fcntl: ") + std::strerror(errno);
      ::close(Fd);
      continue;
    }
    if (::connect(Fd, A->ai_addr, A->ai_addrlen) != 0) {
      if (errno != EINPROGRESS) {
        LastError = std::string("connect: ") + std::strerror(errno);
        ::close(Fd);
        continue;
      }
      int Ready = pollUntil(Fd, POLLOUT, Deadline);
      int SoError = 0;
      socklen_t Len = sizeof(SoError);
      if (Ready <= 0 ||
          ::getsockopt(Fd, SOL_SOCKET, SO_ERROR, &SoError, &Len) != 0 ||
          SoError != 0) {
        LastError = Ready == 0 ? "connect timed out"
                               : std::string("connect: ") +
                                     std::strerror(SoError ? SoError : errno);
        ::close(Fd);
        continue;
      }
    }
    setNonBlocking(Fd, false);
    setNoDelay(Fd);
    ::freeaddrinfo(Addrs);
    return Socket(Fd);
  }
  ::freeaddrinfo(Addrs);
  if (Error)
    *Error = LastError;
  return Socket();
}

bool Socket::sendAll(const void *Data, std::size_t Size,
                     std::uint64_t TimeoutMs) {
  if (Fd < 0)
    return false;
  const std::uint64_t Deadline = nowMs() + TimeoutMs;
  const char *P = static_cast<const char *>(Data);
  while (Size > 0) {
    if (pollUntil(Fd, POLLOUT, Deadline) != 1)
      return false;
    ssize_t N = ::send(Fd, P, Size, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
        continue;
      return false;
    }
    P += N;
    Size -= static_cast<std::size_t>(N);
  }
  return true;
}

RecvStatus Socket::recvAll(void *Data, std::size_t Size,
                           std::uint64_t TimeoutMs) {
  if (Fd < 0)
    return RecvStatus::Error;
  const std::uint64_t Deadline = nowMs() + TimeoutMs;
  char *P = static_cast<char *>(Data);
  std::size_t Got = 0;
  while (Got < Size) {
    if (pollUntil(Fd, POLLIN, Deadline) != 1)
      return RecvStatus::Timeout;
    ssize_t N = ::recv(Fd, P + Got, Size - Got, 0);
    if (N == 0)
      return Got == 0 ? RecvStatus::Eof : RecvStatus::Error;
    if (N < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
        continue;
      return RecvStatus::Error;
    }
    Got += static_cast<std::size_t>(N);
  }
  return RecvStatus::Ok;
}

bool Socket::waitReadable(std::uint64_t TimeoutMs) {
  return Fd >= 0 && pollUntil(Fd, POLLIN, nowMs() + TimeoutMs) == 1;
}

//===----------------------------------------------------------------------===//
// Listener
//===----------------------------------------------------------------------===//

Listener::~Listener() { close(); }

Listener::Listener(Listener &&Other) noexcept
    : Fd(Other.Fd), BoundPort(Other.BoundPort) {
  Other.Fd = -1;
  Other.BoundPort = 0;
}

Listener &Listener::operator=(Listener &&Other) noexcept {
  if (this != &Other) {
    close();
    Fd = Other.Fd;
    BoundPort = Other.BoundPort;
    Other.Fd = -1;
    Other.BoundPort = 0;
  }
  return *this;
}

void Listener::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

void Listener::shutdown() {
  if (Fd >= 0)
    ::shutdown(Fd, SHUT_RDWR);
}

bool Listener::listenOn(const std::string &BindAddr, std::uint16_t Port,
                        int Backlog, std::string *Error) {
  close();
  // Non-blocking: several accept loops may wake for one connection, and
  // the losers must get EAGAIN and return to their stop-flag poll rather
  // than block in accept() until some later client arrives.
  int NewFd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (NewFd < 0) {
    if (Error)
      *Error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  int One = 1;
  ::setsockopt(NewFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));

  struct sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  if (BindAddr.empty()) {
    Addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (::inet_pton(AF_INET, BindAddr.c_str(), &Addr.sin_addr) != 1) {
    if (Error)
      *Error = "invalid bind address '" + BindAddr + "'";
    ::close(NewFd);
    return false;
  }
  if (::bind(NewFd, reinterpret_cast<struct sockaddr *>(&Addr),
             sizeof(Addr)) != 0 ||
      ::listen(NewFd, Backlog) != 0) {
    if (Error)
      *Error = std::string("bind/listen: ") + std::strerror(errno);
    ::close(NewFd);
    return false;
  }

  socklen_t Len = sizeof(Addr);
  if (::getsockname(NewFd, reinterpret_cast<struct sockaddr *>(&Addr),
                    &Len) != 0) {
    if (Error)
      *Error = std::string("getsockname: ") + std::strerror(errno);
    ::close(NewFd);
    return false;
  }
  Fd = NewFd;
  BoundPort = ntohs(Addr.sin_port);
  return true;
}

Socket Listener::acceptOnce(std::uint64_t TimeoutMs) {
  if (Fd < 0)
    return Socket();
  if (pollUntil(Fd, POLLIN, nowMs() + TimeoutMs) != 1)
    return Socket();
  int Conn = ::accept(Fd, nullptr, nullptr);
  if (Conn < 0)
    return Socket();
  setNoDelay(Conn);
  int One = 1;
  ::setsockopt(Conn, SOL_SOCKET, SO_KEEPALIVE, &One, sizeof(One));
  return Socket(Conn);
}

//===----------------------------------------------------------------------===//
// Address parsing
//===----------------------------------------------------------------------===//

bool fgbs::net::parseHostPort(const std::string &Spec, std::string &HostOut,
                              std::uint16_t &PortOut) {
  std::size_t Colon = Spec.rfind(':');
  if (Colon == std::string::npos || Colon == 0 || Colon + 1 == Spec.size())
    return false;
  unsigned long Port = 0;
  for (std::size_t I = Colon + 1; I < Spec.size(); ++I) {
    char C = Spec[I];
    if (C < '0' || C > '9')
      return false;
    Port = Port * 10 + static_cast<unsigned long>(C - '0');
    if (Port > 65535)
      return false;
  }
  if (Port == 0)
    return false;
  HostOut = Spec.substr(0, Colon);
  PortOut = static_cast<std::uint16_t>(Port);
  return true;
}
