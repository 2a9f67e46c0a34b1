//===- fgbs/net/Socket.h - RAII TCP sockets with deadlines -----*- C++ -*-===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Thin RAII wrappers over POSIX stream sockets — the transport under
/// the fgbs.cachewire.v1 frame protocol (net/Framing) and therefore
/// under the remote measurement-cache tier.
///
/// Design rules:
///  - Every blocking operation takes an explicit millisecond deadline
///    and is implemented as poll(2) + a non-blocking syscall, so a dead
///    peer or a stalled network can never wedge a training run; the
///    caller always gets a typed Timeout back within its budget.
///  - Sends use MSG_NOSIGNAL: a peer that vanished mid-write surfaces
///    as an error return, never as SIGPIPE killing the process.
///  - Sockets are move-only fd owners; copying a live fd is a bug the
///    type system rules out.
///
/// Only the client and server of the cache wire protocol use this
/// layer; it depends on nothing above support/.
///
//===----------------------------------------------------------------------===//

#ifndef FGBS_NET_SOCKET_H
#define FGBS_NET_SOCKET_H

#include <cstdint>
#include <string>

namespace fgbs {
namespace net {

/// How a bounded receive ended.
enum class RecvStatus {
  Ok,      ///< Every requested byte arrived.
  Eof,     ///< Orderly shutdown before the FIRST requested byte.
  Timeout, ///< The deadline passed mid-transfer.
  Error,   ///< Socket error, or EOF after a partial transfer.
};

/// A connected stream socket (one end of a TCP connection).
class Socket {
public:
  Socket() = default;
  /// Adopts \p Fd (already connected; ownership transfers).
  explicit Socket(int Fd);
  ~Socket();

  Socket(Socket &&Other) noexcept;
  Socket &operator=(Socket &&Other) noexcept;
  Socket(const Socket &) = delete;
  Socket &operator=(const Socket &) = delete;

  bool valid() const { return Fd >= 0; }
  void close();

  /// Connects to \p Host:\p Port (numeric address or name, resolved via
  /// getaddrinfo) within \p TimeoutMs.  Returns an invalid socket and
  /// fills \p Error on failure.  The returned socket has TCP_NODELAY
  /// set: cache frames are request/response, so latency beats batching.
  static Socket connectTo(const std::string &Host, std::uint16_t Port,
                          std::uint64_t TimeoutMs, std::string *Error);

  /// Writes all \p Size bytes within \p TimeoutMs.
  bool sendAll(const void *Data, std::size_t Size, std::uint64_t TimeoutMs);

  /// Reads exactly \p Size bytes within \p TimeoutMs.  Eof is reported
  /// only at a clean boundary (zero bytes read so far); a connection
  /// that dies mid-buffer is Error.
  RecvStatus recvAll(void *Data, std::size_t Size, std::uint64_t TimeoutMs);

  /// Waits up to \p TimeoutMs for the socket to become readable: bytes
  /// arrived, or the peer closed or failed (a read then reports it).
  /// False when the deadline passed first.  The server waits this way
  /// for a request to start; a client checks a pooled connection with
  /// a zero timeout before reusing it.
  bool waitReadable(std::uint64_t TimeoutMs);

private:
  int Fd = -1;
};

/// A listening TCP socket handing out accepted connections.
class Listener {
public:
  Listener() = default;
  ~Listener();

  Listener(Listener &&Other) noexcept;
  Listener &operator=(Listener &&Other) noexcept;
  Listener(const Listener &) = delete;
  Listener &operator=(const Listener &) = delete;

  /// Binds \p BindAddr:\p Port (IPv4 dotted quad; empty = all
  /// interfaces; \p Port 0 = kernel-chosen ephemeral port, read it back
  /// via port()) and listens.  SO_REUSEADDR is set so a restarted
  /// daemon rebinds without waiting out TIME_WAIT.
  bool listenOn(const std::string &BindAddr, std::uint16_t Port, int Backlog,
                std::string *Error);

  bool valid() const { return Fd >= 0; }
  /// The locally bound port (resolves 0 to the kernel's choice).
  std::uint16_t port() const { return BoundPort; }
  void close();
  /// Stops listening but keeps the descriptor: every acceptOnce()
  /// waiting on it, on any thread, returns at once, as does every later
  /// one.  close() still releases it.
  void shutdown();

  /// Waits up to \p TimeoutMs for one connection; an invalid Socket
  /// means the deadline passed (the server's stop-flag poll interval),
  /// shutdown() ran or another thread took it.  Safe to call from several
  /// threads on one listener — the kernel hands each connection to
  /// exactly one accept, and the listener is non-blocking, so a loser
  /// of that race returns at once.
  Socket acceptOnce(std::uint64_t TimeoutMs);

private:
  int Fd = -1;
  std::uint16_t BoundPort = 0;
};

/// Splits "host:port" (the --cache-remote / FGBS_MEAS_CACHE_REMOTE
/// syntax).  False when the port is missing, non-numeric, or out of
/// range; the host may be a name or a numeric address.
bool parseHostPort(const std::string &Spec, std::string &HostOut,
                   std::uint16_t &PortOut);

} // namespace net
} // namespace fgbs

#endif // FGBS_NET_SOCKET_H
