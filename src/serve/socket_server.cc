#include "serve/socket_server.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/log.hh"

namespace menda::serve
{

namespace json = obs::json;

namespace
{

void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

[[noreturn]] void
sysFail(const std::string &what)
{
    throw std::runtime_error(what + ": " + std::strerror(errno));
}

} // namespace

SocketServer::SocketServer(ServeCore &core, const ServerOptions &options)
    : core_(core), options_(options)
{
    if (!options_.unixPath.empty()) {
        listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listenFd_ < 0)
            sysFail("socket(AF_UNIX)");
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (options_.unixPath.size() >= sizeof(addr.sun_path)) {
            ::close(listenFd_);
            listenFd_ = -1;
            throw std::runtime_error("unix socket path too long: " +
                                     options_.unixPath);
        }
        std::strncpy(addr.sun_path, options_.unixPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        ::unlink(options_.unixPath.c_str());
        if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) < 0) {
            ::close(listenFd_);
            listenFd_ = -1;
            sysFail("bind(" + options_.unixPath + ")");
        }
        endpoint_ = "unix:" + options_.unixPath;
    } else {
        listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listenFd_ < 0)
            sysFail("socket(AF_INET)");
        const int one = 1;
        ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port =
            htons(static_cast<std::uint16_t>(options_.port));
        if (::inet_pton(AF_INET, options_.host.c_str(),
                        &addr.sin_addr) != 1) {
            ::close(listenFd_);
            listenFd_ = -1;
            throw std::runtime_error("bad listen host: " +
                                     options_.host);
        }
        if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) < 0) {
            ::close(listenFd_);
            listenFd_ = -1;
            sysFail("bind(" + options_.host + ")");
        }
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        ::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&bound),
                      &len);
        port_ = ntohs(bound.sin_port);
        endpoint_ =
            "tcp:" + options_.host + ":" + std::to_string(port_);
    }
    if (::listen(listenFd_, 64) < 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        sysFail("listen");
    }
    setNonBlocking(listenFd_);
}

SocketServer::~SocketServer()
{
    for (auto &conn : conns_)
        if (conn->fd >= 0)
            ::close(conn->fd);
    if (listenFd_ >= 0)
        ::close(listenFd_);
    if (!options_.unixPath.empty())
        ::unlink(options_.unixPath.c_str());
}

bool
SocketServer::shouldStop() const
{
    if (!core_.shutdownRequested() || !core_.idle())
        return false;
    for (const auto &conn : conns_)
        if (!conn->outbuf.empty())
            return false;
    return true;
}

void
SocketServer::run()
{
    while (!shouldStop())
        iterate(core_.idle() ? 50 : 0);
}

void
SocketServer::iterate(int timeout_ms)
{
    std::vector<pollfd> fds;
    fds.push_back({listenFd_, POLLIN, 0});
    for (const auto &conn : conns_) {
        short events = POLLIN;
        if (!conn->outbuf.empty())
            events |= POLLOUT;
        fds.push_back({conn->fd, events, 0});
    }
    const int ready = ::poll(fds.data(),
                             static_cast<nfds_t>(fds.size()),
                             timeout_ms);
    if (ready > 0) {
        // fds[i + 1] pairs with conns_[i] for the connections polled
        // above; acceptPending() appends ones that were not, so they
        // wait for the next round.
        const std::size_t polled = conns_.size();
        if (fds[0].revents & POLLIN)
            acceptPending();
        for (std::size_t i = 0; i < polled; ++i) {
            Conn &conn = *conns_[i];
            if (fds[i + 1].revents & (POLLIN | POLLHUP | POLLERR))
                readConn(conn);
            if (conn.fd >= 0 && (fds[i + 1].revents & POLLOUT))
                flushConn(conn);
        }
    }
    if (!core_.idle())
        core_.pump();
    deliverFinished();
    reapConns();
}

void
SocketServer::acceptPending()
{
    for (;;) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            return;
        setNonBlocking(fd);
        auto conn = std::make_unique<Conn>();
        conn->fd = fd;
        conn->owner = nextOwner_++;
        conn->reader = FrameReader(options_.maxFrameBytes);
        conns_.push_back(std::move(conn));
    }
}

void
SocketServer::readConn(Conn &conn)
{
    char buf[16384];
    bool peer_gone = false;
    for (;;) {
        const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
        if (n > 0) {
            conn.reader.feed(buf, static_cast<std::size_t>(n));
            continue;
        }
        // EOF or a hard error means the peer is gone.
        peer_gone = !(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
        break;
    }
    for (;;) {
        std::string payload, error;
        const FrameReader::Status status =
            conn.reader.next(&payload, &error);
        if (status == FrameReader::Status::NeedMore)
            break;
        if (status == FrameReader::Status::Error) {
            // Framing is unrecoverable: answer once, then close after
            // the error response drains. The offending length rides in
            // the payload so the client can tell an oversized request
            // from a corrupted prefix.
            json::Object detail;
            detail["frameLength"] = json::Value(
                std::uint64_t(conn.reader.badFrameLength()));
            detail["maxFrameBytes"] = json::Value(
                std::uint64_t(conn.reader.maxFrameBytes()));
            conn.outbuf += encodeFrame(
                errorResponse("badFrame", error, std::move(detail))
                    .serialize());
            conn.closing = true;
            break;
        }
        handlePayload(conn, payload);
        if (conn.fd < 0 || conn.closing)
            break;
    }
    if (peer_gone && conn.fd >= 0) {
        // Requests that arrived with the hang-up were handled above;
        // now cancel every job the peer owns.
        core_.cancelOwner(conn.owner);
        ::close(conn.fd);
        conn.fd = -1;
    }
    if (conn.fd >= 0)
        flushConn(conn);
}

void
SocketServer::handlePayload(Conn &conn, const std::string &payload)
{
    json::Value request;
    try {
        request = json::parse(payload);
    } catch (const std::exception &e) {
        conn.outbuf += encodeFrame(
            errorResponse("badJson", e.what()).serialize());
        return;
    }

    const bool wait = request.isObject() && request.has("wait") &&
                      request.at("wait").isBool() &&
                      request.at("wait").asBool();
    const json::Value response = core_.handle(request, conn.owner);

    if (wait && response.isObject() && response.has("type") &&
        response.at("type").asString() == "submitted") {
        // Response deferred until the job is terminal; remember who is
        // waiting. deliverFinished() sends the jobStatus.
        const auto id = static_cast<std::uint64_t>(
            response.at("id").asNumber());
        waiters_[id] = conn.owner;
        return;
    }
    conn.outbuf += encodeFrame(response.serialize());
}

void
SocketServer::flushConn(Conn &conn)
{
    while (!conn.outbuf.empty()) {
        const ssize_t n =
            ::write(conn.fd, conn.outbuf.data(), conn.outbuf.size());
        if (n > 0) {
            conn.outbuf.erase(0, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return;
        core_.cancelOwner(conn.owner);
        ::close(conn.fd);
        conn.fd = -1;
        return;
    }
    if (conn.closing) {
        ::close(conn.fd);
        conn.fd = -1;
    }
}

void
SocketServer::deliverFinished()
{
    for (std::uint64_t id : core_.drainFinished()) {
        const auto it = waiters_.find(id);
        if (it == waiters_.end())
            continue;
        const std::uint64_t owner = it->second;
        waiters_.erase(it);
        for (auto &conn : conns_) {
            if (conn->owner != owner || conn->fd < 0)
                continue;
            conn->outbuf +=
                encodeFrame(core_.jobResponse(id).serialize());
            flushConn(*conn);
            break;
        }
    }
}

void
SocketServer::reapConns()
{
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [](const std::unique_ptr<Conn> &c) {
                                    return c->fd < 0;
                                }),
                 conns_.end());
}

// --- Client ---

Client
Client::connectUnix(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        sysFail("socket(AF_UNIX)");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        ::close(fd);
        throw std::runtime_error("unix socket path too long: " + path);
    }
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        ::close(fd);
        sysFail("connect(" + path + ")");
    }
    return Client(fd);
}

Client
Client::connectTcp(const std::string &host, int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        sysFail("socket(AF_INET)");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        throw std::runtime_error("bad host: " + host);
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        ::close(fd);
        sysFail("connect(" + host + ":" + std::to_string(port) + ")");
    }
    return Client(fd);
}

Client::~Client()
{
    closeNow();
}

Client::Client(Client &&other) noexcept
    : fd_(other.fd_), reader_(std::move(other.reader_))
{
    other.fd_ = -1;
}

Client &
Client::operator=(Client &&other) noexcept
{
    if (this != &other) {
        closeNow();
        fd_ = other.fd_;
        reader_ = std::move(other.reader_);
        other.fd_ = -1;
    }
    return *this;
}

void
Client::closeNow()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void
Client::sendRaw(const std::string &bytes)
{
    menda_assert(fd_ >= 0, "client not connected");
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n =
            ::write(fd_, bytes.data() + off, bytes.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            sysFail("write");
        }
        off += static_cast<std::size_t>(n);
    }
}

void
Client::send(const json::Value &request)
{
    sendRaw(encodeFrame(request.serialize()));
}

json::Value
Client::recv()
{
    menda_assert(fd_ >= 0, "client not connected");
    for (;;) {
        std::string payload, error;
        const FrameReader::Status status =
            reader_.next(&payload, &error);
        if (status == FrameReader::Status::Frame)
            return json::parse(payload);
        if (status == FrameReader::Status::Error)
            throw std::runtime_error("protocol error: " + error);
        char buf[16384];
        const ssize_t n = ::read(fd_, buf, sizeof(buf));
        if (n == 0)
            throw std::runtime_error(
                "connection closed by menda_serve");
        if (n < 0) {
            if (errno == EINTR)
                continue;
            sysFail("read");
        }
        reader_.feed(buf, static_cast<std::size_t>(n));
    }
}

json::Value
Client::call(const json::Value &request)
{
    send(request);
    return recv();
}

} // namespace menda::serve
