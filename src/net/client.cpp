// Client implementation (client.hpp). Blocking connect + a reader thread;
// request methods are wait-free against each other except for the short
// send-mutex hold that keeps frames contiguous on the wire.
#include "src/net/client.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace scanprim::net {

namespace {

int connect_to(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("net: client socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("net: bad host address " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string("net: connect failed: ") +
                             std::strerror(err));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

}  // namespace

Client::Client(const std::string& host, std::uint16_t port,
               std::uint32_t tenant)
    : tenant_(tenant), fd_(connect_to(host, port)) {
  reader_ = std::thread([this] { reader_loop(); });
}

Client::Client(const std::string& host, std::uint16_t port,
               std::uint32_t tenant, bool manual)
    : tenant_(tenant), fd_(connect_to(host, port)) {
  if (!manual) reader_ = std::thread([this] { reader_loop(); });
}

Client::~Client() {
  close();
  // Only now is no thread left inside recv()/send() on the descriptor, so
  // its number can go back to the kernel for reuse.
  if (reader_.joinable()) reader_.join();
  ::close(fd_);
}

void Client::close() {
  {
    // Under send_mu_ so a frame is never half-written into a shut socket.
    std::lock_guard<std::mutex> lk(send_mu_);
    if (!closed_.exchange(true, std::memory_order_acq_rel)) {
      ::shutdown(fd_, SHUT_RDWR);  // unblocks the reader's recv()
    }
  }
  fail_all("connection closed");
}

void Client::fail_all(const std::string& why) {
  std::map<std::uint64_t, std::promise<Response>> orphans;
  {
    std::lock_guard<std::mutex> lk(pending_mu_);
    if (failed_) return;
    failed_ = true;
    orphans.swap(pending_);
  }
  for (auto& [id, promise] : orphans) {
    Response r;
    r.status = Status::kError;
    r.request_id = id;
    r.error = why;
    promise.set_value(std::move(r));
  }
}

bool Client::send_raw(const void* data, std::size_t n) {
  std::lock_guard<std::mutex> lk(send_mu_);
  if (closed_.load(std::memory_order_acquire)) return false;
  const char* p = static_cast<const char*>(data);
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::send(fd_, p + off, n - off, MSG_NOSIGNAL);
    if (w > 0) {
      off += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

std::future<Response> Client::dispatch(Request&& r, const RequestOptions& ro) {
  r.request_id = next_id_.fetch_add(1, std::memory_order_relaxed);
  r.tenant = tenant_;
  r.priority = ro.priority;
  r.deadline_ns = ro.deadline_ns;

  std::promise<Response> promise;
  std::future<Response> fut = promise.get_future();
  {
    std::lock_guard<std::mutex> lk(pending_mu_);
    if (failed_) {
      Response dead;
      dead.status = Status::kError;
      dead.request_id = r.request_id;
      dead.error = "connection closed";
      promise.set_value(std::move(dead));
      return fut;
    }
    // Register BEFORE sending: the response can race back before the send
    // call even returns.
    pending_.emplace(r.request_id, std::move(promise));
  }

  std::string frame;
  encode_request(frame, r);
  if (!send_raw(frame.data(), frame.size())) {
    // Pull the promise back out (the reader may have resolved it already).
    std::promise<Response> orphan;
    bool mine = false;
    {
      std::lock_guard<std::mutex> lk(pending_mu_);
      auto it = pending_.find(r.request_id);
      if (it != pending_.end()) {
        orphan = std::move(it->second);
        pending_.erase(it);
        mine = true;
      }
    }
    if (mine) {
      Response dead;
      dead.status = Status::kError;
      dead.request_id = r.request_id;
      dead.error = "connection closed";
      orphan.set_value(std::move(dead));
    }
  }
  return fut;
}

std::future<Response> Client::scan(std::vector<Value> data, ScanOp op,
                                   bool inclusive, bool backward,
                                   std::vector<std::uint8_t> segment_flags,
                                   RequestOptions ro) {
  Request r;
  r.op = Op::kScan;
  r.scan_op = op;
  if (inclusive) r.flags |= kFlagInclusive;
  if (backward) r.flags |= kFlagBackward;
  if (!segment_flags.empty()) r.flags |= kFlagSegmented;
  r.data = std::move(data);
  r.byte_flags = std::move(segment_flags);
  return dispatch(std::move(r), ro);
}

std::future<Response> Client::pack(std::vector<Value> data,
                                   std::vector<std::uint8_t> keep,
                                   RequestOptions ro) {
  Request r;
  r.op = Op::kPack;
  r.data = std::move(data);
  r.byte_flags = std::move(keep);
  return dispatch(std::move(r), ro);
}

std::future<Response> Client::enumerate(std::vector<std::uint8_t> keep,
                                        RequestOptions ro) {
  Request r;
  r.op = Op::kEnumerate;
  r.byte_flags = std::move(keep);
  return dispatch(std::move(r), ro);
}

std::future<Response> Client::pipeline(std::vector<Value> source,
                                       std::vector<Stage> stages,
                                       RequestOptions ro) {
  Request r;
  r.op = Op::kPipeline;
  r.data = std::move(source);
  r.stages = std::move(stages);
  return dispatch(std::move(r), ro);
}

std::future<Response> Client::plan(
    std::string name, std::map<std::string, std::vector<Value>> regs,
    RequestOptions ro) {
  Request r;
  r.op = Op::kPlan;
  r.plan = std::move(name);
  r.registers = std::move(regs);
  return dispatch(std::move(r), ro);
}

void Client::reader_loop() {
  std::vector<std::uint8_t> buf;
  std::size_t off = 0;
  char chunk[65536];
  for (;;) {
    if (closed_.load(std::memory_order_acquire)) break;
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n == 0) break;  // server closed, or close() shut the socket down
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    buf.insert(buf.end(), chunk, chunk + n);
    for (;;) {
      const std::span<const std::uint8_t> avail(buf.data() + off,
                                                buf.size() - off);
      std::size_t total = 0;
      try {
        // No decode-side cap: the server bounds what it sends.
        total = frame_size(avail, ~std::size_t{0} >> 1);
        if (total == 0) break;
        const Response resp = decode_response(avail.subspan(0, total));
        off += total;
        std::promise<Response> p;
        bool mine = false;
        {
          std::lock_guard<std::mutex> lk(pending_mu_);
          auto it = pending_.find(resp.request_id);
          if (it != pending_.end()) {
            p = std::move(it->second);
            pending_.erase(it);
            mine = true;
          }
        }
        // Unmatched ids (request-id-0 protocol errors for frames we never
        // numbered) are dropped; the connection-level failure below is what
        // resolves their futures.
        if (mine) p.set_value(std::move(resp));
      } catch (const ProtocolError&) {
        fail_all("malformed response frame");
        close();
        return;
      }
    }
    if (off == buf.size()) {
      buf.clear();
      off = 0;
    } else if (off >= (std::size_t{1} << 16)) {
      buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(off));
      off = 0;
    }
  }
  fail_all("connection closed");
}

Response Client::read_response() {
  std::vector<std::uint8_t>& buf = manual_buf_;
  char chunk[65536];
  for (;;) {
    const std::size_t total = frame_size(buf, ~std::size_t{0} >> 1);
    if (total != 0) {
      const Response r =
          decode_response(std::span<const std::uint8_t>(buf).subspan(0, total));
      buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(total));
      return r;
    }
    if (closed_.load(std::memory_order_acquire)) {
      throw std::runtime_error("net: connection closed");
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n == 0) throw std::runtime_error("net: connection closed");
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("net: recv failed");
    }
    buf.insert(buf.end(), chunk, chunk + n);
  }
}

}  // namespace scanprim::net
