// The epoll socket front end (server.hpp, docs/NET.md).
//
// Threading recap: the acceptor blocks in accept4 and hands each new fd to
// an io thread; io threads own their connections exclusively (edge-triggered
// epoll, read-until-EAGAIN, write-until-EAGAIN with EPOLLOUT armed only
// while a flush is blocked); the QoS controller thread ticks the adaptive
// window. Completions arrive on backend threads, get encoded there (the
// heavy memcpy of result vectors happens off the io threads), and are posted
// to the owning io thread through its locked queue + eventfd.
//
// fd-reuse safety: a connection is only ever closed by its io thread, which
// erases it from the fd map and sets Conn::fd = -1 under that thread's
// ownership. A completion for a closed connection either fails the weak_ptr
// or finds fd < 0 in process_queue and is dropped — it can never write to a
// recycled descriptor.
#include "src/net/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "src/core/env.hpp"
#include "src/core/ops.hpp"
#include "src/fault/fault.hpp"
#include "src/obs/registry.hpp"
#include "src/serve/service.hpp"
#include "src/shard/shard.hpp"

namespace scanprim::net {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

batch::Op to_batch_op(ScanOp op) {
  switch (op) {
    case ScanOp::kPlus: return batch::Op::kPlus;
    case ScanOp::kMax: return batch::Op::kMax;
    case ScanOp::kMin: return batch::Op::kMin;
    case ScanOp::kOr: return batch::Op::kOr;
    case ScanOp::kAnd: return batch::Op::kAnd;
  }
  return batch::Op::kPlus;
}

/// The request id sits at a fixed offset in the header; error responses for
/// frames that fail decoding can still echo it when enough bytes exist.
std::uint64_t peek_request_id(std::span<const std::uint8_t> frame) {
  // len(4) + magic(4) + version(2) + op(1) + flags(1) = 12 bytes before it.
  if (frame.size() < 20) return 0;
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(frame[12 + i]) << (8 * i);
  }
  return v;
}

}  // namespace

// --- ServiceBackend ----------------------------------------------------------

bool ServiceBackend::submit(Request&& req, serve::SubmitOptions opts) {
  switch (req.op) {
    case Op::kScan: {
      serve::ScanJob job;
      job.data = std::move(req.data);
      job.op = to_batch_op(req.scan_op);
      job.inclusive = req.inclusive();
      job.backward = req.backward();
      if (req.segmented()) job.flags = std::move(req.byte_flags);
      s_.submit(std::move(job), std::move(opts));
      return true;
    }
    case Op::kPack: {
      serve::PackJob job;
      job.data = std::move(req.data);
      job.keep = std::move(req.byte_flags);
      s_.submit(std::move(job), std::move(opts));
      return true;
    }
    case Op::kEnumerate: {
      serve::EnumerateJob job;
      job.keep = std::move(req.byte_flags);
      s_.submit(std::move(job), std::move(opts));
      return true;
    }
    case Op::kPipeline: {
      // The pipeline records spans into the source vector, so the vector
      // must outlive execution: park it in a shared_ptr the completion
      // callback keeps alive until the result is delivered.
      auto src = std::make_shared<std::vector<Value>>(std::move(req.data));
      exec::Pipeline<Value> p =
          exec::source(std::span<const Value>(src->data(), src->size()));
      for (const Stage& st : req.stages) {
        switch (st.op) {
          case StageOp::kAddConst:
            p = std::move(p) |
                exec::map([a = st.arg](Value v) { return wrapping_add(v, a); });
            break;
          case StageOp::kMulConst:
            p = std::move(p) |
                exec::map([a = st.arg](Value v) { return wrapping_mul(v, a); });
            break;
          case StageOp::kMinConst:
            p = std::move(p) |
                exec::map([a = st.arg](Value v) { return v < a ? v : a; });
            break;
          case StageOp::kMaxConst:
            p = std::move(p) |
                exec::map([a = st.arg](Value v) { return v > a ? v : a; });
            break;
          case StageOp::kScanPlus:
            p = std::move(p) | exec::scan<Plus>();
            break;
          case StageOp::kScanMax:
            p = std::move(p) | exec::scan<Max>();
            break;
          case StageOp::kScanMin:
            p = std::move(p) | exec::scan<Min>();
            break;
        }
      }
      opts.on_complete = [src, inner = std::move(opts.on_complete)](
                             serve::Result&& r) { inner(std::move(r)); };
      s_.submit(std::move(p), std::move(opts));
      return true;
    }
    case Op::kPlan: {
      serve::PlanJob job;
      job.plan = std::move(req.plan);
      job.registers = std::move(req.registers);
      s_.submit(std::move(job), std::move(opts));
      return true;
    }
  }
  return false;
}

// --- CoordinatorBackend ------------------------------------------------------

CoordinatorBackend::CoordinatorBackend(shard::Coordinator& c) : c_(c) {
  pump_ = std::thread([this] { pump(); });
}

CoordinatorBackend::~CoordinatorBackend() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (pump_.joinable()) pump_.join();
}

bool CoordinatorBackend::submit(Request&& req, serve::SubmitOptions opts) {
  if (req.op != Op::kScan) return false;  // the coordinator API is scan-only
  serve::ScanJob job;
  job.data = std::move(req.data);
  job.op = to_batch_op(req.scan_op);
  job.inclusive = req.inclusive();
  job.backward = req.backward();
  if (req.segmented()) job.flags = std::move(req.byte_flags);
  // The coordinator's delivery channel is a future; keep the callback here
  // and resolve it on the pump thread (FIFO, matching submission order).
  serve::SubmitOptions fwd;
  fwd.deadline = opts.deadline;
  fwd.cancel = opts.cancel;
  auto fut = c_.submit(std::move(job), fwd);
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stop_) {
      // Resolve inline: the pump is gone, but the callback contract stands.
      opts.on_complete(fut.get());
      return true;
    }
    q_.emplace_back(std::move(fut), std::move(opts.on_complete));
  }
  cv_.notify_one();
  return true;
}

void CoordinatorBackend::pump() {
  for (;;) {
    std::pair<std::future<serve::Result>,
              std::function<void(serve::Result&&)>>
        item;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !q_.empty(); });
      if (q_.empty()) return;  // stop_ and drained
      item = std::move(q_.front());
      q_.pop_front();
    }
    item.second(item.first.get());
  }
}

// --- Server plumbing ---------------------------------------------------------

Server::Options Server::Options::from_env() {
  Options o;
  if (const char* bind = std::getenv("SCANPRIM_NET_BIND");
      bind != nullptr && *bind != '\0') {
    o.bind = bind;
  }
  o.port = static_cast<std::uint16_t>(
      env::size_or("SCANPRIM_NET_PORT", 0, 1, 65535));
  o.io_threads = env::size_or("SCANPRIM_NET_THREADS", 2, 1, 64);
  o.max_frame = env::size_or("SCANPRIM_NET_MAX_FRAME", std::size_t{16} << 20,
                             4096, std::size_t{1} << 30);
  o.idle_ms = env::size_or("SCANPRIM_NET_IDLE_MS", 5000, 10, 3600000);
  o.tenant_qps =
      env::size_or("SCANPRIM_NET_TENANT_QPS", 0, 1, 1000000000);
  o.tenant_bytes = env::size_or("SCANPRIM_NET_TENANT_BYTES", 0, 1,
                                std::size_t{1} << 40);
  o.qos = env::flag_or("SCANPRIM_NET_QOS", true);
  o.small_bytes =
      env::size_or("SCANPRIM_NET_SMALL_BYTES", 4096, 1, std::size_t{1} << 20);
  o.slo_us = env::size_or("SCANPRIM_NET_SLO_US", 2000, 1, 60000000);
  o.qos_tick_ms = env::size_or("SCANPRIM_NET_QOS_TICK_MS", 50, 1, 60000);
  o.window_min_us = env::size_or("SCANPRIM_NET_WINDOW_MIN_US", 1, 1, 1000000);
  return o;
}

/// One connection, owned by exactly one io thread. Only `in_flight` is
/// touched cross-thread (completions decrement it).
struct Server::Conn : std::enable_shared_from_this<Server::Conn> {
  int fd = -1;
  std::size_t io_index = 0;
  std::vector<std::uint8_t> in;  ///< receive buffer; [in_off, size) is live
  std::size_t in_off = 0;
  std::string out;  ///< send buffer; [out_off, size) still to write
  std::size_t out_off = 0;
  bool want_write = false;  ///< EPOLLOUT armed
  bool http = false;        ///< Prometheus scrape connection
  bool closing = false;     ///< close once the send buffer drains
  std::atomic<std::uint32_t> in_flight{0};
  std::chrono::steady_clock::time_point last_activity{};
};

struct Server::IoThread {
  std::size_t index = 0;
  int epfd = -1;
  int wakefd = -1;
  std::thread th;
  /// MPSC queue: new fds from the acceptor, response frames from
  /// completions. Drained after every epoll wake.
  struct Delivery {
    std::weak_ptr<Conn> conn;
    std::string frame;
    int new_fd = -1;
    /// True for response deliveries: the io thread, not the completion
    /// thread, retires the connection's in-flight slot so the "close a
    /// `closing` connection only once its responses are delivered" decision
    /// in try_flush can never race the decrement.
    bool completion = false;
  };
  std::mutex mu;
  std::vector<Delivery> q;
  std::unordered_map<int, std::shared_ptr<Conn>> conns;
  std::chrono::steady_clock::time_point last_sweep{};
};

struct Server::TenantState {
  TokenBucket qps;
  TokenBucket bytes;
  obs::Counter* lane_requests[2] = {nullptr, nullptr};
};

/// Cached registry counters (find-or-create is a map lookup under a mutex;
/// the hot path must not pay it per request).
struct Server::Series {
  obs::Counter* accepted = nullptr;
  obs::Counter* rejected_protocol = nullptr;
  obs::Counter* rejected_version = nullptr;
  obs::Counter* rejected_quota_qps = nullptr;
  obs::Counter* rejected_quota_bytes = nullptr;
  obs::Counter* rejected_fault = nullptr;
  obs::Counter* cuts_shrink = nullptr;
  obs::Counter* cuts_regrow = nullptr;
  obs::Counter* http_scrapes = nullptr;
  obs::Counter* idle_closed = nullptr;
  obs::Counter* responses[10] = {};
  std::string label;  ///< `server="N"`
};

Server::Server(Backend& backend, Options opts)
    : backend_(backend), opts_(std::move(opts)) {
  static std::atomic<std::uint64_t> g_seq{0};
  seq_ = g_seq.fetch_add(1, std::memory_order_relaxed) + 1;
}

Server::~Server() { stop(); }

Server::Stats Server::stats() const {
  Stats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.open = open_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.responses = responses_.load(std::memory_order_relaxed);
  s.quota_rejected = quota_rejected_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.idle_closed = idle_closed_.load(std::memory_order_relaxed);
  s.window_shrinks = window_shrinks_.load(std::memory_order_relaxed);
  s.window_regrows = window_regrows_.load(std::memory_order_relaxed);
  s.http_scrapes = http_scrapes_.load(std::memory_order_relaxed);
  s.in_flight = in_flight_.load(std::memory_order_relaxed);
  return s;
}

void Server::start() {
  if (running_.load(std::memory_order_acquire)) return;
  stopping_.store(false, std::memory_order_release);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw std::runtime_error("net: socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (::inet_pton(AF_INET, opts_.bind.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("net: bad bind address " + opts_.bind);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(std::string("net: bind failed: ") +
                             std::strerror(err));
  }
  if (::listen(listen_fd_, 256) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(std::string("net: listen failed: ") +
                             std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
  port_ = ntohs(bound.sin_port);

  series_ = std::make_unique<Series>();
  series_->label = "server=\"" + std::to_string(seq_) + "\"";
  const std::string& lb = series_->label;
  series_->accepted =
      &obs::counter("scanprim_net_accepted_total{" + lb + "}");
  series_->rejected_protocol = &obs::counter(
      "scanprim_net_rejected_total{" + lb + ",reason=\"protocol\"}");
  series_->rejected_version = &obs::counter(
      "scanprim_net_rejected_total{" + lb + ",reason=\"version_skew\"}");
  series_->rejected_quota_qps = &obs::counter(
      "scanprim_net_rejected_total{" + lb + ",reason=\"quota_qps\"}");
  series_->rejected_quota_bytes = &obs::counter(
      "scanprim_net_rejected_total{" + lb + ",reason=\"quota_bytes\"}");
  series_->rejected_fault = &obs::counter(
      "scanprim_net_rejected_total{" + lb + ",reason=\"fault\"}");
  series_->cuts_shrink = &obs::counter(
      "scanprim_net_window_cuts_total{" + lb + ",cause=\"slo_shrink\"}");
  series_->cuts_regrow = &obs::counter(
      "scanprim_net_window_cuts_total{" + lb + ",cause=\"regrow\"}");
  series_->http_scrapes =
      &obs::counter("scanprim_net_http_scrapes_total{" + lb + "}");
  series_->idle_closed =
      &obs::counter("scanprim_net_idle_closed_total{" + lb + "}");
  for (int s = 0; s <= 9; ++s) {
    series_->responses[s] = &obs::counter(
        "scanprim_net_responses_total{" + lb + ",status=\"" +
        status_name(static_cast<Status>(s)) + "\"}");
  }

  // The adaptive window regrows toward the serve layer's configured window;
  // with no window hook (coordinator backend) the controller never runs.
  std::uint64_t base_us = 200;
  if (serve::Service* s = backend_.service()) base_us = s->window_us();
  adaptive_ = AdaptiveWindow(base_us, opts_.window_min_us,
                             static_cast<std::uint64_t>(opts_.slo_us) * 1000);

  io_.clear();
  for (std::size_t i = 0; i < opts_.io_threads; ++i) {
    auto io = std::make_unique<IoThread>();
    io->index = i;
    io->epfd = ::epoll_create1(EPOLL_CLOEXEC);
    io->wakefd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (io->epfd < 0 || io->wakefd < 0) {
      throw std::runtime_error("net: epoll/eventfd setup failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;  // level-triggered wake: never misses queued work
    ev.data.fd = io->wakefd;
    ::epoll_ctl(io->epfd, EPOLL_CTL_ADD, io->wakefd, &ev);
    io_.push_back(std::move(io));
  }

  collector_id_ = obs::register_collector([this](std::string& out) {
    const std::string& lb = series_->label;
    obs::append_counter(out, "scanprim_net_connections{" + lb + "}",
                        open_.load(std::memory_order_relaxed));
    obs::append_counter(out, "scanprim_net_in_flight{" + lb + "}",
                        in_flight_.load(std::memory_order_relaxed));
    obs::append_counter(out, "scanprim_net_window_us{" + lb + "}",
                        adaptive_.window_us());
    for (int l = 0; l < 2; ++l) {
      obs::append_histogram(
          out,
          "scanprim_net_lane_latency_ns{" + lb + ",lane=\"" +
              serve::lane_name(static_cast<serve::Lane>(l)) + "\"}",
          lane_hist_[l]);
    }
  });

  for (auto& io : io_) {
    io->th = std::thread([this, p = io.get()] { io_loop(*p); });
  }
  acceptor_ = std::thread([this] { accept_loop(); });
  qos_thread_ = std::thread([this] { qos_loop(); });
  running_.store(true, std::memory_order_release);
}

void Server::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);

  // Acceptor first: shutdown unblocks accept4.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  qos_cv_.notify_all();
  if (qos_thread_.joinable()) qos_thread_.join();

  // IO threads close their connections on the way out.
  for (auto& io : io_) {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t r = ::write(io->wakefd, &one, sizeof one);
  }
  for (auto& io : io_) {
    if (io->th.joinable()) io->th.join();
  }

  // In-flight completions still post into the (now unread) queues; wait for
  // them so no callback outlives the server.
  while (in_flight_.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  obs::unregister_collector(collector_id_);
  collector_id_ = 0;
  for (auto& io : io_) {
    ::close(io->epfd);
    ::close(io->wakefd);
  }
  io_.clear();
  {
    std::lock_guard<std::mutex> lk(tenants_mu_);
    tenants_.clear();
  }
  running_.store(false, std::memory_order_release);
}

// --- acceptor ----------------------------------------------------------------

void Server::accept_loop() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      return;  // listen socket gone
    }
    try {
      SCANPRIM_FAULT_POINT("net.accept");
    } catch (const std::exception&) {
      series_->rejected_fault->inc();
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    accepted_.fetch_add(1, std::memory_order_relaxed);
    open_.fetch_add(1, std::memory_order_relaxed);
    series_->accepted->inc();
    IoThread& io =
        *io_[next_io_.fetch_add(1, std::memory_order_relaxed) % io_.size()];
    {
      std::lock_guard<std::mutex> lk(io.mu);
      io.q.push_back(IoThread::Delivery{{}, {}, fd});
    }
    const std::uint64_t wake = 1;
    [[maybe_unused]] ssize_t r = ::write(io.wakefd, &wake, sizeof wake);
  }
}

// --- io threads --------------------------------------------------------------

void Server::io_loop(IoThread& io) {
  epoll_event evs[64];
  for (;;) {
    const int n = ::epoll_wait(io.epfd, evs, 64, 100);
    if (stopping_.load(std::memory_order_acquire)) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      if (evs[i].data.fd == io.wakefd) {
        std::uint64_t drain = 0;
        [[maybe_unused]] ssize_t r =
            ::read(io.wakefd, &drain, sizeof drain);
        continue;
      }
      auto it = io.conns.find(evs[i].data.fd);
      if (it == io.conns.end()) continue;
      std::shared_ptr<Conn> c = it->second;
      if ((evs[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        close_conn(io, c);
        continue;
      }
      if ((evs[i].events & EPOLLIN) != 0) handle_readable(io, c);
      if (c->fd >= 0 && (evs[i].events & EPOLLOUT) != 0) try_flush(io, c);
    }
    process_queue(io);
    sweep_idle(io);
  }
  // Close everything this thread owns; late completions drop harmlessly.
  std::vector<std::shared_ptr<Conn>> all;
  all.reserve(io.conns.size());
  for (auto& [fd, c] : io.conns) all.push_back(c);
  for (auto& c : all) close_conn(io, c);
}

void Server::adopt(IoThread& io, int fd) {
  auto c = std::make_shared<Conn>();
  c->fd = fd;
  c->io_index = io.index;
  c->last_activity = std::chrono::steady_clock::now();
  io.conns.emplace(fd, c);
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP;
  ev.data.fd = fd;
  if (::epoll_ctl(io.epfd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    io.conns.erase(fd);
    ::close(fd);
    open_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  // Data may have landed before the epoll ADD; poll once to catch the edge.
  handle_readable(io, c);
}

void Server::process_queue(IoThread& io) {
  std::vector<IoThread::Delivery> q;
  {
    std::lock_guard<std::mutex> lk(io.mu);
    q.swap(io.q);
  }
  for (auto& d : q) {
    if (d.new_fd >= 0) {
      adopt(io, d.new_fd);
      continue;
    }
    std::shared_ptr<Conn> c = d.conn.lock();
    if (!c) continue;  // connection already gone: drop
    if (d.completion) c->in_flight.fetch_sub(1, std::memory_order_relaxed);
    if (c->fd < 0) continue;  // closed but not yet reaped: drop the frame
    c->out += d.frame;
    try_flush(io, c);
  }
}

void Server::handle_readable(IoThread& io, const std::shared_ptr<Conn>& c) {
  bool eof = false;
  char buf[65536];
  for (;;) {
    const ssize_t r = ::read(c->fd, buf, sizeof buf);
    if (r > 0) {
      c->in.insert(c->in.end(), buf, buf + r);
      c->last_activity = std::chrono::steady_clock::now();
      continue;
    }
    if (r == 0) {
      eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_conn(io, c);
    return;
  }
  process_input(io, c);
  // Peer closed its end: whatever we still owe it is undeliverable in
  // practice (clients close the whole socket), so drop the connection —
  // in-flight completions resolve against the dead weak_ptr.
  if (eof && c->fd >= 0) close_conn(io, c);
}

void Server::process_input(IoThread& io, const std::shared_ptr<Conn>& c) {
  for (;;) {
    if (c->fd < 0 || c->closing) break;
    const std::span<const std::uint8_t> avail(c->in.data() + c->in_off,
                                              c->in.size() - c->in_off);
    if (avail.empty()) break;
    if (!c->http && looks_like_http(avail)) c->http = true;
    if (c->http) {
      handle_http(io, c);
      break;
    }
    std::size_t total = 0;
    try {
      total = frame_size(avail, opts_.max_frame);
    } catch (const ProtocolError& e) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      series_->rejected_protocol->inc();
      Response resp;
      resp.status = Status::kProtocolError;
      resp.error = e.what();
      c->closing = true;
      respond_now(io, c, resp);
      return;
    }
    if (total == 0) break;  // wait for the rest of the frame
    handle_frame(io, c, avail.subspan(0, total));
    if (c->fd < 0) return;
    c->in_off += total;
  }
  if (c->fd < 0) return;
  // Compact the consumed prefix so a chatty connection doesn't grow forever.
  if (c->in_off == c->in.size()) {
    c->in.clear();
    c->in_off = 0;
  } else if (c->in_off >= (std::size_t{1} << 16)) {
    c->in.erase(c->in.begin(),
                c->in.begin() + static_cast<std::ptrdiff_t>(c->in_off));
    c->in_off = 0;
  }
}

void Server::handle_http(IoThread& io, const std::shared_ptr<Conn>& c) {
  // Serve the scrape once the request head is complete (blank line).
  static constexpr char kEnd[] = "\r\n\r\n";
  const auto begin = c->in.begin() + static_cast<std::ptrdiff_t>(c->in_off);
  const bool complete =
      std::search(begin, c->in.end(), kEnd, kEnd + 4) != c->in.end() ||
      c->in.size() - c->in_off > 16384;
  if (!complete) return;  // partial head; the idle sweep bounds the wait
  const std::string body = obs::render_text();
  c->out += "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
            "Content-Length: " +
            std::to_string(body.size()) +
            "\r\n"
            "Connection: close\r\n\r\n";
  c->out += body;
  c->in.clear();
  c->in_off = 0;
  c->closing = true;
  http_scrapes_.fetch_add(1, std::memory_order_relaxed);
  series_->http_scrapes->inc();
  try_flush(io, c);
}

void Server::handle_frame(IoThread& io, const std::shared_ptr<Conn>& c,
                          std::span<const std::uint8_t> frame) {
  Request req;
  try {
    SCANPRIM_FAULT_POINT("net.frame_decode");
    req = decode_request(frame);
  } catch (const VersionSkew& e) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    series_->rejected_version->inc();
    Response resp;
    resp.status = Status::kVersionSkew;
    resp.request_id = peek_request_id(frame);
    resp.error = e.what();
    c->closing = true;
    respond_now(io, c, resp);
    return;
  } catch (const ProtocolError& e) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    series_->rejected_protocol->inc();
    Response resp;
    resp.status = Status::kProtocolError;
    resp.request_id = peek_request_id(frame);
    resp.error = e.what();
    c->closing = true;
    respond_now(io, c, resp);
    return;
  } catch (const std::exception& e) {  // fault::Injected, bad_alloc
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    series_->rejected_fault->inc();
    Response resp;
    resp.status = Status::kProtocolError;
    resp.request_id = peek_request_id(frame);
    resp.error = e.what();
    c->closing = true;
    respond_now(io, c, resp);
    return;
  }

  const std::size_t bytes = req.payload_bytes();
  const std::uint64_t t0 = now_ns();
  serve::Lane lane;
  {
    std::lock_guard<std::mutex> lk(tenants_mu_);
    auto it = tenants_.find(req.tenant);
    if (it == tenants_.end()) {
      auto t = std::make_unique<TenantState>();
      t->qps = TokenBucket(opts_.tenant_qps, t0);
      t->bytes = TokenBucket(opts_.tenant_bytes, t0);
      for (int l = 0; l < 2; ++l) {
        t->lane_requests[l] = &obs::counter(
            "scanprim_net_requests_total{" + series_->label + ",tenant=\"" +
            std::to_string(req.tenant) + "\",lane=\"" +
            serve::lane_name(static_cast<serve::Lane>(l)) + "\"}");
      }
      it = tenants_.emplace(req.tenant, std::move(t)).first;
    }
    TenantState& t = *it->second;
    if (!t.qps.admit(1, t0)) {
      quota_rejected_.fetch_add(1, std::memory_order_relaxed);
      series_->rejected_quota_qps->inc();
      Response resp;
      resp.status = Status::kOverQuota;
      resp.request_id = req.request_id;
      resp.error = "tenant request quota exhausted";
      respond_now(io, c, resp);
      return;
    }
    if (!t.bytes.admit(bytes, t0)) {
      quota_rejected_.fetch_add(1, std::memory_order_relaxed);
      series_->rejected_quota_bytes->inc();
      Response resp;
      resp.status = Status::kOverQuota;
      resp.request_id = req.request_id;
      resp.error = "tenant byte quota exhausted";
      respond_now(io, c, resp);
      return;
    }
    lane = classify(req, bytes);
    t.lane_requests[static_cast<int>(lane)]->inc();
  }

  requests_.fetch_add(1, std::memory_order_relaxed);
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  c->in_flight.fetch_add(1, std::memory_order_relaxed);

  const std::uint64_t rid = req.request_id;
  serve::SubmitOptions so;
  so.deadline = std::chrono::nanoseconds(req.deadline_ns);
  so.lane = lane;
  std::weak_ptr<Conn> wc = c;
  so.on_complete = [this, wc, idx = io.index, rid, op = req.op, lane,
                    t0](serve::Result&& r) {
    complete(wc, idx, rid, op, lane, t0, std::move(r));
  };
  if (!backend_.submit(std::move(req), std::move(so))) {
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    c->in_flight.fetch_sub(1, std::memory_order_relaxed);
    Response resp;
    resp.status = Status::kUnsupported;
    resp.request_id = rid;
    resp.error = "backend does not serve this op";
    respond_now(io, c, resp);
  }
}

void Server::respond_now(IoThread& io, const std::shared_ptr<Conn>& c,
                         const Response& resp) {
  encode_response(c->out, resp);
  responses_.fetch_add(1, std::memory_order_relaxed);
  series_->responses[static_cast<int>(resp.status)]->inc();
  try_flush(io, c);
}

void Server::complete(std::weak_ptr<Conn> wc, std::size_t io_index,
                      std::uint64_t request_id, Op op, serve::Lane lane,
                      std::uint64_t t0_ns, serve::Result&& r) {
  Response resp;
  resp.request_id = request_id;
  resp.status = from_serve(r.status);
  resp.error = std::move(r.error);
  resp.kept = static_cast<std::uint32_t>(r.kept);
  if (r.status == serve::Status::kOk) {
    if (op == Op::kPlan) {
      resp.outputs = std::move(r.outputs);
    } else {
      resp.outputs.push_back(std::move(r.values));
    }
  }
  std::string frame;
  encode_response(frame, resp);

  const std::uint64_t lat = now_ns() - t0_ns;
  lane_hist_[static_cast<int>(lane)].record(lat);
  if (lane == serve::Lane::kLatency && opts_.qos) window_hist_.record(lat);
  responses_.fetch_add(1, std::memory_order_relaxed);
  series_->responses[static_cast<int>(resp.status)]->inc();

  post(io_index, wc, std::move(frame));
  in_flight_.fetch_sub(1, std::memory_order_release);  // LAST: stop() gates on it
}

void Server::post(std::size_t io_index, std::weak_ptr<Conn> wc,
                  std::string frame) {
  IoThread& io = *io_[io_index];
  {
    std::lock_guard<std::mutex> lk(io.mu);
    io.q.push_back(
        IoThread::Delivery{std::move(wc), std::move(frame), -1, true});
  }
  const std::uint64_t wake = 1;
  [[maybe_unused]] ssize_t r = ::write(io.wakefd, &wake, sizeof wake);
}

void Server::try_flush(IoThread& io, const std::shared_ptr<Conn>& c) {
  if (c->fd < 0) return;
  while (c->out_off < c->out.size()) {
    const ssize_t w = ::write(c->fd, c->out.data() + c->out_off,
                              c->out.size() - c->out_off);
    if (w > 0) {
      c->out_off += static_cast<std::size_t>(w);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!c->want_write) {
        c->want_write = true;
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP | EPOLLOUT;
        ev.data.fd = c->fd;
        ::epoll_ctl(io.epfd, EPOLL_CTL_MOD, c->fd, &ev);
      }
      return;
    }
    if (errno == EINTR) continue;
    close_conn(io, c);
    return;
  }
  c->out.clear();
  c->out_off = 0;
  if (c->want_write) {
    c->want_write = false;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP;
    ev.data.fd = c->fd;
    ::epoll_ctl(io.epfd, EPOLL_CTL_MOD, c->fd, &ev);
  }
  // A closing connection still owes responses for frames it got in before
  // the offending one; hold the socket open until they are delivered.
  if (c->closing && c->in_flight.load(std::memory_order_relaxed) == 0) {
    close_conn(io, c);
  }
}

void Server::close_conn(IoThread& io, const std::shared_ptr<Conn>& c) {
  if (c->fd < 0) return;
  const int fd = c->fd;
  c->fd = -1;
  ::epoll_ctl(io.epfd, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  io.conns.erase(fd);
  open_.fetch_sub(1, std::memory_order_relaxed);
}

void Server::sweep_idle(IoThread& io) {
  const auto now = std::chrono::steady_clock::now();
  if (now - io.last_sweep < std::chrono::milliseconds(200)) return;
  io.last_sweep = now;
  const auto limit = std::chrono::milliseconds(opts_.idle_ms);
  std::vector<std::shared_ptr<Conn>> victims;
  for (auto& [fd, c] : io.conns) {
    // Only stalled *partial* frames are slowloris suspects; a quiet
    // connection with an empty buffer is a legitimate idle client.
    if (c->in.size() > c->in_off && now - c->last_activity > limit) {
      victims.push_back(c);
    }
  }
  for (auto& c : victims) {
    idle_closed_.fetch_add(1, std::memory_order_relaxed);
    series_->idle_closed->inc();
    close_conn(io, c);
  }
}

serve::Lane Server::classify(const Request& req, std::size_t bytes) const {
  if (!opts_.qos) return serve::Lane::kBulk;
  if (req.priority == Priority::kLatency) return serve::Lane::kLatency;
  if (req.priority == Priority::kBulk) return serve::Lane::kBulk;
  return bytes <= opts_.small_bytes ? serve::Lane::kLatency
                                    : serve::Lane::kBulk;
}

// --- QoS controller ----------------------------------------------------------

void Server::qos_loop() {
  std::unique_lock<std::mutex> lk(qos_mu_);
  while (!stopping_.load(std::memory_order_acquire)) {
    qos_cv_.wait_for(lk, std::chrono::milliseconds(opts_.qos_tick_ms));
    if (stopping_.load(std::memory_order_acquire)) break;
    serve::Service* s = backend_.service();
    if (s == nullptr || !opts_.qos) continue;
    const std::uint64_t cnt = window_hist_.count();
    const std::uint64_t p99 =
        cnt > 0 ? window_hist_.value_at_quantile(0.99) : 0;
    window_hist_.reset();
    switch (adaptive_.tick(p99, cnt)) {
      case AdaptiveWindow::Move::kShrink:
        s->set_window_us(adaptive_.window_us());
        window_shrinks_.fetch_add(1, std::memory_order_relaxed);
        series_->cuts_shrink->inc();
        break;
      case AdaptiveWindow::Move::kRegrow:
        s->set_window_us(adaptive_.window_us());
        window_regrows_.fetch_add(1, std::memory_order_relaxed);
        series_->cuts_regrow->inc();
        break;
      case AdaptiveWindow::Move::kNone:
        break;
    }
  }
}

}  // namespace scanprim::net
