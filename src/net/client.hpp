// C++ client for the socket front end (docs/NET.md "Client").
//
// One TCP connection, pipelined: every call encodes a frame, registers a
// promise under the request id, and writes the frame under a send mutex (so
// frames never interleave); a reader thread decodes responses as they arrive
// — in whatever order the server finishes them — and resolves the matching
// promise. The futures API composes with however many requests the caller
// wants in flight; the sync wrappers are future + get().
//
// Thread safety: all request methods are callable from any thread. close()
// (or destruction) fails every outstanding future with Status::kError
// "connection closed" — futures never hang.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/net/protocol.hpp"

namespace scanprim::net {

/// Per-request knobs, mirroring the protocol header fields.
struct RequestOptions {
  Priority priority = Priority::kAuto;
  std::uint64_t deadline_ns = 0;  ///< relative; 0 = none
};

class Client {
 public:
  /// Connects (blocking) or throws std::runtime_error.
  Client(const std::string& host, std::uint16_t port, std::uint32_t tenant = 0);
  ~Client();  ///< close()

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // --- async API -------------------------------------------------------------

  std::future<Response> scan(std::vector<Value> data, ScanOp op,
                             bool inclusive = false, bool backward = false,
                             std::vector<std::uint8_t> segment_flags = {},
                             RequestOptions ro = {});
  std::future<Response> pack(std::vector<Value> data,
                             std::vector<std::uint8_t> keep,
                             RequestOptions ro = {});
  std::future<Response> enumerate(std::vector<std::uint8_t> keep,
                                  RequestOptions ro = {});
  std::future<Response> pipeline(std::vector<Value> source,
                                 std::vector<Stage> stages,
                                 RequestOptions ro = {});
  std::future<Response> plan(std::string name,
                             std::map<std::string, std::vector<Value>> regs,
                             RequestOptions ro = {});

  // --- sync wrappers ---------------------------------------------------------

  Response scan_sync(std::vector<Value> data, ScanOp op, bool inclusive = false,
                     bool backward = false,
                     std::vector<std::uint8_t> segment_flags = {},
                     RequestOptions ro = {}) {
    return scan(std::move(data), op, inclusive, backward,
                std::move(segment_flags), ro)
        .get();
  }
  Response pack_sync(std::vector<Value> data, std::vector<std::uint8_t> keep,
                     RequestOptions ro = {}) {
    return pack(std::move(data), std::move(keep), ro).get();
  }
  Response plan_sync(std::string name,
                     std::map<std::string, std::vector<Value>> regs,
                     RequestOptions ro = {}) {
    return plan(std::move(name), std::move(regs), ro).get();
  }

  /// Write raw bytes straight to the socket, bypassing the protocol encoder
  /// — the robustness tests' tool for truncated frames, garbage magic and
  /// version skew. Returns false once the connection is down.
  bool send_raw(const void* data, std::size_t n);

  /// Read one response frame off the wire synchronously. Only meaningful on
  /// a client used exclusively through send_raw (the reader thread owns the
  /// socket otherwise) — construct with `manual = true` for that.
  Client(const std::string& host, std::uint16_t port, std::uint32_t tenant,
         bool manual);
  Response read_response();

  bool connected() const { return !closed_.load(std::memory_order_acquire); }

  /// Shut the socket down and fail every outstanding future. Idempotent.
  /// The descriptor itself is released by the destructor, after the reader
  /// thread has been joined, so no thread can ever recv() on a reused
  /// descriptor number.
  void close();

 private:
  std::future<Response> dispatch(Request&& r, const RequestOptions& ro);
  void reader_loop();
  void fail_all(const std::string& why);

  std::uint32_t tenant_ = 0;
  const int fd_;  ///< open for the client's whole life; closed by ~Client
  std::atomic<bool> closed_{false};  ///< close() ran: the socket is shut
  std::atomic<std::uint64_t> next_id_{1};
  std::mutex send_mu_;  ///< serialises whole frames onto the socket

  std::mutex pending_mu_;
  std::map<std::uint64_t, std::promise<Response>> pending_;
  bool failed_ = false;  ///< guarded by pending_mu_; fail_all already ran

  std::thread reader_;
  /// Leftover wire bytes between read_response() calls (manual mode):
  /// pipelined responses can land in one recv, and the tail must survive
  /// until the next call asks for it.
  std::vector<std::uint8_t> manual_buf_;
};

}  // namespace scanprim::net
