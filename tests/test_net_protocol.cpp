// Protocol robustness (docs/NET.md "Robustness"): malformed and hostile
// input against the live server — truncated frames, oversized length
// prefixes, garbage magic, version skew, slowloris stalls, mid-flight
// disconnects — plus the net fault points. The invariant throughout: the
// offending connection resolves to a protocol error (or is closed), no
// request slot leaks (Stats::in_flight returns to zero), and the server
// keeps serving other connections.
#include "src/net/protocol.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "src/fault/fault.hpp"
#include "src/net/client.hpp"
#include "src/net/server.hpp"
#include "src/serve/service.hpp"

namespace scanprim::net {
namespace {

using namespace std::chrono_literals;

std::span<const std::uint8_t> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

std::string encoded_scan(std::uint64_t rid, std::vector<Value> data) {
  Request r;
  r.op = Op::kScan;
  r.request_id = rid;
  r.data = std::move(data);
  std::string wire;
  encode_request(wire, r);
  return wire;
}

// --- decoder hardening (no sockets) ------------------------------------------

TEST(NetProtocolDecode, TruncationAtEveryByteThrowsCleanly) {
  const std::string wire = encoded_scan(1, {1, 2, 3, 4, 5});
  // Every strict prefix either asks for more bytes (frame_size 0) or, once
  // frame_size is satisfied by a lying length, throws ProtocolError from
  // decode — never reads out of bounds, never aborts.
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    const std::span<const std::uint8_t> part(
        reinterpret_cast<const std::uint8_t*>(wire.data()), cut);
    EXPECT_EQ(frame_size(part, 1 << 20), 0u) << cut;
  }
  // A frame whose length prefix claims MORE than its body delivers:
  std::string lying = wire;
  lying.resize(lying.size() - 3);  // chop the tail
  lying[0] = static_cast<char>(lying.size() - 4);  // length says "complete"
  lying[1] = lying[2] = lying[3] = 0;
  EXPECT_THROW(decode_request(as_bytes(lying)), ProtocolError);
}

TEST(NetProtocolDecode, TrailingBytesAreAnError) {
  std::string wire = encoded_scan(1, {1, 2});
  wire += std::string(8, '\0');
  wire[0] = static_cast<char>(static_cast<std::uint8_t>(wire[0]) + 8);
  EXPECT_THROW(decode_request(as_bytes(wire)), ProtocolError);
}

TEST(NetProtocolDecode, OversizedLengthPrefixFailsBeforeBuffering) {
  const std::uint8_t huge[4] = {0xff, 0xff, 0xff, 0x7f};
  EXPECT_THROW(frame_size(std::span<const std::uint8_t>(huge, 4), 1 << 20),
               ProtocolError);
}

TEST(NetProtocolDecode, GarbageMagicAndVersionSkew) {
  std::string wire = encoded_scan(1, {1});
  std::string bad = wire;
  bad[4] ^= 0x5a;  // corrupt magic
  EXPECT_THROW(decode_request(as_bytes(bad)), ProtocolError);
  std::string skew = wire;
  skew[8] = 9;  // version 9
  EXPECT_THROW(
      {
        try {
          decode_request(as_bytes(skew));
        } catch (const VersionSkew& e) {
          EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
          throw;
        }
      },
      VersionSkew);
}

TEST(NetProtocolDecode, AttackerChosenCountsFailBeforeAllocation) {
  // A scan frame whose vec count claims 2^31 elements in a 30-byte body
  // must throw on the byte check, not reserve 16 GiB.
  std::string wire = encoded_scan(1, {1, 2, 3});
  // The data count sits right after the scan_op byte: 4 (length prefix) +
  // 32 (fixed header) + 1 (scan_op) = offset 37.
  wire[37] = 0x00;
  wire[38] = 0x00;
  wire[39] = 0x00;
  wire[40] = 0x40;  // count = 2^30 elements "present" in a 24-byte payload
  EXPECT_THROW(decode_request(as_bytes(wire)), ProtocolError);
}

// --- live-server robustness --------------------------------------------------

struct RobustServer {
  serve::Service svc;
  ServiceBackend backend{svc};
  Server server;
  explicit RobustServer(Server::Options o) : server(backend, std::move(o)) {
    server.start();
  }
  RobustServer() : RobustServer(defaults()) {}
  static Server::Options defaults() {
    Server::Options o;
    o.io_threads = 2;
    return o;
  }
  ~RobustServer() {
    server.stop();
    svc.shutdown();
  }
};

/// A well-behaved client must keep working while hostile ones misbehave.
void expect_still_serving(RobustServer& rs) {
  Client good("127.0.0.1", rs.server.port());
  const Response r = good.scan_sync({1, 2, 3}, ScanOp::kPlus);
  ASSERT_EQ(r.status, Status::kOk) << r.error;
  EXPECT_EQ(r.outputs.front(), (std::vector<Value>{0, 1, 3}));
}

void drain_in_flight(RobustServer& rs) {
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (rs.server.stats().in_flight != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(rs.server.stats().in_flight, 0u);
}

// --- fault points -------------------------------------------------------------
// Registered BEFORE the robustness suite so the ambient entry point runs
// while a SCANPRIM_FAULT armed by the CI fault matrix is still live; every
// test after it disarms the environment and arms its own points (the
// test_serve_recovery idiom).

/// With SCANPRIM_FAULT=net.frame_decode / net.accept armed from the
/// environment (the CI fault legs), whichever connection draws the injected
/// fault resolves to a protocol error (or dies outright on the accept path)
/// while the server outlives it and most traffic succeeds.
TEST(NetFaults, AmbientEnvironmentFaultsAreAbsorbed) {
  RobustServer rs;
  int ok = 0, faulted = 0;
  for (int i = 0; i < 6; ++i) {
    try {
      Client cli("127.0.0.1", rs.server.port());
      const Response r = cli.scan_sync({1, 2}, ScanOp::kPlus);
      if (r.status == Status::kOk) {
        ++ok;
      } else {
        ++faulted;
      }
    } catch (const std::exception&) {
      ++faulted;  // an accept fault can kill the connection outright
    }
  }
  // Whatever was armed, the server outlives it and most traffic succeeds.
  EXPECT_GT(ok, 0);
  drain_in_flight(rs);
}

TEST(NetFaults, FrameDecodeFaultFailsOneConnectionOthersUnaffected) {
  fault::disarm_all();
  RobustServer rs;
  fault::arm("net.frame_decode", 1, 1);  // first decode fires, once
  Client victim("127.0.0.1", rs.server.port());
  const Response r = victim.scan_sync({1, 2, 3}, ScanOp::kPlus);
  EXPECT_EQ(r.status, Status::kProtocolError);
  EXPECT_NE(r.error.find("net.frame_decode"), std::string::npos) << r.error;
  fault::disarm_all();
  expect_still_serving(rs);
  drain_in_flight(rs);
}

TEST(NetFaults, AcceptFaultDropsTheConnectionServerSurvives) {
  fault::disarm_all();
  RobustServer rs;
  fault::arm("net.accept", 1, 1);
  bool first_failed = false;
  try {
    Client dropped("127.0.0.1", rs.server.port());
    // The TCP handshake completed before the server-side close, so the
    // failure may only surface on first use.
    const Response r = dropped.scan_sync({1}, ScanOp::kPlus);
    first_failed = r.status != Status::kOk;
  } catch (const std::exception&) {
    first_failed = true;
  }
  EXPECT_TRUE(first_failed);
  fault::disarm_all();
  EXPECT_GE(fault::hits("net.accept"), 1u);
  expect_still_serving(rs);
}

// --- hostile input against the live server ------------------------------------

TEST(NetRobustness, GarbageMagicGetsProtocolErrorAndClose) {
  fault::disarm_all();
  RobustServer rs;
  Client evil("127.0.0.1", rs.server.port(), 0, /*manual=*/true);
  std::string wire = encoded_scan(77, {1, 2});
  wire[4] ^= 0xff;
  ASSERT_TRUE(evil.send_raw(wire.data(), wire.size()));
  const Response r = evil.read_response();
  EXPECT_EQ(r.status, Status::kProtocolError);
  EXPECT_EQ(r.request_id, 77u);  // peeked from the fixed header offset
  EXPECT_THROW(evil.read_response(), std::runtime_error);  // closed after
  expect_still_serving(rs);
  drain_in_flight(rs);
  EXPECT_GE(rs.server.stats().protocol_errors, 1u);
}

TEST(NetRobustness, VersionSkewGetsDistinctStatus) {
  fault::disarm_all();
  RobustServer rs;
  Client evil("127.0.0.1", rs.server.port(), 0, /*manual=*/true);
  std::string wire = encoded_scan(5, {1});
  wire[8] = 42;
  ASSERT_TRUE(evil.send_raw(wire.data(), wire.size()));
  const Response r = evil.read_response();
  EXPECT_EQ(r.status, Status::kVersionSkew);
  EXPECT_EQ(r.request_id, 5u);
  expect_still_serving(rs);
}

TEST(NetRobustness, OversizedLengthPrefixClosesImmediately) {
  fault::disarm_all();
  RobustServer rs;
  Client evil("127.0.0.1", rs.server.port(), 0, /*manual=*/true);
  const std::uint8_t huge[8] = {0xff, 0xff, 0xff, 0x7f, 'x', 'x', 'x', 'x'};
  ASSERT_TRUE(evil.send_raw(huge, sizeof huge));
  const Response r = evil.read_response();
  EXPECT_EQ(r.status, Status::kProtocolError);
  EXPECT_NE(r.error.find("exceeds limit"), std::string::npos) << r.error;
  expect_still_serving(rs);
}

TEST(NetRobustness, SlowlorisStalledFrameHitsIdleTimeout) {
  fault::disarm_all();
  Server::Options o = RobustServer::defaults();
  o.idle_ms = 300;  // fast timeout so the test is quick
  RobustServer rs(o);
  Client slow("127.0.0.1", rs.server.port(), 0, /*manual=*/true);
  // Send half a frame and stall.
  const std::string wire = encoded_scan(1, {1, 2, 3, 4, 5, 6, 7, 8});
  ASSERT_TRUE(slow.send_raw(wire.data(), wire.size() / 2));
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (rs.server.stats().idle_closed == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(rs.server.stats().idle_closed, 1u);
  expect_still_serving(rs);
}

TEST(NetRobustness, IdleConnectionWithNoPartialFrameSurvives) {
  fault::disarm_all();
  Server::Options o = RobustServer::defaults();
  o.idle_ms = 200;
  RobustServer rs(o);
  Client quiet("127.0.0.1", rs.server.port());
  std::this_thread::sleep_for(700ms);  // well past idle_ms, buffer empty
  EXPECT_EQ(rs.server.stats().idle_closed, 0u);
  const Response r = quiet.scan_sync({4, 4}, ScanOp::kPlus);
  EXPECT_EQ(r.status, Status::kOk) << r.error;
}

TEST(NetRobustness, MidFlightDisconnectLeaksNothing) {
  fault::disarm_all();
  // A slow batching window guarantees requests are still in flight when the
  // client vanishes; the completion path must drop them cleanly.
  RobustServer rs;
  rs.svc.set_window_us(100000);  // 100 ms window
  {
    Client doomed("127.0.0.1", rs.server.port());
    RequestOptions bulk;
    bulk.priority = Priority::kBulk;  // bulk lane: no urgent window cut
    for (int i = 0; i < 8; ++i) {
      // Fire-and-forget: futures dropped, connection closes with requests
      // mid-window.
      (void)doomed.scan(std::vector<Value>(64, 1), ScanOp::kPlus, false,
                        false, {}, bulk);
    }
  }  // ~Client: close with requests still queued for the batcher
  drain_in_flight(rs);
  rs.svc.set_window_us(1);
  expect_still_serving(rs);
  // Every connection is reaped, eventually: the server's io thread closes
  // `good` only after it reads the EOF that ~Client sent, ~0.1 ms after
  // expect_still_serving returns, so wait for it under a deadline.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (rs.server.stats().open != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(rs.server.stats().open, 0u);
}

TEST(NetRobustness, PipelinedMixOfGoodAndBadFramesStopsAtTheBadOne) {
  fault::disarm_all();
  RobustServer rs;
  Client mixed("127.0.0.1", rs.server.port(), 0, /*manual=*/true);
  std::string wire = encoded_scan(1, {1, 2, 3});
  std::string bad = encoded_scan(2, {4, 5});
  bad[4] ^= 0x80;  // corrupt magic on the second frame
  wire += bad;
  wire += encoded_scan(3, {6});  // never reached: connection closes at #2
  ASSERT_TRUE(mixed.send_raw(wire.data(), wire.size()));
  // Both owed responses arrive before the close — the good frame's result
  // (batched, so possibly later) and the protocol error. The error frame can
  // legitimately hit the wire first, so match by request id, not order.
  std::map<std::uint64_t, Response> got;
  for (int i = 0; i < 2; ++i) {
    Response r = mixed.read_response();
    got.emplace(r.request_id, std::move(r));
  }
  ASSERT_TRUE(got.count(1));
  EXPECT_EQ(got[1].status, Status::kOk) << got[1].error;
  ASSERT_TRUE(got.count(2));
  EXPECT_EQ(got[2].status, Status::kProtocolError);
  // Frame #3 was never processed: the connection closes after the two owed
  // responses instead of answering it.
  EXPECT_THROW(mixed.read_response(), std::runtime_error);
  drain_in_flight(rs);
  expect_still_serving(rs);
}

}  // namespace
}  // namespace scanprim::net
