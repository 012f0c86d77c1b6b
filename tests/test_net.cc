// Tests for the serving layer: wire codec round-trips, incremental frame
// decoding under partial/malformed/adversarial input (seeded fuzz with a
// bounded-memory invariant), Connection partial-read/partial-write
// resumption over a socketpair, token-bucket and router scheduling
// semantics (batching, throttling, shedding, drain), the simulator's
// precompiled MSO-safe plan, and a full loopback client/server integration
// pass including overload-induced DEGRADED serving.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "net/router.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/service.h"
#include "workloads/spaces.h"
#include "workloads/tpch.h"

namespace bouquet {
namespace net {
namespace {

// -------------------------------------------------------------------- codec

TEST(WireCodecTest, QueryRoundTrip) {
  QueryMsg msg;
  msg.request_id = 0xdeadbeefcafe1234ull;
  msg.tenant_id = 7;
  msg.template_name = "tpch_eq";
  msg.selectivities = {0.001, 0.5, 1.0};

  Frame frame;
  frame.type = static_cast<uint8_t>(FrameType::kQuery);
  const std::vector<uint8_t> bytes = EncodeQuery(msg);
  ASSERT_GE(bytes.size(), kFrameHeaderBytes);
  frame.payload.assign(bytes.begin() + kFrameHeaderBytes, bytes.end());

  QueryMsg out;
  ASSERT_TRUE(DecodeQuery(frame, &out).ok());
  EXPECT_EQ(out.request_id, msg.request_id);
  EXPECT_EQ(out.tenant_id, msg.tenant_id);
  EXPECT_EQ(out.template_name, msg.template_name);
  EXPECT_EQ(out.selectivities, msg.selectivities);
}

TEST(WireCodecTest, ResultAndErrorRoundTrip) {
  ResultMsg r;
  r.request_id = 42;
  r.flags = kResultCompleted | kResultDegraded;
  r.num_executions = 3;
  r.total_cost = 123.5;
  r.server_seconds = 0.25;
  FrameDecoder dec;
  const std::vector<uint8_t> enc = EncodeResult(r);
  ASSERT_TRUE(dec.Feed(enc.data(), enc.size()).ok());
  Frame frame;
  ASSERT_TRUE(dec.Next(&frame));
  EXPECT_EQ(static_cast<FrameType>(frame.type), FrameType::kResult);
  ResultMsg rd;
  ASSERT_TRUE(DecodeResult(frame, &rd).ok());
  EXPECT_EQ(rd.request_id, r.request_id);
  EXPECT_EQ(rd.flags, r.flags);
  EXPECT_EQ(rd.num_executions, r.num_executions);
  EXPECT_DOUBLE_EQ(rd.total_cost, r.total_cost);
  EXPECT_DOUBLE_EQ(rd.server_seconds, r.server_seconds);

  ErrorMsg e;
  e.request_id = 42;
  e.code = static_cast<uint8_t>(WireError::kThrottled);
  e.message = "over quota";
  const std::vector<uint8_t> enc2 = EncodeError(e);
  ASSERT_TRUE(dec.Feed(enc2.data(), enc2.size()).ok());
  ASSERT_TRUE(dec.Next(&frame));
  ErrorMsg ed;
  ASSERT_TRUE(DecodeError(frame, &ed).ok());
  EXPECT_EQ(ed.request_id, e.request_id);
  EXPECT_EQ(ed.code, e.code);
  EXPECT_EQ(ed.message, e.message);
}

TEST(WireCodecTest, TextAndHelloRoundTrip) {
  const std::string text = "net_requests_total 12\n";
  FrameDecoder dec;
  const std::vector<uint8_t> enc =
      EncodeText(FrameType::kMetricsText, text);
  ASSERT_TRUE(dec.Feed(enc.data(), enc.size()).ok());
  Frame frame;
  ASSERT_TRUE(dec.Next(&frame));
  std::string out;
  ASSERT_TRUE(DecodeText(frame, &out).ok());
  EXPECT_EQ(out, text);

  HelloMsg hello;
  const std::vector<uint8_t> enc2 = EncodeHello(hello, FrameType::kHello);
  ASSERT_TRUE(dec.Feed(enc2.data(), enc2.size()).ok());
  ASSERT_TRUE(dec.Next(&frame));
  HelloMsg hd;
  hd.version = 0;
  ASSERT_TRUE(DecodeHello(frame, &hd).ok());
  EXPECT_EQ(hd.version, kWireVersion);
}

TEST(FrameDecoderTest, ByteAtATimeReassembly) {
  QueryMsg msg;
  msg.request_id = 9;
  msg.template_name = "t";
  msg.selectivities = {0.25};
  std::vector<uint8_t> stream = EncodeQuery(msg);
  const std::vector<uint8_t> goodbye =
      EncodeFrame(FrameType::kGoodbye, {});
  stream.insert(stream.end(), goodbye.begin(), goodbye.end());

  FrameDecoder dec;
  std::vector<Frame> frames;
  for (uint8_t b : stream) {
    ASSERT_TRUE(dec.Feed(&b, 1).ok());
    Frame f;
    while (dec.Next(&f)) frames.push_back(std::move(f));
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(static_cast<FrameType>(frames[0].type), FrameType::kQuery);
  EXPECT_EQ(static_cast<FrameType>(frames[1].type), FrameType::kGoodbye);
  EXPECT_EQ(dec.buffered_bytes(), 0u);
}

TEST(FrameDecoderTest, OversizedDeclarationLatchesBroken) {
  FrameDecoder dec(/*max_payload=*/64);
  uint8_t header[5];
  const uint32_t huge = 65;
  std::memcpy(header, &huge, 4);
  header[4] = static_cast<uint8_t>(FrameType::kQuery);
  EXPECT_FALSE(dec.Feed(header, sizeof(header)).ok());
  EXPECT_TRUE(dec.broken());
  uint8_t byte = 0;
  EXPECT_FALSE(dec.Feed(&byte, 1).ok());  // stays broken
  Frame f;
  EXPECT_FALSE(dec.Next(&f));
}

TEST(WireCodecTest, MalformedPayloadsRejected) {
  // Truncated QUERY payload: reader runs out of bytes mid-message.
  QueryMsg msg;
  msg.template_name = "abc";
  msg.selectivities = {0.5, 0.25};
  std::vector<uint8_t> enc = EncodeQuery(msg);
  Frame frame;
  frame.type = static_cast<uint8_t>(FrameType::kQuery);
  frame.payload.assign(enc.begin() + kFrameHeaderBytes, enc.end() - 3);
  QueryMsg out;
  EXPECT_FALSE(DecodeQuery(frame, &out).ok());

  // String length prefix overrunning the payload must fail, not overread.
  Frame lying;
  lying.type = static_cast<uint8_t>(FrameType::kMetricsText);
  WireWriter w;
  w.U32(1000);  // claims 1000 bytes, provides 2
  w.U8('h');
  w.U8('i');
  lying.payload = w.Take();
  std::string text;
  EXPECT_FALSE(DecodeText(lying, &text).ok());

  // Trailing garbage after a well-formed message is a protocol error.
  Frame padded;
  padded.type = static_cast<uint8_t>(FrameType::kResult);
  std::vector<uint8_t> renc = EncodeResult(ResultMsg{});
  padded.payload.assign(renc.begin() + kFrameHeaderBytes, renc.end());
  padded.payload.push_back(0xff);
  ResultMsg rm;
  EXPECT_FALSE(DecodeResult(padded, &rm).ok());
}

// Seeded fuzz: arbitrary byte streams must never crash the decoder and its
// buffered memory must stay bounded by header + max_payload.
TEST(FrameDecoderTest, FuzzRandomStreamsBoundedMemory) {
  std::mt19937 rng(20260808);
  for (int round = 0; round < 200; ++round) {
    const uint32_t max_payload = 1u << (4 + round % 8);  // 16 B .. 2 KiB
    FrameDecoder dec(max_payload);
    std::uniform_int_distribution<int> chunk_len(1, 257);
    std::uniform_int_distribution<int> byte(0, 255);
    for (int step = 0; step < 64; ++step) {
      std::vector<uint8_t> chunk(chunk_len(rng));
      for (uint8_t& b : chunk) b = static_cast<uint8_t>(byte(rng));
      // Occasionally splice in a valid frame so some rounds make progress.
      if (step % 16 == 0) {
        const std::vector<uint8_t> good = EncodeFrame(
            FrameType::kHello, std::vector<uint8_t>(4, 0));
        chunk.insert(chunk.end(), good.begin(), good.end());
      }
      const Status fed = dec.Feed(chunk.data(), chunk.size());
      Frame f;
      while (dec.Next(&f)) {
        EXPECT_LE(f.payload.size(), max_payload);
      }
      EXPECT_LE(dec.buffered_bytes(), kFrameHeaderBytes + max_payload);
      if (!fed.ok()) {
        EXPECT_TRUE(dec.broken());
        break;
      }
    }
  }
}

// --------------------------------------------------------------- connection

class SocketPairTest : public ::testing::Test {
 protected:
  void SetUp() override {
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    local_ = fds[0];
    peer_ = fds[1];
    ASSERT_TRUE(SetNonBlocking(local_).ok());
    ASSERT_TRUE(SetNonBlocking(peer_).ok());
  }

  void TearDown() override {
    // local_ is owned (and closed) by the Connection in most tests.
    if (peer_ >= 0) close(peer_);
  }

  int local_ = -1;
  int peer_ = -1;
};

TEST_F(SocketPairTest, PartialReadsResumeAcrossFrameBoundaries) {
  Connection conn(local_, /*id=*/1);
  QueryMsg msg;
  msg.request_id = 77;
  msg.template_name = "resume";
  msg.selectivities = {0.1, 0.2};
  const std::vector<uint8_t> enc = EncodeQuery(msg);

  // First half of the frame: no complete frame yet, connection stays ok.
  const size_t half = enc.size() / 2;
  ASSERT_EQ(send(peer_, enc.data(), half, 0), static_cast<ssize_t>(half));
  std::vector<Frame> frames;
  EXPECT_EQ(conn.ReadFrames(&frames), Connection::IoResult::kOk);
  EXPECT_TRUE(frames.empty());

  // Second half: the frame completes.
  ASSERT_EQ(send(peer_, enc.data() + half, enc.size() - half, 0),
            static_cast<ssize_t>(enc.size() - half));
  EXPECT_EQ(conn.ReadFrames(&frames), Connection::IoResult::kOk);
  ASSERT_EQ(frames.size(), 1u);
  QueryMsg out;
  ASSERT_TRUE(DecodeQuery(frames[0], &out).ok());
  EXPECT_EQ(out.request_id, 77u);
  EXPECT_EQ(out.template_name, "resume");
}

TEST_F(SocketPairTest, PartialWritesResumeUntilDrained) {
  // Shrink the send buffer so a large frame cannot leave in one send().
  int small = 4096;
  setsockopt(local_, SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  Connection conn(local_, /*id=*/2);

  const std::string big(512 * 1024, 'x');
  conn.QueueWrite(EncodeText(FrameType::kMetricsText, big));
  const size_t total = conn.pending_write_bytes();
  ASSERT_GT(total, big.size());

  FrameDecoder dec;
  Frame frame;
  bool got = false;
  for (int spin = 0; spin < 100000 && !got; ++spin) {
    ASSERT_NE(conn.Flush(), Connection::IoResult::kError);
    uint8_t buf[8192];
    const ssize_t n = recv(peer_, buf, sizeof(buf), 0);
    if (n > 0) {
      ASSERT_TRUE(dec.Feed(buf, static_cast<size_t>(n)).ok());
      got = dec.Next(&frame);
    }
  }
  ASSERT_TRUE(got);
  EXPECT_FALSE(conn.want_write());
  std::string out;
  ASSERT_TRUE(DecodeText(frame, &out).ok());
  EXPECT_EQ(out, big);
}

TEST_F(SocketPairTest, GarbageStreamReportsProtocolError) {
  Connection conn(local_, /*id=*/3, /*max_payload=*/128);
  std::vector<uint8_t> garbage(64, 0xff);  // declares a ~4 GiB payload
  ASSERT_EQ(send(peer_, garbage.data(), garbage.size(), 0),
            static_cast<ssize_t>(garbage.size()));
  std::vector<Frame> frames;
  EXPECT_EQ(conn.ReadFrames(&frames), Connection::IoResult::kProtocolError);
}

TEST_F(SocketPairTest, PeerCloseReportsClosed) {
  Connection conn(local_, /*id=*/4);
  close(peer_);
  peer_ = -1;
  std::vector<Frame> frames;
  EXPECT_EQ(conn.ReadFrames(&frames), Connection::IoResult::kClosed);
}

// ------------------------------------------------------------- token bucket

TEST(TokenBucketTest, DeterministicRefill) {
  TokenBucket bucket(/*rate_per_s=*/2.0, /*burst=*/2.0);
  EXPECT_TRUE(bucket.TryTake(0.0));
  EXPECT_TRUE(bucket.TryTake(0.0));
  EXPECT_FALSE(bucket.TryTake(0.0));   // burst spent
  EXPECT_FALSE(bucket.TryTake(0.25));  // 0.5 tokens accrued: not enough
  EXPECT_TRUE(bucket.TryTake(0.5));    // 1.0 accrued
  EXPECT_FALSE(bucket.TryTake(0.5));
  EXPECT_TRUE(bucket.TryTake(10.0));   // refill capped at burst
  EXPECT_TRUE(bucket.TryTake(10.0));
  EXPECT_FALSE(bucket.TryTake(10.0));
}

TEST(TokenBucketTest, ZeroRateDisablesThrottling) {
  TokenBucket bucket(0.0, 0.0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(bucket.TryTake(0.0));
}

// ------------------------------------------------------------------- router

RoutedRequest MakeRouted(const std::string& tmpl, uint32_t tenant,
                         std::atomic<int>* responded,
                         std::atomic<int>* failed) {
  RoutedRequest req;
  req.query.template_name = tmpl;
  req.query.tenant_id = tenant;
  req.query.selectivities = {0.5};
  req.arrival = std::chrono::steady_clock::now();
  req.respond = [responded](const ResultMsg&) {
    if (responded != nullptr) responded->fetch_add(1);
  };
  req.fail = [failed](WireError, const std::string&) {
    if (failed != nullptr) failed->fetch_add(1);
  };
  return req;
}

TEST(RequestRouterTest, BatchesSameTemplateUpToMaxBatch) {
  RouterOptions opts;
  opts.batch_window_ms = 500.0;  // only max_batch can trigger the flushes
  opts.max_batch = 4;
  opts.max_inflight_batches = 8;

  Mutex mu;
  std::vector<size_t> batch_sizes;
  std::atomic<int> responded{0};
  RequestRouter* router_ptr = nullptr;
  RequestRouter router(
      opts,
      [&](const std::string& tmpl, std::vector<RoutedRequest> batch) {
        EXPECT_EQ(tmpl, "t");
        {
          MutexLock lock(&mu);
          batch_sizes.push_back(batch.size());
        }
        ResultMsg msg;
        for (RoutedRequest& r : batch) r.respond(msg);
        router_ptr->OnBatchDone();
      },
      [](RoutedRequest) { FAIL() << "nothing should shed"; });
  router_ptr = &router;

  for (int i = 0; i < 10; ++i) {
    router.Submit(MakeRouted("t", 0, &responded, nullptr));
  }
  router.Drain();  // flushes the final partial batch
  EXPECT_EQ(responded.load(), 10);
  {
    MutexLock lock(&mu);
    size_t total = 0;
    for (size_t s : batch_sizes) {
      EXPECT_LE(s, 4u);
      total += s;
    }
    EXPECT_EQ(total, 10u);
  }
  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.admitted, 10u);
  EXPECT_EQ(stats.batched_requests, 10u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(RequestRouterTest, TokenBucketThrottlesBeyondBurst) {
  RouterOptions opts;
  opts.batch_window_ms = 0.1;
  opts.tenant_rate = 1e-6;  // effectively no refill within the test
  opts.tenant_burst = 3.0;

  std::atomic<int> responded{0};
  std::atomic<int> failed{0};
  RequestRouter* router_ptr = nullptr;
  RequestRouter router(
      opts,
      [&](const std::string&, std::vector<RoutedRequest> batch) {
        ResultMsg msg;
        for (RoutedRequest& r : batch) r.respond(msg);
        router_ptr->OnBatchDone();
      },
      [](RoutedRequest) { FAIL() << "queue never fills"; });
  router_ptr = &router;

  for (int i = 0; i < 8; ++i) {
    router.Submit(MakeRouted("t", 1, &responded, &failed));
  }
  router.Drain();
  EXPECT_EQ(responded.load(), 3);
  EXPECT_EQ(failed.load(), 5);
  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.throttled, 5u);
}

TEST(RequestRouterTest, ShedsBeyondQueueBoundAndKeepsDepthBounded) {
  RouterOptions opts;
  opts.batch_window_ms = 200.0;
  opts.max_batch = 2;
  opts.max_queue_depth = 3;
  opts.max_inflight_batches = 1;

  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<int> responded{0};
  std::atomic<int> shed{0};
  RequestRouter* router_ptr = nullptr;
  RequestRouter router(
      opts,
      [&](const std::string&, std::vector<RoutedRequest> batch) {
        // Park the (single) inflight slot on a worker thread so submissions
        // pile up behind the queue bound.
        std::thread([&, b = std::make_shared<std::vector<RoutedRequest>>(
                            std::move(batch))]() mutable {
          gate.wait();
          ResultMsg msg;
          for (RoutedRequest& r : *b) r.respond(msg);
          router_ptr->OnBatchDone();
        }).detach();
      },
      [&](RoutedRequest req) {
        shed.fetch_add(1);
        ResultMsg msg;
        msg.flags = kResultDegraded;
        req.respond(msg);
      });
  router_ptr = &router;

  constexpr int kTotal = 20;
  for (int i = 0; i < kTotal; ++i) {
    router.Submit(MakeRouted("t", 0, &responded, nullptr));
  }
  release.set_value();
  router.Drain();
  EXPECT_EQ(responded.load(), kTotal);
  EXPECT_GE(shed.load(), 1);
  const RouterStats stats = router.stats();
  EXPECT_LE(stats.peak_queue_depth, opts.max_queue_depth);
  EXPECT_EQ(stats.admitted + stats.shed, static_cast<uint64_t>(kTotal));
}

TEST(RequestRouterTest, DrainRejectsNewSubmissions) {
  RouterOptions opts;
  std::atomic<int> failed{0};
  RequestRouter* router_ptr = nullptr;
  RequestRouter router(
      opts,
      [&](const std::string&, std::vector<RoutedRequest> batch) {
        ResultMsg msg;
        for (RoutedRequest& r : batch) r.respond(msg);
        router_ptr->OnBatchDone();
      },
      [](RoutedRequest) {});
  router_ptr = &router;
  router.Drain();
  router.Submit(MakeRouted("t", 0, nullptr, &failed));
  EXPECT_EQ(failed.load(), 1);
  EXPECT_EQ(router.stats().rejected_draining, 1u);
}

// ---------------------------------------------------------------- safe plan

TEST(SafePlanTest, RunSafeIsOneBoundedExecution) {
  const Catalog catalog = MakeTpchCatalog(1.0);
  ServiceOptions opts;
  opts.num_threads = 2;
  opts.grid_resolution = 20;
  opts.min_shard_points = 1;
  BouquetService service(catalog, opts);

  const QuerySpec query = MakeEqQuery(catalog);
  auto bundle_or = service.GetOrCompile(query);
  ASSERT_TRUE(bundle_or.ok()) << bundle_or.status().ToString();
  const BouquetSimulator& sim = *bundle_or.value()->simulator;

  ASSERT_GE(sim.safe_plan(), 0);
  ASSERT_GT(sim.safe_budget(), 0.0);
  const uint64_t n = bundle_or.value()->grid->num_points();
  for (uint64_t qa = 0; qa < n; qa += std::max<uint64_t>(1, n / 7)) {
    const SimResult r = sim.RunSafe(qa);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.num_executions, 1);
    // The safe plan's cost at any location is bounded by its precomputed
    // worst case — that is the whole point of shedding onto it.
    EXPECT_LE(r.total_cost, sim.safe_budget() * (1.0 + 1e-9));
    EXPECT_GT(r.total_cost, 0.0);
  }
}

TEST(SafePlanTest, ServiceRunSafePlanRequiresCompiledTemplate) {
  const Catalog catalog = MakeTpchCatalog(1.0);
  ServiceOptions opts;
  opts.num_threads = 2;
  opts.grid_resolution = 20;
  opts.min_shard_points = 1;
  BouquetService service(catalog, opts);

  ServiceRequest req;
  req.query = MakeEqQuery(catalog);
  req.actual_selectivities = {0.05};
  EXPECT_FALSE(service.RunSafePlan(req).ok());  // nothing compiled yet

  ASSERT_TRUE(service.Run(req).ok());
  auto degraded = service.RunSafePlan(req);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded->degraded);
  EXPECT_TRUE(degraded->sim.completed);
  EXPECT_EQ(degraded->sim.num_executions, 1);
  EXPECT_EQ(service.stats().sheds, 1u);
}

// -------------------------------------------------------------- integration

class LoopbackServerTest : public ::testing::Test {
 protected:
  LoopbackServerTest() : catalog_(MakeTpchCatalog(1.0)) {}

  ServiceOptions FastService() {
    ServiceOptions o;
    o.num_threads = 4;
    o.grid_resolution = 20;
    o.min_shard_points = 1;
    o.tracer = &tracer_;
    o.metrics = &metrics_;
    return o;
  }

  ServerOptions FastServer() {
    ServerOptions o;
    o.num_reactors = 2;
    o.router.batch_window_ms = 1.0;
    o.tracer = &tracer_;
    o.metrics = &metrics_;
    return o;
  }

  Catalog catalog_;
  obs::Tracer tracer_{1 << 16};
  obs::MetricsRegistry metrics_;
};

TEST_F(LoopbackServerTest, ServesQueriesMetricsAndTracesOverTheWire) {
  BouquetService service(catalog_, FastService());
  BouquetServer server(&service, FastServer());
  const QuerySpec query = MakeEqQuery(catalog_);
  ASSERT_TRUE(server.RegisterTemplate(query).ok());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  auto client_or = BlockingClient::Connect(server.port());
  ASSERT_TRUE(client_or.ok()) << client_or.status().ToString();
  BlockingClient client = std::move(client_or).value();
  ASSERT_TRUE(client.Hello().ok());

  // Synchronous queries: the first compiles, the rest hit the cache.
  const double locations[4] = {0.001, 0.05, 0.3, 0.9};
  for (int i = 0; i < 12; ++i) {
    QueryMsg q;
    q.request_id = 100 + i;
    q.tenant_id = i % 3;
    q.template_name = query.name;
    q.selectivities = {locations[i % 4]};
    auto out = client.Query(q);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ASSERT_TRUE(out->ok) << out->error.message;
    EXPECT_EQ(out->result.request_id, 100u + i);
    EXPECT_NE(out->result.flags & kResultCompleted, 0);
    EXPECT_EQ(out->result.flags & kResultDegraded, 0);
    EXPECT_GT(out->result.total_cost, 0.0);
    EXPECT_GE(out->result.server_seconds, 0.0);
    if (i > 0) {
      EXPECT_NE(out->result.flags & kResultCacheHit, 0);
    }
  }

  // Pipelined burst: all same-template, so batching must kick in.
  constexpr int kBurst = 16;
  for (int i = 0; i < kBurst; ++i) {
    QueryMsg q;
    q.request_id = 1000 + i;
    q.template_name = query.name;
    q.selectivities = {0.05};
    ASSERT_TRUE(client.SendFrame(EncodeQuery(q)).ok());
  }
  int completed = 0;
  for (int i = 0; i < kBurst; ++i) {
    auto frame_or = client.RecvFrame();
    ASSERT_TRUE(frame_or.ok()) << frame_or.status().ToString();
    ASSERT_EQ(static_cast<FrameType>(frame_or.value().type),
              FrameType::kResult);
    ResultMsg r;
    ASSERT_TRUE(DecodeResult(frame_or.value(), &r).ok());
    if ((r.flags & kResultCompleted) != 0) ++completed;
  }
  EXPECT_EQ(completed, kBurst);

  // Unknown template and malformed selectivities come back as ERRORs.
  QueryMsg bad;
  bad.request_id = 7777;
  bad.template_name = "no_such_template";
  bad.selectivities = {0.5};
  auto bad_out = client.Query(bad);
  ASSERT_TRUE(bad_out.ok());
  EXPECT_FALSE(bad_out->ok);
  EXPECT_EQ(bad_out->error.code,
            static_cast<uint8_t>(WireError::kUnknownTemplate));

  bad.template_name = query.name;
  bad.selectivities = {2.0};
  bad_out = client.Query(bad);
  ASSERT_TRUE(bad_out.ok());
  EXPECT_FALSE(bad_out->ok);
  EXPECT_EQ(bad_out->error.code,
            static_cast<uint8_t>(WireError::kMalformed));

  // Live observability over the wire.
  auto metrics_or = client.MetricsText();
  ASSERT_TRUE(metrics_or.ok()) << metrics_or.status().ToString();
  EXPECT_NE(metrics_or.value().find("net_requests_total"),
            std::string::npos);
  EXPECT_NE(metrics_or.value().find("service_requests_total"),
            std::string::npos);
  auto trace_or = client.TraceJsonl();
  ASSERT_TRUE(trace_or.ok()) << trace_or.status().ToString();
  EXPECT_NE(trace_or.value().find("net.request"), std::string::npos);
  EXPECT_NE(trace_or.value().find("service.batch"), std::string::npos);

  // Graceful wire-initiated shutdown.
  ASSERT_TRUE(client.ShutdownServer().ok());
  server.Wait();

  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.requests, 28u);
  EXPECT_EQ(stats.compilations, 1u);  // 28 requests, one compile
  EXPECT_GE(stats.batch_requests, static_cast<uint64_t>(kBurst) / 2);
}

TEST_F(LoopbackServerTest, ShutdownTraceExportFailureIsReported) {
  // Regression: a failed shutdown trace export used to be dropped, so the
  // owner had no way to learn the trace file was never written.
  BouquetService service(catalog_, FastService());
  ServerOptions sopts = FastServer();
  sopts.num_reactors = 1;
  sopts.trace_path = ::testing::TempDir() + "/no_such_dir/trace.jsonl";
  BouquetServer server(&service, sopts);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.trace_export_status().ok());  // nothing exported yet
  server.RequestShutdown();
  server.Wait();
  EXPECT_FALSE(server.trace_export_status().ok());

  const std::string good = ::testing::TempDir() + "/server_trace.jsonl";
  sopts.trace_path = good;
  BouquetServer ok_server(&service, sopts);
  ASSERT_TRUE(ok_server.Start().ok());
  ok_server.RequestShutdown();
  ok_server.Wait();
  EXPECT_TRUE(ok_server.trace_export_status().ok())
      << ok_server.trace_export_status().ToString();
  std::remove(good.c_str());
}

TEST_F(LoopbackServerTest, OverloadShedsToDegradedSafePlanWithBoundedQueue) {
  BouquetService service(catalog_, FastService());
  ServerOptions sopts = FastServer();
  sopts.num_reactors = 1;
  sopts.router.batch_window_ms = 50.0;
  sopts.router.max_batch = 4;
  sopts.router.max_queue_depth = 2;
  sopts.router.max_inflight_batches = 1;
  BouquetServer server(&service, sopts);
  const QuerySpec query = MakeEqQuery(catalog_);
  ASSERT_TRUE(server.RegisterTemplate(query).ok());
  ASSERT_TRUE(server.Start().ok());

  auto client_or = BlockingClient::Connect(server.port());
  ASSERT_TRUE(client_or.ok());
  BlockingClient client = std::move(client_or).value();

  // Warm the template so the safe plan exists before the flood.
  QueryMsg warm;
  warm.request_id = 1;
  warm.template_name = query.name;
  warm.selectivities = {0.05};
  auto warm_out = client.Query(warm);
  ASSERT_TRUE(warm_out.ok());
  ASSERT_TRUE(warm_out->ok);

  // Open-loop flood: far more than the queue bound admits.
  constexpr int kFlood = 40;
  for (int i = 0; i < kFlood; ++i) {
    QueryMsg q;
    q.request_id = 100 + i;
    q.template_name = query.name;
    q.selectivities = {0.2};
    ASSERT_TRUE(client.SendFrame(EncodeQuery(q)).ok());
  }
  int degraded = 0, normal = 0;
  for (int i = 0; i < kFlood; ++i) {
    auto frame_or = client.RecvFrame();
    ASSERT_TRUE(frame_or.ok()) << frame_or.status().ToString();
    ASSERT_EQ(static_cast<FrameType>(frame_or.value().type),
              FrameType::kResult);
    ResultMsg r;
    ASSERT_TRUE(DecodeResult(frame_or.value(), &r).ok());
    EXPECT_NE(r.flags & kResultCompleted, 0);
    if ((r.flags & kResultDegraded) != 0) {
      ++degraded;
    } else {
      ++normal;
    }
  }
  EXPECT_EQ(degraded + normal, kFlood);
  EXPECT_GE(degraded, 1);  // overload must actually shed

  const RouterStats rstats = server.router().stats();
  EXPECT_LE(rstats.peak_queue_depth, sopts.router.max_queue_depth);
  EXPECT_GE(rstats.shed, static_cast<uint64_t>(degraded));
  EXPECT_EQ(service.stats().sheds, rstats.shed);
  EXPECT_EQ(service.stats().compilations, 1u);

  (void)client.ShutdownServer();
  server.RequestShutdown();
  server.Wait();
}

}  // namespace
}  // namespace net
}  // namespace bouquet
