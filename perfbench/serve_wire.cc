// serve_wire: cached templates served over the wire protocol.
//
// Simulated execution costs microseconds, so the request's time goes to the
// net layer, the router's batching, the service's cache-hit path and the
// simulator's contour climb; compile, driver, executor and storage idle.
// One client thread keeps a fixed window of pipelined QUERY frames
// outstanding on each of two connections (one tenant each). Batching comes
// from that window alone: the router's batch window is 0, so no timer sits
// in the measured path.

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/service.h"
#include "workloads/spaces.h"
#include "workloads/tpcds.h"
#include "workloads/tpch.h"

namespace perfbench {
namespace {

using namespace bouquet;

constexpr int kConnections = 2;
constexpr int kWindow = 8;
constexpr uint64_t kWarmupRequests = 2000;
constexpr uint64_t kSliceRequests = 8000;  // tracer-overhead slices
// Client, reactor, router and service worker, all on one CPU.
constexpr int kBusyThreads = 4;
constexpr int kSetups = 5;
// A template whose grid has fewer points repeats its grid a whole number of
// times per round, up to this many requests, so that EQ (100 points) is not
// drowned by the 4D and 5D grids.
constexpr uint64_t kMinTemplateRequests = 8000;

/// One request of the round, with the answer the server must give: the
/// bundle simulator's RunOptimized at the same grid point.
struct Expected {
  int tmpl = 0;
  std::vector<double> sels;
  double cost = 0.0;
  uint32_t executions = 0;
  double pic = 0.0;     ///< oracle: optimal cost at the grid point
  double wasted = 0.0;  ///< charged cost of non-completing steps
};

/// The deployed system: service + server + two connected clients.
struct System {
  Catalog tpch;
  Catalog tpcds;
  obs::MetricsRegistry metrics;
  std::unique_ptr<BouquetService> service;
  std::unique_ptr<net::BouquetServer> server;
  std::vector<net::BlockingClient> clients;
  std::vector<QuerySpec> templates;
  std::vector<std::shared_ptr<const CompiledBouquet>> bundles;
  bool running = false;

  System() = default;
  System(const System&) = delete;
  System& operator=(const System&) = delete;
  ~System() { Stop(); }
  void Stop() {
    if (!running) return;
    running = false;
    if (clients.empty() || !clients[0].ShutdownServer().ok()) {
      server->RequestShutdown();
    }
    server->Wait();
  }
};

std::unique_ptr<System> Setup(int cpu, obs::Tracer* tracer, SpanLog* spans,
                              Report* report) {
  // Every thread of the system under test (pool worker, acceptor, reactor,
  // router) is created here and inherits this pin, and the client thread
  // keeps it. Every hand-off, server-internal or between client and server,
  // is then a same-core wake-up, which a virtual machine serves without an
  // inter-processor interrupt or a halted virtual CPU that the host must
  // schedule again. With the client on a core of its own, hypervisor steal
  // on that core cut throughput by up to a quarter from run to run.
  PinThisThread(cpu);
  auto sys = std::make_unique<System>();
  sys->tpch = MakeTpchCatalog(1.0);
  sys->tpcds = MakeTpcdsCatalog(100.0);
  ServiceOptions so;
  so.num_threads = 1;
  so.metrics = &sys->metrics;
  so.tracer = tracer;
  sys->service = std::make_unique<BouquetService>(sys->tpch, so);

  sys->templates.push_back(MakeEqQuery(sys->tpch));
  for (NamedSpace& s : BenchmarkSpaces(sys->tpch, sys->tpcds)) {
    if (s.benchmark == "H") sys->templates.push_back(std::move(s.query));
  }
  for (const QuerySpec& q : sys->templates) {
    ServiceResult r;
    const double t0 = Now();
    auto bundle = sys->service->GetOrCompile(q, &r);
    const double t1 = Now();
    if (!bundle.ok()) {
      report->Fail("compile " + q.name + ": " + bundle.status().message());
      return nullptr;
    }
    const CompiledBouquet& c = **bundle;
    spans->Add(0, 0, "service.get_or_compile", t0, t1,
               {{"compile_s", r.compile_seconds},
                {"dp_calls", static_cast<double>(c.posp_stats.dp_calls)},
                {"recost_hits",
                 static_cast<double>(c.posp_stats.recost_hits)},
                {"plans", static_cast<double>(c.bouquet->plan_ids.size())}});
    sys->bundles.push_back(*bundle);
  }

  net::ServerOptions no;
  no.num_reactors = 1;
  no.router.batch_window_ms = 0.0;
  no.router.max_queue_depth = 1024;  // far above the 16 outstanding
  no.router.tenant_rate = 0.0;
  no.tracer = tracer;
  no.metrics = &sys->metrics;
  sys->server = std::make_unique<net::BouquetServer>(sys->service.get(), no);
  for (const QuerySpec& q : sys->templates) {
    if (!sys->server->RegisterTemplate(q).ok()) {
      report->Fail("register " + q.name);
      return nullptr;
    }
  }
  if (!sys->server->Start().ok()) {
    report->Fail("server start");
    return nullptr;
  }
  sys->running = true;
  for (int c = 0; c < kConnections; ++c) {
    auto client = net::BlockingClient::Connect(sys->server->port());
    if (!client.ok() || !client->Hello().ok()) {
      report->Fail("client connect");
      return nullptr;
    }
    sys->clients.push_back(std::move(client).value());
  }
  return sys;
}

/// Times each template's grid repeats in a round.
uint64_t GridRepeats(const CompiledBouquet& c) {
  return std::max<uint64_t>(1, kMinTemplateRequests / c.grid->num_points());
}

/// The round: every grid point of every template, GridRepeats times, in a
/// seeded order. q_a is a grid point, so the server's snapping is the
/// identity, and the round's cost and sub-optimality are the bouquets'
/// exact ASO and MSO over their whole ESS grids, whatever the seed.
std::vector<Expected> MakeRound(const System& sys, uint64_t seed) {
  std::vector<Expected> round;
  for (size_t t = 0; t < sys.templates.size(); ++t) {
    const CompiledBouquet& c = *sys.bundles[t];
    const size_t first = round.size();
    for (uint64_t qa = 0; qa < c.grid->num_points(); ++qa) {
      Expected e;
      e.tmpl = static_cast<int>(t);
      e.sels = c.grid->SelectivityAt(qa);
      const SimResult sim = c.simulator->RunOptimized(qa);
      e.cost = sim.total_cost;
      e.executions = static_cast<uint32_t>(sim.num_executions);
      e.pic = c.simulator->ActualOptimal(qa);
      for (const SimStep& s : sim.steps) {
        if (!s.completed) e.wasted += s.charged;
      }
      round.push_back(std::move(e));
    }
    const size_t last = round.size();
    for (uint64_t rep = 1; rep < GridRepeats(c); ++rep) {
      for (size_t i = first; i < last; ++i) round.push_back(round[i]);
    }
  }
  const std::vector<int> order =
      Permutation(seed, static_cast<int>(round.size()));
  std::vector<Expected> shuffled(round.size());
  for (size_t i = 0; i < round.size(); ++i) {
    shuffled[i] = std::move(round[order[i]]);
  }
  return shuffled;
}

struct InFlight {
  uint64_t seq = 0;
  double sent = 0.0;
  double send_end = 0.0;
};

/// Closed-loop pipelined load: whole rounds until `seconds` have passed
/// (at least one), or exactly `max_requests` when non-zero. Every RESULT is
/// checked against the round's answer.
PhaseTiming Drive(System& sys, const std::vector<Expected>& round,
                  double seconds, uint64_t max_requests, uint64_t* next_id,
                  SpanLog* request_spans, Report* report) {
  PhaseTiming t;
  const uint64_t n_round = round.size();
  // Reserved up front so the sample store grows RSS only as it is used.
  t.latencies_s.reserve(static_cast<size_t>(seconds * 100000) + n_round);
  uint64_t issued = 0;
  uint64_t outstanding = 0;
  uint64_t limit = max_requests > 0 ? max_requests : n_round;
  std::vector<net::FrameDecoder> decoders(kConnections);
  std::vector<std::unordered_map<uint64_t, InFlight>> inflight(kConnections);
  const double t_start = Now();
  const double cpu0 = ProcessCpuSeconds();
  const double client_cpu0 = ThreadCpuSeconds();
  double t_last = t_start;
  bool broken = false;

  auto send = [&](int c) {
    if (issued == limit && max_requests == 0 && Now() - t_start < seconds) {
      limit += n_round;
    }
    if (issued == limit) return;
    const Expected& e = round[issued % n_round];
    net::QueryMsg q;
    q.request_id = (*next_id)++;
    q.tenant_id = static_cast<uint32_t>(c);
    q.template_name = sys.templates[e.tmpl].name;
    q.selectivities = e.sels;
    const std::vector<uint8_t> bytes = net::EncodeQuery(q);
    const double t0 = Now();
    if (!sys.clients[c].SendFrame(bytes).ok()) {
      report->Fail("send failed");
      broken = true;
      return;
    }
    inflight[c][q.request_id] = InFlight{issued, t0, Now()};
    ++issued;
    ++outstanding;
  };

  for (int c = 0; c < kConnections; ++c) {
    for (int w = 0; w < kWindow; ++w) send(c);
  }
  pollfd fds[kConnections];
  for (int c = 0; c < kConnections; ++c) {
    fds[c] = pollfd{sys.clients[c].fd(), POLLIN, 0};
  }
  uint8_t buf[1 << 16];
  while (!broken && outstanding > 0) {
    if (poll(fds, kConnections, 10000) <= 0) {
      report->Fail("no response within 10 s");
      break;
    }
    for (int c = 0; c < kConnections && !broken; ++c) {
      if ((fds[c].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      const double recv0 = Now();
      const ssize_t n = recv(fds[c].fd, buf, sizeof(buf), 0);
      if (n <= 0 || !decoders[c].Feed(buf, static_cast<size_t>(n)).ok()) {
        report->Fail("connection lost");
        broken = true;
        break;
      }
      net::Frame frame;
      while (decoders[c].Next(&frame)) {
        const double now = Now();
        t_last = now;
        ++t.requests;
        net::ResultMsg r;
        const auto type = static_cast<net::FrameType>(frame.type);
        if (type != net::FrameType::kResult ||
            !net::DecodeResult(frame, &r).ok()) {
          report->Fail("non-RESULT response");
          broken = true;
          break;
        }
        const auto it = inflight[c].find(r.request_id);
        if (it == inflight[c].end()) {
          report->Fail("unknown request_id");
          broken = true;
          break;
        }
        const InFlight f = it->second;
        inflight[c].erase(it);
        --outstanding;
        const Expected& e = round[f.seq % n_round];
        const bool ok = (r.flags & net::kResultCompleted) != 0 &&
                        (r.flags & net::kResultDegraded) == 0 &&
                        r.num_executions == e.executions &&
                        r.total_cost == e.cost;
        if (ok) {
          ++t.ok;
        } else {
          report->Fail("RESULT differs from the simulator at " +
                       sys.templates[e.tmpl].name);
        }
        t.latencies_s.push_back(now - f.sent);
        if (request_spans != nullptr) {
          const uint64_t root = request_spans->Add(
              r.request_id, 0, "client.request", f.sent, now,
              {{"server_s", r.server_seconds},
               {"executions", static_cast<double>(r.num_executions)},
               {"cost", r.total_cost},
               {"wasted", e.wasted},
               {"template", static_cast<double>(e.tmpl)}});
          request_spans->Add(r.request_id, root, "client.send", f.sent,
                             f.send_end);
          request_spans->Add(r.request_id, root, "client.recv", recv0, now);
        }
        send(c);
      }
    }
  }
  t.wall_s = t_last - t_start;
  t.cpu_s = (ProcessCpuSeconds() - cpu0) - (ThreadCpuSeconds() - client_cpu0);
  return t;
}

struct Counters {
  net::RouterStats router;
  ServiceStats service;
  obs::Histogram::Snapshot queue_wait;
};

Counters Snapshot(System& sys) {
  Counters c;
  c.router = sys.server->router().stats();
  c.service = sys.service->stats();
  c.queue_wait = sys.metrics
                     .GetHistogram("net_queue_wait_seconds",
                                   "admission to dispatch", {})
                     ->snapshot();
  return c;
}

SpanLog::Attrs CounterDeltas(const Counters& before, const Counters& after) {
  const auto d = [](uint64_t x, uint64_t y) {
    return static_cast<double>(x - y);
  };
  return {
      {"router_batches", d(after.router.batches, before.router.batches)},
      {"router_batched",
       d(after.router.batched_requests, before.router.batched_requests)},
      {"queue_wait_sum_s", after.queue_wait.sum - before.queue_wait.sum},
      {"queue_wait_count",
       d(after.queue_wait.count, before.queue_wait.count)},
      {"service_requests",
       d(after.service.requests, before.service.requests)},
      {"cache_hits", d(after.service.cache_hits, before.service.cache_hits)},
      {"execute_s",
       after.service.execute_seconds - before.service.execute_seconds}};
}

}  // namespace

int RunServeWire(const Args& args, Report* report, SpanLog* spans) {
  uint64_t next_id = 1;
  std::vector<Expected> round;
  std::unique_ptr<System> sys;
  std::vector<double> setup_s;
  // Set up several times and report the median; the last system serves.
  const int setups = args.trace ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    if (sys) sys->Stop();
    sys.reset();
    const double t0 = Now();
    sys = Setup(args.cpu, nullptr, spans, report);
    if (!sys) return 1;
    const double t1 = Now();
    if (round.empty()) round = MakeRound(*sys, args.seed);  // oracle: untimed
    const double t2 = Now();
    // Warm-up, checked like the measured requests.
    Drive(*sys, round, 0.0, kWarmupRequests, &next_id, nullptr, report);
    setup_s.push_back((t1 - t0) + (Now() - t2));
  }
  if (!report->correct()) return 1;

  report->Provenance("busy_threads", std::to_string(kBusyThreads));
  report->Provenance("cpu", std::to_string(args.cpu));
  std::string templates;
  for (size_t i = 0; i < sys->templates.size(); ++i) {
    const CompiledBouquet& c = *sys->bundles[i];
    templates += (i > 0 ? "," : "") +
                 TemplateJson(sys->templates[i].name, c,
                              ",\"requests_per_round\":" +
                                  std::to_string(GridRepeats(c) *
                                                 c.grid->num_points()));
  }
  report->Provenance("templates", "[" + templates + "]");
  report->Provenance("connections", std::to_string(kConnections));
  report->Provenance("window_per_connection", std::to_string(kWindow));
  report->Provenance("round_requests", std::to_string(round.size()));
  uint64_t digest = 0;
  for (const Expected& e : round) {
    digest = Fold(digest, {static_cast<double>(e.tmpl)});
    digest = Fold(digest, e.sels);
  }
  report->Provenance("input_digest", HexJson(digest));
  report->Provenance("batch_window_ms", "0");

  if (!args.trace) {
    const PhaseTiming t =
        Drive(*sys, round, args.seconds, 0, &next_id, nullptr, report);
    CountRequests(t, report);
    report->Provenance("rounds", std::to_string(t.requests / round.size()));
    std::vector<double> cost, oracle;
    for (const Expected& e : round) {
      cost.push_back(e.cost);
      oracle.push_back(e.pic);
    }
    ReportEndToEnd(setup_s, t, cost, oracle, report);
    return 0;
  }

  // Traced run. Half the time alternates slices between this system and a
  // second one with the program's Tracer attached to service and server;
  // the other half records the benchmark's spans over whole rounds.
  obs::Tracer tracer(1 << 16);
  SpanLog no_spans;
  std::unique_ptr<System> traced_sys =
      Setup(args.cpu, &tracer, &no_spans, report);
  if (!traced_sys) return 1;
  Drive(*traced_sys, round, 0.0, kWarmupRequests, &next_id, nullptr, report);
  PhaseTiming detached, attached;
  double start = Now();
  Alternate(
      args.seconds / 2,
      [&] {
        return Drive(*sys, round, 0.0, kSliceRequests, &next_id, nullptr,
                     report);
      },
      [&] {
        return Drive(*traced_sys, round, 0.0, kSliceRequests, &next_id,
                     nullptr, report);
      },
      &detached, &attached);
  spans->Add(0, 0, "bench.phase", start, Now(), PhaseAttrs(0, detached));
  spans->Add(0, 0, "bench.phase", start, Now(), PhaseAttrs(2, attached));
  const Counters before = Snapshot(*sys);
  start = Now();
  const PhaseTiming traced =
      Drive(*sys, round, args.seconds / 2, 0, &next_id, spans, report);
  SpanLog::Attrs attrs = PhaseAttrs(1, traced);
  for (const auto& kv : CounterDeltas(before, Snapshot(*sys))) {
    attrs.push_back(kv);
  }
  spans->Add(0, 0, "bench.phase", start, Now(), std::move(attrs));
  CountRequests(detached, report);
  CountRequests(traced, report);
  CountRequests(attached, report);
  return 0;
}

}  // namespace perfbench
