// compile_cold: every request compiles its template.
//
// The only workload where ess and the optimizer dominate and the bouquet
// cache's miss/insert/evict path runs; net, driver, executor and storage
// idle. One caller cycles a round of 3D TPC-H templates (3D_H_Q5 and
// 3D_H_Q7 with ESS ranges perturbed continuously from the seed) through a
// cache far smaller than the round, so each request misses, compiles
// (GeneratePosp, BuildBouquet, simulator surfaces), evicts, and then runs
// once in simulation. Cycling a fixed round keeps the exact counters a
// per-round constant; the continuous perturbation spreads compile costs so
// p50 and p90 do not sit in a gap between two template classes.
//
// Set-up is what the service needs before its first request: TPC-H data is
// generated and its statistics gathered into the catalog the templates
// compile against, the service starts, and one compile of each base
// template warms it. The reference round that later rounds must repeat
// runs after set-up, untimed.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bouquet/bounds.h"
#include "ess/ess_grid.h"
#include "harness.h"
#include "obs/trace.h"
#include "service/service.h"
#include "storage/index.h"
#include "workloads/spaces.h"
#include "workloads/tpcds.h"
#include "workloads/tpch.h"

namespace perfbench {
namespace {

using namespace bouquet;

constexpr int kGridResolution = 10;
// Odd and = 5 (mod 10): p50 and p90 fall mid-way through one template's
// latency cluster, never on the edge between two.
constexpr int kRoundRequests = 25;
constexpr int kCacheCapacity = 4;
constexpr double kMiniScale = 4.0;  // lineitem = 240k rows
constexpr int kSetups = 9;

struct Request {
  ServiceRequest request;
  uint64_t qa = 0;  ///< grid point of q_a (snapping is the identity)
};

/// The exact per-request outcome; every round must repeat the reference.
struct Outcome {
  double cost = 0.0;
  int executions = 0;
  long long dp_calls = 0;
  double oracle = 0.0;  ///< optimal cost at q_a (the PIC at the grid point)
  bool operator==(const Outcome& o) const {
    return cost == o.cost && executions == o.executions &&
           dp_calls == o.dp_calls && oracle == o.oracle;
  }
};

struct System {
  Catalog tpch;
  Catalog tpcds;
  std::unique_ptr<BouquetService> service;
  std::vector<Request> round;
};

std::unique_ptr<System> Setup(uint64_t seed, obs::Tracer* tracer,
                              Report* report) {
  auto sys = std::make_unique<System>();
  {
    Database db;
    TpchDataOptions data;
    data.mini_scale = kMiniScale;
    MakeTpchDatabase(&db, data);
    SyncTpchCatalog(db, &sys->tpch);
  }
  sys->tpcds = MakeTpcdsCatalog(100.0);
  ServiceOptions so;
  so.num_threads = 1;
  so.cache_capacity = kCacheCapacity;
  so.cache_shards = 1;
  so.grid_resolution = kGridResolution;
  so.tracer = tracer;
  sys->service = std::make_unique<BouquetService>(sys->tpch, so);

  const QuerySpec bases[] = {GetSpace("3D_H_Q5", sys->tpch, sys->tpcds).query,
                             GetSpace("3D_H_Q7", sys->tpch, sys->tpcds).query};
  // The round's templates form a Latin hypercube: along every perturbation
  // axis and every q_a axis they fill one stratum each, at its centre, so
  // compile costs spread continuously and alike for every seed. Template i
  // takes stratum (i * step_k) mod n on axis k; the seed orders the round.
  const int dims = bases[0].NumDims();
  auto stratum = [](int i, int axis) {
    static constexpr int kSteps[] = {1, 7, 11, 2, 9, 12, 3, 8, 4};
    return ((i * kSteps[axis]) % kRoundRequests + 0.5) / kRoundRequests;
  };
  std::vector<Request> templates;
  for (int i = 0; i < kRoundRequests; ++i) {
    Request r;
    QuerySpec& q = r.request.query;
    q = bases[i % 2];
    q.name = "cold_" + std::to_string(i);
    for (int d = 0; d < dims; ++d) {
      ErrorDimension& e = q.error_dims[d];
      e.hi *= std::pow(10.0, -0.5 * stratum(i, 3 * d));
      e.lo = e.hi * std::pow(10.0, -(2.0 + 2.0 * stratum(i, 3 * d + 1)));
    }
    const EssGrid grid(q, std::vector<int>(dims, kGridResolution));
    GridPoint p(dims);
    for (int d = 0; d < dims; ++d) {
      p[d] = static_cast<int>(stratum(i, 3 * d + 2) * grid.axis(d).size());
      r.request.actual_selectivities.push_back(grid.axis(d)[p[d]]);
    }
    r.qa = grid.LinearIndex(p);
    templates.push_back(std::move(r));
  }
  for (int i : Permutation(seed, kRoundRequests)) {
    sys->round.push_back(std::move(templates[i]));
  }

  // Warm-up: each base template (not in the round) compiles and runs once
  // at the centre of its grid.
  for (const QuerySpec& q : bases) {
    ServiceRequest warm;
    warm.query = q;
    const EssGrid grid(q, std::vector<int>(dims, kGridResolution));
    for (int d = 0; d < dims; ++d) {
      warm.actual_selectivities.push_back(
          grid.axis(d)[grid.axis(d).size() / 2]);
    }
    Result<ServiceResult> res = sys->service->Run(warm);
    if (!res.ok() || !res->sim.completed) {
      report->Fail("warm-up compile of " + q.name + " failed");
      return nullptr;
    }
  }
  return sys;
}

struct PhaseTotals {
  PhaseTiming timing;
  uint64_t rounds = 0;
};

/// Runs whole rounds until `seconds` have passed (at least one). Each
/// request must compile, complete without fallback within the Theorem-3
/// bound, and repeat `reference` when given.
PhaseTotals Drive(System& sys, double seconds,
                  const std::vector<Outcome>* reference,
                  std::vector<Outcome>* last_round, SpanLog* request_spans,
                  Report* report) {
  PhaseTotals p;
  PhaseTiming& t = p.timing;
  // Reserved up front so the sample store grows RSS only as it is used.
  t.latencies_s.reserve(static_cast<size_t>(seconds * 2000) + sys.round.size());
  double own_wall = 0.0, own_cpu = 0.0;
  const double t_start = Now();
  const double cpu0 = ProcessCpuSeconds();
  do {
    std::vector<Outcome> outcomes(sys.round.size());
    for (size_t i = 0; i < sys.round.size(); ++i) {
      const double t0 = Now();
      Result<ServiceResult> res = sys.service->Run(sys.round[i].request);
      const double t1 = Now();
      const double own_cpu0 = ThreadCpuSeconds();
      ++t.requests;
      t.latencies_s.push_back(t1 - t0);
      bool ok = res.ok() && res->compiled && res->sim.completed &&
                !res->sim.fallback_used && !res->degraded;
      if (ok) {
        const CompiledBouquet& c = *res->compiled_bundle;
        Outcome& o = outcomes[i];
        o.cost = res->sim.total_cost;
        o.executions = res->sim.num_executions;
        o.dp_calls = c.posp_stats.dp_calls;
        o.oracle = c.simulator->ActualOptimal(sys.round[i].qa);
        if (c.simulator->SubOpt(res->sim, sys.round[i].qa) >
            BouquetMsoBound(*c.bouquet) * (1 + 1e-9)) {
          ok = false;
          report->Fail("sub-optimality above the Theorem-3 bound");
        } else if (reference != nullptr && !(o == (*reference)[i])) {
          ok = false;
          report->Fail("charged cost or DP calls differ between rounds");
        }
        if (request_spans != nullptr) {
          double wasted = 0.0;
          for (const SimStep& s : res->sim.steps) {
            if (!s.completed) wasted += s.charged;
          }
          request_spans->Add(
              t.requests, 0, "service.run", t0, t1,
              {{"compile_s", res->compile_seconds},
               {"execute_s", res->execute_seconds},
               {"dp_calls", static_cast<double>(c.posp_stats.dp_calls)},
               {"recost_hits", static_cast<double>(c.posp_stats.recost_hits)},
               {"plans", static_cast<double>(c.bouquet->plan_ids.size())},
               {"executions", static_cast<double>(o.executions)},
               {"cost", o.cost},
               {"wasted", wasted}});
        }
      } else {
        report->Fail(res.ok() ? "request did not compile and complete"
                              : "request failed: " + res.status().message());
      }
      if (ok) ++t.ok;
      own_cpu += ThreadCpuSeconds() - own_cpu0;
      own_wall += Now() - t1;
    }
    ++p.rounds;
    if (last_round != nullptr) *last_round = std::move(outcomes);
  } while (Now() - t_start < seconds);
  t.wall_s = Now() - t_start - own_wall;
  t.cpu_s = ProcessCpuSeconds() - cpu0 - own_cpu;
  return p;
}

}  // namespace

int RunCompileCold(const Args& args, Report* report, SpanLog* spans) {
  std::vector<Outcome> reference;
  std::unique_ptr<System> sys;
  std::vector<double> setup_s;
  const int setups = args.trace ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    sys.reset();
    const double t0 = Now();
    sys = Setup(args.seed, nullptr, report);
    if (!sys) return 1;
    setup_s.push_back(Now() - t0);
  }
  // The reference round, checked like the measured ones.
  Drive(*sys, 0.0, nullptr, &reference, nullptr, report);
  if (!report->correct()) return 1;

  // The caller and the pool worker share each compile's POSP shards.
  report->Provenance("busy_threads", "2");
  const std::string grid = std::to_string(kGridResolution);
  report->Provenance("templates",
                     "[{\"name\":\"3D_H_Q5 (perturbed)\",\"grid\":[" + grid +
                         "," + grid + "," + grid +
                         "]},{\"name\":\"3D_H_Q7 (perturbed)\",\"grid\":[" +
                         grid + "," + grid + "," + grid + "]}]");
  report->Provenance("tpch_mini_scale", Num(kMiniScale));
  report->Provenance("cache_capacity", std::to_string(kCacheCapacity));
  report->Provenance("round_requests", std::to_string(kRoundRequests));
  uint64_t digest = 0;
  for (const Request& r : sys->round) {
    for (const ErrorDimension& d : r.request.query.error_dims) {
      digest = Fold(digest, {d.lo, d.hi});
    }
    digest = Fold(digest, r.request.actual_selectivities);
  }
  report->Provenance("input_digest", HexJson(digest));

  if (!args.trace) {
    const PhaseTotals p =
        Drive(*sys, args.seconds, &reference, nullptr, nullptr, report);
    const PhaseTiming& t = p.timing;
    CountRequests(t, report);
    report->Provenance("rounds", std::to_string(p.rounds));
    std::vector<double> cost, oracle;
    for (const Outcome& o : reference) {
      cost.push_back(o.cost);
      oracle.push_back(o.oracle);
    }
    ReportEndToEnd(setup_s, t, cost, oracle, report);
    return 0;
  }

  // Traced run. Half the time alternates rounds between this system and a
  // second one with the program's Tracer attached to the service; the other
  // half records the benchmark's spans.
  obs::Tracer tracer(1 << 16);
  std::unique_ptr<System> traced_sys = Setup(args.seed, &tracer, report);
  if (!traced_sys) return 1;
  Drive(*traced_sys, 0.0, &reference, nullptr, nullptr, report);
  PhaseTiming detached, attached;
  double start = Now();
  Alternate(
      args.seconds / 2,
      [&] {
        return Drive(*sys, 0.0, &reference, nullptr, nullptr, report).timing;
      },
      [&] {
        return Drive(*traced_sys, 0.0, &reference, nullptr, nullptr, report)
            .timing;
      },
      &detached, &attached);
  spans->Add(0, 0, "bench.phase", start, Now(), PhaseAttrs(0, detached));
  spans->Add(0, 0, "bench.phase", start, Now(), PhaseAttrs(2, attached));
  const ServiceStats before = sys->service->stats();
  start = Now();
  const PhaseTotals traced =
      Drive(*sys, args.seconds / 2, &reference, nullptr, spans, report);
  const ServiceStats after = sys->service->stats();
  SpanLog::Attrs attrs = PhaseAttrs(1, traced.timing);
  attrs.insert(attrs.end(),
               {{"service_requests",
                 static_cast<double>(after.requests - before.requests)},
                {"cache_hits",
                 static_cast<double>(after.cache_hits - before.cache_hits)},
                {"execute_s", after.execute_seconds - before.execute_seconds}});
  spans->Add(0, 0, "bench.phase", start, Now(), std::move(attrs));
  CountRequests(detached, report);
  CountRequests(traced.timing, report);
  CountRequests(attached, report);
  return 0;
}

}  // namespace perfbench
