// exec_paged: real execution over paged TPC-H data.
//
// The only workload that runs the real bouquet driver, the executor, the 2Q
// buffer pool (page reads and spill writes) and feedback warm starts. Net
// and router are bypassed because the wire speaks simulation only, and the
// two templates compile in setup only. One caller issues kRealData requests
// for a fixed set of bindings of 2D_H_Q8a and 3D_H_Q5b.
//
// Pool and feedback state decide charged cost. Every request starts from a
// cold pool, as its oracle does, so its page hits and misses are its own
// plans' alone. The feedback store learns per template; the seed only
// interleaves the two templates, and each template's bindings keep one
// order, so the store sees the same sequence for every seed and a single
// caller keeps it that way. The store keeps learning across rounds;
// warm-up runs a fixed number of rounds, by the end of which it must have
// converged (the last warm-up round repeats its predecessor exactly). Each
// measured round then charges the same cost and page counts.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bouquet/driver.h"
#include "feedback/feedback_store.h"
#include "harness.h"
#include "obs/trace.h"
#include "service/service.h"
#include "storage/paged_table.h"
#include "workloads/spaces.h"
#include "workloads/tpch.h"

namespace perfbench {
namespace {

using namespace bouquet;

constexpr double kMiniScale = 0.5;  // lineitem = 30k rows
constexpr size_t kPoolPages = 48;
// Strata per dimension: 6x6 cells of 2D_H_Q8a and 3x3x3 of 3D_H_Q5b give a
// round of 63 bindings, for which p50 and p90 fall inside one binding's
// latency cluster rather than on the edge between two.
constexpr int kStrata[] = {6, 3};
// Warm-up rounds: a fixed count, so that set-up time does not depend on
// when the feedback store converges. It sees the same sequence for every
// seed and converges in the first round; the rounds after it confirm that.
constexpr int kWarmupRounds = 4;
constexpr int kSetups = 5;
const char* const kTables[] = {"region", "nation",   "supplier", "customer",
                               "part",   "orders",   "lineitem"};

/// Order-independent digest of a multiset of 64-bit values.
struct MultisetDigest {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t xor_mix = 0;
  void Add(uint64_t h) {
    const uint64_t m = Mix64(h);
    ++count;
    sum += m;
    xor_mix ^= Mix64(m);
  }
  bool operator==(const MultisetDigest& o) const {
    return count == o.count && sum == o.sum && xor_mix == o.xor_mix;
  }
};

/// One binding and its oracle: the plan optimal at the true selectivities,
/// run alone on the same data from a cold pool (Table 3's method).
struct Binding {
  int tmpl = 0;
  QuerySpec query;
  std::vector<double> sels;
  double oracle_cost = 0.0;
  MultisetDigest oracle_rows;
};

/// The exact per-request outcome; every round must repeat the reference.
struct Outcome {
  double cost = 0.0;
  int executions = 0;
  int64_t page_reads = 0;
  int64_t page_hits = 0;
  bool operator==(const Outcome& o) const {
    return cost == o.cost && executions == o.executions &&
           page_reads == o.page_reads && page_hits == o.page_hits;
  }
};

MultisetDigest RowDigest(const std::vector<Row>& rows) {
  // Result rows echo join columns in plan-dependent order: compare the
  // multiset of per-row value multisets.
  MultisetDigest d;
  Row sorted;
  for (const Row& row : rows) {
    sorted = row;
    std::sort(sorted.begin(), sorted.end());
    uint64_t h = 0x6a09e667f3bcc909ULL;
    for (int64_t v : sorted) h = Mix64(h ^ static_cast<uint64_t>(v));
    d.Add(h);
  }
  return d;
}

/// Removes the paged data directory after everything using it is gone.
struct DirGuard {
  DirGuard() = default;
  DirGuard(const DirGuard&) = delete;
  DirGuard& operator=(const DirGuard&) = delete;
  ~DirGuard() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

struct System {
  DirGuard dir;
  Catalog catalog;
  std::unique_ptr<storage::StorageManager> sm;
  Database db;
  FeedbackStore feedback;
  std::unique_ptr<BouquetService> service;
  std::vector<QuerySpec> templates;
  std::vector<std::shared_ptr<const CompiledBouquet>> bundles;
  std::vector<uint32_t> template_pages;
};

std::unique_ptr<System> Setup(const std::string& dir,
                              obs::Tracer* tracer, SpanLog* spans,
                              Report* report) {
  auto sys = std::make_unique<System>();
  sys->dir.path = dir;
  std::filesystem::remove_all(dir);
  {
    Database mem;
    TpchDataOptions data;
    data.mini_scale = kMiniScale;
    MakeTpchDatabase(&mem, data);
    SyncTpchCatalog(mem, &sys->catalog);
    sys->sm = std::make_unique<storage::StorageManager>(
        storage::StorageOptions{dir, kPoolPages,
                                storage::EvictionPolicyKind::k2Q});
    for (const char* name : kTables) {
      auto imported = sys->sm->ImportTable(mem.table(name));
      if (!imported.ok()) {
        report->Fail(std::string("import ") + name + ": " +
                     imported.status().message());
        return nullptr;
      }
    }
  }
  sys->db.AttachStorage(sys->sm.get());
  if (tracer != nullptr) sys->sm->buffer()->SetObservability(nullptr, tracer);

  ServiceOptions so;
  so.num_threads = 1;
  so.database = &sys->db;
  so.feedback = &sys->feedback;
  so.tracer = tracer;
  sys->service = std::make_unique<BouquetService>(sys->catalog, so);
  sys->templates = {Make2DHQ8a(sys->catalog), Make3DHQ5b(sys->catalog)};
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
    uint32_t pages = 0;
    for (const std::string& t : q.tables) {
      pages += sys->sm->FindTable(t)->num_data_pages();
    }
    sys->template_pages.push_back(pages);
  }
  return sys;
}

/// The round's bindings and their oracles. Each template's box of true
/// selectivities is cut into equal log-width strata per dimension
/// (kStrata per template) and bound at every cell's centre, so the set of
/// bindings is the same for every seed; the seed interleaves the templates,
/// whose own bindings stay in cell order.
std::vector<Binding> MakeRound(System& sys, uint64_t seed, Report* report) {
  std::vector<Binding> cells;
  for (int t = 0; t < static_cast<int>(sys.templates.size()); ++t) {
    const QuerySpec& q = sys.templates[t];
    int n = 1;
    for (int d = 0; d < q.NumDims(); ++d) n *= kStrata[t];
    for (int cell = 0; cell < n; ++cell) {
      Binding b;
      b.tmpl = t;
      b.query = q;
      std::vector<double> target;
      int rest = cell;
      for (const ErrorDimension& d : q.error_dims) {
        // No lower than two rows of the filtered table: smaller targets
        // bind to selectivity 0, outside the ESS.
        const std::string& table = q.filters[d.predicate_index].table;
        const double rows = sys.catalog.GetTable(table).stats.row_count;
        const double lo = std::max(d.lo, 2.0 / rows);
        const double u = (rest % kStrata[t] + 0.5) / kStrata[t];
        rest /= kStrata[t];
        target.push_back(lo * std::pow(d.hi / lo, u));
      }
      b.sels = BindSelectionConstants(&b.query, sys.catalog, target);
      cells.push_back(std::move(b));
    }
  }
  std::vector<int> next(sys.templates.size(), 0);  // first cell of each
  std::vector<int> label;
  for (const Binding& b : cells) {
    if (label.empty() || b.tmpl != label.back()) next[b.tmpl] = label.size();
    label.push_back(b.tmpl);
  }
  std::vector<Binding> round;
  for (int i : Permutation(seed, static_cast<int>(cells.size()))) {
    Binding& b = round.emplace_back(std::move(cells[next[label[i]]++]));
    QueryOptimizer opt(b.query, sys.catalog, CostParams::Postgres());
    const Plan plan = opt.OptimizeAt(b.sels);
    const CompiledBouquet& c = *sys.bundles[b.tmpl];
    BouquetDriver oracle(*c.bouquet, *c.diagram, &opt, &sys.db);
    sys.sm->buffer()->ResetForTest();
    const DriverResult r = oracle.RunSinglePlan(*plan.root);
    if (!r.completed) report->Fail("oracle plan did not complete");
    b.oracle_cost = r.total_cost_units;
    b.oracle_rows = RowDigest(r.rows);
  }
  return round;
}

struct PhaseTotals {
  PhaseTiming timing;
  storage::BufferStats buffer;  ///< summed over requests
  uint64_t rounds = 0;
};

/// Runs whole rounds until `seconds` have passed (at least one). Requests
/// are checked against their oracle and against `reference` when given.
PhaseTotals Drive(System& sys, const std::vector<Binding>& round,
                  double seconds, const std::vector<Outcome>* reference,
                  std::vector<Outcome>* last_round, SpanLog* request_spans,
                  Report* report) {
  PhaseTotals p;
  PhaseTiming& t = p.timing;
  // Reserved up front so the sample store grows RSS only as it is used.
  t.latencies_s.reserve(static_cast<size_t>(seconds * 10000) + round.size());
  double own_wall = 0.0, own_cpu = 0.0;
  const double t_start = Now();
  const double cpu0 = ProcessCpuSeconds();
  std::vector<ServiceRequest> requests(round.size());
  for (size_t i = 0; i < round.size(); ++i) {
    requests[i].query = round[i].query;
    requests[i].actual_selectivities = round[i].sels;
    requests[i].mode = ExecutionMode::kRealData;
  }
  sys.sm->buffer()->ResetForTest();
  do {
    std::vector<Outcome> outcomes(round.size());
    for (size_t i = 0; i < round.size(); ++i) {
      const double t0 = Now();
      Result<ServiceResult> res = sys.service->Run(requests[i]);
      const double t1 = Now();
      const double own_cpu0 = ThreadCpuSeconds();
      ++t.requests;
      t.latencies_s.push_back(t1 - t0);
      const Binding& b = round[i];
      bool ok = res.ok() && res->real.completed && !res->degraded;
      if (ok) {
        const DriverResult& real = res->real;
        Outcome& o = outcomes[i];
        o = Outcome{real.total_cost_units, real.num_executions,
                    real.page_reads, real.page_hits};
        if (!(RowDigest(real.rows) == b.oracle_rows)) {
          ok = false;
          report->Fail("rows differ from the oracle plan's rows");
        } else if (reference != nullptr && !(o == (*reference)[i])) {
          ok = false;
          report->Fail("charged cost or page counts differ between rounds");
        }
        if (request_spans != nullptr) {
          double step_wall = 0.0, step_charged = 0.0, wasted = 0.0;
          for (const DriverStep& s : real.steps) {
            step_wall += s.wall_seconds;
            step_charged += s.charged;
            if (!s.completed) wasted += s.charged;
          }
          request_spans->Add(
              t.requests, 0, "service.run", t0, t1,
              {{"compile_s", res->compile_seconds},
               {"execute_s", res->execute_seconds},
               {"step_wall_s", step_wall},
               {"step_charged", step_charged},
               {"wasted", wasted},
               {"executions", static_cast<double>(real.num_executions)},
               {"cost", real.total_cost_units},
               {"warm_skipped",
                static_cast<double>(real.warm_contours_skipped)}});
        }
      } else {
        report->Fail("request failed: " +
                     (res.ok() ? std::string("not completed")
                               : res.status().message()));
      }
      if (ok) ++t.ok;
      const storage::BufferStats s = sys.sm->buffer()->stats();
      p.buffer.hits += s.hits;
      p.buffer.misses += s.misses;
      p.buffer.evictions += s.evictions;
      p.buffer.physical_reads += s.physical_reads;
      p.buffer.physical_writes += s.physical_writes;
      sys.sm->buffer()->ResetForTest();  // the next request starts cold
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

/// Warm-up: kWarmupRounds rounds, the last of which must repeat the one
/// before it (the feedback store has converged). Returns the converged
/// round's outcomes and the first round that had them.
bool WarmUp(System& sys, const std::vector<Binding>& round,
            std::vector<Outcome>* reference, int* converged_round,
            Report* report) {
  std::vector<Outcome> prev, cur;
  for (int i = 1; i <= kWarmupRounds; ++i) {
    Drive(sys, round, 0.0, nullptr, &cur, nullptr, report);
    if (!report->correct()) return false;
    if (cur != prev) *converged_round = i;
    prev = std::move(cur);
  }
  if (*converged_round == kWarmupRounds) {
    report->Fail("feedback state did not converge in " +
                 std::to_string(kWarmupRounds) + " warm-up rounds");
    return false;
  }
  *reference = std::move(prev);
  return true;
}

SpanLog::Attrs CounterDeltas(const PhaseTotals& p, const ServiceStats& before,
                             const ServiceStats& after) {
  const auto d = [](uint64_t x, uint64_t y) {
    return static_cast<double>(x - y);
  };
  return {{"service_requests", d(after.requests, before.requests)},
          {"cache_hits", d(after.cache_hits, before.cache_hits)},
          {"execute_s", after.execute_seconds - before.execute_seconds},
          {"feedback_lookups",
           d(after.feedback_lookups, before.feedback_lookups)},
          {"feedback_hits", d(after.feedback_hits, before.feedback_hits)},
          {"feedback_contours_skipped",
           d(after.feedback_contours_skipped,
             before.feedback_contours_skipped)},
          {"buffer_hits", static_cast<double>(p.buffer.hits)},
          {"buffer_misses", static_cast<double>(p.buffer.misses)},
          {"buffer_evictions", static_cast<double>(p.buffer.evictions)},
          {"physical_reads", static_cast<double>(p.buffer.physical_reads)},
          {"physical_writes", static_cast<double>(p.buffer.physical_writes)}};
}

}  // namespace

int RunExecPaged(const Args& args, Report* report, SpanLog* spans) {
  std::vector<Binding> round;
  std::vector<Outcome> reference;
  std::unique_ptr<System> sys;
  std::vector<double> setup_s;
  int converged_round = 0;
  const int setups = args.trace ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    sys.reset();
    const double t0 = Now();
    sys = Setup(args.work_dir + "/paged", nullptr, spans, report);
    if (!sys) return 1;
    const double t1 = Now();
    if (round.empty()) round = MakeRound(*sys, args.seed, report);  // oracle
    const double t2 = Now();
    if (!WarmUp(*sys, round, &reference, &converged_round, report)) return 1;
    setup_s.push_back((t1 - t0) + (Now() - t2));
  }

  std::string templates;
  for (size_t i = 0; i < sys->templates.size(); ++i) {
    const std::string pages = std::to_string(sys->template_pages[i]);
    templates += (i > 0 ? "," : "") +
                 TemplateJson(sys->templates[i].name, *sys->bundles[i],
                              ",\"data_pages\":" + pages);
  }
  report->Provenance("busy_threads", "1");
  report->Provenance("templates", "[" + templates + "]");
  report->Provenance("pool_pages", std::to_string(kPoolPages));
  report->Provenance("tpch_mini_scale", Num(kMiniScale));
  report->Provenance("round_requests", std::to_string(round.size()));
  report->Provenance("warmup_rounds", std::to_string(kWarmupRounds));
  report->Provenance("feedback_converged_round",
                     std::to_string(converged_round));
  uint64_t digest = 0;
  for (const Binding& b : round) {
    digest = Fold(digest, {static_cast<double>(b.tmpl)});
    digest = Fold(digest, b.sels);
  }
  report->Provenance("input_digest", HexJson(digest));

  if (!args.trace) {
    const PhaseTotals p =
        Drive(*sys, round, args.seconds, &reference, nullptr, nullptr, report);
    const PhaseTiming& t = p.timing;
    CountRequests(t, report);
    report->Provenance("rounds", std::to_string(p.rounds));
    std::vector<double> cost, oracle;
    for (size_t i = 0; i < round.size(); ++i) {
      cost.push_back(reference[i].cost);
      oracle.push_back(round[i].oracle_cost);
    }
    ReportEndToEnd(setup_s, t, cost, oracle, report);
    return 0;
  }

  // Traced run. Half the time alternates rounds between this system and a
  // second one with the program's Tracer attached to service and buffer
  // pool; the other half records the benchmark's spans.
  obs::Tracer tracer(1 << 16);
  SpanLog no_spans;
  std::unique_ptr<System> traced_sys =
      Setup(args.work_dir + "/paged-traced", &tracer, &no_spans, report);
  std::vector<Outcome> traced_reference;
  int traced_converged_round = 0;
  if (!traced_sys || !WarmUp(*traced_sys, round, &traced_reference,
                             &traced_converged_round, report)) {
    return 1;
  }
  if (traced_reference != reference) {
    report->Fail("attaching the tracer changed charged cost or page counts");
    return 1;
  }
  PhaseTiming detached, attached;
  double start = Now();
  Alternate(
      args.seconds / 2,
      [&] {
        return Drive(*sys, round, 0.0, &reference, nullptr, nullptr, report)
            .timing;
      },
      [&] {
        return Drive(*traced_sys, round, 0.0, &traced_reference, nullptr,
                     nullptr, report)
            .timing;
      },
      &detached, &attached);
  spans->Add(0, 0, "bench.phase", start, Now(), PhaseAttrs(0, detached));
  spans->Add(0, 0, "bench.phase", start, Now(), PhaseAttrs(2, attached));
  const ServiceStats before = sys->service->stats();
  start = Now();
  const PhaseTotals traced =
      Drive(*sys, round, args.seconds / 2, &reference, nullptr, spans, report);
  SpanLog::Attrs attrs = PhaseAttrs(1, traced.timing);
  for (const auto& kv : CounterDeltas(traced, before, sys->service->stats())) {
    attrs.push_back(kv);
  }
  spans->Add(0, 0, "bench.phase", start, Now(), std::move(attrs));
  CountRequests(detached, report);
  CountRequests(traced.timing, report);
  CountRequests(attached, report);
  return 0;
}

}  // namespace perfbench
