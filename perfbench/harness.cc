#include "harness.h"

#include "service/bouquet_cache.h"

#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double CpuClock(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Peak resident set of the process in MiB.
double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
  // of the process image that exec replaced (here the launching script).
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// The highest CPU of the process's allowed set (CPU 0 usually takes the
/// most device interrupts); call before any thread is pinned.
int HighestCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &set)) return cpu;
  }
  return -1;
}

}  // namespace

double ProcessCpuSeconds() { return CpuClock(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return CpuClock(CLOCK_THREAD_CPUTIME_ID); }

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

bool PinThisThread(int cpu) {
  if (cpu < 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

uint64_t Fold(uint64_t h, const std::vector<double>& v) {
  for (double x : v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    h = Mix64(h ^ bits);
  }
  return Mix64(h ^ v.size());
}

std::string HexJson(uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "\"%016llx\"",
                static_cast<unsigned long long>(h));
  return buf;
}

std::vector<int> Permutation(uint64_t seed, int n) {
  std::vector<int> p(n);
  for (int i = 0; i < n; ++i) p[i] = i;
  for (int i = n - 1; i > 0; --i) {
    seed += 0x9e3779b97f4a7c15ULL;
    std::swap(p[i], p[Mix64(seed) % static_cast<uint64_t>(i + 1)]);
  }
  return p;
}

namespace {

/// Nearest-rank percentile of `values` (copied and sorted).
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double s = 0.0;
  for (double v : values) s += v;
  return s / static_cast<double>(values.size());
}

void Accumulate(const PhaseTiming& t, PhaseTiming* into) {
  into->latencies_s.insert(into->latencies_s.end(), t.latencies_s.begin(),
                           t.latencies_s.end());
  into->wall_s += t.wall_s;
  into->cpu_s += t.cpu_s;
  into->ok += t.ok;
  into->requests += t.requests;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string TemplateJson(const std::string& name,
                         const bouquet::CompiledBouquet& c,
                         const std::string& extra) {
  std::string grid;
  for (int d = 0; d < c.grid->dims(); ++d) {
    grid += (d > 0 ? "," : "") + std::to_string(c.grid->axis(d).size());
  }
  return "{\"name\":" + Quote(name) + ",\"grid\":[" + grid +
         "],\"plans\":" + std::to_string(c.bouquet->plan_ids.size()) + extra +
         "}";
}

uint64_t SpanLog::Add(uint64_t trace, uint64_t parent, const char* name,
                      double start_s, double end_s, Attrs attrs) {
  if (!enabled_) return 0;
  const uint64_t id = spans_.size() + 1;
  spans_.push_back(
      Record{id, trace, parent, name, start_s, end_s - start_s,
             std::move(attrs)});
  return id;
}

bool SpanLog::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Record& r : spans_) {
    std::fprintf(f,
                 "{\"id\":%llu,\"trace\":%llu,\"parent\":%llu,\"name\":\"%s\","
                 "\"start_s\":%s,\"dur_s\":%s,\"attrs\":{",
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.trace),
                 static_cast<unsigned long long>(r.parent), r.name,
                 Num(r.start_s).c_str(), Num(r.dur_s).c_str());
    for (size_t i = 0; i < r.attrs.size(); ++i) {
      std::fprintf(f, "%s\"%s\":%s", i == 0 ? "" : ",", r.attrs[i].first,
                   Num(r.attrs[i].second).c_str());
    }
    std::fprintf(f, "}}\n");
  }
  return std::fclose(f) == 0;
}

void Report::Metric(const std::string& name, double value, const char* unit,
                    uint64_t samples) {
  metrics_.push_back(Quote(name) + ":{\"value\":" + Num(value) +
                     ",\"unit\":" + Quote(unit) +
                     ",\"samples\":" + std::to_string(samples) + "}");
}

void Report::Provenance(const std::string& key,
                        const std::string& json_value) {
  provenance_.push_back(Quote(key) + ":" + json_value);
}

void Report::Fail(const std::string& why) {
  ++failure_count_;
  if (failures_.size() < 8) {
    failures_.push_back(why);
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  }
}

void Report::Print(const Args& args, const std::string& span_file) const {
  auto join = [](const std::vector<std::string>& parts) {
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
      if (i > 0) out += ",";
      out += parts[i];
    }
    return out;
  };
  std::vector<std::string> failures;
  for (const std::string& f : failures_) failures.push_back(Quote(f));
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"seconds\":%s,\"trace\":%d,"
      "\"correct\":%s,\"attempted\":%llu,\"ok\":%llu,\"failures\":%llu,"
      "\"failure_samples\":[%s],\"span_file\":%s,\"provenance\":{%s},"
      "\"metrics\":{%s}}\n",
      Quote(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), Num(args.seconds).c_str(),
      args.trace ? 1 : 0, correct() ? "true" : "false",
      static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(ok_),
      static_cast<unsigned long long>(failure_count_),
      join(failures).c_str(), Quote(span_file).c_str(),
      join(provenance_).c_str(), join(metrics_).c_str());
  std::fflush(stdout);
}

void ReportEndToEnd(const std::vector<double>& setup_s, const PhaseTiming& t,
                    const std::vector<double>& cost,
                    const std::vector<double>& oracle_cost, Report* report) {
  const uint64_t n = t.latencies_s.size();
  double cost_sum = 0.0, subopt_sum = 0.0, subopt_max = 0.0;
  for (size_t i = 0; i < cost.size(); ++i) {
    const double subopt = cost[i] / oracle_cost[i];
    cost_sum += cost[i];
    subopt_sum += subopt;
    subopt_max = std::max(subopt_max, subopt);
  }
  const double round = static_cast<double>(cost.size());
  std::string each;
  for (double v : setup_s) each += (each.empty() ? "" : ",") + Num(v);
  report->Provenance("setup_s_each", "[" + each + "]");
  report->Metric("setup_s", Percentile(setup_s, 0.5), "s", setup_s.size());
  report->Metric("throughput_rps", t.wall_s > 0 ? t.ok / t.wall_s : 0.0,
                 "1/s", t.requests);
  report->Metric("latency_p50_ms", 1e3 * Percentile(t.latencies_s, 0.50),
                 "ms", n);
  report->Metric("latency_p90_ms", 1e3 * Percentile(t.latencies_s, 0.90),
                 "ms", n);
  report->Metric("cpu_ms_per_req",
                 t.requests > 0 ? 1e3 * t.cpu_s / t.requests : 0.0, "ms",
                 t.requests);
  report->Metric("cost_units_per_req", cost_sum / round, "cost", t.requests);
  report->Metric("subopt_mean", subopt_sum / round, "ratio", t.requests);
  report->Metric("subopt_max", subopt_max, "ratio", t.requests);
  report->Metric("ok_frac",
                 t.requests > 0 ? static_cast<double>(t.ok) / t.requests : 0.0,
                 "frac", t.requests);
  report->Metric("peak_rss_mb", PeakRssMb(), "MiB", 1);
}

void CountRequests(const PhaseTiming& t, Report* report) {
  report->Attempt(t.requests);
  report->Ok(t.ok);
}

SpanLog::Attrs PhaseAttrs(int phase, const PhaseTiming& t) {
  return {{"phase", static_cast<double>(phase)},
          {"requests", static_cast<double>(t.requests)},
          {"ok", static_cast<double>(t.ok)},
          {"wall_s", t.wall_s},
          {"rps", t.wall_s > 0 ? t.ok / t.wall_s : 0.0},
          {"p50_s", Percentile(t.latencies_s, 0.5)},
          {"mean_s", Mean(t.latencies_s)}};
}

void Alternate(double seconds, const std::function<PhaseTiming()>& detached,
               const std::function<PhaseTiming()>& attached, PhaseTiming* d,
               PhaseTiming* a) {
  const double t0 = Now();
  do {
    Accumulate(detached(), d);
    Accumulate(attached(), a);
  } while (Now() - t0 < seconds);
}

}  // namespace perfbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve_wire|exec_paged|"
               "compile_cold --seed N --seconds S --trace 0|1 "
               "--work-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(val);
    } else if (key == "--trace") {
      args.trace = std::atoi(val) != 0;
    } else if (key == "--work-dir") {
      args.work_dir = val;
    } else {
      return Usage();
    }
  }
  if (args.work_dir.empty() || !(args.seconds > 0)) return Usage();
  args.cpu = perfbench::HighestCpu();
  std::filesystem::create_directories(args.work_dir);

  perfbench::Report report;
  perfbench::SpanLog spans;
  spans.set_enabled(args.trace);
  int rc = 0;
  if (args.workload == "serve_wire") {
    rc = perfbench::RunServeWire(args, &report, &spans);
  } else if (args.workload == "exec_paged") {
    rc = perfbench::RunExecPaged(args, &report, &spans);
  } else if (args.workload == "compile_cold") {
    rc = perfbench::RunCompileCold(args, &report, &spans);
  } else {
    return Usage();
  }
  std::string span_file;
  if (args.trace) {
    span_file = args.work_dir + "/spans-" + args.workload + ".jsonl";
    if (!spans.Write(span_file)) report.Fail("cannot write " + span_file);
  }
  report.Print(args, span_file);
  return rc != 0 || !report.correct() ? 1 : 0;
}
