// Shared pieces of the end-to-end benchmark binary: clocks, the latency
// summary, the benchmark's own span log and the JSON report.
//
// The benchmark drives the library only through its public calls. Every
// workload runs a fixed request set, in an order drawn from the seed, in
// whole "rounds": each round issues the same requests from the same state,
// so the exact counters (charged cost, executions, DP calls, page hits) are
// a per-round constant that two runs of one seed reproduce bit for bit,
// however many rounds a run's time budget fits.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace bouquet {
struct CompiledBouquet;
}

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (paged data, span file).
  std::string work_dir;
  /// The highest CPU the process may run on (-1 when unknown): serve_wire
  /// pins its server and its load generator there.
  int cpu = -1;
};

/// Monotonic wall clock in seconds.
double Now();
/// CPU seconds of the whole process / of the calling thread.
double ProcessCpuSeconds();
double ThreadCpuSeconds();

/// Pins the calling thread to `cpu`; false when that fails.
bool PinThisThread(int cpu);

/// Seeded permutation of 0..n-1 (SplitMix64 Fisher-Yates): the seed's only
/// use is to order each workload's fixed request set.
std::vector<int> Permutation(uint64_t seed, int n);

/// SplitMix64 finaliser.
uint64_t Mix64(uint64_t x);
/// Folds `v` (bit patterns) into the running digest `h`.
uint64_t Fold(uint64_t h, const std::vector<double>& v);
/// `h` as a quoted 16-digit hex JSON string.
std::string HexJson(uint64_t h);

/// The benchmark's own spans, kept in memory and written as JSONL at exit.
/// One request is one trace; its spans share the trace id. Attributes carry
/// the public per-request timings and counters the per-layer metrics are
/// computed from.
class SpanLog {
 public:
  using Attrs = std::vector<std::pair<const char*, double>>;

  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Records a finished span and returns its id (0 when disabled).
  uint64_t Add(uint64_t trace, uint64_t parent, const char* name,
               double start_s, double end_s, Attrs attrs = {});
  bool Write(const std::string& path) const;

 private:
  struct Record {
    uint64_t id;
    uint64_t trace;
    uint64_t parent;
    const char* name;
    double start_s;
    double dur_s;
    Attrs attrs;
  };
  bool enabled_ = false;
  std::vector<Record> spans_;
};

/// What a workload reports: verification counts, provenance (JSON
/// members), and the end-to-end metrics of an untraced run.
class Report {
 public:
  void Metric(const std::string& name, double value, const char* unit,
              uint64_t samples);
  void Provenance(const std::string& key, const std::string& json_value);
  void Fail(const std::string& why);
  void Attempt(uint64_t n) { attempted_ += n; }
  void Ok(uint64_t n) { ok_ += n; }
  bool correct() const { return failures_.empty() && ok_ == attempted_; }

  /// Prints the report as one JSON line on stdout.
  void Print(const Args& args, const std::string& span_file) const;

 private:
  uint64_t attempted_ = 0;
  uint64_t ok_ = 0;
  uint64_t failure_count_ = 0;
  std::vector<std::string> failures_;  ///< first few, for the log
  std::vector<std::string> metrics_;   ///< pre-rendered JSON members
  std::vector<std::string> provenance_;
};

/// Provenance of a compiled template: name, grid resolution per dimension,
/// bouquet plan count, then `extra` (further JSON members, may be empty).
std::string TemplateJson(const std::string& name,
                         const bouquet::CompiledBouquet& c,
                         const std::string& extra = "");
/// Renders a double with all significant digits (round-trip exact).
std::string Num(double v);

/// Latency and throughput of one measured phase.
struct PhaseTiming {
  std::vector<double> latencies_s;
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU minus the benchmark's own CPU
  uint64_t ok = 0;
  uint64_t requests = 0;
};

/// Adds the ten end-to-end metrics of an untraced run: set-up times (their
/// median), the measured phase, and one round's charged cost and oracle
/// cost per request (in round order, so the sums are exact).
void ReportEndToEnd(const std::vector<double>& setup_s, const PhaseTiming& t,
                    const std::vector<double>& cost,
                    const std::vector<double>& oracle_cost, Report* report);
/// Counts `t`'s requests as attempted and its verified ones as ok.
void CountRequests(const PhaseTiming& t, Report* report);
/// Attributes shared by every "bench.phase" span: 0 = untraced, 1 = the
/// benchmark's own spans, 2 = the program's Tracer attached.
SpanLog::Attrs PhaseAttrs(int phase, const PhaseTiming& t);

/// Runs slices of `detached` and `attached` in turn until `seconds` have
/// passed (at least one each), summing them into `*d` and `*a`. Alternating
/// lets slow host drift fall on both alike, so their throughput ratio is
/// the tracer's cost rather than the drift's.
void Alternate(double seconds, const std::function<PhaseTiming()>& detached,
               const std::function<PhaseTiming()>& attached, PhaseTiming* d,
               PhaseTiming* a);

int RunServeWire(const Args& args, Report* report, SpanLog* spans);
int RunExecPaged(const Args& args, Report* report, SpanLog* spans);
int RunCompileCold(const Args& args, Report* report, SpanLog* spans);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
