// Paper-style result reporting: aligned text tables and series printers
// shared by the figure-reproduction benches, plus the machine-readable
// side: every bench also writes BENCH_<name>.json (run label, throughput,
// latency order statistics, and a dump of the bench's own metrics
// registry) so the perf trajectory is trackable PR over PR without parsing
// text tables.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/sim_context.h"
#include "common/stats.h"
#include "common/timeseries.h"

namespace netlock {

/// Accumulates rows and prints an aligned table to stdout.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  Table& AddRow(std::vector<std::string> cells);
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with the given precision.
std::string Fmt(double value, int precision = 2);

/// Formats nanoseconds as microseconds with two decimals.
std::string FmtUs(SimTime nanos);

/// Formats nanoseconds as milliseconds with three decimals.
std::string FmtMs(SimTime nanos);

/// Prints a figure banner ("=== Figure 10(a): ... ===").
void Banner(const std::string& title);

/// Prints the standard metric block the paper reports for a system run.
void PrintRunSummary(const std::string& label, const RunMetrics& metrics);

// --- Machine-readable bench output -------------------------------------

/// Common CLI options every bench binary accepts.
struct BenchOptions {
  bool quick = false;       ///< Reduced sweeps/durations for CI.
  std::string json_dir = ".";  ///< Where BENCH_<name>.json is written.
  /// Request-lifecycle tracing: empty = disabled (the default; tracing off
  /// must not perturb bench numbers). Non-empty = record and write
  /// TRACE_<name>.json into this directory.
  std::string trace_dir;
  /// Record ~1/N of requests (`--trace-sample=1/N`); 1 = every request.
  std::uint32_t trace_sample = 1;
  /// Parallelism (`--jobs=N`). bench_all runs N figure binaries as
  /// concurrent processes; benches with independent sweep points run them
  /// on N threads via ParallelSweep. 1 = serial (the default); output is
  /// byte-identical either way outside wall-clock fields.
  int jobs = 1;
  /// Execution backend (`--backend=sim|rt`) for benches that can run the
  /// workload on either substrate (see harness/backend.h). Empty = the
  /// bench's own default; benches without a backend seam ignore it.
  std::string backend;
  /// Self-driving controller seam (`--controller=on|off`) for benches that
  /// compare static vs continuous reallocation. Empty = run both sides;
  /// benches without the seam ignore it.
  std::string controller;
};

/// Parses `--quick`, `--json-dir=DIR` (or `--json-dir DIR`),
/// `--trace-dir=DIR` (or `--trace-dir DIR`), `--trace-sample=1/N` (or
/// `=N`) and `--jobs=N` (or `--jobs N`), and ignores anything else, so
/// benches keep working under wrappers that add flags. `--help` or `-h`
/// prints PrintBenchUsage and exits 0 before anything runs.
BenchOptions ParseBenchOptions(int argc, char** argv);

/// Prints the shared bench flags to stdout.
void PrintBenchUsage(const char* program);

/// One measured configuration within a bench (a table row / curve point).
struct BenchRun {
  std::string label;
  double throughput_mrps = 0.0;  ///< Lock throughput (0 when n/a).
  double txn_mtps = 0.0;         ///< Transaction throughput (0 when n/a).
  double mean_ns = 0.0;
  SimTime p50_ns = 0;
  SimTime p99_ns = 0;
  SimTime p999_ns = 0;
  std::uint64_t samples = 0;
  /// Bench-specific scalars ("shed", "switch_mrps", "retries", ...).
  std::vector<std::pair<std::string, double>> extra;
};

/// Accumulates runs and serializes the JSON report. Schema (version 2):
///   { "bench": "<name>", "schema_version": 2, "quick": <bool>,
///     "sim_wall_ms": <wall-clock ms since report construction>,
///     "sim_events_per_sec": <simulator events / wall second>,
///     "runs": [ {"label": ..., "throughput_mrps": ..., "txn_mtps": ...,
///                "latency_ns": {"mean","p50","p99","p999"},
///                "samples": ..., <extra scalars inline> } ... ],
///     "time_series": [ {"name": ..., "kind": "rate_per_sec"|"level",
///                       "interval_ns": ..., "t_s": [...],
///                       "values": [...]} ... ],   // when attached
///     "metrics": { "<registry name>": <value>, ... } }
///
/// sim_wall_ms / sim_events_per_sec track simulator throughput PR over PR;
/// they are the only wall-clock-dependent fields in the file (see
/// StripWallClockFields for deterministic comparison).
///
/// Constructing a report with options().trace_dir set enables the
/// context's TraceLog at the requested sampling rate; Write() then also
/// dumps TRACE_<name>.json next to the bench JSON.
class BenchReport {
 public:
  /// `context` is the registry dumped into "metrics" and the TraceLog
  /// driven by --trace-dir; nullptr = the report owns a fresh one. A bench
  /// passes `&report.context()` to every run it reports.
  BenchReport(std::string bench_name, BenchOptions options,
              SimContext* context = nullptr);

  const BenchOptions& options() const { return options_; }
  bool quick() const { return options_.quick; }
  SimContext& context() const { return context_; }

  /// Adds an empty run and returns it for the caller to fill.
  BenchRun& AddRun(std::string label);

  /// Convenience: record a testbed RunMetrics under `label`.
  BenchRun& AddRun(std::string label, const RunMetrics& metrics);

  /// Convenience: throughput plus a latency distribution.
  BenchRun& AddRun(std::string label, double throughput_mrps,
                   const LatencyRecorder& latency);

  /// Copies the store's buckets into the report's "time_series" section
  /// (a TimeSeriesSampler's store(), or the rt stats poller's). Call after
  /// the run completes (the store is not referenced later).
  void AttachTimeSeries(const TimeSeriesStore& store);

  std::string ToJson() const;

  /// Writes BENCH_<name>.json into options().json_dir (the registry dump
  /// is taken at write time). Returns false (with a message on stderr) on
  /// I/O failure; benches treat that as fatal in main().
  bool Write() const;

 private:
  struct SeriesDump {
    std::string name;
    bool is_rate = false;
    SimTime interval_ns = 0;
    std::vector<double> t_s;
    std::vector<double> values;
  };

  std::string bench_name_;
  BenchOptions options_;
  std::unique_ptr<SimContext> owned_context_;  ///< Set when none was given.
  SimContext& context_;
  std::chrono::steady_clock::time_point wall_start_;
  std::vector<BenchRun> runs_;
  std::vector<SeriesDump> time_series_;
};

/// Fills the latency fields of `run` from a recorder.
void FillLatency(BenchRun& run, const LatencyRecorder& latency);

/// Normalizes a bench report for byte comparison across runs: zeroes every
/// wall-clock-dependent field ("sim_wall_ms", "sim_events_per_sec", and
/// any per-run "*wall_ms"/"*events_per_sec" extras). Two runs of the same
/// build and seeds must produce identical output after this — serial or
/// parallel, --jobs=1 or --jobs=4.
std::string StripWallClockFields(const std::string& json);

}  // namespace netlock
