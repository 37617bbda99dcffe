#include "harness/report.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/tracelog.h"

namespace netlock {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

Table& Table::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
  return *this;
}

void Table::Print() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      std::printf("%-*s  ", static_cast<int>(widths[c]), cell.c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::size_t total = 0;
  for (const std::size_t w : widths) total += w + 2;
  for (std::size_t i = 0; i < total; ++i) std::printf("-");
  std::printf("\n");
  for (const auto& row : rows_) print_row(row);
}

std::string Fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string FmtUs(SimTime nanos) {
  return Fmt(static_cast<double>(nanos) / kMicrosecond, 2);
}

std::string FmtMs(SimTime nanos) {
  return Fmt(static_cast<double>(nanos) / kMillisecond, 3);
}

void Banner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

void PrintRunSummary(const std::string& label, const RunMetrics& metrics) {
  std::printf(
      "%-12s lock %.3f MRPS | txn %.4f MTPS | lock lat avg %s p50 %s "
      "p99 %s | txn lat avg %s p99 %s | retries %llu\n",
      label.c_str(), metrics.LockThroughputMrps(),
      metrics.TxnThroughputMtps(),
      FormatNanos(static_cast<SimTime>(metrics.lock_latency.Mean())).c_str(),
      FormatNanos(metrics.lock_latency.Median()).c_str(),
      FormatNanos(metrics.lock_latency.P99()).c_str(),
      FormatNanos(static_cast<SimTime>(metrics.txn_latency.Mean())).c_str(),
      FormatNanos(metrics.txn_latency.P99()).c_str(),
      static_cast<unsigned long long>(metrics.retries));
}

// --- Machine-readable bench output -------------------------------------

namespace {

/// Accepts "1/N" (the documented spelling: sample one request in N) or a
/// bare "N". Anything unparseable falls back to 1 (trace everything).
std::uint32_t ParseSampleSpec(const char* spec) {
  if (std::strncmp(spec, "1/", 2) == 0) spec += 2;
  const long n = std::strtol(spec, nullptr, 10);
  return n > 1 ? static_cast<std::uint32_t>(n) : 1;
}

}  // namespace

void PrintBenchUsage(const char* program) {
  std::printf(
      "usage: %s [flags]\n"
      "  --quick                 reduced sweeps and durations (CI mode)\n"
      "  --json-dir=DIR          write BENCH_<name>.json into DIR "
      "(default .)\n"
      "  --trace-dir=DIR         record request traces into "
      "DIR/TRACE_<name>.json\n"
      "  --trace-sample=1/N      trace about one request in N\n"
      "  --jobs=N                run independent sweep points (or, in "
      "bench_all,\n"
      "                          bench processes) N at a time\n"
      "  --backend=sim|rt        substrate, for benches that run on both\n"
      "  --controller=on|off     self-driving controller side, where a "
      "bench has one\n"
      "  -h, --help              print this and exit\n"
      "Other flags are ignored here; some benches read their own.\n",
      program);
}

BenchOptions ParseBenchOptions(int argc, char** argv) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      PrintBenchUsage(argv[0]);
      std::exit(0);
    }
    if (std::strcmp(arg, "--quick") == 0) {
      opts.quick = true;
    } else if (std::strncmp(arg, "--json-dir=", 11) == 0) {
      opts.json_dir = arg + 11;
    } else if (std::strcmp(arg, "--json-dir") == 0 && i + 1 < argc) {
      opts.json_dir = argv[++i];
    } else if (std::strncmp(arg, "--trace-dir=", 12) == 0) {
      opts.trace_dir = arg + 12;
    } else if (std::strcmp(arg, "--trace-dir") == 0 && i + 1 < argc) {
      opts.trace_dir = argv[++i];
    } else if (std::strncmp(arg, "--trace-sample=", 15) == 0) {
      opts.trace_sample = ParseSampleSpec(arg + 15);
    } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
      const long n = std::strtol(arg + 7, nullptr, 10);
      opts.jobs = n > 1 ? static_cast<int>(n) : 1;
    } else if (std::strcmp(arg, "--jobs") == 0 && i + 1 < argc) {
      const long n = std::strtol(argv[++i], nullptr, 10);
      opts.jobs = n > 1 ? static_cast<int>(n) : 1;
    } else if (std::strncmp(arg, "--backend=", 10) == 0) {
      opts.backend = arg + 10;
    } else if (std::strcmp(arg, "--backend") == 0 && i + 1 < argc) {
      opts.backend = argv[++i];
    } else if (std::strncmp(arg, "--controller=", 13) == 0) {
      opts.controller = arg + 13;
    } else if (std::strcmp(arg, "--controller") == 0 && i + 1 < argc) {
      opts.controller = argv[++i];
    }
    // Unknown flags are ignored: wrappers (ctest, benchmark harnesses)
    // append their own and benches must not die on them.
  }
  if (opts.json_dir.empty()) opts.json_dir = ".";
  return opts;
}

namespace {

/// JSON string escaping for the small character set our labels use.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Doubles print with enough digits to round-trip; NaN/Inf (never expected,
/// but a division by a zero duration would produce them) degrade to 0 so
/// the file stays valid JSON.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

void FillLatency(BenchRun& run, const LatencyRecorder& latency) {
  run.mean_ns = latency.Mean();
  run.p50_ns = latency.Median();
  run.p99_ns = latency.P99();
  run.p999_ns = latency.P999();
  run.samples = latency.count();
}

BenchReport::BenchReport(std::string bench_name, BenchOptions options,
                         SimContext* context)
    : bench_name_(std::move(bench_name)),
      options_(std::move(options)),
      owned_context_(context == nullptr ? std::make_unique<SimContext>()
                                        : nullptr),
      context_(context != nullptr ? *context : *owned_context_),
      wall_start_(std::chrono::steady_clock::now()) {
  if (!options_.trace_dir.empty()) {
    context_.trace().Enable(options_.trace_sample);
  }
}

BenchRun& BenchReport::AddRun(std::string label) {
  runs_.emplace_back();
  runs_.back().label = std::move(label);
  return runs_.back();
}

BenchRun& BenchReport::AddRun(std::string label, const RunMetrics& metrics) {
  BenchRun& run = AddRun(std::move(label));
  run.throughput_mrps = metrics.LockThroughputMrps();
  run.txn_mtps = metrics.TxnThroughputMtps();
  FillLatency(run, metrics.lock_latency);
  if (metrics.retries > 0) {
    run.extra.emplace_back("retries", static_cast<double>(metrics.retries));
  }
  if (!metrics.txn_latency.empty()) {
    run.extra.emplace_back("txn_p99_ns",
                           static_cast<double>(metrics.txn_latency.P99()));
  }
  return run;
}

BenchRun& BenchReport::AddRun(std::string label, double throughput_mrps,
                              const LatencyRecorder& latency) {
  BenchRun& run = AddRun(std::move(label));
  run.throughput_mrps = throughput_mrps;
  FillLatency(run, latency);
  return run;
}

void BenchReport::AttachTimeSeries(const TimeSeriesStore& store) {
  for (std::size_t s = 0; s < store.num_series(); ++s) {
    SeriesDump dump;
    dump.name = store.series_name(s);
    dump.is_rate = store.series_is_rate(s);
    dump.interval_ns = store.interval();
    dump.t_s.reserve(store.num_buckets());
    dump.values.reserve(store.num_buckets());
    for (std::size_t b = 0; b < store.num_buckets(); ++b) {
      dump.t_s.push_back(store.BucketTimeSeconds(b));
      dump.values.push_back(store.Value(s, b));
    }
    time_series_.push_back(std::move(dump));
  }
}

std::string BenchReport::ToJson() const {
  // Simulator throughput: total events processed in this context over the
  // report's wall-clock lifetime. These two lines are the only
  // wall-dependent content in the file, each kept on its own line so
  // StripWallClockFields (and sed in CI) can normalize them.
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start_)
          .count();
  const double events = static_cast<double>(
      context_.metrics().Counter("sim.events_processed").value());
  const double events_per_sec = wall_ms > 0.0 ? events / (wall_ms / 1e3) : 0.0;

  std::ostringstream out;
  out << "{\n";
  out << "  \"bench\": \"" << JsonEscape(bench_name_) << "\",\n";
  out << "  \"schema_version\": 2,\n";
  out << "  \"quick\": " << (options_.quick ? "true" : "false") << ",\n";
  out << "  \"sim_wall_ms\": " << JsonNumber(wall_ms) << ",\n";
  out << "  \"sim_events_per_sec\": " << JsonNumber(events_per_sec) << ",\n";
  out << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    const BenchRun& run = runs_[i];
    out << "    {\"label\": \"" << JsonEscape(run.label) << "\", "
        << "\"throughput_mrps\": " << JsonNumber(run.throughput_mrps) << ", "
        << "\"txn_mtps\": " << JsonNumber(run.txn_mtps) << ", "
        << "\"latency_ns\": {"
        << "\"mean\": " << JsonNumber(run.mean_ns) << ", "
        << "\"p50\": " << run.p50_ns << ", "
        << "\"p99\": " << run.p99_ns << ", "
        << "\"p999\": " << run.p999_ns << "}, "
        << "\"samples\": " << run.samples;
    for (const auto& [key, value] : run.extra) {
      out << ", \"" << JsonEscape(key) << "\": " << JsonNumber(value);
    }
    out << "}" << (i + 1 < runs_.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  if (!time_series_.empty()) {
    out << "  \"time_series\": [\n";
    for (std::size_t s = 0; s < time_series_.size(); ++s) {
      const SeriesDump& dump = time_series_[s];
      out << "    {\"name\": \"" << JsonEscape(dump.name) << "\", "
          << "\"kind\": \"" << (dump.is_rate ? "rate_per_sec" : "level")
          << "\", "
          << "\"interval_ns\": " << dump.interval_ns << ",\n"
          << "     \"t_s\": [";
      for (std::size_t b = 0; b < dump.t_s.size(); ++b) {
        out << (b > 0 ? ", " : "") << JsonNumber(dump.t_s[b]);
      }
      out << "],\n     \"values\": [";
      for (std::size_t b = 0; b < dump.values.size(); ++b) {
        out << (b > 0 ? ", " : "") << JsonNumber(dump.values[b]);
      }
      out << "]}" << (s + 1 < time_series_.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
  }
  out << "  \"metrics\": {\n";
  const std::vector<MetricSample> samples = context_.metrics().Snapshot();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    out << "    \"" << JsonEscape(samples[i].name)
        << "\": " << samples[i].value
        << (i + 1 < samples.size() ? "," : "") << "\n";
  }
  out << "  }\n";
  out << "}\n";
  return out.str();
}

bool BenchReport::Write() const {
  const std::string path =
      options_.json_dir + "/BENCH_" + bench_name_ + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "report: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  out << ToJson();
  out.flush();
  if (!out) {
    std::fprintf(stderr, "report: write to %s failed\n", path.c_str());
    return false;
  }
  std::printf("[report] wrote %s\n", path.c_str());
  if (!options_.trace_dir.empty()) {
    const std::string trace_path =
        options_.trace_dir + "/TRACE_" + bench_name_ + ".json";
    const TraceLog& trace = context_.trace();
    if (!trace.WriteTo(trace_path)) return false;
    std::printf("[report] wrote %s (%zu events, %llu dropped)\n",
                trace_path.c_str(), trace.size(),
                static_cast<unsigned long long>(trace.dropped()));
    if (trace.dropped() > 0) {
      // A truncated trace silently lacks every event recorded after the
      // cap (whole later runs), so it fails the bench. Sampling scales the
      // event count by ~1/N; suggest the next power of two that fits.
      const std::uint64_t wanted = trace.size() + trace.dropped();
      const std::uint64_t cap = std::max<std::uint64_t>(trace.capacity(), 1);
      std::uint64_t every = trace.sample_every();
      while (wanted * trace.sample_every() / every > cap) every *= 2;
      std::fprintf(stderr,
                   "report: %s dropped %llu of %llu events at the %zu-event "
                   "cap; rerun with --trace-sample=1/%llu or sparser\n",
                   trace_path.c_str(),
                   static_cast<unsigned long long>(trace.dropped()),
                   static_cast<unsigned long long>(wanted), trace.capacity(),
                   static_cast<unsigned long long>(every));
      return false;
    }
  }
  return true;
}

std::string StripWallClockFields(const std::string& json) {
  // Zeroes the numeric value of any key ending in wall_ms / events_per_sec
  // ("sim_wall_ms", "sim_events_per_sec", per-run "events_per_sec"
  // extras). Hand-rolled rather than std::regex: this runs over multi-MB
  // reports in tests.
  static const char* const kKeys[] = {"wall_ms\": ", "events_per_sec\": "};
  std::string out = json;
  for (const char* key : kKeys) {
    const std::size_t key_len = std::strlen(key);
    std::size_t pos = 0;
    while ((pos = out.find(key, pos)) != std::string::npos) {
      const std::size_t value_start = pos + key_len;
      std::size_t value_end = value_start;
      while (value_end < out.size() &&
             (std::isdigit(static_cast<unsigned char>(out[value_end])) ||
              out[value_end] == '.' || out[value_end] == '-' ||
              out[value_end] == '+' || out[value_end] == 'e' ||
              out[value_end] == 'E')) {
        ++value_end;
      }
      out.replace(value_start, value_end - value_start, "0");
      pos = value_start + 1;
    }
  }
  return out;
}

}  // namespace netlock
