// Tests for the machine-readable bench reports: option parsing, JSON
// shape (balanced, parseable-by-eye structure with the schema's required
// keys), file output, and the registry dump riding along with a real
// (tiny) testbed run — the same path every bench binary exercises.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/testbed.h"

namespace netlock {
namespace {

// Minimal structural JSON check: braces/brackets balance outside strings
// and the document is a single object. Enough to catch broken emission
// without hauling in a JSON library.
bool BalancedJson(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : text) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{':
      case '[': ++depth; break;
      case '}':
      case ']':
        if (--depth < 0) return false;
        break;
      default: break;
    }
  }
  return depth == 0 && !in_string;
}

TEST(BenchOptionsTest, DefaultsAndFlags) {
  {
    char arg0[] = "bench";
    char* argv[] = {arg0};
    const BenchOptions opts = ParseBenchOptions(1, argv);
    EXPECT_FALSE(opts.quick);
    EXPECT_EQ(opts.json_dir, ".");
  }
  {
    char arg0[] = "bench";
    char arg1[] = "--quick";
    char arg2[] = "--json-dir=/tmp/out";
    char* argv[] = {arg0, arg1, arg2};
    const BenchOptions opts = ParseBenchOptions(3, argv);
    EXPECT_TRUE(opts.quick);
    EXPECT_EQ(opts.json_dir, "/tmp/out");
  }
  {
    char arg0[] = "bench";
    char arg1[] = "--json-dir";
    char arg2[] = "relative/dir";
    char arg3[] = "--unknown-flag";  // Must be ignored, not fatal.
    char* argv[] = {arg0, arg1, arg2, arg3};
    const BenchOptions opts = ParseBenchOptions(4, argv);
    EXPECT_FALSE(opts.quick);
    EXPECT_EQ(opts.json_dir, "relative/dir");
  }
}

// --help and -h print the shared flags (stdout) and exit 0 before a bench
// can run anything.
TEST(BenchOptionsTest, HelpExitsZero) {
  for (const char* flag : {"--help", "-h"}) {
    char arg0[] = "bench";
    char arg1[] = "--quick";
    std::string help = flag;
    char* argv[] = {arg0, arg1, help.data()};
    EXPECT_EXIT(ParseBenchOptions(3, argv), testing::ExitedWithCode(0), "")
        << flag;
  }
}

TEST(BenchReportTest, JsonHasSchemaKeysAndRuns) {
  BenchOptions opts;
  opts.quick = true;
  BenchReport report("unit_test", opts);
  LatencyRecorder latency;
  for (SimTime v = 1000; v <= 2000; v += 10) latency.Record(v);
  BenchRun& run = report.AddRun("cfg=1", /*throughput_mrps=*/12.5, latency);
  run.extra.emplace_back("shed", 3.0);
  report.AddRun("cfg=2").txn_mtps = 0.25;

  const std::string json = report.ToJson();
  EXPECT_TRUE(BalancedJson(json));
  for (const char* key :
       {"\"bench\": \"unit_test\"", "\"schema_version\": 2",
        "\"quick\": true", "\"sim_wall_ms\":", "\"sim_events_per_sec\":",
        "\"runs\":", "\"label\": \"cfg=1\"",
        "\"throughput_mrps\": 12.5", "\"latency_ns\":", "\"mean\":",
        "\"p50\":", "\"p99\":", "\"p999\":", "\"samples\": 101",
        "\"shed\": 3", "\"label\": \"cfg=2\"", "\"txn_mtps\": 0.25",
        "\"metrics\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

TEST(BenchReportTest, WallClockFieldsEachOnOwnLineAndStrippable) {
  BenchReport report("unit_test", BenchOptions{});
  BenchRun& run = report.AddRun("hot_loop");
  run.extra.emplace_back("events_per_sec", 12345678.9);
  const std::string json = report.ToJson();

  // Each wall-dependent top-level field sits on its own line so text
  // diffs (and CI's sed) can normalize them without a JSON parser.
  std::istringstream lines(json);
  std::string line;
  int wall_lines = 0;
  while (std::getline(lines, line)) {
    const bool has_wall = line.find("\"sim_wall_ms\":") != std::string::npos;
    const bool has_eps =
        line.find("\"sim_events_per_sec\":") != std::string::npos;
    if (has_wall || has_eps) {
      ++wall_lines;
      EXPECT_FALSE(has_wall && has_eps) << line;
    }
  }
  EXPECT_EQ(wall_lines, 2);

  const std::string stripped = StripWallClockFields(json);
  EXPECT_TRUE(BalancedJson(stripped));
  EXPECT_NE(stripped.find("\"sim_wall_ms\": 0"), std::string::npos);
  EXPECT_NE(stripped.find("\"sim_events_per_sec\": 0"), std::string::npos);
  // Per-run events_per_sec extras are wall-dependent too and must be
  // zeroed; the non-wall fields survive untouched.
  EXPECT_NE(stripped.find("\"events_per_sec\": 0"), std::string::npos);
  EXPECT_EQ(stripped.find("12345678.9"), std::string::npos);
  EXPECT_NE(stripped.find("\"label\": \"hot_loop\""), std::string::npos);
  // Idempotent: stripping twice changes nothing.
  EXPECT_EQ(StripWallClockFields(stripped), stripped);
}

TEST(BenchReportTest, EscapesLabels) {
  BenchReport report("unit_test", BenchOptions{});
  report.AddRun("weird \"label\"\nwith\tescapes");
  const std::string json = report.ToJson();
  EXPECT_TRUE(BalancedJson(json));
  EXPECT_NE(json.find("weird \\\"label\\\"\\nwith\\tescapes"),
            std::string::npos);
}

TEST(BenchReportTest, NonFiniteDegradesToZero) {
  BenchReport report("unit_test", BenchOptions{});
  report.AddRun("nan").throughput_mrps = 0.0 / 0.0;
  const std::string json = report.ToJson();
  EXPECT_TRUE(BalancedJson(json));
  EXPECT_NE(json.find("\"throughput_mrps\": 0"), std::string::npos);
  EXPECT_EQ(json.find("nan,"), std::string::npos);
}

TEST(BenchReportTest, WriteFailsOnMissingDirectory) {
  BenchOptions opts;
  opts.json_dir = "/nonexistent-dir-for-report-test";
  BenchReport report("unit_test", opts);
  EXPECT_FALSE(report.Write());
}

// A trace that hit its event cap lacks everything recorded after it, so
// writing it fails the bench (nonzero exit) instead of passing silently.
TEST(BenchReportTest, WriteFailsWhenTraceDroppedEvents) {
  BenchOptions opts;
  opts.json_dir = ::testing::TempDir();
  opts.trace_dir = ::testing::TempDir();
  BenchReport report("report_trace_cap_test", opts);
  TraceLog& trace = report.context().trace();
  trace.SetCapacity(4);
  for (SimTime t = 0; t < 3; ++t) {
    trace.Instant(TraceTrack::kClient, "cap.test", t, 0);
  }
  EXPECT_TRUE(report.Write());
  for (SimTime t = 3; t < 6; ++t) {
    trace.Instant(TraceTrack::kClient, "cap.test", t, 0);
  }
  ASSERT_EQ(trace.dropped(), 2u);
  EXPECT_FALSE(report.Write());
}

// End-to-end: a real (tiny) testbed run recorded through the same
// RecordRun/Write path the benches use must produce a parseable file with
// throughput, tail latencies, and a well-populated registry dump.
TEST(BenchReportTest, EndToEndBenchStyleRun) {
  BenchOptions opts;
  opts.json_dir = ::testing::TempDir();
  BenchReport report("report_json_test", opts);
  TestbedConfig config;
  config.context = &report.context();
  config.system = SystemKind::kNetLock;
  config.client_machines = 2;
  config.sessions_per_machine = 2;
  config.lock_servers = 2;
  MicroConfig micro;
  micro.num_locks = 128;
  config.workload_factory = MicroFactory(micro);
  Testbed testbed(config);
  testbed.netlock().InstallKnapsack(UniformMicroDemands(micro, 4));
  const RunMetrics m = testbed.Run(kMillisecond, 10 * kMillisecond);
  testbed.StopEngines();
  ASSERT_GT(m.lock_grants, 0u);

  const BenchRun& run = report.AddRun("tiny", m);
  EXPECT_GT(run.throughput_mrps, 0.0);
  EXPECT_GT(run.p99_ns, 0u);
  EXPECT_GE(run.p999_ns, run.p99_ns);
  ASSERT_TRUE(report.Write());

  const std::string path =
      opts.json_dir + "/BENCH_report_json_test.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_TRUE(BalancedJson(json));
  EXPECT_NE(json.find("\"bench\": \"report_json_test\""),
            std::string::npos);
  EXPECT_NE(json.find("\"throughput_mrps\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);

  // The run above exercised switch, servers, network, and simulator, so
  // the registry dump must carry a healthy set of named metrics.
  const std::vector<MetricSample> snap =
      report.context().metrics().Snapshot();
  EXPECT_GE(snap.size(), 10u);
  for (const char* name :
       {"sim.events_processed", "net.packets", "dataplane.acquires_granted",
        "switchsim.passes", "switchsim.register_accesses"}) {
    EXPECT_NE(json.find(std::string("\"") + name + "\""),
              std::string::npos)
        << "registry dump missing " << name;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace netlock
