// Per-run telemetry context.
//
// A SimContext bundles one run's metrics registry and trace log. A
// Simulator binds one context, and every component reached through it
// (Network, Pipeline, LockSwitch, LockServer, sessions, the harness)
// resolves its instruments there. There is no process-wide context: a
// Simulator built without one owns a private context, and shared telemetry
// exists only where a caller passes the same context on purpose (a bench
// hands its BenchReport's context to every run it reports).
#pragma once

#include <memory>

#include "common/metrics.h"
#include "common/tracelog.h"

namespace netlock {

class SimContext {
 public:
  /// Owns a fresh registry and trace log. Two runs built on distinct
  /// contexts share no mutable state and can run on different threads
  /// concurrently.
  SimContext()
      : metrics_(std::make_unique<MetricsRegistry>()),
        trace_(std::make_unique<TraceLog>()) {}

  SimContext(const SimContext&) = delete;
  SimContext& operator=(const SimContext&) = delete;

  MetricsRegistry& metrics() { return *metrics_; }
  const MetricsRegistry& metrics() const { return *metrics_; }
  TraceLog& trace() { return *trace_; }
  const TraceLog& trace() const { return *trace_; }

 private:
  // Separate heap objects, not members by value: embedding them moves
  // where malloc places a run's later allocations, which raised the peak
  // RSS of perfbench's sim-tpcc workload (seed 1; glibc 2.36, x86-64, 4
  // vCPUs) from 102 to 123 MB.
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<TraceLog> trace_;
};

}  // namespace netlock
