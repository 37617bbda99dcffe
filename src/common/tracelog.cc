#include "common/tracelog.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace netlock {

const char* ToString(TraceTrack track) {
  switch (track) {
    case TraceTrack::kClient: return "client";
    case TraceTrack::kNetwork: return "network";
    case TraceTrack::kPipeline: return "pipeline";
    case TraceTrack::kQueue: return "shared-queue";
    case TraceTrack::kServer: return "server";
  }
  return "unknown";
}

void TraceLog::Enable(std::uint32_t sample_every) {
  enabled_ = true;
  sample_every_ = sample_every == 0 ? 1 : sample_every;
}

void TraceLog::Disable() { enabled_ = false; }

namespace {

/// Thread-local pointer to the thread's buffer in one TraceLog, validated
/// by the log's instance id. Single-slot: a thread alternating between two
/// live logs re-registers (mutex lookup) on each switch, which only the
/// multi-context sweep harness does — and only at setup.
struct TlsBufferCache {
  std::uint64_t log_id = 0;
  void* buffer = nullptr;
};
thread_local TlsBufferCache t_trace_buffer;

}  // namespace

TraceLog::ThreadBuffer& TraceLog::LocalBuffer() {
  if (t_trace_buffer.log_id == id_) {
    return *static_cast<ThreadBuffer*>(t_trace_buffer.buffer);
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] =
      by_thread_.try_emplace(std::this_thread::get_id(), nullptr);
  if (inserted) {
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    it->second = buffers_.back().get();
  }
  t_trace_buffer.log_id = id_;
  t_trace_buffer.buffer = it->second;
  return *it->second;
}

void TraceLog::Flush() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) {
    if (!buf->events.empty()) {
      merged_.insert(merged_.end(), buf->events.begin(), buf->events.end());
      buf->events.clear();
    }
    dropped_ += buf->dropped;
    buf->dropped = 0;
  }
}

void TraceLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  merged_.clear();
  dropped_ = 0;
  // Unclaim every buffer's unused budget along with the stored events so
  // the full capacity is available again.
  for (const auto& buf : buffers_) {
    buf->events.clear();
    buf->dropped = 0;
    buf->budget = 0;
  }
  stored_.store(0, std::memory_order_relaxed);
}

void TraceLog::Push(TraceEvent event) {
  if (!enabled_) return;
  event.pid = current_pid_;
  ThreadBuffer& buf = LocalBuffer();
  if (buf.budget == 0) {
    // Claim another budget chunk from the shared capacity — the only
    // shared-cacheline touch on this path, once per kBudgetChunk events.
    std::size_t cur = stored_.load(std::memory_order_relaxed);
    std::size_t claim;
    do {
      if (cur >= capacity_) {
        ++buf.dropped;
        return;
      }
      claim = std::min(kBudgetChunk, capacity_ - cur);
    } while (!stored_.compare_exchange_weak(cur, cur + claim,
                                            std::memory_order_relaxed));
    buf.budget = claim;
  }
  --buf.budget;
  buf.events.push_back(event);
}

void TraceLog::SetPidName(std::uint32_t pid, const char* name) {
  for (auto& [p, n] : pid_names_) {
    if (p == pid) {
      n = name;
      return;
    }
  }
  pid_names_.emplace_back(pid, name);
  std::sort(pid_names_.begin(), pid_names_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

void TraceLog::Instant(TraceTrack track, const char* name, SimTime ts,
                       std::uint64_t id, TraceArg a0, TraceArg a1) {
  TraceEvent event;
  event.name = name;
  event.phase = 'i';
  event.track = track;
  event.ts = ts;
  event.id = id;
  event.arg0 = a0;
  event.arg1 = a1;
  Push(event);
}

void TraceLog::Complete(TraceTrack track, const char* name, SimTime start,
                        SimTime end, std::uint64_t id, TraceArg a0,
                        TraceArg a1) {
  TraceEvent event;
  event.name = name;
  event.phase = 'X';
  event.track = track;
  event.ts = start;
  event.dur = end >= start ? end - start : 0;
  event.id = id;
  event.arg0 = a0;
  event.arg1 = a1;
  Push(event);
}

void TraceLog::AsyncBegin(TraceTrack track, const char* name, SimTime ts,
                          std::uint64_t id) {
  TraceEvent event;
  event.name = name;
  event.phase = 'b';
  event.track = track;
  event.ts = ts;
  event.id = id;
  Push(event);
}

void TraceLog::AsyncEnd(TraceTrack track, const char* name, SimTime ts,
                        std::uint64_t id) {
  TraceEvent event;
  event.name = name;
  event.phase = 'e';
  event.track = track;
  event.ts = ts;
  event.id = id;
  Push(event);
}

namespace {

/// Nanoseconds -> the trace-event microsecond unit, with full precision
/// and no floating-point formatting variance ("12.345" for 12345 ns).
void AppendMicros(std::ostringstream& out, SimTime nanos) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03" PRIu64, nanos / 1000,
                nanos % 1000);
  out << buf;
}

void AppendArgs(std::ostringstream& out, const TraceEvent& event) {
  if (event.id == 0 && event.arg0.key == nullptr) return;
  out << ",\"args\":{";
  bool first = true;
  if (event.id != 0) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, event.id);
    out << "\"req\":\"" << buf << "\"";
    first = false;
  }
  for (const TraceArg* arg : {&event.arg0, &event.arg1}) {
    if (arg->key == nullptr) continue;
    if (!first) out << ",";
    out << "\"" << arg->key << "\":" << arg->value;
    first = false;
  }
  out << "}";
}

}  // namespace

std::string TraceLog::ToJson() const {
  // Stable sort by timestamp: retrospective spans are recorded when they
  // end but must appear at their start time, and determinism requires a
  // reproducible order for equal timestamps (insertion order, which the
  // single-threaded simulator fixes).
  const std::vector<TraceEvent>& all = events();
  std::vector<const TraceEvent*> sorted;
  sorted.reserve(all.size());
  for (const TraceEvent& event : all) sorted.push_back(&event);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     return a->ts < b->ts;
                   });

  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  out << "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"netlock-sim\",\"dropped_events\":"
      << dropped() << "}}";
  // Named pids (multi-rack runs) get their own process groups; pid 0 keeps
  // the default name above.
  for (const auto& [pid, name] : pid_names_) {
    if (pid == 0) continue;
    out << ",\n{\"ph\":\"M\",\"pid\":" << pid
        << ",\"name\":\"process_name\",\"args\":{\"name\":\"" << name
        << "\"}}";
  }
  std::vector<std::uint32_t> pids{0};
  for (const auto& [pid, name] : pid_names_) {
    if (pid != 0) pids.push_back(pid);
  }
  for (const std::uint32_t pid : pids) {
    for (const TraceTrack track :
         {TraceTrack::kClient, TraceTrack::kNetwork, TraceTrack::kPipeline,
          TraceTrack::kQueue, TraceTrack::kServer}) {
      out << ",\n{\"ph\":\"M\",\"pid\":" << pid
          << ",\"tid\":" << static_cast<int>(track)
          << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
          << ToString(track) << "\"}}";
    }
  }
  for (const TraceEvent* event : sorted) {
    out << ",\n{\"ph\":\"" << event->phase << "\",\"pid\":" << event->pid
        << ",\"tid\":"
        << static_cast<int>(event->track) << ",\"name\":\"" << event->name
        << "\",\"cat\":\"" << ToString(event->track) << "\",\"ts\":";
    AppendMicros(out, event->ts);
    if (event->phase == 'X') {
      out << ",\"dur\":";
      AppendMicros(out, event->dur);
    }
    if (event->phase == 'b' || event->phase == 'e') {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, event->id);
      out << ",\"id\":\"" << buf << "\"";
    }
    AppendArgs(out, *event);
    out << "}";
  }
  out << "\n]}\n";
  return out.str();
}

bool TraceLog::WriteTo(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "tracelog: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  out << ToJson();
  out.flush();
  if (!out) {
    std::fprintf(stderr, "tracelog: write to %s failed\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace netlock
