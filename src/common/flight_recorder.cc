#include "common/flight_recorder.h"

#include <algorithm>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>

#include "common/check.h"

namespace netlock {

const char* FlightRecorder::ToString(Op op) {
  switch (op) {
    case Op::kAccept: return "accept";
    case Op::kGrant: return "grant";
    case Op::kRelease: return "release";
    case Op::kStaleRelease: return "stale_release";
    case Op::kMismatchedRelease: return "mismatched_release";
    case Op::kMark: return "mark";
    case Op::kAbort: return "abort";
    case Op::kCancel: return "cancel";
  }
  return "?";
}

bool FlightRecorder::ParseOp(std::string_view text, Op* out) {
  for (const Op op : {Op::kAccept, Op::kGrant, Op::kRelease,
                      Op::kStaleRelease, Op::kMismatchedRelease, Op::kMark,
                      Op::kAbort, Op::kCancel}) {
    if (text == ToString(op)) {
      *out = op;
      return true;
    }
  }
  return false;
}

FlightRecorder::FlightRecorder(int shards, std::size_t capacity_per_shard) {
  NETLOCK_CHECK(shards >= 1);
  std::size_t cap = 16;
  while (cap < capacity_per_shard) cap <<= 1;
  capacity_ = cap;
  rings_.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    rings_.push_back(std::make_unique<Ring>(cap));
  }
}

FlightRecorder::~FlightRecorder() { DisarmFatalDump(); }

std::uint64_t FlightRecorder::recorded() const {
  std::uint64_t total = 0;
  for (const auto& ring : rings_) {
    total += ring->next.load(std::memory_order_acquire);
  }
  return total;
}

std::vector<FlightRecorder::Event> FlightRecorder::Snapshot() const {
  std::vector<Event> out;
  for (const auto& ring : rings_) {
    const std::uint64_t next = ring->next.load(std::memory_order_acquire);
    const std::uint64_t first =
        next > capacity_ ? next - capacity_ : 0;
    for (std::uint64_t seq = first; seq < next; ++seq) {
      Event& slot = ring->slots[seq & ring->mask];
      out.push_back({Get(slot.ts), Get(slot.seq), Get(slot.lock),
                     Get(slot.txn), Get(slot.client), Get(slot.shard),
                     Get(slot.op), Get(slot.mode)});
    }
  }
  std::sort(out.begin(), out.end(), [](const Event& a, const Event& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    if (a.shard != b.shard) return a.shard < b.shard;
    return a.seq < b.seq;
  });
  return out;
}

std::string FlightRecorder::ToText() const {
  const std::vector<Event> events = Snapshot();
  std::ostringstream out;
  out << "# netlock flight recorder v1\n";
  out << "# shards=" << shards() << " capacity=" << capacity_
      << " events=" << events.size() << " recorded=" << recorded() << "\n";
  char line[192];
  for (const Event& ev : events) {
    std::snprintf(line, sizeof(line),
                  "ev ts=%" PRIu64 " shard=%u seq=%" PRIu64
                  " op=%s lock=%u mode=%c txn=%" PRIu64 " client=%u\n",
                  ev.ts, static_cast<unsigned>(ev.shard), ev.seq,
                  ToString(ev.op), ev.lock,
                  ev.mode == LockMode::kExclusive ? 'X' : 'S', ev.txn,
                  ev.client);
    out << line;
  }
  return out.str();
}

std::string FlightRecorder::ToJson() const {
  const std::vector<Event> events = Snapshot();
  std::ostringstream out;
  out << "{\n  \"flight_recorder\": {\"shards\": " << shards()
      << ", \"capacity_per_shard\": " << capacity_
      << ", \"recorded\": " << recorded() << "},\n";
  out << "  \"events\": [\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& ev = events[i];
    out << "    {\"ts\": " << ev.ts << ", \"shard\": " << ev.shard
        << ", \"seq\": " << ev.seq << ", \"op\": \"" << ToString(ev.op)
        << "\", \"lock\": " << ev.lock << ", \"mode\": \""
        << (ev.mode == LockMode::kExclusive ? "X" : "S")
        << "\", \"txn\": " << ev.txn << ", \"client\": " << ev.client << "}"
        << (i + 1 < events.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

namespace {

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "flight_recorder: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  out << content;
  out.flush();
  if (!out) {
    std::fprintf(stderr, "flight_recorder: write to %s failed\n",
                 path.c_str());
    return false;
  }
  return true;
}

}  // namespace

bool FlightRecorder::WriteText(const std::string& path) const {
  return WriteFile(path, ToText());
}

bool FlightRecorder::WriteJson(const std::string& path) const {
  return WriteFile(path, ToJson());
}

bool FlightRecorder::Dump(const std::string& path_prefix) const {
  const bool text_ok = WriteText(path_prefix + ".txt");
  const bool json_ok = WriteJson(path_prefix + ".json");
  return text_ok && json_ok;
}

bool FlightRecorder::ParseText(std::string_view text,
                               std::vector<Event>* out) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string line(text.substr(pos, end - pos));
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    Event ev;
    unsigned shard = 0;
    char op_buf[32] = {0};
    char mode = 'X';
    const int n = std::sscanf(
        line.c_str(),
        "ev ts=%" SCNu64 " shard=%u seq=%" SCNu64
        " op=%31s lock=%u mode=%c txn=%" SCNu64 " client=%u",
        &ev.ts, &shard, &ev.seq, op_buf, &ev.lock, &mode, &ev.txn,
        &ev.client);
    if (n != 8) return false;
    if (!ParseOp(op_buf, &ev.op)) return false;
    if (mode != 'X' && mode != 'S') return false;
    ev.shard = static_cast<std::uint16_t>(shard);
    ev.mode = mode == 'X' ? LockMode::kExclusive : LockMode::kShared;
    out->push_back(ev);
  }
  return true;
}

// --- Fatal-path dumping --------------------------------------------------

namespace {

std::atomic<FlightRecorder*> g_armed{nullptr};
std::atomic<bool> g_fatal_dumped{false};
std::mutex g_arm_mu;
std::string g_arm_prefix;  // Guarded by g_arm_mu; read by the fatal path.

extern "C" void FlightRecorderSignalHandler(int sig) {
  FlightRecorder::FatalDumpNow();
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

void InstallFatalHandlers() {
  static bool installed = false;  // Guarded by g_arm_mu.
  if (installed) return;
  installed = true;
  for (const int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT}) {
    std::signal(sig, &FlightRecorderSignalHandler);
  }
}

}  // namespace

void FlightRecorder::FatalDumpNow() {
  if (g_fatal_dumped.exchange(true)) return;
  FlightRecorder* recorder = g_armed.load(std::memory_order_acquire);
  if (recorder == nullptr) return;
  // Not async-signal-safe (allocates, does buffered I/O); best effort on
  // the way down — see the header contract.
  recorder->Dump(g_arm_prefix);
  std::fprintf(stderr, "flight_recorder: dumped %s.txt / %s.json\n",
               g_arm_prefix.c_str(), g_arm_prefix.c_str());
}

void FlightRecorder::ArmFatalDump(std::string path_prefix) {
  std::lock_guard<std::mutex> lock(g_arm_mu);
  g_arm_prefix = std::move(path_prefix);
  g_fatal_dumped.store(false);
  g_armed.store(this, std::memory_order_release);
  SetCheckFailureHook(&FlightRecorder::FatalDumpNow);
  InstallFatalHandlers();
}

void FlightRecorder::DisarmFatalDump() {
  std::lock_guard<std::mutex> lock(g_arm_mu);
  FlightRecorder* expected = this;
  if (g_armed.compare_exchange_strong(expected, nullptr)) {
    SetCheckFailureHook(nullptr);
  }
}

}  // namespace netlock
