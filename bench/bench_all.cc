// Runs every figure/ablation bench binary, forwarding the shared bench
// flags, and fails if any bench fails. CI invokes this with
// --quick --json-dir=<dir> to produce the full set of BENCH_*.json reports
// in one step; locally it reproduces every paper figure in one command.
//
// --help (or -h) prints the shared flags and runs nothing.
//
// --jobs=N (consumed here, NOT forwarded) runs up to N bench processes
// concurrently. Children stay serial and each writes its own BENCH_*.json,
// so reports are byte-identical to a serial run (modulo wall-clock fields);
// child output is captured to temp files and replayed in bench order so the
// log reads the same regardless of scheduling.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "harness/report.h"

namespace {

// Sibling binaries, in figure order. micro_components (google-benchmark)
// rides along last since it measures the simulator, not the paper.
const char* const kBenches[] = {
    "fig08_micro",
    "fig09_switch_vs_server",
    "fig10_tpcc_10c2s",
    "fig11_tpcc_6c6s",
    "fig12_policy",
    "fig13_memory_alloc",
    "fig14_memory_size",
    "fig15_failure",
    "ablation_one_rtt",
    "ablation_shared_queue",
    "scaleout_racks",
    "micro_components",
};
constexpr std::size_t kNumBenches = sizeof(kBenches) / sizeof(kBenches[0]);

std::string DirOf(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".")
                                    : path.substr(0, slash);
}

std::string ShellQuote(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  out += "'";
  return out;
}

/// Decodes a raw status from std::system()/waitpid() into a human-readable
/// failure description. Returns true when the command exited 0. The old
/// code printed the raw wait status (e.g. "exit status 256" for exit(1),
/// or 0 for a SIGSEGV'd child on some shells) — always decode.
bool DecodeStatus(int raw, std::string& detail) {
  if (raw == -1) {
    detail = "could not launch (system() returned -1)";
    return false;
  }
  if (WIFEXITED(raw)) {
    const int code = WEXITSTATUS(raw);
    if (code == 0) return true;
    detail = "exit code " + std::to_string(code);
    return false;
  }
  if (WIFSIGNALED(raw)) {
    const int sig = WTERMSIG(raw);
    const char* name = strsignal(sig);
    detail = "killed by signal " + std::to_string(sig) +
             (name != nullptr ? std::string(" (") + name + ")" : "");
    return false;
  }
  detail = "unrecognized wait status " + std::to_string(raw);
  return false;
}

/// Prints a file's contents to stdout (used to replay captured child
/// output in bench order).
void ReplayFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    std::fwrite(buf, 1, n, stdout);
  }
  std::fclose(f);
}

struct BenchResult {
  bool ok = false;
  std::string detail;
};

}  // namespace

int main(int argc, char** argv) {
  // Forward the shared flags verbatim — except --jobs, which is consumed
  // here (process-level parallelism). Children stay serial so their
  // reports are deterministic. Anything else is passed through too, so
  // e.g. --benchmark_filter reaches micro_components.
  std::string forwarded;
  int jobs = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      netlock::PrintBenchUsage(argv[0]);
      return 0;
    }
    if (arg.rfind("--jobs=", 0) == 0) {
      jobs = std::atoi(arg.c_str() + 7);
      continue;
    }
    if (arg == "--jobs" && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
      continue;
    }
    forwarded += " ";
    forwarded += ShellQuote(arg);
  }
  if (jobs < 1) jobs = 1;

  const std::string bin_dir = DirOf(argv[0]);
  std::vector<std::string> cmds;
  cmds.reserve(kNumBenches);
  for (const char* bench : kBenches) {
    cmds.push_back(ShellQuote(bin_dir + "/" + bench) + forwarded);
  }

  std::vector<BenchResult> results(kNumBenches);

  if (jobs == 1) {
    for (std::size_t i = 0; i < kNumBenches; ++i) {
      std::printf("\n===== bench_all: %s =====\n", kBenches[i]);
      std::fflush(stdout);
      results[i].ok = DecodeStatus(std::system(cmds[i].c_str()),
                                   results[i].detail);
    }
  } else {
    // Each child's stdout+stderr goes to a temp file; output is replayed
    // in bench order after all children finish so logs stay stable.
    char tmpl[] = "/tmp/bench_all.XXXXXX";
    const char* tmp_dir = mkdtemp(tmpl);
    if (tmp_dir == nullptr) {
      std::fprintf(stderr, "bench_all: mkdtemp failed\n");
      return 1;
    }
    std::vector<std::string> logs(kNumBenches);
    for (std::size_t i = 0; i < kNumBenches; ++i) {
      logs[i] = std::string(tmp_dir) + "/" + kBenches[i] + ".log";
    }
    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
      for (std::size_t i = next.fetch_add(1); i < kNumBenches;
           i = next.fetch_add(1)) {
        const std::string cmd =
            cmds[i] + " > " + ShellQuote(logs[i]) + " 2>&1";
        results[i].ok =
            DecodeStatus(std::system(cmd.c_str()), results[i].detail);
      }
    };
    const std::size_t n =
        std::min<std::size_t>(static_cast<std::size_t>(jobs), kNumBenches);
    std::printf("bench_all: running %zu benches on %zu jobs\n", kNumBenches,
                n);
    std::fflush(stdout);
    std::vector<std::thread> pool;
    pool.reserve(n);
    for (std::size_t t = 0; t < n; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
    for (std::size_t i = 0; i < kNumBenches; ++i) {
      std::printf("\n===== bench_all: %s =====\n", kBenches[i]);
      std::fflush(stdout);
      ReplayFile(logs[i]);
      std::remove(logs[i].c_str());
    }
    rmdir(tmp_dir);
  }

  int failures = 0;
  for (std::size_t i = 0; i < kNumBenches; ++i) {
    if (!results[i].ok) {
      std::fprintf(stderr, "bench_all: %s FAILED (%s)\n", kBenches[i],
                   results[i].detail.c_str());
      ++failures;
    }
  }
  if (failures > 0) {
    std::fprintf(stderr, "\nbench_all: %d bench(es) failed\n", failures);
    return 1;
  }
  std::printf("\nbench_all: all %zu benches passed\n", kNumBenches);
  return 0;
}
