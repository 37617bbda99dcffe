// Trace-driven workload: record a lock-request trace to a portable text
// format and replay it later.
//
// Lets downstream users run their own production lock traces through the
// simulator (or archive a generated workload for exact cross-machine
// reproduction). Format: one transaction per line, whitespace-separated
// `<lock>[:S|:X]` tokens (mode defaults to X); '#' starts a comment.
//
//   # two transactions
//   17:S 42:X
//   108
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "workload/workload.h"

namespace netlock {

/// Replays a fixed list of transactions, looping at the end. Each engine
/// can start at a different offset so concurrent replayers do not move in
/// lock-step.
class TraceWorkload final : public WorkloadGenerator {
 public:
  explicit TraceWorkload(std::vector<TxnSpec> txns,
                         std::size_t start_offset = 0);

  /// Parses the text format from a stream. Throws std::runtime_error with
  /// a line-numbered message on malformed input.
  static std::vector<TxnSpec> Parse(std::istream& in);

  /// Loads a trace file. Throws std::runtime_error if unreadable.
  static std::vector<TxnSpec> LoadFile(const std::string& path);

  /// Serializes transactions to the text format.
  static void Write(const std::vector<TxnSpec>& txns, std::ostream& out);

  /// Records `count` transactions from any generator into a trace.
  static std::vector<TxnSpec> Record(WorkloadGenerator& source, Rng& rng,
                                     std::size_t count);

  void NextInto(Rng& rng, TxnSpec& out) override;
  LockId lock_space() const override { return lock_space_; }

  std::size_t size() const { return txns_.size(); }

 private:
  std::vector<TxnSpec> txns_;
  std::size_t next_;
  LockId lock_space_ = 0;
};

}  // namespace netlock
