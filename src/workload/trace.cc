#include "workload/trace.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/check.h"

namespace netlock {

TraceWorkload::TraceWorkload(std::vector<TxnSpec> txns,
                             std::size_t start_offset)
    : txns_(std::move(txns)) {
  NETLOCK_CHECK(!txns_.empty());
  next_ = start_offset % txns_.size();
  for (const TxnSpec& txn : txns_) {
    for (const LockRequest& req : txn.locks) {
      lock_space_ = std::max(lock_space_, req.lock + 1);
    }
  }
}

void TraceWorkload::NextInto(Rng& /*rng*/, TxnSpec& out) {
  const TxnSpec& txn = txns_[next_];
  next_ = (next_ + 1) % txns_.size();
  out.locks.assign(txn.locks.begin(), txn.locks.end());
}

std::vector<TxnSpec> TraceWorkload::Parse(std::istream& in) {
  std::vector<TxnSpec> txns;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::size_t comment = line.find('#');
    if (comment != std::string::npos) line.erase(comment);
    std::istringstream tokens(line);
    TxnSpec txn;
    std::string token;
    while (tokens >> token) {
      LockRequest req;
      req.mode = LockMode::kExclusive;
      const std::size_t colon = token.find(':');
      std::string id_part = token.substr(0, colon);
      if (colon != std::string::npos) {
        const std::string mode = token.substr(colon + 1);
        if (mode == "S" || mode == "s") {
          req.mode = LockMode::kShared;
        } else if (mode == "X" || mode == "x") {
          req.mode = LockMode::kExclusive;
        } else {
          throw std::runtime_error("trace line " +
                                   std::to_string(line_number) +
                                   ": bad mode '" + mode + "'");
        }
      }
      try {
        std::size_t used = 0;
        const unsigned long value = std::stoul(id_part, &used);
        if (used != id_part.size() || value > 0xffffffffull) {
          throw std::invalid_argument("range");
        }
        req.lock = static_cast<LockId>(value);
      } catch (const std::exception&) {
        throw std::runtime_error("trace line " +
                                 std::to_string(line_number) +
                                 ": bad lock id '" + id_part + "'");
      }
      txn.locks.push_back(req);
    }
    if (txn.locks.empty()) continue;  // Blank / comment-only line.
    NormalizeTxn(txn);
    txns.push_back(std::move(txn));
  }
  return txns;
}

std::vector<TxnSpec> TraceWorkload::LoadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  return Parse(in);
}

void TraceWorkload::Write(const std::vector<TxnSpec>& txns,
                          std::ostream& out) {
  for (const TxnSpec& txn : txns) {
    bool first = true;
    for (const LockRequest& req : txn.locks) {
      if (!first) out << ' ';
      first = false;
      out << req.lock;
      if (req.mode == LockMode::kShared) out << ":S";
    }
    out << '\n';
  }
}

std::vector<TxnSpec> TraceWorkload::Record(WorkloadGenerator& source,
                                           Rng& rng, std::size_t count) {
  std::vector<TxnSpec> txns;
  txns.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    txns.push_back(source.Next(rng));
  }
  return txns;
}

}  // namespace netlock
