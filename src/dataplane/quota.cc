#include "dataplane/quota.h"

#include <algorithm>

#include "common/check.h"

namespace netlock {

TenantQuota::TenantQuota(Pipeline& pipeline, int stage,
                         std::uint16_t num_tenants, QuotaMode mode)
    : mode_(mode),
      cells_(std::make_unique<RegisterArray<Cell>>(pipeline, stage,
                                                   num_tenants)) {}

void TenantQuota::Configure(TenantId t, double rate_per_sec,
                            std::uint32_t burst) {
  NETLOCK_CHECK(t < cells_->size());
  Cell& cell = cells_->ControlRead(t);
  cell.limited = true;
  cell.rate_per_ns = rate_per_sec / static_cast<double>(kSecond);
  cell.burst = static_cast<double>(burst);
  cell.tokens = cell.burst;
  cell.budget = burst;
  cell.used = 0;
  cell.last = 0;
}

void TenantQuota::Unlimit(TenantId t) {
  NETLOCK_CHECK(t < cells_->size());
  cells_->ControlRead(t).limited = false;
}

bool TenantQuota::Admit(PacketPass& pass, TenantId t, SimTime now) {
  if (t >= cells_->size()) return true;  // Unknown tenants are unlimited.
  const bool admitted = cells_->ReadModifyWrite(pass, t, [&](Cell& cell) {
    if (!cell.limited) return true;
    if (mode_ == QuotaMode::kMeter) {
      const SimTime elapsed = now - cell.last;
      cell.last = now;
      cell.tokens = std::min(
          cell.burst, cell.tokens + cell.rate_per_ns *
                                        static_cast<double>(elapsed));
      if (cell.tokens >= 1.0) {
        cell.tokens -= 1.0;
        return true;
      }
      return false;
    }
    // Counter mode: roll the window, then compare against the budget.
    const SimTime window_id = now / window_;
    if (window_id != cell.last) {
      cell.last = window_id;
      cell.used = 0;
    }
    if (cell.used < cell.budget) {
      ++cell.used;
      return true;
    }
    return false;
  });
  if (!admitted) ++rejections_;
  return admitted;
}

}  // namespace netlock
