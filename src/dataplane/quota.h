// Per-tenant quota enforcement in the data plane (paper Section 4.4,
// "Performance isolation with per-tenant quota").
//
// The paper names two implementations: meters that automatically throttle a
// tenant, and counters compared against quotas. Both are provided:
//   - kMeter: a token bucket refilled at the tenant's rate (the switch meter
//     abstraction); non-conforming requests are rejected.
//   - kCounter: a per-window request counter; requests beyond the window
//     quota are rejected until the window rolls over.
// Registers hold the bucket/counter state; one RMW per request.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "switchsim/pipeline.h"

namespace netlock {

enum class QuotaMode : std::uint8_t {
  kMeter = 0,
  kCounter = 1,
};

class TenantQuota {
 public:
  /// `num_tenants` sizes the register array (one cell per tenant).
  TenantQuota(Pipeline& pipeline, int stage, std::uint16_t num_tenants,
              QuotaMode mode = QuotaMode::kMeter);

  /// Configures tenant `t`: sustained rate in requests/second and burst
  /// size (meter mode) or per-window request budget (counter mode).
  void Configure(TenantId t, double rate_per_sec, std::uint32_t burst);

  /// Removes any limit for tenant `t` (the default for all tenants).
  void Unlimit(TenantId t);

  /// Data-plane check: true if the request conforms (and consumes budget).
  bool Admit(PacketPass& pass, TenantId t, SimTime now);

  /// Counter-mode window length.
  void set_window(SimTime window) { window_ = window; }

  std::uint64_t rejections() const { return rejections_; }

 private:
  struct Cell {
    bool limited = false;
    double tokens = 0.0;          ///< Meter: current tokens.
    double rate_per_ns = 0.0;     ///< Meter: refill rate.
    double burst = 0.0;           ///< Meter: bucket depth.
    std::uint32_t budget = 0;     ///< Counter: per-window budget.
    std::uint32_t used = 0;       ///< Counter: used in current window.
    SimTime last = 0;             ///< Meter: last refill; counter: window id.
  };

  QuotaMode mode_;
  SimTime window_ = 10 * kMillisecond;
  std::unique_ptr<RegisterArray<Cell>> cells_;
  std::uint64_t rejections_ = 0;
};

}  // namespace netlock
