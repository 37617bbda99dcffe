// Tests for per-tenant quota enforcement: meter (token bucket) and counter
// (windowed budget) modes.
#include <gtest/gtest.h>

#include "dataplane/quota.h"

namespace netlock {
namespace {

class QuotaTest : public ::testing::Test {
 protected:
  MetricsRegistry metrics_;
  Pipeline pipeline_{metrics_, 12};
};

TEST_F(QuotaTest, UnlimitedTenantsAlwaysAdmit) {
  TenantQuota quota(pipeline_, 0, 8, QuotaMode::kMeter);
  for (int i = 0; i < 100; ++i) {
    PacketPass pass = pipeline_.BeginPass();
    EXPECT_TRUE(quota.Admit(pass, 3, /*now=*/0));
  }
}

TEST_F(QuotaTest, UnknownTenantIdAdmits) {
  TenantQuota quota(pipeline_, 0, 8, QuotaMode::kMeter);
  PacketPass pass = pipeline_.BeginPass();
  EXPECT_TRUE(quota.Admit(pass, 200, 0));  // Beyond the table: no limit.
}

TEST_F(QuotaTest, MeterEnforcesBurstThenRate) {
  TenantQuota quota(pipeline_, 0, 8, QuotaMode::kMeter);
  quota.Configure(1, /*rate=*/1e6, /*burst=*/10);  // 1 token per us.
  int admitted = 0;
  for (int i = 0; i < 20; ++i) {
    PacketPass pass = pipeline_.BeginPass();
    if (quota.Admit(pass, 1, /*now=*/0)) ++admitted;
  }
  EXPECT_EQ(admitted, 10);  // Burst exhausted.
  // After 5 us, 5 tokens refilled.
  admitted = 0;
  for (int i = 0; i < 20; ++i) {
    PacketPass pass = pipeline_.BeginPass();
    if (quota.Admit(pass, 1, /*now=*/5 * kMicrosecond)) ++admitted;
  }
  EXPECT_EQ(admitted, 5);
  EXPECT_EQ(quota.rejections(), 25u);
}

TEST_F(QuotaTest, MeterSustainedRateConverges) {
  TenantQuota quota(pipeline_, 0, 8, QuotaMode::kMeter);
  quota.Configure(2, /*rate=*/100'000, /*burst=*/5);  // 100K/s.
  int admitted = 0;
  // Offer 1M/s for 10 ms: expect ~1000 admitted (plus burst).
  for (int i = 0; i < 10'000; ++i) {
    PacketPass pass = pipeline_.BeginPass();
    if (quota.Admit(pass, 2, static_cast<SimTime>(i) * kMicrosecond)) {
      ++admitted;
    }
  }
  EXPECT_NEAR(admitted, 1000, 10);
}

TEST_F(QuotaTest, MeterIndependentTenants) {
  TenantQuota quota(pipeline_, 0, 8, QuotaMode::kMeter);
  quota.Configure(1, 1e6, 1);
  quota.Configure(2, 1e6, 5);
  int t1 = 0, t2 = 0;
  for (int i = 0; i < 5; ++i) {
    PacketPass p1 = pipeline_.BeginPass();
    if (quota.Admit(p1, 1, 0)) ++t1;
    PacketPass p2 = pipeline_.BeginPass();
    if (quota.Admit(p2, 2, 0)) ++t2;
  }
  EXPECT_EQ(t1, 1);
  EXPECT_EQ(t2, 5);
}

TEST_F(QuotaTest, CounterModeWindowBudget) {
  TenantQuota quota(pipeline_, 0, 8, QuotaMode::kCounter);
  quota.set_window(10 * kMillisecond);
  quota.Configure(1, /*rate=*/0.0, /*burst=*/3);  // 3 per window.
  int admitted = 0;
  for (int i = 0; i < 10; ++i) {
    PacketPass pass = pipeline_.BeginPass();
    if (quota.Admit(pass, 1, /*now=*/kMillisecond)) ++admitted;
  }
  EXPECT_EQ(admitted, 3);
  // Next window: budget resets.
  PacketPass pass = pipeline_.BeginPass();
  EXPECT_TRUE(quota.Admit(pass, 1, 11 * kMillisecond));
}

TEST_F(QuotaTest, UnlimitRemovesThrottle) {
  TenantQuota quota(pipeline_, 0, 8, QuotaMode::kMeter);
  quota.Configure(1, 1.0, 1);
  PacketPass p1 = pipeline_.BeginPass();
  EXPECT_TRUE(quota.Admit(p1, 1, 0));
  PacketPass p2 = pipeline_.BeginPass();
  EXPECT_FALSE(quota.Admit(p2, 1, 0));
  quota.Unlimit(1);
  PacketPass p3 = pipeline_.BeginPass();
  EXPECT_TRUE(quota.Admit(p3, 1, 0));
}

}  // namespace
}  // namespace netlock
