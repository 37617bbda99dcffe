#include "workload/tpcc.h"

#include "common/check.h"

namespace netlock {

namespace {
/// Probability a NewOrder order line is supplied by a remote warehouse.
constexpr double kRemoteOrderlineProb = 0.01;
/// Probability a Payment customer belongs to a remote warehouse.
constexpr double kRemotePaymentProb = 0.15;
}  // namespace

TpccWorkload::TpccWorkload(TpccConfig config) : config_(config) {
  NETLOCK_CHECK(config_.warehouses >= 1);
  NETLOCK_CHECK(config_.home_warehouse < config_.warehouses);
  NETLOCK_CHECK(config_.item_granularity >= 1);
  NETLOCK_CHECK(config_.stock_granularity >= 1);
  NETLOCK_CHECK(config_.customer_granularity >= 1);
  const LockId w = config_.warehouses;
  const LockId customers_per_wh =
      (kDistrictsPerWarehouse * kCustomersPerDistrict +
       config_.customer_granularity - 1) /
      config_.customer_granularity;
  const LockId item_locks =
      (kItems + config_.item_granularity - 1) / config_.item_granularity;
  const LockId stock_locks_total =
      (w * kItems + config_.stock_granularity - 1) /
      config_.stock_granularity;
  stock_base_ = 0;
  item_base_ = stock_base_ + stock_locks_total;
  customer_base_ = item_base_ + item_locks;
  district_base_ = customer_base_ + w * customers_per_wh;
  warehouse_base_ = district_base_ + w * kDistrictsPerWarehouse;
  total_locks_ = warehouse_base_ + w;
}

LockId TpccWorkload::WarehouseLock(std::uint32_t w) const {
  NETLOCK_DCHECK(w < config_.warehouses);
  return warehouse_base_ + w;
}

LockId TpccWorkload::DistrictLock(std::uint32_t w, std::uint32_t d) const {
  NETLOCK_DCHECK(w < config_.warehouses && d < kDistrictsPerWarehouse);
  return district_base_ + w * kDistrictsPerWarehouse + d;
}

LockId TpccWorkload::CustomerLock(std::uint32_t w, std::uint32_t d,
                                  std::uint32_t c) const {
  NETLOCK_DCHECK(w < config_.warehouses && d < kDistrictsPerWarehouse &&
                 c < kCustomersPerDistrict);
  const LockId customers_per_wh =
      (kDistrictsPerWarehouse * kCustomersPerDistrict +
       config_.customer_granularity - 1) /
      config_.customer_granularity;
  const LockId row = d * kCustomersPerDistrict + c;
  return customer_base_ + w * customers_per_wh +
         row / config_.customer_granularity;
}

LockId TpccWorkload::ItemLock(std::uint32_t i) const {
  NETLOCK_DCHECK(i < kItems);
  return item_base_ + i / config_.item_granularity;
}

LockId TpccWorkload::StockLock(std::uint32_t w, std::uint32_t i) const {
  NETLOCK_DCHECK(w < config_.warehouses && i < kItems);
  return stock_base_ +
         (static_cast<LockId>(w) * kItems + i) / config_.stock_granularity;
}

TpccTxnType TpccWorkload::SampleType(Rng& rng) {
  // Standard mix: 45 / 43 / 4 / 4 / 4.
  const std::uint64_t roll = rng.NextBounded(100);
  if (roll < 45) return TpccTxnType::kNewOrder;
  if (roll < 88) return TpccTxnType::kPayment;
  if (roll < 92) return TpccTxnType::kOrderStatus;
  if (roll < 96) return TpccTxnType::kDelivery;
  return TpccTxnType::kStockLevel;
}

std::uint32_t TpccWorkload::NonUniform(Rng& rng, std::uint32_t a,
                                       std::uint32_t n) const {
  // TPC-C NURand(A, 0, n-1) with C = 0: ((rand(0,A) | rand(0,n-1)) % n.
  const std::uint32_t x = static_cast<std::uint32_t>(rng.NextBounded(a + 1));
  const std::uint32_t y = static_cast<std::uint32_t>(rng.NextBounded(n));
  return (x | y) % n;
}

void TpccWorkload::NextInto(Rng& rng, TxnSpec& out) {
  out.locks.clear();
  switch (SampleType(rng)) {
    case TpccTxnType::kNewOrder:
      NewOrder(rng, out.locks);
      break;
    case TpccTxnType::kPayment:
      Payment(rng, out.locks);
      break;
    case TpccTxnType::kOrderStatus:
      OrderStatus(rng, out.locks);
      break;
    case TpccTxnType::kDelivery:
      Delivery(rng, out.locks);
      break;
    case TpccTxnType::kStockLevel:
      StockLevel(rng, out.locks);
      break;
  }
  NormalizeTxn(out);
}

void TpccWorkload::NewOrder(Rng& rng, std::vector<LockRequest>& locks) {
  // Reads warehouse tax, appends to the district's order sequence
  // (exclusive on the district row), reads the customer, and for each of
  // 5-15 order lines reads the item and updates the stock row.
  const std::uint32_t w = config_.home_warehouse;
  const std::uint32_t d =
      static_cast<std::uint32_t>(rng.NextBounded(kDistrictsPerWarehouse));
  locks.push_back({WarehouseLock(w), LockMode::kShared});
  locks.push_back({DistrictLock(w, d), LockMode::kExclusive});
  locks.push_back(
      {CustomerLock(w, d, NonUniform(rng, 1023, kCustomersPerDistrict)),
       LockMode::kShared});
  const std::uint32_t ol_cnt =
      5 + static_cast<std::uint32_t>(rng.NextBounded(11));  // 5..15
  for (std::uint32_t ol = 0; ol < ol_cnt; ++ol) {
    const std::uint32_t item = NonUniform(rng, 8191, kItems);
    std::uint32_t supply_w = w;
    if (config_.warehouses > 1 && rng.NextBool(kRemoteOrderlineProb)) {
      do {
        supply_w =
            static_cast<std::uint32_t>(rng.NextBounded(config_.warehouses));
      } while (supply_w == w);
    }
    if (config_.lock_items) {
      locks.push_back({ItemLock(item), LockMode::kShared});
    }
    if (config_.lock_stock) {
      locks.push_back({StockLock(supply_w, item), LockMode::kExclusive});
    }
  }
}

void TpccWorkload::Payment(Rng& rng, std::vector<LockRequest>& locks) {
  // Updates warehouse and district YTD (both exclusive — this is what makes
  // the warehouse row the hottest lock under high contention) and the
  // customer balance.
  const std::uint32_t w = config_.home_warehouse;
  const std::uint32_t d =
      static_cast<std::uint32_t>(rng.NextBounded(kDistrictsPerWarehouse));
  std::uint32_t cw = w;
  std::uint32_t cd = d;
  if (config_.warehouses > 1 && rng.NextBool(kRemotePaymentProb)) {
    do {
      cw = static_cast<std::uint32_t>(rng.NextBounded(config_.warehouses));
    } while (cw == w);
    cd = static_cast<std::uint32_t>(rng.NextBounded(kDistrictsPerWarehouse));
  }
  locks.push_back({WarehouseLock(w), LockMode::kExclusive});
  locks.push_back({DistrictLock(w, d), LockMode::kExclusive});
  locks.push_back(
      {CustomerLock(cw, cd, NonUniform(rng, 1023, kCustomersPerDistrict)),
       LockMode::kExclusive});
}

void TpccWorkload::OrderStatus(Rng& rng, std::vector<LockRequest>& locks) {
  // Reads a customer and their latest order (order rows are per-district
  // appends; the read rides the district row shared).
  const std::uint32_t w = config_.home_warehouse;
  const std::uint32_t d =
      static_cast<std::uint32_t>(rng.NextBounded(kDistrictsPerWarehouse));
  locks.push_back(
      {CustomerLock(w, d, NonUniform(rng, 1023, kCustomersPerDistrict)),
       LockMode::kShared});
  locks.push_back({DistrictLock(w, d), LockMode::kShared});
}

void TpccWorkload::Delivery(Rng& rng, std::vector<LockRequest>& locks) {
  // Delivery is deferred-executed in TPC-C (queued and processed
  // asynchronously, district by district); locking all ten districts in
  // one transaction would serialize the entire warehouse. Model the
  // deferred executor's unit of work: one district's oldest order.
  const std::uint32_t w = config_.home_warehouse;
  const std::uint32_t d =
      static_cast<std::uint32_t>(rng.NextBounded(kDistrictsPerWarehouse));
  locks.push_back({DistrictLock(w, d), LockMode::kExclusive});
  locks.push_back(
      {CustomerLock(w, d, NonUniform(rng, 1023, kCustomersPerDistrict)),
       LockMode::kExclusive});
}

void TpccWorkload::StockLevel(Rng& rng, std::vector<LockRequest>& locks) {
  // Examines recent order lines' stock levels: shared on the district
  // sequence and on a batch of stock rows.
  const std::uint32_t w = config_.home_warehouse;
  const std::uint32_t d =
      static_cast<std::uint32_t>(rng.NextBounded(kDistrictsPerWarehouse));
  locks.push_back({DistrictLock(w, d), LockMode::kShared});
  if (config_.lock_stock) {
    for (int i = 0; i < 20; ++i) {
      locks.push_back(
          {StockLock(w, NonUniform(rng, 8191, kItems)), LockMode::kShared});
    }
  }
}

}  // namespace netlock
