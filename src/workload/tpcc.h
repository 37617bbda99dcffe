// TPC-C lock-request trace generator (paper Section 6.1).
//
// Generates the lock sets TPC-C transactions take under row-level two-phase
// locking: the five transaction types at the standard mix (NewOrder 45%,
// Payment 43%, OrderStatus 4%, Delivery 4%, StockLevel 4%), over the
// warehouse / district / customer / item / stock tables. Contention is
// controlled exactly as in the paper (and DSLR): a *high-contention*
// setting runs one warehouse per client node and a *low-contention* setting
// runs ten. Cross-warehouse accesses (1% of NewOrder order lines, 15% of
// Payment customers, per the TPC-C spec) create the inter-node conflicts.
//
// Lock ids pack (table, row) into the 32-bit lock space, ordered so the
// hottest tables sort HIGHEST. Transactions acquire locks in ascending id
// order (global deadlock-avoidance ordering), so hot rows are locked last
// and held only across the commit point — the standard "lock hot data
// last" 2PL discipline; putting warehouses first would make every
// transaction hold the hottest lock through its entire growing phase.
//   [0, stock)                  stock rows        (coldest)
//   [.., + items)               item rows
//   [.., + customers)           customer rows
//   [.., + 10W)                 district rows
//   [.., + W)                   warehouse rows    (hottest)
#pragma once

#include "workload/workload.h"

namespace netlock {

enum class TpccTxnType : std::uint8_t {
  kNewOrder = 0,
  kPayment = 1,
  kOrderStatus = 2,
  kDelivery = 3,
  kStockLevel = 4,
};

struct TpccConfig {
  /// Total warehouses across the cluster.
  std::uint32_t warehouses = 10;
  /// This generator's home warehouse (one engine per client thread; its
  /// transactions mostly touch the home warehouse, as TPC-C terminals do).
  std::uint32_t home_warehouse = 0;
  /// Lock coarsening (paper §4.5: "for uniform workload distributions, we
  /// combine multiple locks into one coarse-grained lock to increase the
  /// memory utilization"): rows per lock for the near-uniform tail tables.
  /// 1 = row-level locking. Coarsening trades a little false contention
  /// for a lock working set that fits switch memory.
  std::uint32_t item_granularity = 1;
  std::uint32_t stock_granularity = 1;
  std::uint32_t customer_granularity = 1;
  /// Whether reads of the item catalog take shared locks. The item table is
  /// never written in TPC-C, so implementations commonly read it without
  /// locking (versioned/immutable catalog).
  bool lock_items = true;
  /// Whether stock rows are locked. Implementations that validate stock
  /// updates optimistically (or partition them with the warehouse) keep the
  /// lock manager's working set to the coordination-critical warehouse /
  /// district / customer rows — the regime the paper's memory-allocation
  /// experiments (Figures 13-14) operate in.
  bool lock_stock = true;
};

class TpccWorkload final : public WorkloadGenerator {
 public:
  explicit TpccWorkload(TpccConfig config);

  void NextInto(Rng& rng, TxnSpec& out) override;
  LockId lock_space() const override { return total_locks_; }

  /// Lock id helpers (exposed for tests and allocation analysis).
  LockId WarehouseLock(std::uint32_t w) const;
  LockId DistrictLock(std::uint32_t w, std::uint32_t d) const;
  LockId CustomerLock(std::uint32_t w, std::uint32_t d,
                      std::uint32_t c) const;
  LockId ItemLock(std::uint32_t i) const;
  LockId StockLock(std::uint32_t w, std::uint32_t i) const;

  /// Samples a transaction type at the standard mix.
  static TpccTxnType SampleType(Rng& rng);

  static constexpr std::uint32_t kDistrictsPerWarehouse = 10;
  static constexpr std::uint32_t kCustomersPerDistrict = 3000;
  static constexpr std::uint32_t kItems = 100'000;

  const TpccConfig& config() const { return config_; }

 private:
  /// Each appends one transaction type's lock requests to `locks`.
  void NewOrder(Rng& rng, std::vector<LockRequest>& locks);
  void Payment(Rng& rng, std::vector<LockRequest>& locks);
  void OrderStatus(Rng& rng, std::vector<LockRequest>& locks);
  void Delivery(Rng& rng, std::vector<LockRequest>& locks);
  void StockLevel(Rng& rng, std::vector<LockRequest>& locks);

  /// NURand-style non-uniform row selection (hot rows within a table).
  std::uint32_t NonUniform(Rng& rng, std::uint32_t a, std::uint32_t n) const;

  TpccConfig config_;
  LockId stock_base_ = 0;
  LockId item_base_ = 0;
  LockId customer_base_ = 0;
  LockId district_base_ = 0;
  LockId warehouse_base_ = 0;
  LockId total_locks_ = 0;
};

}  // namespace netlock
