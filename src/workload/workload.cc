#include "workload/workload.h"

#include "client/txn_driver.h"

namespace netlock {

void NormalizeTxn(TxnSpec& txn) {
  OrderLockSet(txn.locks, [](LockId lock) { return lock; });
}

}  // namespace netlock
