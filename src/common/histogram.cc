#include "common/histogram.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

namespace netlock {

std::uint32_t LogHistogram::BucketFor(SimTime value) {
  // Values below kSubBuckets get exact unit buckets; above, the bucket is
  // (exponent, top kSubBuckets-worth of mantissa bits).
  if (value < kSubBuckets) return static_cast<std::uint32_t>(value);
  const int msb = 63 - std::countl_zero(static_cast<std::uint64_t>(value));
  if (msb > static_cast<int>(kMaxExponent)) {
    // Outlier beyond the covered range: saturate to the top bucket. Keeping
    // mantissa bits from the unclamped shift would make the index
    // non-monotone here (a larger value could land in a smaller bucket).
    return kMaxExponent * kSubBuckets + (kSubBuckets - 1);
  }
  const int shift = msb - 6;  // log2(kSubBuckets) == 6.
  const std::uint32_t sub =
      static_cast<std::uint32_t>((value >> shift) & (kSubBuckets - 1));
  return static_cast<std::uint32_t>(msb) * kSubBuckets + sub;
}

SimTime LogHistogram::BucketMidpoint(std::uint32_t bucket) {
  if (bucket < kSubBuckets) return bucket;
  const std::uint32_t exponent = bucket / kSubBuckets;
  const std::uint32_t sub = bucket % kSubBuckets;
  const int shift = static_cast<int>(exponent) - 6;
  const SimTime base = (SimTime{1} << exponent) |
                       (static_cast<SimTime>(sub) << shift);
  return base + (SimTime{1} << shift) / 2;  // Midpoint of the bucket.
}

void LogHistogram::Record(SimTime nanos) {
  const std::uint32_t bucket = BucketFor(nanos);
  NETLOCK_DCHECK(bucket < kNumBuckets);
  Set(buckets_[bucket], Read(buckets_[bucket]) + 1);
  Set(count_, Read(count_) + 1);
  Set(sum_, Read(sum_) + static_cast<double>(nanos));
  if (nanos < Read(min_)) Set(min_, nanos);
  if (nanos > Read(max_)) Set(max_, nanos);
}

SimTime LogHistogram::Percentile(double p) const {
  const std::uint64_t count = Read(count_);
  if (count == 0) return 0;
  NETLOCK_CHECK(p >= 0.0 && p <= 1.0);
  const SimTime min = Read(min_);
  const SimTime max = Read(max_);
  const std::uint64_t rank =
      static_cast<std::uint64_t>(p * static_cast<double>(count - 1));
  std::uint64_t seen = 0;
  for (std::size_t bucket = 0; bucket < kNumBuckets; ++bucket) {
    seen += Read(buckets_[bucket]);
    if (seen > rank) {
      const SimTime mid = BucketMidpoint(static_cast<std::uint32_t>(bucket));
      // Clamp to the observed range so tails never exceed the real max.
      return std::min(std::max(mid, min), max);
    }
  }
  return max;
}

double LogHistogram::Mean() const {
  const std::uint64_t count = Read(count_);
  return count == 0 ? 0.0 : Read(sum_) / static_cast<double>(count);
}

void LogHistogram::Merge(const LogHistogram& other) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    const std::uint32_t n = Read(other.buckets_[i]);
    if (n == 0) continue;
    Set(buckets_[i], Read(buckets_[i]) + n);
    total += n;
  }
  if (total == 0) return;
  Set(count_, Read(count_) + total);
  Set(sum_, Read(sum_) + Read(other.sum_));
  Set(min_, std::min(Read(min_), Read(other.min_)));
  Set(max_, std::max(Read(max_), Read(other.max_)));
}

void LogHistogram::Clear() {
  for (std::atomic<std::uint32_t>& bucket : buckets_) Set(bucket, 0);
  Set(count_, 0);
  Set(sum_, 0.0);
  Set(min_, ~SimTime{0});
  Set(max_, 0);
}

}  // namespace netlock
