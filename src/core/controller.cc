#include "core/controller.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "common/check.h"
#include "common/metrics.h"

namespace netlock {

namespace {
/// Multi-rack: a rack whose smoothed demand exceeds this multiple of the
/// mean sheds its hottest lock (one re-home per tick).
constexpr double kRackImbalanceFactor = 1.5;
}  // namespace

// ---------------------------------------------------------------------------
// ControllerCore
// ---------------------------------------------------------------------------

ControllerCore::ControllerCore(const ControllerConfig& config)
    : config_(config) {
  NETLOCK_CHECK(config_.ewma_alpha > 0.0 && config_.ewma_alpha <= 1.0);
  NETLOCK_CHECK(config_.migration_budget >= 1);
}

void ControllerCore::Observe(const std::vector<LockDemand>& window,
                             const Allocation& installed) {
  const double a = config_.ewma_alpha;
  std::unordered_set<LockId> seen;
  seen.reserve(window.size());
  for (const LockDemand& d : window) {
    seen.insert(d.lock);
    const auto [it, fresh] = model_.try_emplace(d.lock);
    if (fresh) {
      it->second.rate = d.rate;
      it->second.contention = d.contention;
    } else {
      it->second.rate = a * d.rate + (1.0 - a) * it->second.rate;
      it->second.contention =
          a * d.contention + (1.0 - a) * it->second.contention;
    }
  }
  std::unordered_set<LockId> resident;
  resident.reserve(installed.switch_slots.size());
  for (const auto& [lock, slots] : installed.switch_slots) {
    resident.insert(lock);
  }
  // Unobserved entries cool off instead of vanishing: an installed lock
  // must keep a model entry (its eviction is a decision, not an accident),
  // and a briefly-idle hot lock should not lose its history to one quiet
  // window. Cold non-residents drop below the floor.
  for (auto it = model_.begin(); it != model_.end();) {
    if (seen.find(it->first) != seen.end()) {
      ++it;
      continue;
    }
    it->second.rate *= (1.0 - a);
    it->second.contention = std::max(1.0, (1.0 - a) * it->second.contention);
    if (it->second.rate < config_.rate_floor &&
        resident.find(it->first) == resident.end()) {
      it = model_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<LockDemand> ControllerCore::SmoothedDemands() const {
  std::vector<LockDemand> out;
  out.reserve(model_.size());
  for (const auto& [lock, entry] : model_) {
    out.push_back(LockDemand{
        lock, entry.rate,
        static_cast<std::uint32_t>(
            std::max<long>(1, std::lround(entry.contention)))});
  }
  return out;
}

double ControllerCore::TotalRate() const {
  double total = 0.0;
  for (const auto& [lock, entry] : model_) total += entry.rate;
  return total;
}

bool ControllerCore::Frozen(LockId lock, SimTime now) const {
  const auto it = last_move_.find(lock);
  return it != last_move_.end() && now < it->second + config_.min_dwell;
}

void ControllerCore::MarkMoved(LockId lock, SimTime now) {
  last_move_[lock] = now;
}

bool ControllerCore::HottestUnfrozen(
    SimTime now, const std::function<bool(LockId)>& eligible,
    LockId* lock) const {
  double best = -1.0;
  bool found = false;
  for (const auto& [id, entry] : model_) {
    if (entry.rate <= best) continue;  // Strict >: map order breaks ties.
    if (Frozen(id, now)) continue;
    if (eligible && !eligible(id)) continue;
    best = entry.rate;
    *lock = id;
    found = true;
  }
  return found;
}

bool ControllerCore::Plan(
    const Allocation& installed, std::uint32_t capacity, SimTime now,
    const std::function<std::size_t(LockId)>& queue_depth,
    Allocation* target, ControllerStats* stats) {
  // The dirty slice: every modeled lock whose dwell clock allows a move.
  // Frozen locks stay out of the slice, which pins them exactly where they
  // are — IncrementalKnapsack keeps absent incumbents verbatim and cannot
  // promote an absent challenger.
  std::vector<LockDemand> slice;
  slice.reserve(model_.size());
  for (const auto& [lock, entry] : model_) {
    if (Frozen(lock, now)) {
      ++stats->skipped_dwell;
      continue;
    }
    slice.push_back(LockDemand{
        lock, entry.rate,
        static_cast<std::uint32_t>(
            std::max<long>(1, std::lround(entry.contention)))});
  }
  IncrementalPolicy policy;
  policy.incumbent_boost = config_.incumbent_boost;
  policy.min_resize_delta = config_.min_resize_delta;
  const Allocation resolved =
      IncrementalKnapsack(installed, slice, capacity, policy);

  std::map<LockId, std::uint32_t> have, want;
  for (const auto& [lock, slots] : installed.switch_slots) have[lock] = slots;
  for (const auto& [lock, slots] : resolved.switch_slots) want[lock] = slots;

  struct Move {
    LockId lock = 0;
    std::uint32_t slots = 0;
    double value = 0.0;  ///< Density (promotions) / staleness (demotions).
  };
  std::vector<Move> promotions, demotions, resizes;
  for (const auto& [lock, slots] : want) {
    const auto it = have.find(lock);
    const auto entry = model_.find(lock);
    const double density =
        entry != model_.end() && entry->second.contention > 0
            ? entry->second.rate / entry->second.contention
            : 0.0;
    if (it == have.end()) {
      promotions.push_back(Move{lock, slots, density});
    } else if (it->second != slots) {
      resizes.push_back(Move{lock, slots, density});
    }
  }
  for (const auto& [lock, slots] : have) {
    if (want.find(lock) == want.end()) {
      const auto entry = model_.find(lock);
      const double density =
          entry != model_.end() && entry->second.contention > 0
              ? entry->second.rate / entry->second.contention
              : 0.0;
      demotions.push_back(Move{lock, slots, density});
    }
  }

  // Cost model: promoting shifts ~rate x horizon requests onto the switch;
  // the pause-drain-move protocol delays everything queued at the server
  // plus a fixed install charge. Not worth it for lukewarm locks.
  std::vector<Move> paid;
  paid.reserve(promotions.size());
  for (const Move& m : promotions) {
    const auto entry = model_.find(m.lock);
    const double gain =
        (entry != model_.end() ? entry->second.rate : 0.0) *
        config_.payback_horizon_sec;
    const double cost =
        config_.fixed_migration_cost +
        config_.drain_cost_per_entry *
            static_cast<double>(queue_depth ? queue_depth(m.lock) : 0);
    if (gain < cost) {
      ++stats->skipped_cost;
      continue;
    }
    paid.push_back(m);
  }
  promotions = std::move(paid);

  // Budget: most-valuable moves first. Demotions are cheapest (they free
  // capacity and their locks are cold — drain is short), so they sort
  // coldest-first; promotions hottest-first; resizes (two migrations each)
  // last.
  std::sort(demotions.begin(), demotions.end(),
            [](const Move& a, const Move& b) {
              if (a.value != b.value) return a.value < b.value;
              return a.lock < b.lock;
            });
  std::sort(promotions.begin(), promotions.end(),
            [](const Move& a, const Move& b) {
              if (a.value != b.value) return a.value > b.value;
              return a.lock < b.lock;
            });
  std::sort(resizes.begin(), resizes.end(),
            [](const Move& a, const Move& b) {
              if (a.value != b.value) return a.value > b.value;
              return a.lock < b.lock;
            });
  int budget = config_.migration_budget;
  auto take = [&budget, stats](std::vector<Move>& moves, int cost_each) {
    std::vector<Move> kept;
    for (Move& m : moves) {
      if (budget >= cost_each) {
        budget -= cost_each;
        kept.push_back(m);
      } else {
        ++stats->skipped_budget;
      }
    }
    moves = std::move(kept);
  };
  take(demotions, 1);
  take(promotions, 1);
  take(resizes, 2);

  // Final target: installed plus the approved moves. A budget-dropped
  // demotion can strand an approved promotion over capacity — shed the
  // coolest promotions until the target fits.
  std::map<LockId, std::uint32_t> final_slots = have;
  for (const Move& m : demotions) final_slots.erase(m.lock);
  for (const Move& m : resizes) final_slots[m.lock] = m.slots;
  for (const Move& m : promotions) final_slots[m.lock] = m.slots;
  std::uint64_t used = 0;
  for (const auto& [lock, slots] : final_slots) used += slots;
  while (used > capacity && !promotions.empty()) {
    const Move dropped = promotions.back();
    promotions.pop_back();
    final_slots.erase(dropped.lock);
    used -= dropped.slots;
    ++stats->skipped_budget;
  }
  if (used > capacity) {
    // Resize growth alone cannot fit: keep the installed sizes this tick.
    for (const Move& m : resizes) {
      final_slots[m.lock] = have[m.lock];
      ++stats->skipped_budget;
    }
    resizes.clear();
  }

  if (final_slots == have) return false;

  stats->promotions += promotions.size();
  stats->demotions += demotions.size();
  stats->resizes += resizes.size();
  for (const Move& m : promotions) MarkMoved(m.lock, now);
  for (const Move& m : demotions) MarkMoved(m.lock, now);
  for (const Move& m : resizes) MarkMoved(m.lock, now);

  target->switch_slots.clear();
  target->server_only.clear();
  target->guaranteed_rate = 0.0;
  for (const auto& [lock, slots] : final_slots) {
    target->switch_slots.emplace_back(lock, slots);
    const auto entry = model_.find(lock);
    if (entry != model_.end()) {
      const double c = std::max(1.0, entry->second.contention);
      target->guaranteed_rate +=
          entry->second.rate * std::min<double>(slots, c) / c;
    }
  }
  for (const Move& m : demotions) target->server_only.push_back(m.lock);
  return true;
}

// ---------------------------------------------------------------------------
// SelfDrivingController
// ---------------------------------------------------------------------------

struct SelfDrivingController::CtrlMetrics {
  MetricCounter* ticks;
  MetricCounter* reallocs;
  MetricCounter* promotions;
  MetricCounter* demotions;
  MetricCounter* resizes;
  MetricCounter* rehomes;
  MetricCounter* skipped_busy;
  MetricCounter* skipped_dwell;
  MetricCounter* skipped_cost;
  MetricCounter* skipped_budget;
  ControllerStats published;

  explicit CtrlMetrics(MetricsRegistry& reg)
      : ticks(&reg.Counter("ctrl.ticks")),
        reallocs(&reg.Counter("ctrl.reallocs")),
        promotions(&reg.Counter("ctrl.promotions")),
        demotions(&reg.Counter("ctrl.demotions")),
        resizes(&reg.Counter("ctrl.resizes")),
        rehomes(&reg.Counter("ctrl.rehomes")),
        skipped_busy(&reg.Counter("ctrl.skipped_busy")),
        skipped_dwell(&reg.Counter("ctrl.skipped_dwell")),
        skipped_cost(&reg.Counter("ctrl.skipped_cost")),
        skipped_budget(&reg.Counter("ctrl.skipped_budget")) {}

  void Publish(const ControllerStats& stats) {
    ticks->Inc(stats.ticks - published.ticks);
    reallocs->Inc(stats.reallocs - published.reallocs);
    promotions->Inc(stats.promotions - published.promotions);
    demotions->Inc(stats.demotions - published.demotions);
    resizes->Inc(stats.resizes - published.resizes);
    rehomes->Inc(stats.rehomes - published.rehomes);
    skipped_busy->Inc(stats.skipped_busy - published.skipped_busy);
    skipped_dwell->Inc(stats.skipped_dwell - published.skipped_dwell);
    skipped_cost->Inc(stats.skipped_cost - published.skipped_cost);
    skipped_budget->Inc(stats.skipped_budget - published.skipped_budget);
    published = stats;
  }
};

SelfDrivingController::SelfDrivingController(Simulator& sim,
                                             ShardedNetLock& sharded,
                                             ControllerConfig config)
    : sim_(sim), sharded_(sharded), config_(config),
      metrics_(std::make_unique<CtrlMetrics>(sim.context().metrics())) {
  NETLOCK_CHECK(config_.interval > 0);
  for (int r = 0; r < sharded_.num_racks(); ++r) {
    cores_.push_back(std::make_unique<ControllerCore>(config_));
    warmup_left_.push_back(config_.warmup_ticks);
  }
}

SelfDrivingController::~SelfDrivingController() { Stop(); }

void SelfDrivingController::Start() {
  if (running_) return;
  running_ = true;
  Tick();
}

void SelfDrivingController::Stop() {
  running_ = false;
  ++generation_;
}

void SelfDrivingController::Tick() {
  const std::uint64_t gen = generation_;
  sim_.Schedule(config_.interval, [this, gen]() {
    if (!running_ || gen != generation_) return;
    ++stats_.ticks;
    for (int r = 0; r < sharded_.num_racks(); ++r) TickRack(r);
    if (sharded_.num_racks() > 1) BalanceRacks();
    metrics_->Publish(stats_);
    Tick();
  });
}

void SelfDrivingController::TickRack(int rack) {
  NetLockManager& manager = sharded_.rack(rack);
  ControlPlane& control = manager.control_plane();
  ControllerCore& core = *cores_[rack];
  core.Observe(control.CombinedDemands(), control.installed());
  if (warmup_left_[rack] > 0) {
    --warmup_left_[rack];
    return;
  }
  if (control.MigrationInFlight()) {
    ++stats_.skipped_busy;
    return;
  }
  const std::uint32_t capacity =
      manager.options().switch_config.queue_capacity;
  auto depth = [&control](LockId lock) {
    return control.ServerObjFor(lock).QueueDepth(lock);
  };
  Allocation target;
  if (!core.Plan(control.installed(), capacity, sim_.now(), depth, &target,
                 &stats_)) {
    return;
  }
  ++stats_.reallocs;
  control.ApplyAllocation(target, nullptr);
}

void SelfDrivingController::BalanceRacks() {
  const int n = sharded_.num_racks();
  std::vector<double> rates(n, 0.0);
  double total = 0.0;
  int hot = 0, cool = 0;
  for (int r = 0; r < n; ++r) {
    rates[r] = cores_[r]->TotalRate();
    total += rates[r];
    if (rates[r] > rates[hot]) hot = r;
    if (rates[r] < rates[cool]) cool = r;
  }
  const double mean = total / n;
  if (mean <= 0.0 || rates[hot] <= kRackImbalanceFactor * mean) return;
  const SimTime now = sim_.now();
  LockId lock = 0;
  const bool found = cores_[hot]->HottestUnfrozen(
      now,
      [this, hot](LockId id) {
        return sharded_.directory().RackFor(id) == hot &&
               !sharded_.RehomeInFlight(id);
      },
      &lock);
  if (!found || !sharded_.RehomeLock(lock, cool)) return;
  cores_[hot]->MarkMoved(lock, now);
  cores_[cool]->MarkMoved(lock, now);
  ++stats_.rehomes;
}

}  // namespace netlock
