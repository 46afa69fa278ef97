#include "serve/cache.h"

#include "util/check.h"

namespace softsched::serve {

std::size_t schedule_result::bytes() const noexcept {
  return sizeof(schedule_result) + infeasible_reason.size() +
         start_times.raw().size() + unit_of.raw().size();
}

bool schedule_result::same_schedule(const schedule_result& other) const {
  return feasible == other.feasible && infeasible_reason == other.infeasible_reason &&
         ops == other.ops && latency == other.latency &&
         start_times == other.start_times && unit_of == other.unit_of &&
         stats == other.stats;
}

schedule_cache::result_ptr schedule_cache::lookup(const ir::dfg_digest& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++tally_.misses;
    return nullptr;
  }
  ++tally_.hits;
  lru_.splice(lru_.begin(), lru_, it->second); // refresh: move to MRU front
  return it->second->value;
}

void schedule_cache::insert(const ir::dfg_digest& key, schedule_result value) {
  insert(key, std::make_shared<const schedule_result>(std::move(value)));
}

void schedule_cache::insert(const ir::dfg_digest& key, result_ptr value) {
  SOFTSCHED_EXPECT(value != nullptr, "schedule_cache: null value");
  const std::size_t value_bytes = value->bytes();
  const std::lock_guard<std::mutex> lock(mutex_);

  // Oversize check first: rejecting a replacement must not destroy the
  // value already cached under the key (values are pure functions of the
  // key, so whatever is resident stays correct).
  if (value_bytes > byte_budget_) {
    ++tally_.rejected_oversize;
    return;
  }
  const auto it = index_.find(key);
  if (it != index_.end()) {
    tally_.bytes -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
  }
  lru_.push_front(entry{key, std::move(value), value_bytes});
  index_.emplace(key, lru_.begin());
  tally_.bytes += value_bytes;
  ++tally_.insertions;
  while (tally_.bytes > byte_budget_ && lru_.size() > 1) {
    const entry& victim = lru_.back();
    tally_.bytes -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++tally_.evictions;
  }
}

void schedule_cache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  tally_.bytes = 0;
}

cache_counters schedule_cache::counters() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  cache_counters total = tally_;
  total.entries = lru_.size();
  return total;
}

} // namespace softsched::serve
