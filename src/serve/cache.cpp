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

schedule_cache::schedule_cache(std::size_t byte_budget, unsigned shard_count) {
  if (shard_count < 1) shard_count = 1;
  shards_.reserve(shard_count);
  for (unsigned i = 0; i < shard_count; ++i) shards_.push_back(std::make_unique<shard>());
  shard_budget_ = byte_budget / shard_count;
}

unsigned schedule_cache::shard_index(const ir::dfg_digest& key) const noexcept {
  const std::uint64_t spread = key.hi ^ (key.hi >> 32) ^ (key.lo << 1);
  return static_cast<unsigned>(spread % shards_.size());
}

schedule_cache::shard& schedule_cache::shard_of(const ir::dfg_digest& key) {
  return *shards_[shard_index(key)];
}

schedule_cache::result_ptr schedule_cache::lookup(const ir::dfg_digest& key) {
  shard& s = shard_of(key);
  const std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.index.find(key);
  if (it == s.index.end()) {
    ++s.tally.misses;
    return nullptr;
  }
  ++s.tally.hits;
  s.lru.splice(s.lru.begin(), s.lru, it->second); // refresh: move to MRU front
  return it->second->value;
}

void schedule_cache::insert(const ir::dfg_digest& key, schedule_result value) {
  insert(key, std::make_shared<const schedule_result>(std::move(value)));
}

void schedule_cache::insert(const ir::dfg_digest& key, result_ptr value) {
  SOFTSCHED_EXPECT(value != nullptr, "schedule_cache: null value");
  shard& s = shard_of(key);
  const std::size_t value_bytes = value->bytes();
  const std::lock_guard<std::mutex> lock(s.mutex);

  // Oversize check first: rejecting a replacement must not destroy the
  // value already cached under the key (values are pure functions of the
  // key, so whatever is resident stays correct).
  if (value_bytes > shard_budget_) {
    ++s.tally.rejected_oversize;
    return;
  }
  const auto it = s.index.find(key);
  if (it != s.index.end()) {
    s.bytes -= it->second->bytes;
    s.lru.erase(it->second);
    s.index.erase(it);
  }
  s.lru.push_front(entry{key, std::move(value), value_bytes});
  s.index.emplace(key, s.lru.begin());
  s.bytes += value_bytes;
  ++s.tally.insertions;
  while (s.bytes > shard_budget_ && s.lru.size() > 1) {
    const entry& victim = s.lru.back();
    s.bytes -= victim.bytes;
    s.index.erase(victim.key);
    s.lru.pop_back();
    ++s.tally.evictions;
  }
}

void schedule_cache::clear() {
  for (const auto& s : shards_) {
    const std::lock_guard<std::mutex> lock(s->mutex);
    s->lru.clear();
    s->index.clear();
    s->bytes = 0;
  }
}

cache_counters schedule_cache::counters() const {
  cache_counters total;
  for (const auto& s : shards_) {
    const std::lock_guard<std::mutex> lock(s->mutex);
    total.hits += s->tally.hits;
    total.misses += s->tally.misses;
    total.insertions += s->tally.insertions;
    total.evictions += s->tally.evictions;
    total.rejected_oversize += s->tally.rejected_oversize;
    total.entries += s->lru.size();
    total.bytes += s->bytes;
  }
  return total;
}

} // namespace softsched::serve
