// cache.h - the sharded, byte-budgeted LRU schedule cache behind the
// scheduling service: content-addressed by ir::dfg_digest schedule keys
// (canonical DFG digest + allocation + scheduler options), storing the
// complete scheduling outcome so a repeated request never re-runs
// Algorithm 1.
//
// Concurrency: N mutex-striped shards; a key maps to one shard by its
// digest bits, and every operation takes exactly one shard mutex. Eviction
// is per shard (LRU within the shard against byte_budget / N), so shards
// never contend with each other. Counters are per shard and aggregated on
// read.
//
// Determinism: lookup/insert order decides LRU state and therefore hit
// patterns, which the concurrent service does not reproduce across runs;
// response payloads never depend on them, because a cached value equals
// what the scheduler would recompute (docs/DESIGN.md §6).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/threaded_graph.h"
#include "ir/dfg_hash.h"
#include "util/packed_ints.h"

namespace softsched::serve {

/// The cached outcome of scheduling one request: the exact payload a
/// response carries (minus timing). Infeasible outcomes are cached too -
/// re-asking an impossible allocation should be as cheap as re-asking a
/// possible one.
struct schedule_result {
  bool feasible = false;
  std::string infeasible_reason; ///< set iff !feasible
  std::size_t ops = 0;
  long long latency = -1;              ///< final ||S|| in states; -1 when infeasible
  packed_ints start_times; ///< per-op ASAP start cycle (source id order)
  packed_ints unit_of;     ///< per-op functional unit (thread index; -1 = unbound)
  core::schedule_stats stats;

  /// Approximate heap + object footprint, the unit of the cache budget:
  /// the arrays count at their packed width.
  [[nodiscard]] std::size_t bytes() const noexcept;

  /// Value equality (stats included) - the determinism witness the serve
  /// tests compare across worker counts and cache sizes.
  [[nodiscard]] bool same_schedule(const schedule_result& other) const;
};

/// Aggregated counters across all shards. hits/misses count lookup()
/// calls; insertions/evictions/rejected_oversize count insert() outcomes;
/// entries/bytes describe current residency.
struct cache_counters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t rejected_oversize = 0; ///< value alone exceeded a shard's budget
  std::size_t entries = 0;
  std::size_t bytes = 0;
};

/// Sharded LRU cache: ir::dfg_digest -> schedule_result. Thread-safe.
/// Values are held and returned as shared_ptr<const ...>: a hit bumps a
/// refcount instead of deep-copying schedule arrays inside the shard lock,
/// and the immutability makes sharing across concurrent readers sound.
class schedule_cache {
public:
  using result_ptr = std::shared_ptr<const schedule_result>;

  /// `byte_budget` is split evenly across `shard_count` shards (both
  /// clamped to >= 1). A budget of 0 caches nothing (every insert is
  /// rejected) but stays fully operational.
  explicit schedule_cache(std::size_t byte_budget, unsigned shard_count = 16);

  schedule_cache(const schedule_cache&) = delete;
  schedule_cache& operator=(const schedule_cache&) = delete;

  /// Returns the cached result and refreshes its LRU position, or nullptr
  /// on miss. O(1) regardless of schedule size.
  [[nodiscard]] result_ptr lookup(const ir::dfg_digest& key);

  /// Inserts (or refreshes) key -> value, then evicts least-recently-used
  /// entries of the same shard until the shard fits its budget. A value
  /// larger than a whole shard's budget is rejected instead of evicting
  /// everything to no avail. `value` must be non-null.
  void insert(const ir::dfg_digest& key, result_ptr value);
  void insert(const ir::dfg_digest& key, schedule_result value);

  /// Drops every entry; cumulative counters (hits/misses/...) survive.
  void clear();

  [[nodiscard]] cache_counters counters() const;

  /// Which shard a key maps to (stable for the cache's lifetime). Exposed
  /// so shard-targeted fault injection (serve/daemon.h) and tests can
  /// predict which shard a given request touches.
  [[nodiscard]] unsigned shard_index(const ir::dfg_digest& key) const noexcept;

  [[nodiscard]] unsigned shard_count() const noexcept {
    return static_cast<unsigned>(shards_.size());
  }
  [[nodiscard]] std::size_t shard_budget() const noexcept { return shard_budget_; }

private:
  struct entry {
    ir::dfg_digest key;
    result_ptr value;
    std::size_t bytes = 0;
  };
  using lru_list = std::list<entry>;

  struct shard {
    mutable std::mutex mutex;
    lru_list lru; ///< front = most recently used
    std::unordered_map<ir::dfg_digest, lru_list::iterator, ir::dfg_digest_hash> index;
    std::size_t bytes = 0;
    cache_counters tally; ///< entries/bytes unused here (derived on read)
  };

  [[nodiscard]] shard& shard_of(const ir::dfg_digest& key);

  std::vector<std::unique_ptr<shard>> shards_;
  std::size_t shard_budget_ = 0;
};

} // namespace softsched::serve
