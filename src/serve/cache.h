// cache.h - the byte-budgeted LRU schedule cache behind the scheduling
// service: content-addressed by ir::dfg_digest schedule keys (canonical
// DFG digest + allocation + scheduler options), storing the complete
// scheduling outcome so a repeated request never re-runs Algorithm 1.
//
// Concurrency: one mutex guards one LRU list and one index over the whole
// byte budget. A request costs one lookup and at most one insert, each an
// O(1) critical section, against a millisecond-scale schedule run, so the
// lock is not contended (docs/DESIGN.md §6 records the striped-lock
// ablation).
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

/// Cache counters. hits/misses count lookup() calls;
/// insertions/evictions/rejected_oversize count insert() outcomes;
/// entries/bytes describe current residency.
struct cache_counters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t rejected_oversize = 0; ///< value alone exceeded the whole budget
  std::size_t entries = 0;
  std::size_t bytes = 0;
};

/// LRU cache: ir::dfg_digest -> schedule_result. Thread-safe.
/// Values are held and returned as shared_ptr<const ...>: a hit bumps a
/// refcount instead of deep-copying schedule arrays inside the lock,
/// and the immutability makes sharing across concurrent readers sound.
class schedule_cache {
public:
  using result_ptr = std::shared_ptr<const schedule_result>;

  /// A budget of 0 caches nothing (every insert is rejected) but stays
  /// fully operational.
  explicit schedule_cache(std::size_t byte_budget) : byte_budget_(byte_budget) {}

  schedule_cache(const schedule_cache&) = delete;
  schedule_cache& operator=(const schedule_cache&) = delete;

  /// Returns the cached result and refreshes its LRU position, or nullptr
  /// on miss. O(1) regardless of schedule size.
  [[nodiscard]] result_ptr lookup(const ir::dfg_digest& key);

  /// Inserts (or refreshes) key -> value, then evicts least-recently-used
  /// entries until the cache fits its budget. A value larger than the
  /// whole budget is rejected instead of evicting everything to no avail.
  /// `value` must be non-null.
  void insert(const ir::dfg_digest& key, result_ptr value);
  void insert(const ir::dfg_digest& key, schedule_result value);

  /// Drops every entry; cumulative counters (hits/misses/...) survive.
  void clear();

  [[nodiscard]] cache_counters counters() const;

private:
  struct entry {
    ir::dfg_digest key;
    result_ptr value;
    std::size_t bytes = 0;
  };
  using lru_list = std::list<entry>;

  const std::size_t byte_budget_;
  mutable std::mutex mutex_;
  lru_list lru_; ///< front = most recently used
  std::unordered_map<ir::dfg_digest, lru_list::iterator, ir::dfg_digest_hash> index_;
  cache_counters tally_; ///< entries are lru_.size(); bytes are kept current
};

} // namespace softsched::serve
