// diskcache.h - the persistent tier below the RAM schedule cache
// (serve/cache.h): a content-addressed on-disk store of serialized
// schedule_result records, keyed by the same process-stable 128-bit
// schedule_key, with its own byte budget and LRU eviction, synchronous
// record writes, and export/import so a fleet can ship warm caches.
//
// The governing invariant is **degrade, never lie**:
//
//   * a torn, truncated, bit-flipped, version-skewed or otherwise invalid
//     record is a MISS - the record is quarantined (deleted) and counted
//     in corrupt_dropped, and the caller recomputes. Every read verifies
//     magic + version + key + length + checksum before a byte of payload
//     is trusted;
//   * any real I/O failure (open/read/write/fsync error, the directory
//     vanishing mid-run) flips the cache into *degraded* mode: the disk
//     tier goes inert (lookups miss instantly, writes are dropped), the
//     io_errors/degraded counters record it, and the service keeps serving
//     from RAM. Nothing on this path ever throws into the serving loop.
//
// On-disk format: one file per record, named `<32-hex-key>.rec` inside the
// cache directory. Record layout (all integers little-endian, util/binio):
//
//   u32 magic 'SSDC'   u32 version   u64 key_hi   u64 key_lo
//   u64 payload_len    u64 checksum  payload bytes
//
// The checksum is FNV-1a 64 over (version, key_hi, key_lo, payload), so a
// bit flip anywhere that matters - including in the key field, which would
// otherwise let record A answer for key B - fails verification. The
// payload is the byte_writer serialization of one schedule_result:
//
//   u8 feasible   u64 len + reason bytes   u64 ops   i64 latency
//   start array   unit array               u64 stats field count + u64s
//
// Each array is width-packed (util/packed_ints.h): u8 width (1, 2, 4 or
// 8), u64 count, then count * width raw little-endian bytes. A width
// outside that set, or a count whose bytes overrun the payload, decodes as
// corrupt. The stats block is field-count-prefixed, so adding a counter to
// schedule_stats without bumping the record version reads as corrupt, not
// as garbage. Version 2 introduced the packed arrays; version-1 records
// (one i64 per value) and version-1 exports are version-skewed, so they
// are quarantined / refused like any other invalid record - a pre-v2 cache
// directory comes back empty and refills.
//
// Concurrency: one mutex serializes index/LRU/counters *and* the record
// I/O. This tier sits below a RAM miss - the slow path by construction -
// and holding the lock across the (small) file read/write keeps the
// index/filesystem agreement trivially correct. Writes are synchronous:
// the service worker that computed a schedule stores its record under the
// same mutex before the response leaves, so a record is on disk once its
// answer is out and no drain path needs a flush. Readers in *other
// processes* share no lock; they are protected by record validation alone
// (a half-written record reads as corrupt -> miss), which is exactly the
// crash-tolerance property and is pinned in tests/persist_test.cpp.
//
// Fault injection: disk_fault_plan targets the Nth disk operation (1-based
// count of record read/write attempts, in order) with delay / fail / torn
// actions - `delay` stalls the operation under the mutex (so a delayed
// write holds the storing worker there), `fail` is a reported I/O error
// (degrades the tier), `torn` writes a prefix of the record and *pretends
// success* (the kill -9 / power-loss shape: bytes partially hit disk and
// nobody knew). Parsed from SOFTSCHED_INJECT's `io=` rules
// (serve/daemon.h).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "serve/cache.h"

namespace softsched::serve {

/// What an injected disk fault does to its target operation.
struct disk_fault_action {
  double delay_ms = 0;
  bool fail = false; ///< report an I/O error (tier degrades)
  bool torn = false; ///< writes: persist a prefix, report success
};

/// Injection plan for the disk tier: op index (1-based, counting every
/// record read/write attempt in order) -> action. Deterministic for a
/// serial request stream, which is what the corruption/outage tests need.
struct disk_fault_plan {
  std::unordered_map<std::uint64_t, disk_fault_action> ops;

  [[nodiscard]] bool empty() const noexcept { return ops.empty(); }
};

struct disk_cache_options {
  std::string directory;                  ///< must be non-empty
  std::size_t byte_budget = 256ull << 20; ///< payload+header bytes on disk
  bool sync_writes = false;               ///< fsync each record before success
  disk_fault_plan faults;                 ///< empty = no injection
};

/// Cumulative disk-tier counters (all monotone except entries/bytes,
/// which describe current residency).
struct disk_cache_counters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;          ///< includes degraded-mode fast misses
  std::uint64_t writes = 0;          ///< records successfully persisted
  std::uint64_t evictions = 0;       ///< records deleted for budget
  std::uint64_t rejected_oversize = 0;
  std::uint64_t corrupt_dropped = 0; ///< invalid records quarantined
  std::uint64_t io_errors = 0;       ///< real I/O failures (each may degrade)
  std::size_t entries = 0;
  std::size_t bytes = 0;
  bool degraded = false;
  double recovery_scan_ms = 0;       ///< open-time directory scan duration
  std::uint64_t recovered_entries = 0; ///< records indexed by the open scan
};

/// Summary of an import_from() run.
struct disk_import_summary {
  std::uint64_t imported = 0;        ///< records validated and stored
  std::uint64_t corrupt_skipped = 0; ///< invalid records encountered
  bool truncated = false; ///< stream ended inside a record / bad container header
};

/// The persistent schedule-cache tier. Thread-safe. Never throws from
/// lookup/store (constructor may throw precondition_error on an
/// empty directory string only - everything filesystem-shaped degrades
/// instead).
class disk_cache {
public:
  using result_ptr = schedule_cache::result_ptr;

  /// Opens (creating the directory if needed) and runs the recovery scan:
  /// every `*.rec` file is header-validated and indexed; invalid files are
  /// quarantined. A directory that cannot be created/scanned leaves the
  /// cache constructed but degraded.
  explicit disk_cache(const disk_cache_options& options);

  disk_cache(const disk_cache&) = delete;
  disk_cache& operator=(const disk_cache&) = delete;

  /// Read-through lookup: returns the deserialized record or nullptr on
  /// miss / corruption / degraded mode. A returned value is exactly what
  /// store() was given (bit-for-bit round trip), so promoting it into the
  /// RAM tier preserves the response-byte determinism contract.
  [[nodiscard]] result_ptr lookup(const ir::dfg_digest& key);

  /// Synchronous write: serialize, persist, index, evict LRU records past
  /// the budget, all under the mutex. Oversize values are rejected; I/O
  /// failures degrade; a degraded tier drops the write.
  void store(const ir::dfg_digest& key, result_ptr value);

  [[nodiscard]] disk_cache_counters counters() const;
  [[nodiscard]] bool degraded() const;
  [[nodiscard]] const disk_cache_options& options() const noexcept { return options_; }

  /// Streams every valid resident record to `out` behind a container
  /// header; corrupt records are quarantined and skipped. Returns the
  /// record count written, or nullopt on a write error to `out`.
  std::optional<std::uint64_t> export_to(std::ostream& out);

  /// Reads a container written by export_to and store()s every valid
  /// record (subject to budget/eviction). Stops at the first corrupt
  /// record (a bad length field makes resynchronization unsafe) and
  /// reports it in the summary.
  disk_import_summary import_from(std::istream& in);

  // -- record format (exposed for tests and the corruption matrix) --------
  static constexpr std::uint32_t record_magic = 0x43445353u;   ///< "SSDC" LE
  static constexpr std::uint32_t record_version = 2;
  static constexpr std::size_t record_header_bytes = 40;
  static constexpr std::uint32_t export_magic = 0x58435353u;   ///< "SSCX" LE

  /// `<32-hex>.rec` filename for a key (no directory part).
  [[nodiscard]] static std::string record_filename(const ir::dfg_digest& key);

  /// Serializes one complete record (header + payload). `version` is
  /// overridable so tests can craft version-skewed records whose checksum
  /// is otherwise valid.
  [[nodiscard]] static std::string serialize_record(const ir::dfg_digest& key,
                                                    const schedule_result& value,
                                                    std::uint32_t version = record_version);

  /// Wraps an already-encoded payload in a record header with a valid
  /// checksum: the second half of serialize_record, exposed so tests can
  /// craft malformed payloads that only the payload decoder can reject.
  [[nodiscard]] static std::string frame_record(const ir::dfg_digest& key,
                                                std::string_view payload,
                                                std::uint32_t version = record_version);

  /// Validates + decodes one record. Returns nullopt on any defect
  /// (wrong magic/version/length/checksum, short buffer, malformed
  /// payload). When `expect_key` is non-null the record's key field must
  /// match it too.
  [[nodiscard]] static std::optional<std::pair<ir::dfg_digest, schedule_result>>
  deserialize_record(std::string_view bytes, const ir::dfg_digest* expect_key = nullptr);

private:
  struct entry {
    ir::dfg_digest key;
    std::size_t bytes = 0;
  };
  using lru_list = std::list<entry>;

  [[nodiscard]] std::string path_of(const ir::dfg_digest& key) const;
  void scan_directory();
  /// Applies the injection rule for the next disk op. Returns the action
  /// (empty action when uninjected).
  disk_fault_action next_op_fault();
  void degrade_locked(const char* what);
  /// store() body under mutex_ already held.
  void store_locked(const ir::dfg_digest& key, const schedule_result& value);
  void evict_to_budget_locked();
  void drop_record_locked(const ir::dfg_digest& key, bool corrupt);
  [[nodiscard]] bool write_record_file(const std::string& path, std::string_view bytes,
                                       const disk_fault_action& fault);
  [[nodiscard]] bool read_record_file(const std::string& path, std::string& out,
                                      const disk_fault_action& fault, bool& missing);

  disk_cache_options options_;
  mutable std::mutex mutex_;
  lru_list lru_; ///< front = most recently used
  std::unordered_map<ir::dfg_digest, lru_list::iterator, ir::dfg_digest_hash> index_;
  disk_cache_counters tally_; ///< entries/bytes derived on read
  std::size_t bytes_ = 0;
  bool degraded_ = false;
  std::uint64_t op_counter_ = 0; ///< injection op index (under mutex_)
};

} // namespace softsched::serve
