// persist_test.cpp - the corruption matrix for the persistent schedule
// cache tier (serve/diskcache.h). The governing invariant under test:
// a torn, truncated, bit-flipped or version-skewed record is a MISS -
// never a wrong answer and never a crash - and any real I/O failure
// degrades the tier to RAM-only instead of surfacing an error.
//
// The matrix walks *every* byte boundary for torn writes and *every* byte
// position for bit flips, first through the decoder (cheap, exhaustive)
// and then through the full open-scan-lookup path on real files. The
// kill-mid-write shape is reproduced with `torn` write injection (a
// prefix of the record hits disk and success is reported anyway); the CI
// persist job additionally kills a live daemon with SIGKILL and replays.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/daemon.h"
#include "serve/diskcache.h"
#include "util/binio.h"
#include "util/packed_ints.h"

namespace fs = std::filesystem;
namespace sv = softsched::serve;
namespace si = softsched::ir;

namespace {

si::dfg_digest key_of(std::uint64_t n) { return si::dfg_digest{n * 0x9e3779b9ULL + 1, ~n}; }

/// A small but fully populated schedule_result - every field the record
/// payload serializes is non-default so a round-trip mismatch cannot hide.
sv::schedule_result sample_result(std::uint64_t salt) {
  sv::schedule_result r;
  r.feasible = true;
  r.ops = 3;
  r.latency = static_cast<long long>(7 + salt % 5);
  r.start_times = {0, static_cast<long long>(1 + salt % 3), 4};
  r.unit_of = {0, 1, static_cast<int>(salt % 2)};
  r.stats.select_calls = 11 + salt;
  r.stats.positions_scanned = 23 + salt;
  r.stats.positions_rejected = 5;
  r.stats.commits = 3;
  r.stats.label_passes = 2;
  r.stats.cross_edge_updates = 9;
  r.stats.nodes_relabeled = 4;
  r.stats.closure_rebuilds = 1;
  r.stats.closure_syncs = 6;
  r.stats.closure_rows_touched = 42 + salt;
  return r;
}

sv::schedule_result infeasible_result() {
  sv::schedule_result r;
  r.feasible = false;
  r.infeasible_reason = "not enough ALUs";
  return r;
}

/// A version-2 payload for a feasible 3-op result whose start array
/// header is (`width`, `count`) followed by `raw` bytes; every other field
/// is well formed, so only the packed-array checks can reject it.
std::string payload_with_starts(std::uint8_t width, std::uint64_t count, std::string_view raw) {
  softsched::byte_writer w;
  w.u8(1);       // feasible
  w.str("");     // infeasible_reason
  w.u64(3);      // ops
  w.i64(7);      // latency
  w.u8(width);   // start array
  w.u64(count);
  w.raw(raw);
  w.u8(1);       // unit array: {0, 1, 0} at width 1
  w.u64(3);
  w.raw(std::string_view("\0\1\0", 3));
  w.u64(10);     // stats field count, then the fields
  for (int i = 0; i < 10; ++i) w.u64(0);
  return w.take();
}

/// Fresh empty cache directory under the test's temp space.
class persist_fixture : public ::testing::Test {
protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("softsched_persist_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  sv::disk_cache_options options() const {
    sv::disk_cache_options o;
    o.directory = dir_.string();
    return o;
  }

  fs::path record_path(const si::dfg_digest& key) const {
    return dir_ / sv::disk_cache::record_filename(key);
  }

  void write_bytes(const fs::path& p, const std::string& bytes) const {
    std::ofstream f(p, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(f.good());
  }

  fs::path dir_;
};

} // namespace

// -- record format round trip -----------------------------------------------

TEST_F(persist_fixture, SerializeDeserializeRoundTripsEveryField) {
  const si::dfg_digest key = key_of(1);
  const sv::schedule_result original = sample_result(9);
  const std::string record = sv::disk_cache::serialize_record(key, original);
  ASSERT_GE(record.size(), sv::disk_cache::record_header_bytes);

  const auto decoded = sv::disk_cache::deserialize_record(record, &key);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->first, key);
  EXPECT_TRUE(decoded->second.same_schedule(original));
}

TEST_F(persist_fixture, InfeasibleResultsRoundTripToo) {
  const si::dfg_digest key = key_of(2);
  const std::string record = sv::disk_cache::serialize_record(key, infeasible_result());
  const auto decoded = sv::disk_cache::deserialize_record(record);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->second.feasible);
  EXPECT_EQ(decoded->second.infeasible_reason, "not enough ALUs");
}

TEST_F(persist_fixture, DecoderRejectsWrongKeyWhenExpected) {
  const si::dfg_digest key = key_of(3), other = key_of(4);
  const std::string record = sv::disk_cache::serialize_record(key, sample_result(1));
  EXPECT_TRUE(sv::disk_cache::deserialize_record(record, &key).has_value());
  EXPECT_FALSE(sv::disk_cache::deserialize_record(record, &other).has_value());
}

TEST_F(persist_fixture, PackedArraysRoundTripAtEveryWidth) {
  const si::dfg_digest key = key_of(20);
  sv::schedule_result r = sample_result(11);
  r.start_times = std::vector<long long>{0, 1LL << 40, -5}; // width 8
  r.unit_of = std::vector<int>{-1, 70000, 2};               // width 4
  const std::string record = sv::disk_cache::serialize_record(key, r);
  const auto decoded = sv::disk_cache::deserialize_record(record, &key);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->second.same_schedule(r));
  EXPECT_EQ(decoded->second.start_times.width(), 8u);
  EXPECT_EQ(decoded->second.unit_of.width(), 4u);
}

TEST_F(persist_fixture, PackedPayloadStoresOneBytePerSmallValue) {
  // 100 ops with starts < 128 and units < 128: both arrays pack to one
  // byte per value, where record version 1 spent eight.
  sv::schedule_result r = sample_result(12);
  std::vector<long long> starts(100);
  std::vector<int> units(100);
  for (int i = 0; i < 100; ++i) {
    starts[static_cast<std::size_t>(i)] = i;
    units[static_cast<std::size_t>(i)] = i % 3;
  }
  r.ops = 100;
  r.start_times = starts;
  r.unit_of = units;
  const std::string small = sv::disk_cache::serialize_record(key_of(21), sample_result(12));
  const std::string large = sv::disk_cache::serialize_record(key_of(21), r);
  EXPECT_EQ(large.size() - small.size(), 2u * (100 - 3));
}

// -- malformed packed arrays: checksum-valid records the decoder must refuse --

TEST_F(persist_fixture, WellFormedCraftedPayloadDecodes) {
  // The positive control for the crafted-payload cases below.
  const si::dfg_digest key = key_of(22);
  const std::string record = sv::disk_cache::frame_record(
      key, payload_with_starts(1, 3, std::string_view("\0\1\4", 3)));
  const auto decoded = sv::disk_cache::deserialize_record(record, &key);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->second.start_times, (softsched::packed_ints{0, 1, 4}));
}

TEST_F(persist_fixture, BadPackedWidthIsCorruptNotGarbage) {
  for (const std::uint8_t width : {0, 3, 5, 7, 16, 255}) {
    const si::dfg_digest key = key_of(23);
    const std::string record = sv::disk_cache::frame_record(
        key, payload_with_starts(width, 1, std::string(width, '\0')));
    EXPECT_FALSE(sv::disk_cache::deserialize_record(record).has_value()) << "width " << +width;

    write_bytes(record_path(key), record);
    sv::disk_cache cache(options());
    EXPECT_EQ(cache.lookup(key), nullptr) << "width " << +width;
    EXPECT_GE(cache.counters().corrupt_dropped, 1u) << "width " << +width;
    EXPECT_FALSE(fs::exists(record_path(key))) << "width " << +width << ": not quarantined";
  }
}

TEST_F(persist_fixture, PackedCountPastThePayloadIsCorrupt) {
  // Counts whose bytes overrun what is left of the payload, including ones
  // whose count * width would overflow 64 bits: rejected before anything
  // is sized by the count.
  const std::string eight(24, '\0');
  for (const std::uint64_t count : {std::uint64_t{1000}, std::uint64_t{1} << 61,
                                    ~std::uint64_t{0}}) {
    const std::string record =
        sv::disk_cache::frame_record(key_of(24), payload_with_starts(8, count, eight));
    EXPECT_FALSE(sv::disk_cache::deserialize_record(record).has_value()) << "count " << count;
  }
}

TEST_F(persist_fixture, VersionOneRecordIsAVersionSkewedMiss) {
  // The version-1 payload: one i64 per value after each u64 count.
  softsched::byte_writer w;
  w.u8(1);
  w.str("");
  w.u64(3);
  w.i64(7);
  for (int array = 0; array < 2; ++array) {
    w.u64(3);
    for (int i = 0; i < 3; ++i) w.i64(i);
  }
  w.u64(10);
  for (int i = 0; i < 10; ++i) w.u64(0);
  const si::dfg_digest key = key_of(25);
  // As written by a version-1 binary: the version gate refuses it...
  const std::string v1 = sv::disk_cache::frame_record(key, w.bytes(), 1);
  EXPECT_FALSE(sv::disk_cache::deserialize_record(v1).has_value());
  // ...and relabelled as version 2, the packed-array decoder does.
  EXPECT_FALSE(sv::disk_cache::deserialize_record(sv::disk_cache::frame_record(key, w.bytes()))
                   .has_value());

  write_bytes(record_path(key), v1);
  sv::disk_cache cache(options());
  EXPECT_EQ(cache.counters().recovered_entries, 0u);
  EXPECT_EQ(cache.lookup(key), nullptr);
  EXPECT_GE(cache.counters().corrupt_dropped, 1u);
  EXPECT_FALSE(fs::exists(record_path(key)));
}

// -- torn writes: every truncation boundary ---------------------------------

TEST_F(persist_fixture, DecoderRejectsEveryTruncation) {
  const si::dfg_digest key = key_of(5);
  const std::string record = sv::disk_cache::serialize_record(key, sample_result(2));
  for (std::size_t cut = 0; cut < record.size(); ++cut) {
    const std::string_view torn(record.data(), cut);
    EXPECT_FALSE(sv::disk_cache::deserialize_record(torn).has_value())
        << "truncation at byte " << cut << " decoded as valid";
  }
}

TEST_F(persist_fixture, TornFileAtEveryBoundaryIsAMissNeverAnAnswer) {
  const si::dfg_digest key = key_of(6);
  const std::string record = sv::disk_cache::serialize_record(key, sample_result(3));
  for (std::size_t cut = 0; cut < record.size(); ++cut) {
    write_bytes(record_path(key), record.substr(0, cut));
    sv::disk_cache cache(options());
    EXPECT_EQ(cache.lookup(key), nullptr) << "cut=" << cut;
    const sv::disk_cache_counters c = cache.counters();
    EXPECT_GE(c.corrupt_dropped, 1u) << "cut=" << cut;
    EXPECT_FALSE(c.degraded) << "cut=" << cut;
    EXPECT_FALSE(fs::exists(record_path(key))) << "cut=" << cut << ": not quarantined";
  }
}

// -- bit flips: every byte of header, key, length, checksum and payload -----

TEST_F(persist_fixture, DecoderRejectsEverySingleBitFlip) {
  const si::dfg_digest key = key_of(7);
  const std::string record = sv::disk_cache::serialize_record(key, sample_result(4));
  for (std::size_t pos = 0; pos < record.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = record;
      flipped[pos] = static_cast<char>(flipped[pos] ^ (1 << bit));
      EXPECT_FALSE(sv::disk_cache::deserialize_record(flipped, &key).has_value())
          << "flip at byte " << pos << " bit " << bit << " decoded as valid";
    }
  }
}

TEST_F(persist_fixture, FlippedFileAtEveryByteIsAMissNeverAnAnswer) {
  const si::dfg_digest key = key_of(8);
  const std::string record = sv::disk_cache::serialize_record(key, sample_result(5));
  for (std::size_t pos = 0; pos < record.size(); ++pos) {
    std::string flipped = record;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x10);
    write_bytes(record_path(key), flipped);
    sv::disk_cache cache(options());
    EXPECT_EQ(cache.lookup(key), nullptr) << "flip at byte " << pos;
    EXPECT_GE(cache.counters().corrupt_dropped, 1u) << "flip at byte " << pos;
    EXPECT_FALSE(cache.counters().degraded) << "flip at byte " << pos;
  }
}

// -- version skew -----------------------------------------------------------

TEST_F(persist_fixture, VersionSkewedRecordIsCorruptNotGarbage) {
  const si::dfg_digest key = key_of(9);
  // Version 2 with a checksum that is *internally consistent* - only the
  // version gate can reject it, not the checksum.
  const std::string skewed =
      sv::disk_cache::serialize_record(key, sample_result(6), sv::disk_cache::record_version + 1);
  EXPECT_FALSE(sv::disk_cache::deserialize_record(skewed).has_value());

  write_bytes(record_path(key), skewed);
  sv::disk_cache cache(options());
  EXPECT_EQ(cache.lookup(key), nullptr);
  EXPECT_GE(cache.counters().corrupt_dropped, 1u);
  EXPECT_FALSE(fs::exists(record_path(key)));
}

// -- directory states -------------------------------------------------------

TEST_F(persist_fixture, EmptyDirectoryOpensCleanAndMisses) {
  sv::disk_cache cache(options());
  EXPECT_EQ(cache.lookup(key_of(10)), nullptr);
  const sv::disk_cache_counters c = cache.counters();
  EXPECT_EQ(c.recovered_entries, 0u);
  EXPECT_EQ(c.entries, 0u);
  EXPECT_EQ(c.hits, 0u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_FALSE(c.degraded);
}

TEST_F(persist_fixture, PartialDirectoryRecoversValidQuarantinesInvalidKeepsForeign) {
  const si::dfg_digest good1 = key_of(11), good2 = key_of(12), bad = key_of(13);
  const sv::schedule_result r1 = sample_result(7), r2 = sample_result(8);
  write_bytes(record_path(good1), sv::disk_cache::serialize_record(good1, r1));
  write_bytes(record_path(good2), sv::disk_cache::serialize_record(good2, r2));
  // A record whose file name does not match its embedded key: the rename
  // attack / fs corruption shape. Must never answer for `bad`.
  write_bytes(record_path(bad), sv::disk_cache::serialize_record(good1, r1));
  write_bytes(dir_ / "short.rec", std::string("SSDC"));
  write_bytes(dir_ / "README.txt", std::string("not a record"));

  sv::disk_cache cache(options());
  const sv::disk_cache_counters open = cache.counters();
  EXPECT_EQ(open.recovered_entries, 2u);
  EXPECT_GE(open.corrupt_dropped, 2u); // key-mismatch record + short.rec

  const auto h1 = cache.lookup(good1);
  const auto h2 = cache.lookup(good2);
  ASSERT_NE(h1, nullptr);
  ASSERT_NE(h2, nullptr);
  EXPECT_TRUE(h1->same_schedule(r1));
  EXPECT_TRUE(h2->same_schedule(r2));
  EXPECT_EQ(cache.lookup(bad), nullptr);

  EXPECT_FALSE(fs::exists(record_path(bad)));
  EXPECT_FALSE(fs::exists(dir_ / "short.rec"));
  EXPECT_TRUE(fs::exists(dir_ / "README.txt")); // foreign files untouched
}

// -- store / lookup / eviction / oversize -----------------------------------

TEST_F(persist_fixture, StoreThenLookupReturnsTheExactValue) {
  sv::disk_cache cache(options());
  const si::dfg_digest key = key_of(14);
  const sv::schedule_result r = sample_result(10);
  cache.store(key, std::make_shared<const sv::schedule_result>(r));
  const auto hit = cache.lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->same_schedule(r));
  const sv::disk_cache_counters c = cache.counters();
  EXPECT_EQ(c.writes, 1u);
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.entries, 1u);
}

TEST_F(persist_fixture, OversizeValueIsRejectedNotStored) {
  sv::disk_cache_options o = options();
  o.byte_budget = 64; // smaller than any real record
  sv::disk_cache cache(o);
  cache.store(key_of(15), std::make_shared<const sv::schedule_result>(sample_result(11)));
  const sv::disk_cache_counters c = cache.counters();
  EXPECT_EQ(c.rejected_oversize, 1u);
  EXPECT_EQ(c.entries, 0u);
  EXPECT_EQ(cache.lookup(key_of(15)), nullptr);
}

TEST_F(persist_fixture, BudgetEvictsLeastRecentlyUsedRecordsFromDisk) {
  const std::string one_record =
      sv::disk_cache::serialize_record(key_of(0), sample_result(0));
  sv::disk_cache_options o = options();
  o.byte_budget = one_record.size() * 3; // room for ~3 records
  sv::disk_cache cache(o);
  for (std::uint64_t i = 0; i < 8; ++i)
    cache.store(key_of(20 + i), std::make_shared<const sv::schedule_result>(sample_result(i)));
  const sv::disk_cache_counters c = cache.counters();
  EXPECT_GE(c.evictions, 5u);
  EXPECT_LE(c.bytes, o.byte_budget);
  EXPECT_NE(cache.lookup(key_of(27)), nullptr); // newest survives
  EXPECT_EQ(cache.lookup(key_of(20)), nullptr); // oldest evicted
}

// -- synchronous writes ------------------------------------------------------

TEST_F(persist_fixture, StorePersistsAndSurvivesReopen) {
  const sv::schedule_result r = sample_result(12);
  {
    sv::disk_cache cache(options());
    for (std::uint64_t i = 0; i < 10; ++i)
      cache.store(key_of(30 + i), std::make_shared<const sv::schedule_result>(r));
    // store() returns with the record on disk: nothing is pending.
    EXPECT_EQ(cache.counters().writes, 10u);
    EXPECT_EQ(cache.counters().entries, 10u);
  }
  sv::disk_cache reopened(options());
  EXPECT_EQ(reopened.counters().recovered_entries, 10u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    const auto hit = reopened.lookup(key_of(30 + i));
    ASSERT_NE(hit, nullptr) << "record " << i << " lost across reopen";
    EXPECT_TRUE(hit->same_schedule(r));
  }
}

TEST_F(persist_fixture, ConcurrentStoreAndLookupKeepOneEntryPerKey) {
  // Service workers store and look up on one shared tier. Threads race on
  // overlapping key sets: the index must end with exactly one entry per
  // distinct key, and every hit must be the value stored for that key.
  constexpr unsigned threads = 4;
  constexpr std::uint64_t keys = 24;
  sv::disk_cache cache(options());
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t)
    pool.emplace_back([&cache, t] {
      for (int pass = 0; pass < 3; ++pass)
        for (std::uint64_t i = 0; i < keys; ++i) {
          const std::uint64_t k = (i + t * 5) % keys;
          if (const auto hit = cache.lookup(key_of(300 + k))) {
            EXPECT_TRUE(hit->same_schedule(sample_result(k))) << "key " << k;
          } else {
            cache.store(key_of(300 + k),
                        std::make_shared<const sv::schedule_result>(sample_result(k)));
          }
        }
    });
  for (std::thread& t : pool) t.join();
  const sv::disk_cache_counters c = cache.counters();
  EXPECT_FALSE(c.degraded);
  EXPECT_EQ(c.entries, keys);
  EXPECT_EQ(c.corrupt_dropped, 0u);
  for (std::uint64_t k = 0; k < keys; ++k) {
    const auto hit = cache.lookup(key_of(300 + k));
    ASSERT_NE(hit, nullptr) << "key " << k << " missing";
    EXPECT_TRUE(hit->same_schedule(sample_result(k)));
  }
}

TEST_F(persist_fixture, ServiceDrainLeavesEveryComputedRecordOnDisk) {
  // The worker that computes a schedule stores its record before the
  // response leaves, so drain() alone - no flush step - settles the tier.
  const std::vector<std::string> lines = {
      R"({"bench":"ewf","alus":2,"muls":2})", R"({"bench":"ewf","alus":3,"muls":2})",
      R"({"bench":"hal","backend":"list"})",  R"({"bench":"fig1","backend":"fds"})",
      R"({"bench":"ewf","alus":2,"muls":2})", // repeat: a hit, not a second write
      R"({"random":12,"seed":5,"backend":"sdc-iter"})",
  };
  sv::service_options opt;
  opt.jobs = 3;
  opt.cache_dir = dir_.string();
  opt.disk_cache_bytes = 1u << 20;
  std::uint64_t computed = 0;
  {
    sv::service svc(opt);
    std::atomic<std::uint64_t> errors{0};
    for (std::size_t i = 0; i < lines.size(); ++i)
      ASSERT_TRUE(svc.submit(i + 1, lines[i], [&errors](sv::response r) {
        if (!r.error.empty()) errors.fetch_add(1);
      }));
    svc.drain();
    EXPECT_EQ(errors.load(), 0u);
    const sv::service_stats s = svc.stats();
    computed = s.computed;
    EXPECT_GE(computed, 5u);
    EXPECT_EQ(s.disk_writes, computed);
    EXPECT_EQ(s.disk_entries, computed);
  }
  sv::disk_cache reopened(options());
  EXPECT_EQ(reopened.counters().recovered_entries, computed);
  std::ostringstream exported; // export_to checksums every record it ships
  EXPECT_EQ(reopened.export_to(exported), std::optional<std::uint64_t>(computed));
  EXPECT_EQ(reopened.counters().corrupt_dropped, 0u);
}

// -- concurrent foreign reader during writes ---------------------------------

TEST_F(persist_fixture, ConcurrentForeignReaderDuringStoreNeverSeesAWrongAnswer) {
  // A second disk_cache over the same directory plays the "other process"
  // reader: no shared lock, protected only by record validation. Every
  // lookup must return either nullptr or the exact stored value.
  constexpr std::uint64_t n = 40;
  const sv::schedule_result r = sample_result(13);
  sv::disk_cache writer(options());
  sv::disk_cache reader(options()); // opened on the empty directory

  std::thread t([&] {
    for (int pass = 0; pass < 20; ++pass)
      for (std::uint64_t i = 0; i < n; ++i) {
        const auto hit = reader.lookup(key_of(100 + i));
        if (hit != nullptr) {
          EXPECT_TRUE(hit->same_schedule(r));
        }
      }
  });
  for (std::uint64_t i = 0; i < n; ++i)
    writer.store(key_of(100 + i), std::make_shared<const sv::schedule_result>(r));
  t.join();
  EXPECT_FALSE(writer.degraded());
  // The reader's misses may have quarantined records it saw mid-write; the
  // writer's in-memory index may disagree with the filesystem afterwards -
  // but *correctness* held throughout, which is the property under test.
}

// -- kill mid-write (torn write injection) -----------------------------------

TEST_F(persist_fixture, TornStoreReopensToZeroWrongAnswers) {
  constexpr std::uint64_t n = 6;
  std::vector<sv::schedule_result> values;
  for (std::uint64_t i = 0; i < n; ++i) values.push_back(sample_result(100 + i));
  {
    sv::disk_cache_options o = options();
    // Third record write is torn: a prefix hits disk, success is reported -
    // the power-loss shape.
    o.faults.ops[3] = sv::disk_fault_action{0, false, true};
    sv::disk_cache cache(o);
    for (std::uint64_t i = 0; i < n; ++i)
      cache.store(key_of(200 + i),
                  std::make_shared<const sv::schedule_result>(values[i]));
    EXPECT_FALSE(cache.degraded());
  }
  sv::disk_cache reopened(options());
  std::uint64_t recovered = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto hit = reopened.lookup(key_of(200 + i));
    if (hit != nullptr) {
      EXPECT_TRUE(hit->same_schedule(values[i])) << "wrong answer for record " << i;
      ++recovered;
    }
  }
  EXPECT_EQ(recovered, n - 1); // the torn record is the one loss
  EXPECT_GE(reopened.counters().corrupt_dropped, 1u);
}

// -- I/O failure degrades, never errors -------------------------------------

TEST_F(persist_fixture, InjectedWriteFailureDegradesToInertTier) {
  sv::disk_cache_options o = options();
  o.faults.ops[1] = sv::disk_fault_action{0, true, false};
  sv::disk_cache cache(o);
  cache.store(key_of(60), std::make_shared<const sv::schedule_result>(sample_result(14)));
  EXPECT_TRUE(cache.degraded());
  const sv::disk_cache_counters c = cache.counters();
  EXPECT_GE(c.io_errors, 1u);
  // Degraded tier is inert: lookups miss fast, writes are dropped silently.
  EXPECT_EQ(cache.lookup(key_of(60)), nullptr);
  cache.store(key_of(62), std::make_shared<const sv::schedule_result>(sample_result(16)));
  EXPECT_EQ(cache.counters().entries, 0u);
}

TEST_F(persist_fixture, VanishedDirectoryDegradesInsteadOfThrowing) {
  sv::disk_cache cache(options());
  cache.store(key_of(70), std::make_shared<const sv::schedule_result>(sample_result(17)));
  ASSERT_NE(cache.lookup(key_of(70)), nullptr);
  fs::remove_all(dir_);
  // The index still claims the record; the read fails with a real error
  // (not ENOENT-on-an-unknown-key), or at minimum misses. Either way: no
  // throw, no wrong answer, and the tier keeps answering.
  EXPECT_EQ(cache.lookup(key_of(70)), nullptr);
  cache.store(key_of(71), std::make_shared<const sv::schedule_result>(sample_result(18)));
  EXPECT_EQ(cache.lookup(key_of(70)), nullptr);
}

// -- export / import --------------------------------------------------------

TEST_F(persist_fixture, ExportImportRoundTripsEveryRecord) {
  constexpr std::uint64_t n = 5;
  std::vector<sv::schedule_result> values;
  for (std::uint64_t i = 0; i < n; ++i) values.push_back(sample_result(300 + i));
  sv::disk_cache source(options());
  for (std::uint64_t i = 0; i < n; ++i)
    source.store(key_of(80 + i), std::make_shared<const sv::schedule_result>(values[i]));

  std::stringstream snapshot;
  const auto exported = source.export_to(snapshot);
  ASSERT_TRUE(exported.has_value());
  EXPECT_EQ(*exported, n);

  const fs::path dest_dir = dir_ / "import";
  fs::create_directories(dest_dir);
  sv::disk_cache_options dopt;
  dopt.directory = dest_dir.string();
  sv::disk_cache dest(dopt);
  const sv::disk_import_summary s = dest.import_from(snapshot);
  EXPECT_EQ(s.imported, n);
  EXPECT_EQ(s.corrupt_skipped, 0u);
  EXPECT_FALSE(s.truncated);
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto hit = dest.lookup(key_of(80 + i));
    ASSERT_NE(hit, nullptr);
    EXPECT_TRUE(hit->same_schedule(values[i]));
  }
}

TEST_F(persist_fixture, ImportStopsAtFirstCorruptRecord) {
  sv::disk_cache source(options());
  source.store(key_of(90), std::make_shared<const sv::schedule_result>(sample_result(20)));
  source.store(key_of(91), std::make_shared<const sv::schedule_result>(sample_result(21)));
  std::stringstream snapshot;
  ASSERT_TRUE(source.export_to(snapshot).has_value());

  std::string bytes = snapshot.str();
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  std::istringstream corrupted(bytes);

  const fs::path dest_dir = dir_ / "import";
  fs::create_directories(dest_dir);
  sv::disk_cache_options dopt;
  dopt.directory = dest_dir.string();
  sv::disk_cache dest(dopt);
  const sv::disk_import_summary s = dest.import_from(corrupted);
  EXPECT_LT(s.imported, 2u);
  EXPECT_TRUE(s.corrupt_skipped >= 1 || s.truncated);
}

TEST_F(persist_fixture, ImportRejectsTruncatedContainer) {
  sv::disk_cache source(options());
  source.store(key_of(95), std::make_shared<const sv::schedule_result>(sample_result(22)));
  std::stringstream snapshot;
  ASSERT_TRUE(source.export_to(snapshot).has_value());
  const std::string bytes = snapshot.str();

  const fs::path dest_dir = dir_ / "import";
  fs::create_directories(dest_dir);
  sv::disk_cache_options dopt;
  dopt.directory = dest_dir.string();
  sv::disk_cache dest(dopt);
  std::istringstream torn(bytes.substr(0, bytes.size() - 3));
  const sv::disk_import_summary s = dest.import_from(torn);
  EXPECT_EQ(s.imported, 0u);
  EXPECT_TRUE(s.truncated || s.corrupt_skipped >= 1);
}
