#include "serve/diskcache.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <istream>
#include <ostream>
#include <thread>
#include <utility>

#include "util/binio.h"
#include "util/check.h"

namespace softsched::serve {
namespace fs = std::filesystem;

namespace {

// The stats payload is written as a field-count-prefixed block so that
// growing core::schedule_stats without bumping record_version makes old
// records read as corrupt (a safe miss) instead of as shifted garbage.
constexpr std::uint64_t stats_field_count = 10;

// Sanity ceiling for length fields parsed out of untrusted bytes, applied
// *before* any allocation sized by them. Far above any real record (a
// schedule_result is a few KB per thousand ops) and far below anything
// that could wedge the process.
constexpr std::uint64_t max_plausible_payload = 1ull << 32;

/// One packed payload array: u8 width, u64 count, count * width raw bytes.
void write_packed(byte_writer& w, const packed_ints& values) {
  w.u8(static_cast<std::uint8_t>(values.width()));
  w.u64(values.size());
  w.raw(values.raw());
}

/// Reads what write_packed wrote. False on a width other than 1/2/4/8 or a
/// count whose bytes run past the payload - checked before anything is
/// sized by the count.
bool read_packed(byte_reader& r, packed_ints& out) {
  const unsigned width = r.u8();
  const std::uint64_t count = r.u64();
  if (!r.ok() || !packed_ints::valid_width(width) || count > r.remaining() / width)
    return false;
  out = packed_ints::from_raw(width, r.raw(static_cast<std::size_t>(count) * width));
  return true;
}

void sleep_ms(double ms) {
  if (ms > 0)
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// `<32 hex>` -> digest; false on any non-hex character or wrong length.
bool parse_hex_key(std::string_view stem, ir::dfg_digest& out) {
  if (stem.size() != 32) return false;
  std::uint64_t words[2] = {0, 0};
  for (int w = 0; w < 2; ++w) {
    for (int i = 0; i < 16; ++i) {
      const char c = stem[static_cast<std::size_t>(w * 16 + i)];
      std::uint64_t nibble = 0;
      if (c >= '0' && c <= '9') nibble = static_cast<std::uint64_t>(c - '0');
      else if (c >= 'a' && c <= 'f') nibble = static_cast<std::uint64_t>(c - 'a' + 10);
      else return false;
      words[w] = (words[w] << 4) | nibble;
    }
  }
  out = {words[0], words[1]};
  return true;
}

/// Checksum of one serialized record: FNV-1a 64 over everything except the
/// magic (fixed) and the checksum field itself - version, key, payload
/// length, payload. Covering the key means a bit-flipped key field cannot
/// make record A answer for key B.
std::uint64_t record_checksum(std::string_view record) {
  const std::uint64_t over_header = fnv1a64(record.substr(4, 28));
  return fnv1a64(record.substr(disk_cache::record_header_bytes), over_header);
}

/// Reads the whole file at `path`. Returns false on any I/O error;
/// `missing` distinguishes ENOENT (a vanished record: a miss, not an
/// outage) from real failures.
bool read_whole_file(const std::string& path, std::string& out, bool& missing) {
  missing = false;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    missing = errno == ENOENT;
    return false;
  }
  out.clear();
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return true;
}

} // namespace

std::string disk_cache::record_filename(const ir::dfg_digest& key) {
  // Appended in place: `hex() + ".rec"` inlined into path_of() makes GCC's
  // LTO stringop checks misread the temporary as a 16-byte local buffer.
  std::string name = key.hex();
  name.append(".rec");
  return name;
}

std::string disk_cache::serialize_record(const ir::dfg_digest& key,
                                         const schedule_result& value,
                                         std::uint32_t version) {
  byte_writer payload;
  payload.u8(value.feasible ? 1 : 0);
  payload.str(value.infeasible_reason);
  payload.u64(value.ops);
  payload.i64(value.latency);
  write_packed(payload, value.start_times);
  write_packed(payload, value.unit_of);
  payload.u64(stats_field_count);
  payload.u64(value.stats.select_calls);
  payload.u64(value.stats.positions_scanned);
  payload.u64(value.stats.positions_rejected);
  payload.u64(value.stats.commits);
  payload.u64(value.stats.label_passes);
  payload.u64(value.stats.cross_edge_updates);
  payload.u64(value.stats.nodes_relabeled);
  payload.u64(value.stats.closure_rebuilds);
  payload.u64(value.stats.closure_syncs);
  payload.u64(value.stats.closure_rows_touched);
  return frame_record(key, payload.bytes(), version);
}

std::string disk_cache::frame_record(const ir::dfg_digest& key, std::string_view payload,
                                     std::uint32_t version) {
  byte_writer header;
  header.u32(record_magic);
  header.u32(version);
  header.u64(key.hi);
  header.u64(key.lo);
  header.u64(payload.size());
  header.u64(0); // checksum, patched below
  std::string record = header.take();
  record += payload;
  const std::uint64_t sum = record_checksum(record);
  for (int b = 0; b < 8; ++b)
    record[32 + static_cast<std::size_t>(b)] = static_cast<char>((sum >> (8 * b)) & 0xff);
  return record;
}

std::optional<std::pair<ir::dfg_digest, schedule_result>>
disk_cache::deserialize_record(std::string_view bytes, const ir::dfg_digest* expect_key) {
  if (bytes.size() < record_header_bytes) return std::nullopt;
  byte_reader r(bytes);
  if (r.u32() != record_magic) return std::nullopt;
  if (r.u32() != record_version) return std::nullopt;
  ir::dfg_digest key;
  key.hi = r.u64();
  key.lo = r.u64();
  const std::uint64_t payload_len = r.u64();
  const std::uint64_t stored_sum = r.u64();
  if (payload_len != bytes.size() - record_header_bytes) return std::nullopt;
  if (stored_sum != record_checksum(bytes)) return std::nullopt;
  if (expect_key != nullptr && key != *expect_key) return std::nullopt;

  schedule_result v;
  v.feasible = r.u8() != 0;
  v.infeasible_reason = r.str();
  v.ops = static_cast<std::size_t>(r.u64());
  v.latency = r.i64();
  if (!read_packed(r, v.start_times) || !read_packed(r, v.unit_of)) return std::nullopt;
  if (r.u64() != stats_field_count) return std::nullopt;
  v.stats.select_calls = r.u64();
  v.stats.positions_scanned = r.u64();
  v.stats.positions_rejected = r.u64();
  v.stats.commits = r.u64();
  v.stats.label_passes = r.u64();
  v.stats.cross_edge_updates = r.u64();
  v.stats.nodes_relabeled = r.u64();
  v.stats.closure_rebuilds = r.u64();
  v.stats.closure_syncs = r.u64();
  v.stats.closure_rows_touched = r.u64();
  if (!r.ok() || r.remaining() != 0) return std::nullopt;
  return std::make_pair(key, std::move(v));
}

disk_cache::disk_cache(const disk_cache_options& options) : options_(options) {
  SOFTSCHED_EXPECT(!options_.directory.empty(), "disk cache requires a directory");
  std::lock_guard<std::mutex> lock(mutex_);
  scan_directory();
}

std::string disk_cache::path_of(const ir::dfg_digest& key) const {
  std::string path = options_.directory;
  path += '/';
  path += record_filename(key);
  return path;
}

void disk_cache::degrade_locked(const char* what) {
  if (!degraded_) {
    degraded_ = true;
    std::fprintf(stderr, "softsched: disk cache degraded to RAM-only (%s failed)\n", what);
  }
}

disk_fault_action disk_cache::next_op_fault() {
  ++op_counter_;
  const auto it = options_.faults.ops.find(op_counter_);
  return it == options_.faults.ops.end() ? disk_fault_action{} : it->second;
}

void disk_cache::scan_directory() {
  const auto t0 = std::chrono::steady_clock::now();
  std::error_code ec;
  fs::create_directories(options_.directory, ec);
  struct found {
    ir::dfg_digest key;
    std::size_t size = 0;
    fs::file_time_type mtime;
  };
  std::vector<found> keep;
  std::vector<std::string> quarantine;
  if (!ec) {
    for (auto it = fs::directory_iterator(options_.directory, ec);
         !ec && it != fs::directory_iterator(); it.increment(ec)) {
      std::error_code file_ec;
      if (!it->is_regular_file(file_ec) || file_ec) continue;
      const fs::path& p = it->path();
      if (p.extension() != ".rec") continue; // foreign files are not ours to delete
      // Header-only validation: magic, version, embedded key vs filename,
      // declared length vs file size. Checksums are verified at lookup, so
      // the scan stays O(entries) header reads even for a large cache; a
      // payload bit flip is caught (and quarantined) on first access.
      ir::dfg_digest key;
      bool valid = parse_hex_key(p.stem().string(), key);
      if (valid) {
        char header[record_header_bytes];
        const int fd = ::open(p.c_str(), O_RDONLY | O_CLOEXEC);
        valid = fd >= 0;
        std::size_t file_size = 0;
        if (valid) {
          struct stat st {};
          valid = ::fstat(fd, &st) == 0;
          if (valid) file_size = static_cast<std::size_t>(st.st_size);
          ssize_t got = 0;
          while (valid && got < static_cast<ssize_t>(sizeof header)) {
            const ssize_t n = ::read(fd, header + got, sizeof header - static_cast<std::size_t>(got));
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) valid = false;
            else got += n;
          }
          ::close(fd);
        }
        if (valid) {
          byte_reader r(std::string_view(header, sizeof header));
          valid = r.u32() == record_magic && r.u32() == record_version &&
                  ir::dfg_digest{r.u64(), r.u64()} == key &&
                  r.u64() == file_size - record_header_bytes;
        }
        if (valid) {
          std::error_code mtime_ec;
          const auto mtime = fs::last_write_time(p, mtime_ec);
          keep.push_back({key, file_size, mtime_ec ? fs::file_time_type{} : mtime});
          continue;
        }
      }
      quarantine.push_back(p.string());
    }
  }
  if (ec) {
    ++tally_.io_errors;
    degrade_locked("recovery scan");
  } else {
    // Oldest first, so successive push_fronts leave the newest record in
    // the MRU slot - the restart approximates the pre-crash LRU order.
    std::sort(keep.begin(), keep.end(),
              [](const found& a, const found& b) { return a.mtime < b.mtime; });
    for (const found& f : keep) {
      lru_.push_front({f.key, f.size});
      index_.emplace(f.key, lru_.begin());
      bytes_ += f.size;
    }
    tally_.recovered_entries = keep.size();
    for (const std::string& p : quarantine) {
      if (::unlink(p.c_str()) != 0 && errno != ENOENT) {
        ++tally_.io_errors;
        degrade_locked("quarantine unlink");
      }
      ++tally_.corrupt_dropped;
    }
    evict_to_budget_locked();
  }
  tally_.recovery_scan_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
}

bool disk_cache::write_record_file(const std::string& path, std::string_view bytes,
                                   const disk_fault_action& fault) {
  sleep_ms(fault.delay_ms);
  if (fault.fail) {
    errno = EIO;
    return false;
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  // A torn write persists a strict prefix and then *reports success*: the
  // power-loss shape, where the process believed the record landed.
  const std::size_t limit = fault.torn ? bytes.size() / 2 : bytes.size();
  std::size_t done = 0;
  while (done < limit) {
    const ssize_t n = ::write(fd, bytes.data() + done, limit - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      errno = saved;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  if (options_.sync_writes && !fault.torn && ::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    return false;
  }
  if (::close(fd) != 0) return false;
  return true;
}

bool disk_cache::read_record_file(const std::string& path, std::string& out,
                                  const disk_fault_action& fault, bool& missing) {
  sleep_ms(fault.delay_ms);
  if (fault.fail) {
    missing = false;
    errno = EIO;
    return false;
  }
  if (!read_whole_file(path, out, missing)) return false;
  if (fault.torn) out.resize(out.size() / 2); // deterministic short read
  return true;
}

disk_cache::result_ptr disk_cache::lookup(const ir::dfg_digest& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (degraded_) {
    ++tally_.misses;
    return nullptr;
  }
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++tally_.misses;
    return nullptr;
  }
  const disk_fault_action fault = next_op_fault();
  std::string bytes;
  bool missing = false;
  if (!read_record_file(path_of(key), bytes, fault, missing)) {
    if (missing) {
      // Someone removed the file behind us (partial directory): drop the
      // stale index entry; a vanished record is a plain miss, not an outage.
      bytes_ -= it->second->bytes;
      lru_.erase(it->second);
      index_.erase(it);
    } else {
      ++tally_.io_errors;
      degrade_locked("record read");
    }
    ++tally_.misses;
    return nullptr;
  }
  auto decoded = deserialize_record(bytes, &key);
  if (!decoded) {
    drop_record_locked(key, /*corrupt=*/true);
    ++tally_.misses;
    return nullptr;
  }
  ++tally_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);
  return std::make_shared<const schedule_result>(std::move(decoded->second));
}

void disk_cache::store(const ir::dfg_digest& key, result_ptr value) {
  SOFTSCHED_EXPECT(value != nullptr, "disk cache store requires a value");
  std::lock_guard<std::mutex> lock(mutex_);
  if (degraded_) return;
  store_locked(key, *value);
}

void disk_cache::store_locked(const ir::dfg_digest& key, const schedule_result& value) {
  const std::string record = serialize_record(key, value);
  if (record.size() > options_.byte_budget) {
    ++tally_.rejected_oversize;
    return;
  }
  const disk_fault_action fault = next_op_fault();
  const std::string path = path_of(key);
  if (!write_record_file(path, record, fault)) {
    ++tally_.io_errors;
    degrade_locked("record write");
    ::unlink(path.c_str()); // best effort: a partial record would be dead weight
    const auto it = index_.find(key);
    if (it != index_.end()) {
      bytes_ -= it->second->bytes;
      lru_.erase(it->second);
      index_.erase(it);
    }
    return;
  }
  ++tally_.writes;
  const auto it = index_.find(key);
  if (it != index_.end()) {
    bytes_ -= it->second->bytes;
    it->second->bytes = record.size();
    bytes_ += record.size();
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front({key, record.size()});
    index_.emplace(key, lru_.begin());
    bytes_ += record.size();
  }
  evict_to_budget_locked();
}

void disk_cache::evict_to_budget_locked() {
  while (bytes_ > options_.byte_budget && !lru_.empty()) {
    const ir::dfg_digest victim = lru_.back().key;
    drop_record_locked(victim, /*corrupt=*/false);
    ++tally_.evictions;
  }
}

void disk_cache::drop_record_locked(const ir::dfg_digest& key, bool corrupt) {
  const auto it = index_.find(key);
  if (it != index_.end()) {
    bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
  }
  if (::unlink(path_of(key).c_str()) != 0 && errno != ENOENT) {
    ++tally_.io_errors;
    degrade_locked("record unlink");
  }
  if (corrupt) ++tally_.corrupt_dropped;
}

disk_cache_counters disk_cache::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  disk_cache_counters out = tally_;
  out.entries = index_.size();
  out.bytes = bytes_;
  out.degraded = degraded_;
  return out;
}

bool disk_cache::degraded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return degraded_;
}

std::optional<std::uint64_t> disk_cache::export_to(std::ostream& out) {
  std::lock_guard<std::mutex> lock(mutex_);
  byte_writer header;
  header.u32(export_magic);
  header.u32(record_version);
  out.write(header.bytes().data(), static_cast<std::streamsize>(header.size()));
  if (!out) return std::nullopt;
  // Snapshot the keys first: a corrupt record found mid-stream is
  // quarantined, which mutates the LRU list we would be iterating.
  std::vector<ir::dfg_digest> keys;
  keys.reserve(lru_.size());
  for (const entry& e : lru_) keys.push_back(e.key);
  std::uint64_t count = 0;
  for (const ir::dfg_digest& key : keys) {
    std::string bytes;
    bool missing = false;
    if (!read_whole_file(path_of(key), bytes, missing)) {
      if (!missing) {
        ++tally_.io_errors;
        degrade_locked("export read");
      }
      continue;
    }
    if (!deserialize_record(bytes, &key)) {
      drop_record_locked(key, /*corrupt=*/true);
      continue;
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) return std::nullopt;
    ++count;
  }
  return count;
}

disk_import_summary disk_cache::import_from(std::istream& in) {
  std::lock_guard<std::mutex> lock(mutex_);
  disk_import_summary summary;
  char container[8];
  if (!in.read(container, sizeof container)) {
    summary.truncated = true;
    return summary;
  }
  {
    byte_reader r(std::string_view(container, sizeof container));
    if (r.u32() != export_magic || r.u32() != record_version) {
      summary.truncated = true;
      return summary;
    }
  }
  for (;;) {
    std::string record(record_header_bytes, '\0');
    in.read(record.data(), static_cast<std::streamsize>(record_header_bytes));
    if (in.gcount() == 0 && in.eof()) break; // clean end of container
    if (static_cast<std::size_t>(in.gcount()) != record_header_bytes) {
      summary.truncated = true;
      break;
    }
    byte_reader r(record);
    const std::uint32_t magic = r.u32();
    const std::uint32_t version = r.u32();
    (void)r.raw(16); // key_hi, key_lo: deserialize_record checksums them below
    const std::uint64_t payload_len = r.u64();
    // A bad length field makes resynchronization unsafe: stop rather than
    // guess where the next record starts.
    if (magic != record_magic || version != record_version ||
        payload_len > max_plausible_payload) {
      ++summary.corrupt_skipped;
      break;
    }
    const std::size_t before = record.size();
    record.resize(before + static_cast<std::size_t>(payload_len));
    in.read(record.data() + before, static_cast<std::streamsize>(payload_len));
    if (static_cast<std::size_t>(in.gcount()) != payload_len) {
      summary.truncated = true;
      break;
    }
    const auto decoded = deserialize_record(record);
    if (!decoded) {
      ++summary.corrupt_skipped;
      break;
    }
    if (!degraded_) store_locked(decoded->first, decoded->second);
    ++summary.imported;
  }
  return summary;
}

} // namespace softsched::serve
