// persist_scenario.h - the "persist" benchmark scenario: the crash-tolerant
// two-tier schedule cache measured end to end. Four runs of the same
// zipf-skewed request mix (serve_scenario.h):
//
//   reference - no disk tier; the determinism yardstick every other run's
//               response payloads must match byte-for-byte (modulo `ms`);
//   cold      - fresh cache directory, disk tier on: populates the store
//               with synchronous record writes;
//   warm      - a *new* service over the same directory (the warm-restart
//               shape: RAM tier empty, disk tier recovered by the open
//               scan). Headline metrics: warm_restart_hit_rate (disk-tier
//               hit rate - every unique key should come back from disk,
//               not the scheduler), recovery_scan_ms, requests_per_sec;
//   degraded  - same directory with an injected I/O failure on the first
//               disk op: the tier must flip to RAM-only and keep serving
//               with zero request errors and identical payloads. Headline:
//               requests_per_sec_degraded (the outage-mode throughput).
//
// Included by bench/perf_harness.cpp (embeds the block into
// BENCH_softsched.json, gated by ci/bench_gate.py) and
// bench/persist_harness.cpp (standalone runner). The scenario self-gates:
// the emitted "gate" object records each invariant so the bench gate can
// fail on `gate.pass` without re-deriving the checks.
//
// The cache directory lives under the system temp dir, keyed by the seed,
// and is recreated from scratch each run - the scenario measures a
// *controlled* warm restart, not whatever a previous invocation left
// behind.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "serve/daemon.h"
#include "serve_scenario.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace softsched::bench {

struct persist_run {
  std::vector<serve::response> responses;
  double wall_ms = 0;
};

inline persist_run run_persist_mix(serve::service& svc, const std::string& text) {
  persist_run out;
  const auto t0 = std::chrono::steady_clock::now();
  out.responses = run_serve_batch(svc, text);
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  return out;
}

inline bool same_payloads(const std::vector<serve::response>& a,
                          const std::vector<serve::response>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!a[i].same_payload(b[i])) return false;
  return true;
}

/// Emits the whole scenario as the value of an already-written "persist"
/// key. `jobs` = 0 picks thread_pool::hardware_workers(). Returns the
/// self-gate verdict (false = some invariant broke; the block still emits
/// so the gate can print what failed).
inline bool write_persist_scenario(json_writer& j, std::uint64_t seed, unsigned jobs = 0) {
  namespace fs = std::filesystem;
  if (jobs == 0) jobs = thread_pool::hardware_workers();
  constexpr int request_count = 400;
  constexpr std::size_t disk_budget = 64ull << 20;

  const std::vector<std::string> lines = make_serve_mix(seed, request_count);
  std::string text;
  for (const std::string& line : lines) {
    text += line;
    text += '\n';
  }

  std::error_code ec;
  const fs::path dir = fs::temp_directory_path(ec) /
                       ("softsched_persist_bench_" + std::to_string(seed));
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  bool dir_ok = !ec && fs::is_directory(dir, ec);
  if (!dir_ok)
    std::cerr << "persist: cannot create cache directory " << dir << "\n";

  serve::service_options base;
  base.jobs = static_cast<int>(jobs);
  base.queue_capacity = 32;
  base.emit_schedule = false;
  base.cache_dir = dir.string();
  base.disk_cache_bytes = disk_budget;

  // Reference: the exact same service configuration minus the disk tier.
  serve::service_options plain = base;
  plain.cache_dir.clear();
  plain.disk_cache_bytes = 0;
  serve::service reference_service(plain);
  const persist_run reference = run_persist_mix(reference_service, text);

  // Cold run: populate the store. Writes are synchronous, so every record
  // is on disk once the run's responses are in.
  persist_run cold;
  serve::disk_cache_counters cold_disk;
  bool cold_match = false;
  if (dir_ok) {
    serve::service svc(base);
    cold = run_persist_mix(svc, text);
    cold_disk = svc.disk()->counters();
    cold_match = same_payloads(reference.responses, cold.responses);
  }

  // Warm restart: a brand-new service (empty RAM tier) over the populated
  // directory. The open scan recovers the index; every unique key should
  // be a disk hit, so nothing re-runs the scheduler.
  persist_run warm;
  serve::disk_cache_counters warm_disk;
  bool warm_match = false;
  if (dir_ok) {
    serve::service svc(base);
    warm = run_persist_mix(svc, text);
    warm_disk = svc.disk()->counters();
    warm_match = same_payloads(reference.responses, warm.responses);
  }

  // Degraded leg: first disk op reports an I/O error, flipping the tier to
  // RAM-only. The service must keep serving - zero request errors, payloads
  // still identical - just without persistence.
  persist_run degraded;
  serve::disk_cache_counters degraded_disk;
  bool degraded_match = false;
  if (dir_ok) {
    serve::service_options outage = base;
    outage.faults.io.ops[1] = serve::disk_fault_action{0, true, false};
    serve::service svc(outage);
    degraded = run_persist_mix(svc, text);
    degraded_disk = svc.disk()->counters();
    degraded_match = same_payloads(reference.responses, degraded.responses);
  }
  std::uint64_t degraded_errors = 0;
  for (const serve::response& r : degraded.responses)
    if (!r.error.empty()) ++degraded_errors;

  fs::remove_all(dir, ec);

  const double warm_hit_rate =
      warm_disk.hits + warm_disk.misses > 0
          ? static_cast<double>(warm_disk.hits) /
                static_cast<double>(warm_disk.hits + warm_disk.misses)
          : 0.0;
  const double rps_warm =
      warm.wall_ms > 0 ? request_count / (warm.wall_ms / 1e3) : 0.0;
  const double rps_degraded =
      degraded.wall_ms > 0 ? request_count / (degraded.wall_ms / 1e3) : 0.0;

  const bool deterministic = cold_match && warm_match && degraded_match;
  const bool warm_hits_ok = warm_disk.hits > 0;
  const bool recovered_ok =
      warm_disk.recovered_entries > 0 &&
      warm_disk.recovered_entries == cold_disk.entries;
  const bool degraded_ok =
      degraded_disk.degraded && degraded_disk.io_errors > 0 && degraded_errors == 0;
  const bool pass =
      dir_ok && deterministic && warm_hits_ok && recovered_ok && degraded_ok;
  if (!pass)
    std::cerr << "persist: gate failed (dir_ok=" << dir_ok
              << " deterministic=" << deterministic
              << " warm_hits_ok=" << warm_hits_ok
              << " recovered_ok=" << recovered_ok
              << " degraded_ok=" << degraded_ok << ")\n";

  j.begin_object();
  j.member("requests", static_cast<long long>(request_count));
  j.member("catalog", serve_catalog(seed).size());
  j.member("jobs", static_cast<unsigned long long>(jobs));
  j.member("disk_budget_bytes", static_cast<unsigned long long>(disk_budget));
  j.member("cold_ms", cold.wall_ms);
  j.member("warm_ms", warm.wall_ms);
  j.member("degraded_ms", degraded.wall_ms);
  j.member("requests_per_sec_warm", rps_warm);
  j.member("requests_per_sec_degraded", rps_degraded);
  j.member("warm_restart_hit_rate", warm_hit_rate);
  j.member("recovery_scan_ms", warm_disk.recovery_scan_ms);
  j.member("recovered_entries", warm_disk.recovered_entries);
  j.member("disk_entries", static_cast<unsigned long long>(cold_disk.entries));
  j.member("disk_bytes", static_cast<unsigned long long>(cold_disk.bytes));
  j.member("disk_writes", cold_disk.writes);
  j.member("disk_hits_warm", warm_disk.hits);
  j.member("degraded_io_errors", degraded_disk.io_errors);
  j.member("degraded_request_errors", degraded_errors);
  j.member("deterministic", deterministic);
  j.key("gate");
  j.begin_object();
  j.member("dir_ok", dir_ok);
  j.member("deterministic", deterministic);
  j.member("warm_hits_ok", warm_hits_ok);
  j.member("recovered_ok", recovered_ok);
  j.member("degraded_ok", degraded_ok);
  j.member("pass", pass);
  j.end_object();
  j.end_object();
  return pass;
}

} // namespace softsched::bench
