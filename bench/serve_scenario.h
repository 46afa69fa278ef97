// serve_scenario.h - the shared "serve" benchmark scenario: a zipf-skewed
// JSONL request mix over benchmark and seeded-random design families,
// played through the --serve-batch front end (serve::run_batch over one
// serve::service) twice - once against a cold cache, once hot - recording
// requests/sec for both, the cold-run hit rate, and whether the responses
// are identical across worker counts and cache sizes.
//
// Included by both bench/perf_harness.cpp (which embeds the block into
// BENCH_softsched.json) and bench/serve_harness.cpp (the standalone
// runner), so the two always measure the same workload. The mix is fixed -
// it does not scale with --quick - because the CI bench gate compares the
// hot throughput and hit rate against the committed baseline and must
// compare like against like.
//
// Why the skewed mix: real HLS flows (feedback-guided iterative
// scheduling, constraint sweeps) re-submit near-identical designs with
// zipf-like popularity; a content-addressed cache turns the popular head
// into pure hash-plus-lookup work, which is where the hot/cold throughput
// gap - the tentpole's measurable speed story - comes from.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "serve/daemon.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace softsched::bench {

/// The catalog: every distinct (design, allocation) pair the mix draws
/// from. 5 design families x 6 allocations = 30 schedulable combinations;
/// zipf rank follows catalog order.
inline std::vector<std::string> serve_catalog(std::uint64_t seed) {
  // Larger designs deliberately sit at popular ranks: the service story is
  // "scheduling is expensive, recognition is cheap", so the head of the
  // distribution is where caching pays.
  const std::vector<std::string> designs = {
      "\"random\":700,\"seed\":" + std::to_string(seed + 1),
      "\"bench\":\"fir64\"",
      "\"random\":300,\"seed\":" + std::to_string(seed),
      "\"bench\":\"iir16\"",
      "\"bench\":\"ewf\"",
  };
  const std::vector<std::string> allocations = {
      "\"alus\":2,\"muls\":2,\"mems\":1", "\"alus\":3,\"muls\":2,\"mems\":1",
      "\"alus\":2,\"muls\":3,\"mems\":1", "\"alus\":4,\"muls\":3,\"mems\":2",
      "\"alus\":3,\"muls\":3,\"mems\":2", "\"alus\":2,\"muls\":2,\"mems\":2",
  };
  std::vector<std::string> combos;
  combos.reserve(designs.size() * allocations.size());
  for (const std::string& d : designs)
    for (const std::string& a : allocations) combos.push_back(d + "," + a);
  return combos;
}

/// `count` JSONL request lines, catalog ranks sampled from a zipf(s = 0.9)
/// distribution. Deterministic from `seed`.
inline std::vector<std::string> make_serve_mix(std::uint64_t seed, int count) {
  const std::vector<std::string> combos = serve_catalog(seed);
  std::vector<double> cumulative(combos.size());
  double total = 0;
  for (std::size_t r = 0; r < combos.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), 0.9);
    cumulative[r] = total;
  }

  rng rand(seed ^ 0x5e77e5ULL);
  std::vector<std::string> lines;
  lines.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const double roll = rand.uniform() * total;
    std::size_t rank = 0;
    while (rank + 1 < combos.size() && cumulative[rank] < roll) ++rank;
    lines.push_back("{\"id\":\"q" + std::to_string(i) + "\"," + combos[rank] + "}");
  }
  return lines;
}

/// The responses to one JSONL stream through the --serve-batch front end,
/// in input order.
inline std::vector<serve::response> run_serve_batch(serve::service& svc,
                                                    const std::string& text) {
  std::istringstream in(text);
  std::vector<serve::response> out;
  (void)serve::run_batch(
      in, svc, [&](const serve::response& r, std::string_view) { out.push_back(r); });
  return out;
}

/// One measured stream: wall time plus this stream's share of the
/// service's cumulative counters.
struct serve_run_outcome {
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  std::uint64_t computed = 0;
  std::uint64_t reused = 0; ///< deduped + cache hits: served without scheduling
  double wall_ms = 0;
  serve::cache_counters cache;

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t served = requests - errors;
    return served > 0 ? static_cast<double>(reused) / static_cast<double>(served) : 0.0;
  }
  [[nodiscard]] double requests_per_sec() const noexcept {
    return wall_ms > 0 ? static_cast<double>(requests) / (wall_ms / 1e3) : 0.0;
  }
};

inline serve_run_outcome run_serve_stream(serve::service& svc, const std::string& text) {
  const serve::service_stats before = svc.stats();
  std::istringstream in(text);
  std::ostringstream sink; // responses are part of the served work
  serve_run_outcome out;
  const auto t0 = std::chrono::steady_clock::now();
  out.requests =
      serve::run_batch(in, svc, [&](const serve::response&, std::string_view line) {
        sink << line << '\n';
      });
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  const serve::service_stats after = svc.stats();
  out.errors = after.errors - before.errors;
  out.computed = after.computed - before.computed;
  out.reused = after.cache_hits + after.deduped - before.cache_hits - before.deduped;
  out.cache = svc.cache().counters();
  return out;
}

/// Emits the whole scenario as the value of an already-written "serve"
/// key. `jobs` = 0 picks thread_pool::hardware_workers(). Returns false
/// if any configuration's responses diverged from the serial cold run.
inline bool write_serve_scenario(json_writer& j, std::uint64_t seed, unsigned jobs = 0) {
  if (jobs == 0) jobs = thread_pool::hardware_workers();
  constexpr int request_count = 400;
  constexpr std::size_t queue = 32; // the --serve-batch window

  const std::vector<std::string> lines = make_serve_mix(seed, request_count);
  std::string text;
  for (const std::string& line : lines) {
    text += line;
    text += '\n';
  }

  serve::service_options opt;
  opt.jobs = static_cast<int>(jobs);
  opt.queue_capacity = queue;
  opt.emit_schedule = false; // throughput of the service, not of array printing

  // Determinism: responses must be identical payload-for-payload across
  // worker counts and cache sizes (including a cache too small to hold
  // anything, which forces recomputation instead of hits).
  bool deterministic = true;
  {
    serve::service_options serial = opt;
    serial.jobs = 1;
    serve::service reference(serial);
    serve::service parallel_service(opt);
    serve::service_options tiny = opt;
    tiny.cache_bytes = 1 << 14;
    serve::service tiny_cache(tiny);

    const std::vector<serve::response> ref = run_serve_batch(reference, text);
    const std::vector<serve::response> par = run_serve_batch(parallel_service, text);
    const std::vector<serve::response> tin = run_serve_batch(tiny_cache, text);
    deterministic = ref.size() == par.size() && ref.size() == tin.size();
    for (std::size_t i = 0; deterministic && i < ref.size(); ++i)
      deterministic = ref[i].same_payload(par[i]) && ref[i].same_payload(tin[i]);
    if (!deterministic)
      std::cerr << "serve: responses diverged across jobs/cache configurations\n";
  }

  // The measured runs: one service, cold stream then hot stream.
  serve::service svc(opt);
  const serve_run_outcome cold = run_serve_stream(svc, text);
  const serve_run_outcome hot = run_serve_stream(svc, text);

  const double rps_cold = cold.requests_per_sec();
  const double rps_hot = hot.requests_per_sec();

  j.begin_object();
  j.member("requests", static_cast<long long>(request_count));
  j.member("catalog", serve_catalog(seed).size());
  j.member("queue", queue);
  j.member("jobs", static_cast<unsigned long long>(jobs));
  j.member("unique_scheduled", cold.computed);
  j.member("cold_ms", cold.wall_ms);
  j.member("hot_ms", hot.wall_ms);
  j.member("requests_per_sec_cold", rps_cold);
  j.member("requests_per_sec_hot", rps_hot);
  j.member("speedup_hot_over_cold", rps_cold > 0 ? rps_hot / rps_cold : 0.0);
  j.member("hit_rate", cold.hit_rate());
  j.member("hit_rate_hot", hot.hit_rate());
  j.member("deterministic", deterministic);
  j.key("cache");
  j.begin_object();
  j.member("hits", hot.cache.hits);
  j.member("misses", hot.cache.misses);
  j.member("insertions", hot.cache.insertions);
  j.member("evictions", hot.cache.evictions);
  j.member("entries", hot.cache.entries);
  j.member("bytes", hot.cache.bytes);
  j.end_object();
  j.end_object();
  return deterministic;
}

} // namespace softsched::bench
