// perf_harness - the measured-baseline harness behind BENCH_softsched.json.
//
// Three scenario families, all timed with the same clock and emitted as one
// JSON document so every future PR has a trajectory to compare against:
//
//   * paper_benchmarks  - schedule the Figure-3 suite (HAL, AR, EWF, FIR)
//                         plus larger parameterized workloads end to end;
//   * random_dag_sweep  - layered random DAGs up to |V| = 10k through the
//                         generic K-threaded core, recording the dirty-
//                         region relabeling counters against what full
//                         relabeling would have written (the empirical
//                         Theorem-3 check: label work per commit stays far
//                         below the state size);
//   * refinement storms - sustained random rewires/ECOs against a live
//                         schedule, run twice: incremental maintenance on
//                         (the soft-scheduling hot path) vs. the
//                         from-scratch baseline (set_incremental(false):
//                         closure rebuild per change + full relabel per
//                         commit). Both wall times and the speedup are
//                         recorded; the two runs must agree on the final
//                         diameter or the harness exits nonzero.
//
// Usage: perf_harness [--quick] [--out PATH] [--seed N]
//   --quick caps sizes/iterations for CI smoke jobs.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "backend_scenario.h"
#include "core/hls_binding.h"
#include "core/threaded_graph.h"
#include "dse_scenario.h"
#include "iter_scenario.h"
#include "load_scenario.h"
#include "memory_scenario.h"
#include "persist_scenario.h"
#include "serve_scenario.h"
#include "socket_scenario.h"
#include "graph/generators.h"
#include "ir/benchmarks.h"
#include "meta/meta_schedule.h"
#include "refine/refinement.h"
#include "util/json.h"
#include "util/rng.h"

namespace sc = softsched::core;
namespace sg = softsched::graph;
namespace si = softsched::ir;
namespace sm = softsched::meta;
namespace sf = softsched::refine;
using sg::vertex_id;
using softsched::json_writer;
using softsched::rng;

namespace {

using clock_type = std::chrono::steady_clock;

double millis_since(clock_type::time_point t0) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - t0).count();
}

// One spelling of the counter block everywhere (reports, harnesses).
void write_stats(json_writer& j, const sc::schedule_stats& s) {
  softsched::explore::write_schedule_stats(j, s);
}

// -- scenario 1: the paper benchmarks end to end ---------------------------

void run_paper_benchmarks(json_writer& j, bool quick) {
  const si::resource_library lib;
  std::vector<si::dfg> suite = si::figure3_benchmarks(lib);
  suite.push_back(si::make_fir(lib, quick ? 32 : 64));
  suite.push_back(si::make_iir_cascade(lib, quick ? 8 : 16));
  const int reps = quick ? 5 : 25;

  j.key("paper_benchmarks");
  j.begin_array();
  for (const si::dfg& d : suite) {
    const si::resource_set rs = si::figure3_constraint(0);
    const std::vector<vertex_id> order =
        sm::meta_schedule(d.graph(), sm::meta_kind::list_priority);
    double best_ms = 0;
    long long states = 0;
    sc::schedule_stats last_stats;
    for (int rep = 0; rep < reps; ++rep) {
      sc::threaded_graph state = sc::make_hls_state(d, rs);
      const auto t0 = clock_type::now();
      state.schedule_all(order);
      states = state.diameter();
      const double ms = millis_since(t0);
      if (rep == 0 || ms < best_ms) best_ms = ms;
      last_stats = state.stats();
    }
    j.begin_object();
    j.member("name", d.name());
    j.member("ops", d.op_count());
    j.member("resource_set", rs.label());
    j.member("states", states);
    j.member("reps", reps);
    j.member("best_ms", best_ms);
    j.member("ops_per_sec", best_ms > 0 ? static_cast<double>(d.op_count()) / (best_ms / 1e3)
                                        : 0.0);
    j.key("stats");
    write_stats(j, last_stats);
    j.end_object();
  }
  j.end_array();
}

// -- scenario 2: random DAG sweep ------------------------------------------

void run_random_dag_sweep(json_writer& j, bool quick, std::uint64_t seed) {
  std::vector<int> sizes{100, 300, 1000};
  if (!quick) {
    sizes.push_back(3000);
    sizes.push_back(10000);
  }

  j.key("random_dag_sweep");
  j.begin_array();
  for (const int n : sizes) {
    rng rand(seed + static_cast<std::uint64_t>(n));
    const sg::precedence_graph g =
        sg::layered_random(sg::layered_for_size(n, 0.15), rand);
    const std::vector<vertex_id> order = sm::meta_schedule(g, sm::meta_kind::list_priority);
    // Unit count scales with design size (a 10k-op design does not run on
    // the same 8 FUs as a 100-op one). This is also where the dirty-region
    // cone is provably sub-linear: each append relabels ~|thread| = V/K
    // chain nodes (a real label change - the serial chain suffix grows),
    // so with K ~ sqrt(V) the per-commit cone is O(sqrt(V)) against the
    // O(V) a full label() pass writes.
    const int threads = std::max(4, static_cast<int>(std::sqrt(static_cast<double>(n)) / 2));

    sc::threaded_graph state(g, threads);
    // full_relabel_equiv: label writes a full label() pass would have done
    // at every commit (state node count at that moment) - the denominator
    // of the sub-linearity claim.
    std::uint64_t full_relabel_equiv = 0;
    const auto t0 = clock_type::now();
    for (const vertex_id v : order) {
      state.schedule(v);
      full_relabel_equiv += state.scheduled_count() +
                            2 * static_cast<std::uint64_t>(state.thread_count());
    }
    const double ms = millis_since(t0);
    const sc::schedule_stats& stats = state.stats();
    const double commits = static_cast<double>(stats.commits ? stats.commits : 1);

    j.begin_object();
    j.member("vertices", g.vertex_count());
    j.member("edges", g.edge_count());
    j.member("threads", threads);
    j.member("wall_ms", ms);
    j.member("ops_per_sec",
             ms > 0 ? static_cast<double>(g.vertex_count()) / (ms / 1e3) : 0.0);
    j.member("diameter", state.diameter());
    j.member("nodes_relabeled", stats.nodes_relabeled);
    j.member("full_relabel_equiv", full_relabel_equiv);
    j.member("avg_relabeled_per_commit",
             static_cast<double>(stats.nodes_relabeled) / commits);
    j.member("avg_state_size_per_commit",
             static_cast<double>(full_relabel_equiv) / commits);
    j.key("stats");
    write_stats(j, stats);
    j.end_object();
  }
  j.end_array();
}

// -- scenario 3a: generic refinement storm ---------------------------------

struct storm_result {
  double wall_ms = 0;
  long long diameter = 0;
  std::size_t scheduled = 0;
  sc::schedule_stats stats;
};

/// One storm run over the generic core: random reach-preserving rewires
/// (spill/wire-shaped) and ECO vertex additions against a live schedule.
/// Fully deterministic from `seed`, so the incremental and from-scratch
/// runs see the identical mutation sequence.
storm_result run_generic_storm(int base_vertices, int steps, std::uint64_t seed,
                               bool incremental) {
  rng rand(seed);
  // Dense dependences (p = 0.7): the shape that makes closure rebuilds
  // (O(V*E/64) per change) the baseline's cost.
  sg::precedence_graph g =
      sg::layered_random(sg::layered_for_size(base_vertices, 0.7, 50), rand);

  sc::threaded_graph state(g, 4);
  state.set_incremental(incremental);
  state.schedule_all(sm::meta_schedule(g, sm::meta_kind::topological));
  state.reset_stats();

  // Random vertex that still produces something (bounded retries keep the
  // storm deterministic and allocation-free).
  const auto pick_producer = [&]() -> vertex_id {
    for (int attempt = 0; attempt < 16; ++attempt) {
      const vertex_id u(static_cast<std::uint32_t>(rand.below(g.vertex_count())));
      if (!g.succs(u).empty()) return u;
    }
    return vertex_id::invalid();
  };

  storm_result out;
  std::vector<vertex_id> consumers; // reused across steps
  const auto t0 = clock_type::now();
  for (int step = 0; step < steps; ++step) {
    int action = static_cast<int>(rand.below(3));
    vertex_id u = vertex_id::invalid();
    if (action != 2) {
      u = pick_producer();
      if (!u.valid()) action = 2;
    }
    if (action == 0) {
      // Wire/move-shaped rewire: u -> v becomes u -> w -> v.
      const auto succs = g.succs(u);
      const vertex_id v = succs[static_cast<std::size_t>(rand.below(succs.size()))];
      g.remove_edge_reach_preserved(u, v);
      const vertex_id w = g.add_vertex(1 + static_cast<int>(rand.below(3)));
      g.add_edge(u, w);
      g.add_edge(w, v);
      state.schedule(w);
    } else if (action == 1) {
      // Spill-shaped rewire: producer u gets a store; each rewired
      // consumer gets its own load.
      const auto succs = g.succs(u);
      consumers.assign(succs.begin(), succs.end());
      if (consumers.size() > 3) consumers.resize(3);
      const vertex_id st = g.add_vertex(1);
      g.add_edge(u, st);
      for (const vertex_id c : consumers) {
        g.remove_edge_reach_preserved(u, c);
        const vertex_id ld = g.add_vertex(1);
        g.add_edge(st, ld);
        g.add_edge(ld, c);
      }
      state.schedule(st);
      for (const vertex_id v : g.succs(st)) state.schedule(v);
    } else {
      // ECO: a new op consuming up to three random existing values.
      const vertex_id eco = g.add_vertex(1);
      const int fanin = 1 + static_cast<int>(rand.below(3));
      for (int i = 0; i < fanin; ++i) {
        const vertex_id src(
            static_cast<std::uint32_t>(rand.below(g.vertex_count() - 1)));
        if (src != eco) g.add_edge(src, eco);
      }
      state.schedule(eco);
    }
    out.diameter = state.diameter(); // consume labels every step, as the
                                     // refinement_report bookkeeping does
  }
  out.wall_ms = millis_since(t0);
  out.scheduled = state.scheduled_count();
  out.stats = state.stats();
  return out;
}

// -- scenario 3b: HLS refinement storm (DFG + resource binding) ------------

storm_result run_hls_storm(int taps, int steps, std::uint64_t seed, bool incremental) {
  const si::resource_library lib;
  si::dfg d = si::make_fir(lib, taps);
  rng rand(seed);
  const si::resource_set rs{3, 3, 2};

  sc::threaded_graph state = sc::make_hls_state(d, rs);
  state.set_incremental(incremental);
  state.schedule_all(sm::meta_schedule(d.graph(), sm::meta_kind::list_priority));
  state.reset_stats();

  const auto pick_edge = [&](std::pair<vertex_id, vertex_id>& out_edge) {
    std::vector<std::pair<vertex_id, vertex_id>> edges;
    for (const vertex_id v : d.graph().vertices()) {
      if (d.kind(v) == si::op_kind::wire) continue;
      for (const vertex_id s : d.graph().succs(v)) {
        if (d.kind(s) == si::op_kind::wire) continue;
        edges.emplace_back(v, s);
      }
    }
    if (edges.empty()) return false;
    out_edge = edges[static_cast<std::size_t>(rand.below(edges.size()))];
    return true;
  };

  // Only the refinement applications (DFG rewire + online scheduling +
  // diameter bookkeeping) are timed; the O(V+E) candidate scans above are
  // harness driver cost identical in both modes and would dilute the
  // recorded speedup.
  storm_result out;
  for (int step = 0; step < steps; ++step) {
    const int action = static_cast<int>(rand.below(4));
    std::pair<vertex_id, vertex_id> e;
    switch (action) {
    case 0: { // spill a random spillable value
      std::vector<vertex_id> candidates;
      for (const vertex_id v : d.graph().vertices()) {
        if (d.kind(v) == si::op_kind::store || d.kind(v) == si::op_kind::wire) continue;
        if (d.graph().succs(v).empty()) continue;
        candidates.push_back(v);
      }
      if (candidates.empty()) break;
      const vertex_id victim =
          candidates[static_cast<std::size_t>(rand.below(candidates.size()))];
      const auto t0 = clock_type::now();
      sf::apply_spill(d, state, victim);
      out.wall_ms += millis_since(t0);
      break;
    }
    case 1:
      if (pick_edge(e)) {
        const int delay = 1 + static_cast<int>(rand.below(3));
        const auto t0 = clock_type::now();
        sf::apply_wire_delay(d, state, e.first, e.second, delay);
        out.wall_ms += millis_since(t0);
      }
      break;
    case 2:
      if (pick_edge(e)) {
        const auto t0 = clock_type::now();
        sf::apply_register_move(d, state, e.first, e.second);
        out.wall_ms += millis_since(t0);
      }
      break;
    default: {
      const vertex_id a(static_cast<std::uint32_t>(rand.below(d.graph().vertex_count())));
      const vertex_id b(static_cast<std::uint32_t>(rand.below(d.graph().vertex_count())));
      std::vector<vertex_id> ins{a};
      if (b != a) ins.push_back(b);
      const auto t0 = clock_type::now();
      state.schedule(d.add_op(si::op_kind::add, std::span<const vertex_id>(ins),
                              std::string("eco") += std::to_string(step)));
      out.wall_ms += millis_since(t0);
      break;
    }
    }
    const auto t0 = clock_type::now();
    out.diameter = state.diameter();
    out.wall_ms += millis_since(t0);
  }
  out.scheduled = state.scheduled_count();
  out.stats = state.stats();
  return out;
}

template <typename RunFn>
bool write_storm(json_writer& j, const char* name, RunFn run) {
  // Best of two interleaved reps per mode: wall-clock noise shows up as a
  // one-sided slowdown, so the min is the stable estimator.
  storm_result incremental = run(true);
  storm_result baseline = run(false);
  const storm_result inc2 = run(true);
  const storm_result base2 = run(false);
  const bool consistent = incremental.diameter == baseline.diameter &&
                          incremental.scheduled == baseline.scheduled &&
                          inc2.diameter == incremental.diameter &&
                          base2.diameter == baseline.diameter;
  incremental.wall_ms = std::min(incremental.wall_ms, inc2.wall_ms);
  baseline.wall_ms = std::min(baseline.wall_ms, base2.wall_ms);
  j.key(name);
  j.begin_object();
  j.member("final_scheduled_ops", incremental.scheduled);
  j.member("final_diameter", incremental.diameter);
  j.member("incremental_ms", incremental.wall_ms);
  j.member("from_scratch_ms", baseline.wall_ms);
  j.member("speedup", incremental.wall_ms > 0 ? baseline.wall_ms / incremental.wall_ms : 0.0);
  j.member("modes_agree", consistent);
  j.key("incremental_stats");
  write_stats(j, incremental.stats);
  j.key("from_scratch_stats");
  write_stats(j, baseline.stats);
  j.end_object();
  if (!consistent)
    std::cerr << name << ": incremental and from-scratch runs diverged (diameter "
              << incremental.diameter << " vs " << baseline.diameter << ")\n";
  return consistent;
}

} // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_softsched.json";
  std::uint64_t seed = 20260729;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::stoull(argv[++i]);
    } else {
      std::cerr << "usage: perf_harness [--quick] [--out PATH] [--seed N]\n";
      return 2;
    }
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << " for writing\n";
    return 1;
  }

  json_writer j(out);
  j.begin_object();
  j.member("schema", "softsched-bench-v1");
  j.member("quick", quick);
  j.member("seed", seed);
  j.key("scenarios");
  j.begin_object();

  std::cerr << "perf_harness: paper benchmarks...\n";
  run_paper_benchmarks(j, quick);
  std::cerr << "perf_harness: random DAG sweep...\n";
  run_random_dag_sweep(j, quick, seed);

  std::cerr << "perf_harness: refinement storm (generic core)...\n";
  bool ok = write_storm(j, "refinement_storm", [&](bool inc) {
    return run_generic_storm(quick ? 1000 : 2500, quick ? 120 : 400, seed, inc);
  });
  std::cerr << "perf_harness: refinement storm (HLS binding)...\n";
  ok = write_storm(j, "hls_refinement_storm", [&](bool inc) {
            return run_hls_storm(quick ? 16 : 32, quick ? 40 : 120, seed, inc);
          }) &&
       ok;

  // Same fixed grids in quick and full mode (see dse_scenario.h), so the CI
  // regression gate always compares like against like.
  std::cerr << "perf_harness: design-space exploration...\n";
  j.key("dse");
  ok = softsched::bench::write_dse_scenario(j, seed) && ok;

  // Fixed cold/hot request mix in quick and full mode (see
  // serve_scenario.h), so the CI gate always compares like against like.
  std::cerr << "perf_harness: batch scheduling service...\n";
  j.key("serve");
  ok = softsched::bench::write_serve_scenario(j, seed) && ok;

  // Open-loop overload replay against the resident service (see
  // load_scenario.h): sustainable-rate calibration, then 2x replay with a
  // self-gating SLO block. Fixed mix in quick and full mode.
  std::cerr << "perf_harness: resident service overload replay...\n";
  j.key("load");
  ok = softsched::bench::write_load_scenario(j, seed) && ok;

  // The same overload replay driven over real unix-socket connections
  // with connection churn (see socket_scenario.h). Self-gating.
  std::cerr << "perf_harness: multi-client socket overload replay...\n";
  j.key("socket");
  ok = softsched::bench::write_socket_scenario(j, seed) && ok;

  // Two-tier persistent cache: cold-populate a disk tier, warm-restart a
  // fresh service over it, then serve through an injected disk outage (see
  // persist_scenario.h). Self-gating; fixed mix in quick and full mode.
  std::cerr << "perf_harness: persistent cache warm restart...\n";
  j.key("persist");
  ok = softsched::bench::write_persist_scenario(j, seed) && ok;

  // Fixed benchmark suite under every registered scheduler backend (see
  // backend_scenario.h): the head-to-head numbers the paper's comparison
  // story rests on, cross-checked for determinism and legality.
  std::cerr << "perf_harness: scheduler backends...\n";
  j.key("backend");
  ok = softsched::bench::write_backend_scenario(j) && ok;

  // sdc-iter QoR vs runtime on the named-benchmark constraint grid (see
  // iter_scenario.h): latency deltas against soft, iterations to fixed
  // point, and iterated-scheduling throughput. Self-gating on "never worse
  // than soft, strictly better somewhere".
  std::cerr << "perf_harness: iterative scheduling...\n";
  j.key("iter");
  ok = softsched::bench::write_iter_scenario(j) && ok;

  // Memory micro-profile of the soft hot path: warmed arena context vs the
  // heap baseline under instrumented allocation counters (see
  // memory_scenario.h). Self-gating on the allocation ratio and on
  // arena/heap outcome parity.
  std::cerr << "perf_harness: memory micro-profile...\n";
  j.key("memory");
  ok = softsched::bench::write_memory_scenario(j) && ok;

  j.end_object(); // scenarios
  j.end_object(); // root
  out << '\n';
  if (!j.done() || !out) {
    std::cerr << "failed to emit well-formed JSON to " << out_path << "\n";
    return 1;
  }
  std::cerr << "perf_harness: wrote " << out_path << "\n";
  return ok ? 0 : 1;
}
