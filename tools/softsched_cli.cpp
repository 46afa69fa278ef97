// softsched_cli - command-line driver for the whole flow: load a design
// (built-in benchmark, .dfg file, or behavioral .beh source), schedule it
// with any registered scheduler backend (soft = the threaded kernel with a
// chosen meta order, list, fds - see src/sched/backend.h), optionally
// apply refinements, and print tables / Gantt charts / DOT.
//
// Examples:
//   softsched_cli --bench ewf --alus 2 --muls 2 --gantt
//   softsched_cli --beh design.beh --backend list
//   softsched_cli --bench hal --meta dfs --spill m1 --stats --dot state.dot
//   softsched_cli --dfg design.dfg --backend fds --latency 20
//   softsched_cli --compare --bench ewf --alus 2 --muls 2
//   softsched_cli --explore --bench ewf --backend all --jobs 8
//   softsched_cli --serve-batch requests.jsonl --out responses.jsonl --jobs 8
#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/hls_binding.h"
#include "core/state_dot.h"
#include "core/threaded_graph.h"
#include "explore/dse.h"
#include "graph/distances.h"
#include "hard/extract.h"
#include "hard/schedule.h"
#include "ir/benchmarks.h"
#include "ir/dfg_io.h"
#include "lang/parser.h"
#include "meta/meta_schedule.h"
#include "refine/refinement.h"
#include "regalloc/left_edge.h"
#include "sched/backend.h"
#include "serve/daemon.h"
#include "serve/options.h"
#include "serve/request.h"
#include "serve/socket.h"
#include "regalloc/lifetime.h"
#include "util/arena.h"
#include "util/check.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/table.h"

namespace si = softsched::ir;
namespace sc = softsched::core;
namespace se = softsched::explore;
namespace sg = softsched::graph;
namespace sh = softsched::hard;
namespace sm = softsched::meta;
namespace sl = softsched::lang;
namespace sf = softsched::refine;
namespace ss = softsched::sched;
namespace sv = softsched::serve;
using sg::vertex_id;

namespace {

struct wire_spec {
  std::string from, to;
  int delay = 1;
};

struct options {
  std::string bench;
  int random_vertices = 0; // --bench random<N>: N (explore mode only)
  std::string dfg_file;
  std::string beh_file;
  std::string backend;   // registry name, "all", or comma list (empty = soft)
  bool compare = false;  // run every registered backend, print the comparison table
  std::string meta = "list";
  std::uint64_t seed = 1;
  long long latency = -1; // fds target; -1 = critical path + 2
  long long iter_budget = -1; // sdc-iter refinement budget; -1 = backend default
  int alus = 2;
  int muls = 2;
  int mems = 1;
  bool alus_set = false, muls_set = false, mems_set = false;
  std::vector<std::string> spills;
  std::vector<wire_spec> wires;
  bool gantt = false;
  bool stats = false;
  bool registers = false;
  std::string dot_file;
  // design-space exploration mode
  bool explore = false;
  int jobs = 0; // 0 = all hardware threads
  // grid axes ("lo:hi" or "n"); unset = the grid default
  std::optional<se::axis_range> alus_axis, muls_axis, mems_axis, mul_lat_axis;
  std::optional<se::axis_range> iter_budget_axis; // sdc-iter budget axis
  std::string explore_out;
  // batch scheduling service mode
  std::string serve_batch; // JSONL request file; "-" = stdin
  std::string out_file;    // JSONL response file; "-"/empty = stdout
  // resident daemon mode: --serve [file|-], transport picked by --listen
  bool serve_mode = false;
  std::string serve = "-"; // framed request stream (stdio transport only)
  // every serving knob, validated by one shared path (serve/options.h)
  sv::serve_flags serve_flags;
};

[[noreturn]] void usage(const char* argv0, const std::string& error = {}) {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "input (one of):\n"
      << "  --bench <hal|arf|ewf|fir8|fir<N>|iir<N>|fig1>   built-in benchmark\n"
      << "  --dfg <file>                                    DFG text format\n"
      << "  --beh <file>                                    behavioral source\n"
      << "scheduling:\n"
      << "  --backend <soft|list|fds|sdc-iter|all>          scheduler backend (soft)\n"
      << "  --compare                                       all backends, one table\n"
      << "  --meta <dfs|topo|path|list|random>              soft-backend feed order\n"
      << "  --seed <n>                                      random meta seed\n"
      << "  --latency <n>                                   FDS latency budget\n"
      << "  --iter-budget <n>                               sdc-iter refinement budget\n"
      << "                                                  (0 = base run only; default 8)\n"
      << "  --alus/--muls/--mems <n>                        resources (2/2/1)\n"
      << "  --arena <on|off|BYTES>                          per-run arena allocator (on);\n"
      << "                                                  off = heap baseline, BYTES = block size\n"
      << "refinement (threaded only):\n"
      << "  --spill <op>                                    spill a value\n"
      << "  --wire <from>:<to>:<delay>                      insert wire delay\n"
      << "design-space exploration (needs --bench; 'random<N>' = random DFG):\n"
      << "  --explore                                       sweep a resource grid\n"
      << "  --backend <name>[,<name>...]|all                per-backend frontiers\n"
      << "  --jobs <n>                                      workers (0 = hardware)\n"
      << "  --alus-range/--muls-range/--mems-range <lo:hi>  grid axes (1:4/1:3/1:1)\n"
      << "  --mul-lat-range <lo:hi>                         mul latency axis (2:2)\n"
      << "  --iter-budget-range <lo:hi>                     sdc-iter budget axis (off)\n"
      << "  --explore-out <file>                            JSON report\n"
      << "batch scheduling service (JSONL in -> JSONL out; schema in README):\n"
      << "  --serve-batch <file|->                          request file (- = stdin)\n"
      << "  --out <file|->                                  responses (default stdout)\n"
      << "  --cache-mb <n>                                  schedule cache budget (64)\n"
      << "  --serve-queue <n>                               requests in flight (256)\n"
      << "  --serve-compact                                 omit start/unit arrays\n"
      << "  --cache-dir <dir>                               persistent cache tier\n"
      << "  --disk-cache-mb <n>                             disk tier budget (0 = off)\n"
      << "resident daemon (framed requests in -> framed responses out;\n"
      << "wire protocol in docs/SERVING.md; SOFTSCHED_INJECT enables fault\n"
      << "injection for tests):\n"
      << "  --serve [file|-]                                framed stream (- = stdin)\n"
      << "  --listen <stdio|tcp:HOST:PORT|unix:PATH>        transport (stdio)\n"
      << "  --max-conns <n>                                 open-connection bound (64)\n"
      << "  --serve-queue <n>                               admission capacity (256)\n"
      << "  --serve-ordered                                 input-order responses\n"
      << "persistent cache maintenance (docs/SERVING.md \"Persistence\"):\n"
      << "  cache export --cache-dir <dir> [--out <file|->] ship a warm cache\n"
      << "  cache import --cache-dir <dir> --in <file|->    load a shipped cache\n"
      << "               [--disk-cache-mb <n>]              import budget (1024)\n"
      << "output:\n"
      << "  --gantt  --stats  --registers  --dot <file|->\n";
  std::exit(error.empty() ? 0 : 2);
}

// Strict integer parse behind every numeric flag: the whole token must be
// an optionally signed decimal inside [lo, hi], so a typo like "2x", a
// stray "-5" or an overflowing "99999999999" is rejected, naming `what`,
// instead of silently becoming a different value.
long long parse_integer(const std::string& token, long long lo, long long hi,
                        const std::string& what) {
  long long value = 0;
  const char* const end = token.data() + token.size();
  const auto [stop, ec] = std::from_chars(token.data(), end, value);
  if (token.empty() || ec != std::errc{} || stop != end || value < lo || value > hi)
    throw softsched::precondition_error(what + " must be an integer in [" +
                                        std::to_string(lo) + ", " + std::to_string(hi) +
                                        "], got '" + token + "'");
  return value;
}

// A DSE axis: "lo:hi" or a single "n", each bound in [lo_min, hi_max] and
// lo <= hi (a reversed axis would be an empty grid, not an exploration).
se::axis_range parse_axis(const std::string& spec, const std::string& flag, int lo_min,
                          int hi_max) {
  const auto colon = spec.find(':');
  const auto bound = [&](const std::string& token) {
    return static_cast<int>(parse_integer(token, lo_min, hi_max, flag + " bound"));
  };
  if (colon == std::string::npos) return {bound(spec), bound(spec)};
  const se::axis_range axis{bound(spec.substr(0, colon)), bound(spec.substr(colon + 1))};
  if (axis.lo > axis.hi)
    throw softsched::precondition_error(flag + " must be lo:hi with lo <= hi, got '" +
                                        spec + "'");
  return axis;
}

// --wire <from>:<to>:<delay>.
wire_spec parse_wire(const std::string& spec) {
  const auto c1 = spec.find(':');
  const auto c2 = c1 == std::string::npos ? c1 : spec.find(':', c1 + 1);
  if (c2 == std::string::npos)
    throw softsched::precondition_error("--wire expects from:to:delay, got '" + spec +
                                        "'");
  const long long delay = parse_integer(spec.substr(c2 + 1), 1, 1'000'000, "--wire delay");
  return {spec.substr(0, c1), spec.substr(c1 + 1, c2 - c1 - 1), static_cast<int>(delay)};
}

sm::meta_kind parse_meta(const std::string& name) {
  if (const std::optional<sm::meta_kind> kind = sm::meta_kind_named(name)) return *kind;
  throw softsched::precondition_error(
      "--meta must be dfs, topo, path, list or random, got '" + name + "'");
}

// "all", one registry name, or a comma list; every name is resolved before
// anything runs so a typo fails fast.
std::vector<std::string> parse_backend_list(const std::string& spec) {
  if (spec.empty()) return {"soft"};
  if (spec == "all") return ss::backend_names();
  std::vector<std::string> names;
  std::size_t pos = 0;
  for (;;) {
    const auto comma = spec.find(',', pos);
    const std::string name =
        comma == std::string::npos ? spec.substr(pos) : spec.substr(pos, comma - pos);
    if (ss::find_backend(name) == nullptr)
      throw softsched::precondition_error("--backend: unknown scheduler backend '" +
                                          name + "' (expected " +
                                          ss::backend_names_joined() + ")");
    names.push_back(name);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return names;
}

options parse_args(int argc, char** argv) {
  options opt;
  auto need = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(argv[0], std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  // Every malformed value is a usage error (exit 2) naming its flag.
  const auto checked = [&](const auto& parse) {
    try {
      return parse();
    } catch (const softsched::precondition_error& e) {
      usage(argv[0], e.what());
    }
  };
  auto number = [&](int& i, long long lo, long long hi) {
    const std::string flag = argv[i];
    const std::string value = need(i);
    return checked([&] { return parse_integer(value, lo, hi, flag); });
  };
  auto count = [&](int& i, int lo, int hi) { return static_cast<int>(number(i, lo, hi)); };
  auto axis = [&](int& i, int lo, int hi) {
    const std::string flag = argv[i];
    const std::string value = need(i);
    return checked([&] { return parse_axis(value, flag, lo, hi); });
  };
  // Same ranges as the serve request fields of the same name.
  using sv::max_units;
  constexpr int max_mb = 1 << 20;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--bench") opt.bench = need(i);
    else if (arg == "--dfg") opt.dfg_file = need(i);
    else if (arg == "--beh") opt.beh_file = need(i);
    else if (arg == "--backend") opt.backend = need(i);
    else if (arg == "--compare") opt.compare = true;
    else if (arg == "--meta") opt.meta = need(i);
    else if (arg == "--seed") opt.seed = static_cast<std::uint64_t>(number(i, 0, sv::max_seed));
    else if (arg == "--latency") opt.latency = number(i, 1, 1'000'000);
    else if (arg == "--iter-budget") opt.iter_budget = number(i, 0, ss::sdc_iter_max_budget);
    else if (arg == "--alus") { opt.alus = count(i, 0, max_units); opt.alus_set = true; }
    else if (arg == "--muls") { opt.muls = count(i, 0, max_units); opt.muls_set = true; }
    else if (arg == "--mems") { opt.mems = count(i, 0, max_units); opt.mems_set = true; }
    else if (arg == "--spill") opt.spills.push_back(need(i));
    else if (arg == "--wire") {
      const std::string spec = need(i);
      opt.wires.push_back(checked([&] { return parse_wire(spec); }));
    }
    else if (arg == "--explore") opt.explore = true;
    else if (arg == "--jobs") { opt.jobs = count(i, 0, 1024); opt.serve_flags.jobs = opt.jobs; }
    else if (arg == "--alus-range") opt.alus_axis = axis(i, 0, max_units);
    else if (arg == "--muls-range") opt.muls_axis = axis(i, 0, max_units);
    else if (arg == "--mems-range") opt.mems_axis = axis(i, 0, max_units);
    else if (arg == "--mul-lat-range")
      opt.mul_lat_axis = axis(i, sv::min_mul_latency, sv::max_mul_latency);
    else if (arg == "--iter-budget-range")
      opt.iter_budget_axis = axis(i, 0, ss::sdc_iter_max_budget);
    else if (arg == "--explore-out") opt.explore_out = need(i);
    else if (arg == "--serve-batch") opt.serve_batch = need(i);
    else if (arg == "--serve") {
      // The stream argument is optional: `--serve --listen unix:PATH` has
      // no input file; bare `--serve` reads framed stdin.
      opt.serve_mode = true;
      if (i + 1 < argc) {
        const std::string next = argv[i + 1];
        if (next == "-" || next[0] != '-') opt.serve = argv[++i];
      }
    }
    else if (arg == "--listen") opt.serve_flags.listen = need(i);
    else if (arg == "--max-conns") opt.serve_flags.max_conns = count(i, 1, 65536);
    else if (arg == "--serve-queue") opt.serve_flags.serve_queue = count(i, 1, max_units);
    else if (arg == "--serve-ordered") opt.serve_flags.serve_ordered = true;
    else if (arg == "--out") opt.out_file = need(i);
    else if (arg == "--cache-mb") opt.serve_flags.cache_mb = count(i, 0, max_mb);
    else if (arg == "--cache-dir") opt.serve_flags.cache_dir = need(i);
    else if (arg == "--disk-cache-mb") opt.serve_flags.disk_cache_mb = count(i, 0, max_mb);
    else if (arg == "--serve-compact") opt.serve_flags.serve_compact = true;
    else if (arg == "--arena") opt.serve_flags.arena = need(i);
    else if (arg == "--gantt") opt.gantt = true;
    else if (arg == "--stats") opt.stats = true;
    else if (arg == "--registers") opt.registers = true;
    else if (arg == "--dot") opt.dot_file = need(i);
    else if (arg == "--help" || arg == "-h") usage(argv[0]);
    else usage(argv[0], "unknown option " + arg);
  }
  if (opt.bench.rfind("random", 0) == 0) // same range as the serve "random" field
    opt.random_vertices = checked([&] {
      return static_cast<int>(
          parse_integer(opt.bench.substr(6), 1, si::max_design_ops, "--bench random<N> size"));
    });
  else if (!opt.bench.empty())
    checked([&] { si::check_benchmark_name(opt.bench); });
  // Named values are checked here too, so a typo is a usage error naming
  // its flag rather than a failure once the run has started.
  checked([&] { (void)sv::parse_arena_flag(opt.serve_flags.arena); });
  checked([&] { (void)parse_meta(opt.meta); });
  const std::vector<std::string> backends =
      checked([&] { return parse_backend_list(opt.backend); });
  // Same non-silence rule as the serve iter_budget field: a budget that no
  // selected backend reads must not look honored.
  const auto is_iterative = [](const std::string& b) {
    return ss::get_backend(b).caps().iterative;
  };
  const bool iterative =
      opt.compare || std::any_of(backends.begin(), backends.end(), is_iterative);
  if (!iterative && (opt.iter_budget >= 0 || opt.iter_budget_axis)) {
    const std::string flag =
        opt.iter_budget_axis ? "--iter-budget-range" : "--iter-budget";
    usage(argv[0], flag + " needs an iterative backend (--backend sdc-iter, a list "
                          "with it, all, or --compare)");
  }
  const int inputs = static_cast<int>(!opt.bench.empty()) +
                     static_cast<int>(!opt.dfg_file.empty()) +
                     static_cast<int>(!opt.beh_file.empty());
  if (!opt.serve_batch.empty() || opt.serve_mode) {
    if (!opt.serve_batch.empty() && opt.serve_mode)
      usage(argv[0], "--serve (resident daemon) and --serve-batch (one-shot "
                     "batch) are mutually exclusive");
    if (inputs != 0)
      usage(argv[0], "--serve/--serve-batch read designs from their requests, "
                     "not from --bench/--dfg/--beh");
    if (opt.serve_flags.listen != "stdio" && opt.serve != "-")
      usage(argv[0], "--listen tcp:/unix: serves socket clients; it cannot "
                     "also read a --serve request file");
  } else if (opt.serve_flags.listen != "stdio") {
    usage(argv[0], "--listen requires --serve");
  } else if (inputs != 1) {
    usage(argv[0], "exactly one of --bench/--dfg/--beh is required");
  }
  return opt;
}

si::dfg load_design(const options& opt, const si::resource_library& lib) {
  if (!opt.bench.empty()) return si::make_benchmark(opt.bench, lib);
  if (!opt.dfg_file.empty()) {
    std::ifstream in(opt.dfg_file);
    if (!in) throw softsched::precondition_error("cannot open " + opt.dfg_file);
    return si::read_dfg(in, lib);
  }
  std::ifstream in(opt.beh_file);
  if (!in) throw softsched::precondition_error("cannot open " + opt.beh_file);
  std::ostringstream text;
  text << in.rdbuf();
  return sl::compile_behavior(text.str(), opt.beh_file, lib);
}

// The one validated scheduling surface, mirroring serve/options.h: backend
// selection, meta order, FDS budget and the --arena knob all derive from
// the raw flags exactly once, and every mode - single run, --compare,
// --explore - consumes this struct instead of re-deriving from strings.
struct scheduling_config {
  std::vector<std::string> backends; ///< resolved registry names, never empty
  sm::meta_kind meta = sm::meta_kind::list_priority; ///< never `random`
  bool random_meta = false; ///< --meta random (interactive soft path only)
  std::uint64_t seed = 1;
  long long fds_latency = -1;
  long long iter_budget = -1; ///< sdc-iter budget; -1 = backend default
  sv::arena_flag arena; ///< --arena, parsed by the serve-shared grammar

  [[nodiscard]] const std::string& primary_backend() const { return backends.front(); }
  [[nodiscard]] ss::arena_mode arena_mode() const {
    return arena.enabled ? ss::arena_mode::on : ss::arena_mode::off;
  }
  [[nodiscard]] std::size_t arena_block_bytes() const {
    return arena.block_bytes > 0 ? arena.block_bytes
                                 : softsched::util::arena::default_block_bytes;
  }
  /// The per-run options a registry backend consumes. Backends that ignore
  /// the feed order keep ignoring --meta (`--backend list --meta random`
  /// stays valid); backends that consume it reject `random` - registry
  /// runs need a deterministic order.
  [[nodiscard]] ss::backend_options options_for(const ss::scheduler_backend& b) const {
    ss::backend_options bopt;
    if (b.caps().uses_meta) {
      SOFTSCHED_EXPECT(!random_meta,
                       "--backend/--compare runs need a deterministic --meta");
      bopt.meta = meta;
    }
    bopt.fds_latency = fds_latency;
    if (b.caps().iterative) bopt.iter_budget = iter_budget;
    return bopt;
  }
};

scheduling_config scheduling_from_options(const options& opt) {
  scheduling_config cfg;
  cfg.backends = parse_backend_list(opt.backend);
  const sm::meta_kind kind = parse_meta(opt.meta);
  cfg.random_meta = kind == sm::meta_kind::random;
  if (!cfg.random_meta) cfg.meta = kind;
  cfg.seed = opt.seed;
  cfg.fds_latency = opt.latency;
  cfg.iter_budget = opt.iter_budget;
  cfg.arena = sv::parse_arena_flag(opt.serve_flags.arena);
  return cfg;
}

// --compare / --backend all: run every registered backend on the design and
// print the soft-vs-list-vs-fds table (the paper's Figure 1/3 comparison,
// on any design and allocation). Every schedule is validated against the
// shared precedence + resource checker, and every backend is run twice so
// nondeterminism shows up here rather than in a cache. Returns nonzero if
// any feasible schedule fails validation.
int run_compare(const scheduling_config& cfg, const si::resource_library& lib,
                const si::dfg& design, const si::resource_set& resources) {
  std::cout << "backend comparison: " << design.name() << ", " << design.op_count()
            << " ops, resources " << resources.label() << "\n";
  softsched::table t;
  t.set_header({"backend", "feasible", "latency", "vs soft", "iters", "bound units",
                "legal"});
  long long soft_latency = -1;
  bool all_legal = true;
  // One context for the whole table: the repeat run below recycles the
  // first run's arena blocks, so comparison mode also witnesses that reuse
  // does not change an outcome.
  ss::run_context ctx(cfg.arena_mode(), cfg.arena_block_bytes());
  for (const ss::scheduler_backend* backend : ss::registered_backends()) {
    const ss::run_request request{design, lib, resources, cfg.options_for(*backend)};
    const ss::backend_outcome outcome = backend->run(request, ctx);
    const ss::backend_outcome repeat = backend->run(request, ctx);
    SOFTSCHED_EXPECT(outcome.same_outcome(repeat),
                     std::string("backend '") + std::string(backend->name()) +
                         "' is nondeterministic across repeat runs");
    if (backend->name() == "soft" && outcome.feasible) soft_latency = outcome.latency;

    std::string legal = "-";
    if (outcome.feasible) {
      const auto violations =
          sh::validate_schedule(design, ss::to_hard_schedule(outcome), &resources);
      legal = violations.empty() ? "yes" : "NO: " + violations.front();
      all_legal = all_legal && violations.empty();
    }
    int bound = 0;
    for (const int u : outcome.unit_of) bound += u >= 0 ? 1 : 0;
    std::string vs_soft = "-";
    if (outcome.feasible && soft_latency >= 0) {
      vs_soft = softsched::cell(outcome.latency - soft_latency);
      if (outcome.latency >= soft_latency) vs_soft.insert(vs_soft.begin(), '+');
    }
    t.add_row({std::string(backend->name()),
               outcome.feasible ? "yes" : "no: " + outcome.infeasible_reason,
               outcome.feasible ? softsched::cell(outcome.latency) + " states" : "-",
               vs_soft,
               backend->caps().iterative ? softsched::cell(outcome.iterations) : "-",
               softsched::cell(bound), legal});
  }
  t.print(std::cout);
  return all_legal ? 0 : 1;
}

int run_explore(const options& opt, const scheduling_config& cfg) {
  SOFTSCHED_EXPECT(!opt.bench.empty(),
                   "--explore needs --bench (a named benchmark or random<N>)");
  se::grid_spec spec;
  if (opt.random_vertices > 0) {
    spec.design.random_vertices = opt.random_vertices;
    spec.design.seed = opt.seed;
  } else {
    spec.design.bench = opt.bench;
  }
  // A plain --alus/--muls/--mems pins that axis to a single value (so the
  // normal-mode flags keep meaning something under --explore); the *-range
  // flags override.
  if (opt.alus_set) spec.alus = {opt.alus, opt.alus};
  if (opt.muls_set) spec.muls = {opt.muls, opt.muls};
  if (opt.mems_set) spec.mems = {opt.mems, opt.mems};
  spec.alus = opt.alus_axis.value_or(spec.alus);
  spec.muls = opt.muls_axis.value_or(spec.muls);
  spec.mems = opt.mems_axis.value_or(spec.mems);
  spec.mul_latency = opt.mul_lat_axis.value_or(spec.mul_latency);
  spec.iter_budget = opt.iter_budget_axis.value_or(spec.iter_budget);

  se::exploration_options eopt;
  eopt.jobs = opt.jobs;
  SOFTSCHED_EXPECT(!cfg.random_meta, "--explore needs a deterministic --meta");
  eopt.meta = cfg.meta;
  eopt.backends = cfg.backends;
  eopt.iter_budget = cfg.iter_budget;
  eopt.arena = cfg.arena.enabled;
  eopt.arena_block_bytes = cfg.arena.block_bytes;

  const se::exploration_result result = se::run_exploration(spec, eopt);
  // The budget axis is printed only when set, so output without it is
  // unchanged; with it, frontier rows that differ only in budget differ.
  const bool budget_axis = opt.iter_budget_axis.has_value();
  std::cout << "design-space exploration: " << spec.design.name() << ", "
            << result.points.size() << " points (alus " << spec.alus.lo << ":"
            << spec.alus.hi << " x muls " << spec.muls.lo << ":" << spec.muls.hi
            << " x mems " << spec.mems.lo << ":" << spec.mems.hi << " x mul_lat "
            << spec.mul_latency.lo << ":" << spec.mul_latency.hi;
  if (budget_axis)
    std::cout << " x iter_budget " << spec.iter_budget.lo << ":" << spec.iter_budget.hi;
  std::cout << " x " << result.backends.size() << " backends), " << result.jobs
            << " jobs\n";
  std::cout << "  feasible " << result.feasible_count() << "/" << result.points.size()
            << ", " << result.wall_ms << " ms, " << result.points_per_sec()
            << " points/sec\n";
  for (std::size_t b = 0; b < result.frontiers.size(); ++b) {
    std::cout << "pareto frontier [" << result.backends[b]
              << "] (area / latency / allocation / mul latency"
              << (budget_axis ? " / iter budget" : "") << "):\n";
    for (const int i : result.frontiers[b]) {
      const se::point_result& p = result.points[static_cast<std::size_t>(i)];
      std::cout << "  area " << p.area << "  latency " << p.latency << " states  "
                << p.point.resources.label() << "  mul_lat " << p.point.mul_latency;
      if (budget_axis) std::cout << "  iter_budget " << p.point.iter_budget;
      std::cout << "\n";
    }
  }

  if (!opt.explore_out.empty()) {
    std::ofstream out(opt.explore_out);
    if (!out) throw softsched::precondition_error("cannot open " + opt.explore_out);
    softsched::json_writer j(out);
    se::write_report(j, spec, result);
    out << '\n';
    if (!j.done() || !out)
      throw softsched::precondition_error("failed to write " + opt.explore_out);
    std::cout << "wrote " << opt.explore_out << "\n";
  }
  return 0;
}

// One stable stderr line for the persistent tier, shared by both serve
// modes (and grepped by CI and the docs/SERVING.md warm-restart example).
void report_disk_tier(const sv::service_stats& s) {
  if (!s.disk_enabled) return;
  std::cerr << "serve: disk tier: " << s.disk_hits << " disk hits, " << s.disk_misses
            << " disk misses, " << s.disk_writes << " writes, " << s.disk_evictions
            << " evictions, " << s.disk_corrupt_dropped << " corrupt dropped, "
            << s.disk_io_errors << " io errors; recovered " << s.disk_recovered_entries
            << " entries in " << s.disk_recovery_scan_ms << " ms; " << s.disk_entries
            << " entries, " << s.disk_bytes << " bytes"
            << (s.disk_degraded ? "; DEGRADED (RAM-only)" : "") << "\n";
}

// Opens the response stream: a file, or stdout for "" / "-".
std::ostream& open_output(const std::string& path, std::ofstream& file) {
  if (path.empty() || path == "-") return std::cout;
  file.open(path);
  if (!file) throw softsched::precondition_error("cannot open " + path);
  return file;
}

// Opens the request stream: a file, or stdin for "-".
std::istream& open_input(const std::string& path, std::ifstream& file) {
  if (path == "-") return std::cin;
  file.open(path);
  if (!file) throw softsched::precondition_error("cannot open " + path);
  return file;
}

// Batch scheduling service: JSONL requests -> JSONL responses in input
// order, through the same service the daemon runs; summary on stderr
// (stdout stays machine-readable).
int run_serve_batch(const options& opt) {
  // One validation path for every serving flag (serve/options.h); the
  // error messages tests pin live there, not here.
  const sv::service_options sopt = sv::daemon_options_from_flags(opt.serve_flags).service;
  std::ifstream in_file;
  std::istream& in = open_input(opt.serve_batch, in_file);
  std::ofstream out_file;
  std::ostream& out = open_output(opt.out_file, out_file);

  sv::service svc(sopt);
  const std::uint64_t requests = sv::run_batch(
      in, svc, [&](const sv::response&, std::string_view line) { out << line << '\n'; });
  // Flush before checking: a write failure (disk full) surfacing only at
  // close must not exit 0 with a truncated response file.
  out.flush();
  if (!out) throw softsched::precondition_error("failed to write responses");

  svc.drain(); // `completed` (behind hit_rate and qps) counts after each callback
  const sv::service_stats s = svc.stats();
  const sv::cache_counters cc = svc.cache().counters();
  std::cerr << "serve: " << requests << " requests on " << svc.jobs() << " jobs: "
            << s.computed << " scheduled, " << s.cache_hits << " cache hits, "
            << s.deduped << " deduped, " << s.errors << " errors (hit rate " << s.hit_rate
            << ")\n";
  std::cerr << "serve: " << s.uptime_ms << " ms, " << s.qps << " requests/sec; cache "
            << cc.entries << " entries, " << cc.bytes << " bytes, " << cc.evictions
            << " evictions\n";
  report_disk_tier(s);
  return 0;
}

// The daemon session summary, shared by the stdio and socket front-ends.
void report_daemon(std::uint64_t requests, const sv::service_stats& s,
                   std::size_t queue_capacity, bool shutdown, bool transport_error,
                   const sv::connection_counters_snapshot& c) {
  std::cerr << "daemon: " << requests << " requests (" << s.admitted
            << " admitted, " << s.overloaded << " shed), " << s.computed
            << " scheduled, " << s.cache_hits << " cache hits, " << s.deduped
            << " deduped, " << s.errors << " errors (hit rate " << s.hit_rate
            << ")\n";
  std::cerr << "daemon: " << s.uptime_ms << " ms up, " << s.qps << " qps, p50/p95/p99 "
            << s.p50_ms << "/" << s.p95_ms << "/" << s.p99_ms << " ms, peak queue "
            << s.peak_queue_depth << "/" << queue_capacity
            << (shutdown ? ", shutdown" : "")
            << (transport_error ? ", transport error" : "") << "\n";
  std::cerr << "daemon: conns [" << c.transport << "] " << c.accepted << " accepted ("
            << c.shed << " shed, " << c.faulted << " dropped by fault), " << c.active
            << " active, " << c.closed << " closed, " << c.transport_errors
            << " transport errors, " << c.bytes_in << " bytes in, " << c.bytes_out
            << " bytes out\n";
  report_disk_tier(s);
}

// Resident daemon over a socket listener: accept loop + per-connection
// serve_connection threads over one shared service; runs until a client
// sends {"op":"shutdown"}. Per-connection transport errors close that
// connection only and never fail the process.
int run_socket_daemon(const sv::daemon_options& dopt, const sv::listen_spec& spec) {
  sv::service svc(dopt.service);
  const std::unique_ptr<sv::listener> accept_from = sv::make_listener(spec);
  // The one line scripts wait for (and scrape the ephemeral port from).
  std::cerr << "daemon: listening on " << accept_from->address() << "\n" << std::flush;

  sv::socket_server_options sopt;
  sopt.max_connections = dopt.max_connections;
  sopt.retry_after_ms = dopt.service.retry_after_ms;
  sopt.connection.ordered = dopt.ordered;
  sopt.connection.emit_schedule = dopt.service.emit_schedule;
  sopt.connection.limits = dopt.limits;
  sv::socket_server server(*accept_from, svc, sopt);
  const sv::socket_server_summary summary = server.run();

  svc.drain();
  const sv::service_stats s = svc.stats();
  report_daemon(summary.requests, s, dopt.service.queue_capacity,
                summary.shutdown_requested, /*transport_error=*/false, summary.conns);
  return 0;
}

// Resident daemon: framed requests -> framed responses (docs/SERVING.md),
// session summary on stderr. SOFTSCHED_INJECT (fault injection for tests)
// is honored here and by --serve-batch.
int run_daemon_mode(const options& opt) {
  // One validation path for every serving flag (serve/options.h); the
  // error messages tests pin live there, not here.
  const sv::daemon_options dopt = sv::daemon_options_from_flags(opt.serve_flags);
  const sv::listen_spec spec = sv::listen_from_flags(opt.serve_flags);
  if (spec.kind != sv::listen_spec::transport::stdio) return run_socket_daemon(dopt, spec);

  std::ifstream in_file;
  std::istream& in = open_input(opt.serve, in_file);
  std::ofstream out_file;
  std::ostream& out = open_output(opt.out_file, out_file);

  const sv::daemon_summary summary = sv::run_daemon(in, out, dopt);
  out.flush();
  if (!out) throw softsched::precondition_error("failed to write responses");

  report_daemon(summary.requests, summary.stats, dopt.service.queue_capacity,
                summary.shutdown_requested, summary.transport_error, summary.conns);
  return summary.transport_error ? 1 : 0;
}

// `cache export` / `cache import`: ship a warm disk tier between hosts as
// one self-validating stream (every record re-verifies its own checksum on
// both sides; a corrupt record is skipped on export and stops an import).
int run_cache_tool(int argc, char** argv) {
  const std::string verb = argc >= 3 ? argv[2] : "";
  if (verb != "export" && verb != "import")
    usage(argv[0], "cache subcommand needs a verb: cache export | cache import");
  std::string dir, out_spec, in_spec;
  int budget_mb = 1024;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto need = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0], "missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--cache-dir") dir = need();
    else if (arg == "--out") out_spec = need();
    else if (arg == "--in") in_spec = need();
    else if (arg == "--disk-cache-mb") {
      const std::string value = need();
      try {
        budget_mb = static_cast<int>(parse_integer(value, 1, 1 << 20, arg));
      } catch (const softsched::precondition_error& e) {
        usage(argv[0], e.what());
      }
    }
    else usage(argv[0], "unknown cache option " + arg);
  }
  SOFTSCHED_EXPECT(!dir.empty(), "cache " + verb + " needs --cache-dir");

  if (verb == "export") {
    sv::disk_cache_options copt;
    copt.directory = dir;
    // Export must never evict what it is about to ship: open with an
    // effectively unbounded budget regardless of the serving-time one.
    copt.byte_budget = static_cast<std::size_t>(-1) / 2;
    sv::disk_cache cache(copt);
    std::ofstream out_file;
    std::ostream* out = &std::cout;
    if (!out_spec.empty() && out_spec != "-") {
      out_file.open(out_spec, std::ios::binary);
      if (!out_file) throw softsched::precondition_error("cannot open " + out_spec);
      out = &out_file;
    }
    const std::optional<std::uint64_t> count = cache.export_to(*out);
    out->flush();
    if (!count.has_value() || !*out)
      throw softsched::precondition_error("cache export: write failed");
    const sv::disk_cache_counters d = cache.counters();
    std::cerr << "cache export: " << *count << " records (" << d.corrupt_dropped
              << " corrupt dropped, " << d.io_errors << " io errors)\n";
    return d.io_errors > 0 ? 1 : 0;
  }

  SOFTSCHED_EXPECT(!in_spec.empty(), "cache import needs --in <file|->");
  std::ifstream in_file;
  std::istream* in = &std::cin;
  if (in_spec != "-") {
    in_file.open(in_spec, std::ios::binary);
    if (!in_file) throw softsched::precondition_error("cannot open " + in_spec);
    in = &in_file;
  }
  sv::disk_cache_options copt;
  copt.directory = dir;
  copt.byte_budget = static_cast<std::size_t>(budget_mb) << 20;
  sv::disk_cache cache(copt);
  const sv::disk_import_summary s = cache.import_from(*in);
  const sv::disk_cache_counters d = cache.counters();
  std::cerr << "cache import: " << s.imported << " records imported ("
            << s.corrupt_skipped << " corrupt skipped"
            << (s.truncated ? ", stream truncated" : "") << "), now " << d.entries
            << " entries, " << d.bytes << " bytes"
            << (d.degraded ? "; DEGRADED" : "") << "\n";
  return (s.corrupt_skipped > 0 || s.truncated || d.degraded) ? 1 : 0;
}

int run(const options& opt) {
  if (opt.serve_mode) return run_daemon_mode(opt);
  if (!opt.serve_batch.empty()) return run_serve_batch(opt);
  const scheduling_config cfg = scheduling_from_options(opt);
  if (opt.explore) return run_explore(opt, cfg);
  const si::resource_library lib;
  si::dfg design = load_design(opt, lib);
  const si::resource_set resources{opt.alus, opt.muls, opt.mems};

  std::cout << design.name() << ": " << design.op_count() << " ops, critical path "
            << sg::compute_distances(design.graph()).diameter << ", resources "
            << resources.label() << "\n";

  if (opt.compare || opt.backend == "all") {
    // Comparison mode produces the table and nothing else; flags whose
    // output a pipeline might wait for must not be dropped silently.
    if (opt.gantt || opt.stats || opt.registers || !opt.dot_file.empty() ||
        !opt.spills.empty() || !opt.wires.empty())
      std::cerr << "note: --gantt/--stats/--registers/--dot/--spill/--wire are "
                   "ignored in comparison mode (pick one --backend to use them)\n";
    return run_compare(cfg, lib, design, resources);
  }

  sh::schedule result;
  // The interactive soft path keeps the live state (and therefore its
  // arena) alive for refinements / --stats / --dot, so the arena is
  // declared first: members of `state` deallocate into it on destruction.
  std::unique_ptr<softsched::util::arena> arena;
  std::vector<int> tags_scratch;
  std::optional<sc::threaded_graph> state;
  const std::string backend_name = cfg.primary_backend();
  SOFTSCHED_EXPECT(cfg.backends.size() == 1,
                   "pick one --backend (or --compare for the table)");

  if (backend_name == "soft") {
    if (cfg.arena.enabled)
      arena = std::make_unique<softsched::util::arena>(cfg.arena_block_bytes());
    state.emplace(sc::make_hls_state(design, resources, arena.get(), tags_scratch));
    if (cfg.random_meta) {
      softsched::rng rand(cfg.seed);
      state->schedule_all(sm::random_meta_schedule(design.graph(), rand));
    } else {
      state->schedule_all(sm::meta_schedule(design.graph(), cfg.meta));
    }
    // Refinements against the live state.
    for (const std::string& name : opt.spills) {
      const auto report = sf::apply_spill(design, *state, si::find_op(design, name));
      std::cout << "spill " << name << ": +" << report.ops_inserted << " ops, "
                << report.diameter_before << " -> " << report.diameter_after
                << " states\n";
    }
    for (const wire_spec& wire : opt.wires) {
      const auto report =
          sf::apply_wire_delay(design, *state, si::find_op(design, wire.from),
                               si::find_op(design, wire.to), wire.delay);
      std::cout << "wire " << wire.from << ":" << wire.to << ":" << wire.delay << ": "
                << report.diameter_before << " -> " << report.diameter_after
                << " states\n";
    }
    result = sh::extract_schedule(*state);
    std::cout << "soft schedule (" << opt.meta << " meta): " << result.makespan
              << " states\n";
  } else {
    // Hard backends (list, fds, anything registered later) run through the
    // registry; the soft path above stays special because it keeps the live
    // threaded state around for refinements / --stats / --dot.
    const ss::scheduler_backend& backend = ss::get_backend(backend_name);
    ss::run_context ctx(cfg.arena_mode(), cfg.arena_block_bytes());
    const ss::backend_outcome outcome =
        backend.run({design, lib, resources, cfg.options_for(backend)}, ctx);
    if (!outcome.feasible) {
      std::cerr << "infeasible: " << outcome.infeasible_reason << '\n';
      return 1;
    }
    result = ss::to_hard_schedule(outcome);
    std::cout << backend_name << " schedule: " << result.makespan << " states\n";
  }

  // Every backend's output goes through the shared checker; the registry's
  // fds backend searches for a budget whose schedule fits the allocation,
  // so the resource check applies to it too.
  const auto violations = sh::validate_schedule(design, result, &resources);
  if (!violations.empty()) {
    std::cerr << "INVALID schedule: " << violations.front() << '\n';
    return 1;
  }

  if (opt.gantt) {
    std::cout << '\n';
    sh::write_gantt(std::cout, design, result);
  }
  if (opt.registers) {
    const auto lifetimes = softsched::regalloc::compute_lifetimes(design, result);
    const auto binding = softsched::regalloc::left_edge_allocate(lifetimes);
    std::cout << "registers: demand " << softsched::regalloc::max_live(lifetimes)
              << ", left-edge binding uses " << binding.register_count << "\n";
  }
  if (opt.stats && state.has_value()) {
    const sc::schedule_stats& stats = state->stats();
    std::cout << "scheduler stats: " << stats.select_calls << " selects, "
              << stats.positions_scanned << " positions costed, "
              << stats.positions_rejected << " rejected, " << stats.label_passes
              << " label passes, " << stats.cross_edge_updates
              << " cross-edge updates\n";
  }
  if (!opt.dot_file.empty() && state.has_value()) {
    if (opt.dot_file == "-") {
      sc::write_state_dot(std::cout, *state, design.name());
    } else {
      std::ofstream out(opt.dot_file);
      sc::write_state_dot(out, *state, design.name());
      std::cout << "wrote " << opt.dot_file << "\n";
    }
  }
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::string(argv[1]) == "cache") return run_cache_tool(argc, argv);
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
