// trace.cpp - the traced in-process replay that yields the per-layer numbers.
//
// The replay feeds the very inputs the end-to-end run generated through
// the program's public module functions, in the order the daemon's
// service::process uses them, and records a span around every call:
// name, start, end, parent span and request id. Spans stay in memory and
// are written out when the replay ends; run.py turns them into self times
// (a span's duration minus the part its children cover), so a request's
// root self time is exactly the time no layer span accounts for.
//
// Soft requests are additionally split into the kernel's public calls
// (meta_schedule, make_hls_state, schedule_all, asap_start_times) on a
// second context, and the split must reproduce the backend's latency,
// start times and schedule_stats exactly.
//
// Each replay runs three passes over the same inputs: an untraced pass
// bounded by time (which fixes how many inputs K the other passes take, but
// never fewer than --min-requests), a traced pass over those K, and an
// untraced pass over the same K; the traced/untraced wall ratio is the
// tracing overhead.
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "common.h"
#include "core/hls_binding.h"
#include "explore/dse.h"
#include "ir/dfg_hash.h"
#include "sched/backend.h"
#include "serve/cache.h"
#include "serve/diskcache.h"
#include "serve/engine.h"
#include "serve/request.h"
#include "util/check.h"
#include "util/json.h"

namespace perfbench {

namespace {

namespace si = softsched::ir;
namespace sv = softsched::serve;
namespace ss = softsched::sched;
namespace se = softsched::explore;
namespace sc = softsched::core;

struct span {
  std::uint32_t request = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0; ///< 0 = root
  std::string name;
  std::int64_t start = 0;
  std::int64_t end = 0;
  long long arg = -1; ///< op count for hash spans, else -1
};

class tracer {
public:
  bool enabled = false;
  std::vector<span> spans;

  void begin_request(std::uint32_t request) {
    request_ = request;
    parent_ = 0;
  }

  /// RAII span: records [construction, destruction) under the current parent.
  class scope {
  public:
    scope(tracer& t, std::string name) : t_(t) {
      if (!t_.enabled) return;
      slot_ = t_.spans.size();
      saved_parent_ = t_.parent_;
      t_.spans.push_back({t_.request_, ++t_.next_id_, t_.parent_, std::move(name), now_ns(),
                          0, -1});
      t_.parent_ = t_.spans.back().id;
    }
    ~scope() {
      if (!t_.enabled) return;
      t_.spans[slot_].end = now_ns();
      t_.parent_ = saved_parent_;
    }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

    /// Attaches a size (op count) to this span.
    void set_arg(long long arg) {
      if (t_.enabled) t_.spans[slot_].arg = arg;
    }

  private:
    tracer& t_;
    std::size_t slot_ = 0;
    std::uint32_t saved_parent_ = 0;
  };

  void write(const std::string& path) const {
    std::ofstream out(path);
    for (const span& s : spans)
      out << s.request << '\t' << s.id << '\t' << s.parent << '\t' << s.name << '\t'
          << s.start << '\t' << s.end << '\t' << s.arg << '\n';
    if (!out) throw std::runtime_error("failed writing " + path);
  }

private:
  std::uint32_t request_ = 0;
  std::uint32_t parent_ = 0;
  std::uint32_t next_id_ = 0;
};

/// Replay-wide tallies the summary reports.
struct tallies {
  long long soft_checked = 0;
  long long soft_mismatch = 0;
  long long sdc_runs = 0;
  long long sdc_iterations = 0;
  /// Summed over the soft runs of the traced pass's first --min-requests
  /// inputs only, so the counts repeat exactly whatever the replay's length.
  sc::schedule_stats soft_stats;
  bool count_stats = false;
};

/// Splits one soft run into the kernel's public calls and compares the
/// result with the backend's outcome.
void soft_split(tracer& t, const si::dfg& design, const si::resource_set& resources,
                softsched::meta::meta_kind meta, ss::run_context& ctx,
                const ss::backend_outcome& outcome, tallies& tally) {
  const tracer::scope check(t, "check.soft_split");
  ctx.begin_run();
  long long latency = -1;
  std::vector<long long> starts;
  sc::schedule_stats stats;
  try {
    {
      const tracer::scope s(t, "meta.order");
      softsched::meta::meta_schedule(design.graph(), meta, ctx.meta, ctx.meta_order);
    }
    {
      const tracer::scope s(t, "core.state_build");
      ctx.state.emplace(sc::make_hls_state(design, resources, ctx.arena(), ctx.thread_tags));
      for (std::uint32_t i = 0; i < design.op_count(); ++i)
        if (design.kind(softsched::graph::vertex_id(i)) == si::op_kind::wire)
          sc::add_wire_thread(*ctx.state, softsched::graph::vertex_id(i));
    }
    {
      const tracer::scope s(t, "core.kernel");
      ctx.state->schedule_all(ctx.meta_order);
    }
    {
      const tracer::scope s(t, "core.extract");
      latency = ctx.state->diameter();
      ctx.state->asap_start_times(starts);
      stats = ctx.state->stats();
    }
  } catch (const softsched::infeasible_error&) {
    latency = -1;
  }
  ++tally.soft_checked;
  const bool same = outcome.feasible ? (latency == outcome.latency &&
                                        starts == outcome.start_times &&
                                        stats == outcome.stats)
                                     : latency == -1;
  if (!same) ++tally.soft_mismatch;
}

void add_stats(sc::schedule_stats& into, const sc::schedule_stats& s) {
  into.select_calls += s.select_calls;
  into.positions_scanned += s.positions_scanned;
  into.positions_rejected += s.positions_rejected;
  into.commits += s.commits;
  into.label_passes += s.label_passes;
  into.cross_edge_updates += s.cross_edge_updates;
  into.nodes_relabeled += s.nodes_relabeled;
  into.closure_rebuilds += s.closure_rebuilds;
  into.closure_syncs += s.closure_syncs;
  into.closure_rows_touched += s.closure_rows_touched;
}

/// The serve pipeline of one daemon, replayed on one thread.
class serve_replay {
public:
  serve_replay(std::size_t cache_bytes, const std::string& disk_dir)
      : cache_(cache_bytes), ctx_(ss::arena_mode::on), split_ctx_(ss::arena_mode::on) {
    if (!disk_dir.empty()) {
      sv::disk_cache_options options;
      options.directory = disk_dir;
      options.byte_budget = 64ull << 20;
      disk_ = std::make_unique<sv::disk_cache>(options);
    }
  }

  [[nodiscard]] const ss::run_context& context() const { return ctx_; }

  void run(tracer& t, std::uint32_t index, const std::string& text, tallies& tally) {
    t.begin_request(index);
    const tracer::scope root(t, "request");
    sv::request req;
    {
      const tracer::scope s(t, "serve.parse");
      req = sv::parse_request_line(text);
    }
    const sv::source_info* source = nullptr;
    {
      const tracer::scope s(t, "serve.memo");
      const auto it = memo_.find(req.source_signature());
      if (it != memo_.end()) source = &it->second;
    }
    if (source == nullptr) {
      sv::source_info info;
      {
        tracer::scope s(t, "ir.hash");
        info = sv::hash_request_source(req);
        s.set_arg(static_cast<long long>(info.canonical_of.size()));
      }
      source = &memo_.emplace(req.source_signature(), std::move(info)).first->second;
    }
    if (!source->error.empty()) throw std::runtime_error("replay: " + source->error);
    si::dfg_digest key;
    {
      const tracer::scope s(t, "serve.key");
      key = sv::schedule_key_for(req, source->digest);
    }
    sv::schedule_cache::result_ptr cached;
    {
      const tracer::scope s(t, "serve.cache_lookup");
      cached = cache_.lookup(key);
    }
    if (cached == nullptr && disk_ != nullptr) {
      {
        const tracer::scope s(t, "serve.disk_lookup");
        cached = disk_->lookup(key);
      }
      if (cached != nullptr) {
        const tracer::scope s(t, "serve.cache_insert");
        cache_.insert(key, cached);
      }
    }
    if (cached == nullptr) cached = compute(t, req, source->canonical_of, key, tally);
    sv::response r;
    r.line = index + 1;
    r.id = req.id;
    r.backend = req.backend;
    r.key = key;
    {
      const tracer::scope s(t, "serve.remap");
      r.result = sv::result_to_source_order(*cached, source->canonical_of);
    }
    {
      const tracer::scope s(t, "serve.serialize");
      std::ostringstream out;
      sv::write_response_line(out, r, /*emit_schedule=*/true);
    }
  }

private:
  sv::schedule_cache::result_ptr compute(tracer& t, const sv::request& req,
                                         const std::vector<std::uint32_t>& canonical_of,
                                         const si::dfg_digest& key, tallies& tally) {
    // compute_canonical_schedule, unrolled so the backend run is its own span.
    si::resource_library library;
    library.set_latency(si::op_kind::mul, req.mul_latency);
    std::optional<si::dfg> source_design;
    std::optional<si::dfg> design;
    {
      const tracer::scope s(t, "ir.canonical_form");
      source_design.emplace(sv::build_request_design(req, library));
      std::vector<softsched::graph::vertex_id> order(source_design->op_count());
      for (std::size_t src = 0; src < canonical_of.size(); ++src)
        order[canonical_of[src]] = softsched::graph::vertex_id(static_cast<std::uint32_t>(src));
      design.emplace(si::canonical_form(*source_design, order, library));
    }
    ss::backend_options options;
    options.meta = req.meta;
    options.iter_budget = req.iter_budget;
    const ss::scheduler_backend& backend = ss::get_backend(req.backend);
    ss::backend_outcome outcome;
    {
      const tracer::scope s(t, "sched.run." + req.backend);
      outcome = backend.run({*design, library, req.resources, options}, ctx_);
    }
    if (req.backend == "soft") {
      soft_split(t, *design, req.resources, req.meta, split_ctx_, outcome, tally);
      if (tally.count_stats) add_stats(tally.soft_stats, outcome.stats);
    }
    if (backend.caps().iterative) {
      ++tally.sdc_runs;
      tally.sdc_iterations += outcome.iterations;
    }
    auto result = std::make_shared<sv::schedule_result>();
    result->ops = design->op_count();
    result->feasible = outcome.feasible;
    result->infeasible_reason = outcome.infeasible_reason;
    result->latency = outcome.latency;
    result->start_times = std::move(outcome.start_times);
    result->unit_of = std::move(outcome.unit_of);
    result->stats = outcome.stats;
    {
      const tracer::scope s(t, "serve.cache_insert");
      cache_.insert(key, result);
    }
    if (disk_ != nullptr) {
      // The write-behind flusher's work, done inline so it is attributable.
      const tracer::scope s(t, "serve.disk_store");
      disk_->store(key, result);
    }
    return result;
  }

  sv::schedule_cache cache_;
  std::unique_ptr<sv::disk_cache> disk_;
  std::unordered_map<std::string, sv::source_info> memo_;
  ss::run_context ctx_;
  ss::run_context split_ctx_;
};

void write_summary(const std::string& path, std::size_t replayed, double traced_s,
                   double untraced_s, const tallies& tally, const ss::run_context* ctx) {
  std::ofstream out(path);
  softsched::json_writer j(out, /*compact=*/true);
  j.begin_object();
  j.member("replayed", replayed);
  j.member("traced_wall_s", traced_s);
  j.member("untraced_wall_s", untraced_s);
  j.member("soft_checked", tally.soft_checked);
  j.member("soft_mismatch", tally.soft_mismatch);
  j.member("sdc_runs", tally.sdc_runs);
  j.member("sdc_iterations", tally.sdc_iterations);
  j.key("soft_stats");
  se::write_schedule_stats(j, tally.soft_stats);
  // The shared stats writer leaves this counter out of answers and reports.
  j.member("soft_positions_rejected", tally.soft_stats.positions_rejected);
  const auto* arena = ctx != nullptr ? ctx->arena_stats() : nullptr;
  j.member("arena_peak_bytes", arena != nullptr ? arena->peak_bytes : std::size_t{0});
  j.member("arena_blocks", arena != nullptr ? arena->blocks : std::size_t{0});
  j.end_object();
  out << '\n';
}

/// The three passes shared by both replays. `make` builds fresh replay
/// state; `step(state, tracer, i, tally)` replays input i.
template <typename Make, typename Step>
int three_passes(const args& a, std::size_t inputs, Make make, Step step) {
  const double budget_s = a.num("seconds", 6) / 3;
  const auto min_requests = static_cast<std::size_t>(a.num("min-requests", 0));

  std::size_t k = 0;
  {
    auto state = make();
    tracer off;
    tallies ignored;
    const std::int64_t t0 = now_ns();
    while (k < inputs && (k < min_requests || (now_ns() - t0) < budget_s * 1e9))
      step(*state, off, k++, ignored);
  }
  tracer on;
  on.enabled = true;
  tallies tally;
  auto traced_state = make();
  const std::int64_t t1 = now_ns();
  for (std::size_t i = 0; i < k; ++i) {
    tally.count_stats = i < min_requests;
    step(*traced_state, on, i, tally);
  }
  const double traced_s = static_cast<double>(now_ns() - t1) / 1e9;

  double untraced_s = 0;
  {
    auto state = make();
    tracer off;
    tallies ignored;
    const std::int64_t t2 = now_ns();
    for (std::size_t i = 0; i < k; ++i) step(*state, off, i, ignored);
    untraced_s = static_cast<double>(now_ns() - t2) / 1e9;
  }
  on.write(a.need("spans"));
  write_summary(a.need("summary"), k, traced_s, untraced_s, tally,
                traced_state->context());
  return tally.soft_mismatch == 0 ? 0 : 3;
}

struct serve_state {
  serve_state(const args& a, const std::string& disk_dir)
      : replay(static_cast<std::size_t>(a.num("cache-mb", 64)) << 20, disk_dir) {}
  serve_replay replay;
  const ss::run_context* context() const { return &replay.context(); }
};

struct dse_state {
  ss::run_context ctx{ss::arena_mode::on};
  const ss::run_context* context() const { return &ctx; }
};

se::axis_range axis(const std::string& spec) {
  const auto colon = spec.find(':');
  if (colon == std::string::npos) return {std::stoi(spec), std::stoi(spec)};
  return {std::stoi(spec.substr(0, colon)), std::stoi(spec.substr(colon + 1))};
}

} // namespace

int run_trace_serve(const args& a) {
  const std::vector<std::string> requests = read_lines(a.need("requests"));
  const std::string disk_root = a.str("disk-dir", "");
  int pass = 0;
  return three_passes(
      a, requests.size(),
      [&] {
        // Every pass starts from an empty disk tier of its own.
        std::string dir;
        if (!disk_root.empty()) {
          dir = disk_root + "/pass" + std::to_string(pass++);
          std::filesystem::remove_all(dir);
          std::filesystem::create_directories(dir);
        }
        return std::make_unique<serve_state>(a, dir);
      },
      [&](serve_state& s, tracer& t, std::size_t i, tallies& tally) {
        s.replay.run(t, static_cast<std::uint32_t>(i), requests[i], tally);
      });
}

int run_trace_dse(const args& a) {
  se::grid_spec spec;
  spec.design.random_vertices = static_cast<int>(a.num("random", 800));
  spec.design.seed = static_cast<std::uint64_t>(a.num("seed", 1));
  spec.alus = axis(a.need("alus"));
  spec.muls = axis(a.need("muls"));
  spec.mems = {1, 1};
  spec.mul_latency = axis(a.need("mul-lat"));
  std::vector<std::string> backends;
  std::stringstream list(a.need("backends"));
  for (std::string name; std::getline(list, name, ',');) backends.push_back(name);
  const std::vector<se::design_point> points = se::enumerate_grid(spec);
  // Point-major, backend-minor: any prefix covers every backend evenly.
  return three_passes(
      a, points.size() * backends.size(), [] { return std::make_unique<dse_state>(); },
      [&](dse_state& s, tracer& t, std::size_t i, tallies& tally) {
        const se::design_point& point = points[i / backends.size()];
        const std::string& name = backends[i % backends.size()];
        t.begin_request(static_cast<std::uint32_t>(i));
        const tracer::scope root(t, "request");
        se::point_result r;
        {
          const tracer::scope span(t, "explore.run_point." + name);
          r = se::run_point(spec, point, ss::get_backend(name), {}, s.ctx);
        }
        if (tally.count_stats && name == "soft") add_stats(tally.soft_stats, r.stats);
      });
}

} // namespace perfbench
