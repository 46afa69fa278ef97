#include "serve/engine.h"

#include <ostream>
#include <utility>

#include "explore/dse.h"
#include "sched/backend.h"
#include "util/check.h"

namespace softsched::serve {

/// Runs the request's scheduler backend, share-nothing (private library,
/// DFG and whatever state the backend builds - the same isolation argument
/// as explore::run_point, so outcomes are identical for any worker count;
/// registry backends are stateless). Infeasible allocations are a
/// cacheable outcome, not an error.
///
/// Scheduling happens *in canonical space*: the request's DFG is rebuilt
/// with vertices renumbered into the canonical order behind its digest
/// (`canonical_of`: source vertex id -> canonical index), and the result
/// arrays are canonical-indexed. Isomorphic submissions rebuild identical
/// labelled graphs, so the cached outcome is a pure function of the cache
/// key even though every scheduler (meta orders, priority and select
/// tie-breaks) is sensitive to vertex numbering - without this step,
/// serving request B a result computed from an isomorphic-but-renumbered
/// request A would both misalign the arrays and break cache-size
/// independence.
schedule_result compute_canonical_schedule(const request& req, const source_design& source,
                                           const std::vector<std::uint32_t>& canonical_of,
                                           sched::run_context& ctx) {
  schedule_result r;
  std::vector<graph::vertex_id> order(source.design.op_count());
  for (std::size_t src = 0; src < canonical_of.size(); ++src)
    order[canonical_of[src]] = graph::vertex_id(static_cast<std::uint32_t>(src));
  const ir::dfg design = ir::canonical_form(source.design, order, source.library);
  r.ops = design.op_count();
  sched::backend_options options;
  options.meta = req.meta;
  options.iter_budget = req.iter_budget;
  sched::backend_outcome outcome =
      sched::get_backend(req.backend)
          .run({design, source.library, req.resources, options}, ctx);
  r.feasible = outcome.feasible;
  r.infeasible_reason = std::move(outcome.infeasible_reason);
  r.latency = outcome.latency;
  r.start_times = std::move(outcome.start_times);
  r.unit_of = std::move(outcome.unit_of);
  r.stats = outcome.stats;
  return r;
}

schedule_result compute_canonical_schedule(const request& req,
                                           const std::vector<std::uint32_t>& canonical_of,
                                           sched::run_context& ctx) {
  return compute_canonical_schedule(req, source_design(req), canonical_of, ctx);
}

schedule_result compute_canonical_schedule(const request& req,
                                           const std::vector<std::uint32_t>& canonical_of) {
  sched::run_context ctx(sched::arena_mode::off); // one-shot: skip the block grab
  return compute_canonical_schedule(req, canonical_of, ctx);
}

schedule_result result_to_source_order(const schedule_result& canonical,
                                       const std::vector<std::uint32_t>& canonical_of) {
  schedule_result r = canonical; // scalars + stats; arrays rewritten below
  // Infeasible outcomes carry no arrays; feasible ones one entry per op.
  if (!r.start_times.empty()) r.start_times = canonical.start_times.permuted(canonical_of);
  if (!r.unit_of.empty()) r.unit_of = canonical.unit_of.permuted(canonical_of);
  return r;
}

namespace {

ir::resource_library library_for(const request& req) {
  ir::resource_library library;
  library.set_latency(ir::op_kind::mul, req.mul_latency);
  return library;
}

} // namespace

source_design::source_design(const request& req)
    : library(library_for(req)), design(build_request_design(req, library)) {}

source_info hash_request_source(const request& req, std::optional<source_design>& built) {
  source_info info;
  try {
    const ir::dfg& design = built.emplace(req).design;
    const std::vector<graph::vertex_id> order = ir::canonical_topo_order(design);
    info.digest = ir::canonical_dfg_digest(design, order);
    info.canonical_of.resize(order.size());
    for (std::size_t ci = 0; ci < order.size(); ++ci)
      info.canonical_of[order[ci].value()] = static_cast<std::uint32_t>(ci);
  } catch (const std::exception& e) {
    built.reset();
    info.error = e.what();
  }
  return info;
}

source_info hash_request_source(const request& req) {
  std::optional<source_design> built;
  return hash_request_source(req, built);
}

ir::dfg_digest schedule_key_for(const request& req, const ir::dfg_digest& digest) {
  return ir::schedule_key(
      digest, req.resources,
      sched::backend_option_salt(sched::get_backend(req.backend), req.meta,
                                 req.iter_budget));
}

bool response::same_payload(const response& other) const {
  return line == other.line && id == other.id && error == other.error &&
         retry_after_ms == other.retry_after_ms && backend == other.backend &&
         key == other.key && result.same_schedule(other.result);
}

void write_response_line(std::ostream& out, const response& r, bool emit_schedule) {
  json_writer j(out, /*compact=*/true);
  j.begin_object();
  j.member("line", r.line);
  j.member("id", r.id);
  if (!r.error.empty()) {
    j.member("error", r.error);
    if (r.retry_after_ms > 0) j.member("retry_after_ms", r.retry_after_ms);
  } else {
    j.member("backend", r.backend);
    j.member("key", r.key.hex());
    j.member("ops", r.result.ops);
    j.member("feasible", r.result.feasible);
    if (r.result.feasible) {
      j.member("latency", r.result.latency);
      if (emit_schedule) {
        j.key("start");
        j.begin_array();
        for (const long long s : r.result.start_times) j.value(s);
        j.end_array();
        j.key("unit");
        j.begin_array();
        for (const long long u : r.result.unit_of) j.value(u);
        j.end_array();
      }
      j.key("stats");
      explore::write_schedule_stats(j, r.result.stats);
    } else {
      j.member("infeasible_reason", r.result.infeasible_reason);
    }
  }
  j.member("ms", r.ms);
  j.end_object();
  SOFTSCHED_EXPECT(j.done(), "serve: response serialization left JSON open");
}

} // namespace softsched::serve
