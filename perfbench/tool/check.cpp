// check.cpp - the independent output check, and the renumbered-upload
// generator that needs the IR to write designs.
//
// Every answer is judged against the request that asked for it: the design
// is rebuilt from the request, the returned start times are validated by
// hard::validate_schedule under the request's allocation, and `latency`
// must equal the makespan of those start times. An infeasible answer is
// accepted only when the design needs a class the allocation has zero
// units of. Verdicts:
//
//   ok     the answer is a checked schedule (or a justified infeasible)
//   fail   the program did not deliver: an error / shed response, or an
//          infeasible answer with every needed class present
//   wrong  the program delivered something false: an illegal schedule, a
//          latency that is not its makespan, a malformed result
//
// Beside each verdict goes the design's serial length (every op one after
// another): the fixed QoR penalty a failed or infeasible answer is charged.
#include <atomic>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "explore/dse.h"
#include "explore/grid.h"
#include "hard/schedule.h"
#include "ir/dfg_io.h"
#include "sched/backend.h"
#include "serve/request.h"
#include "util/json.h"
#include "util/json_parse.h"
#include "util/rng.h"

namespace perfbench {

namespace {

namespace si = softsched::ir;
namespace sv = softsched::serve;
namespace ss = softsched::sched;
namespace se = softsched::explore;

struct verdict {
  std::string kind = "ok"; ///< ok | fail | wrong
  std::string reason;
  long long serial = 0; ///< serial_length of the judged design
};

verdict make(std::string kind, std::string reason) {
  return {std::move(kind), std::move(reason)};
}

/// The makespan of running every op of `d` one after another.
long long serial_length(const si::dfg& d) {
  long long total = 0;
  for (const auto v : d.graph().vertices()) total += d.graph().delay(v);
  return total;
}

/// True when the design needs some unit class the allocation has none of -
/// the only legitimate reason to answer "infeasible".
bool lacks_needed_class(const si::dfg& d, const si::resource_set& r) {
  for (const auto cls : {si::resource_class::alu, si::resource_class::multiplier,
                         si::resource_class::memory_port})
    if (d.count_class(cls) > 0 && r.count(cls) == 0) return true;
  return false;
}

/// Judges one (start, unit, latency) answer for design `d` under `r`.
verdict check_schedule(const si::dfg& d, const si::resource_set& r,
                       const std::vector<long long>& start, const std::vector<int>& unit,
                       long long latency) {
  if (start.size() != d.op_count() || unit.size() != d.op_count())
    return make("wrong", "schedule arrays do not cover every op");
  softsched::hard::schedule s{start, unit, 0};
  for (std::size_t i = 0; i < start.size(); ++i)
    s.makespan = std::max(s.makespan,
                          start[i] + d.graph().delay(softsched::graph::vertex_id(
                                         static_cast<std::uint32_t>(i))));
  const auto violations = softsched::hard::validate_schedule(d, s, &r);
  if (!violations.empty()) return make("wrong", "illegal schedule: " + violations.front());
  if (s.makespan != latency)
    return make("wrong", "latency " + std::to_string(latency) + " != makespan " +
                             std::to_string(s.makespan));
  return {};
}

template <typename T>
std::vector<T> int_array(const softsched::json_value* v) {
  std::vector<T> out;
  if (v == nullptr || !v->is_array()) return out;
  for (const auto& item : v->items())
    out.push_back(static_cast<T>(item.as_integer(-1, 1LL << 40)));
  return out;
}

verdict check_answer(const sv::request& req, const si::dfg& design,
                     const std::string& response_text) {
  if (response_text.empty()) return make("fail", "unanswered");
  const softsched::json_value resp = softsched::parse_json(response_text);
  if (const auto* error = resp.find("error"))
    return make("fail", "error: " + error->as_string());
  const auto* backend = resp.find("backend");
  if (backend == nullptr || backend->as_string() != req.backend)
    return make("wrong", "backend not echoed");
  const auto* key = resp.find("key");
  if (key == nullptr || key->as_string().size() != 32) return make("wrong", "no cache key");
  const auto* ops = resp.find("ops");
  if (ops == nullptr || ops->as_integer(0, 1LL << 40) !=
                            static_cast<long long>(design.op_count()))
    return make("wrong", "op count differs from the request's design");
  const auto* feasible = resp.find("feasible");
  if (feasible == nullptr) return make("wrong", "no feasible field");
  if (!feasible->as_bool())
    return lacks_needed_class(design, req.resources)
               ? verdict{}
               : make("fail", "spurious infeasible");
  const auto* latency = resp.find("latency");
  if (latency == nullptr || resp.find("stats") == nullptr)
    return make("wrong", "feasible answer without latency/stats");
  return check_schedule(design, req.resources, int_array<long long>(resp.find("start")),
                        int_array<int>(resp.find("unit")),
                        latency->as_integer(0, 1LL << 40));
}

/// True when a report's stats object carries exactly the counters the
/// shared writer (explore::write_schedule_stats) emits for `s`.
bool same_stats(const softsched::json_value* reported, const softsched::core::schedule_stats& s) {
  if (reported == nullptr || !reported->is_object()) return false;
  std::ostringstream text;
  softsched::json_writer j(text, /*compact=*/true);
  se::write_schedule_stats(j, s);
  const softsched::json_value expected = softsched::parse_json(text.str());
  if (expected.members().size() != reported->members().size()) return false;
  for (const auto& [name, value] : expected.members()) {
    const auto* got = reported->find(name);
    if (got == nullptr || !got->is_number() || got->as_number() != value.as_number())
      return false;
  }
  return true;
}

/// Runs `body(i)` for i in [0, n) on `jobs` threads.
template <typename Body>
void parallel_for(std::size_t n, int jobs, Body body) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(1, jobs); ++t)
    pool.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) body(i);
    });
  for (auto& t : pool) t.join();
}

} // namespace

// Input lines: tag \t request-json \t response-json (response may be empty).
// Output lines: tag \t verdict \t serial length \t reason.
int run_check(const args& a) {
  const std::vector<std::string> lines = read_lines(a.need("input"));
  std::vector<std::string> out(lines.size());
  parallel_for(lines.size(), static_cast<int>(a.num("jobs", 4)), [&](std::size_t i) {
    const std::string& line = lines[i];
    const std::size_t t1 = line.find('\t');
    const std::size_t t2 = line.find('\t', t1 + 1);
    verdict v;
    try {
      if (t1 == std::string::npos || t2 == std::string::npos)
        throw std::runtime_error("malformed check input line");
      const sv::request req = sv::parse_request_line(line.substr(t1 + 1, t2 - t1 - 1));
      si::resource_library library;
      library.set_latency(si::op_kind::mul, req.mul_latency);
      const si::dfg design = sv::build_request_design(req, library);
      v = check_answer(req, design, line.substr(t2 + 1));
      v.serial = serial_length(design);
    } catch (const std::exception& e) {
      v = make("wrong", std::string("unreadable answer: ") + e.what());
    }
    out[i] = line.substr(0, t1) + '\t' + v.kind + '\t' + std::to_string(v.serial) + '\t' +
             v.reason;
  });
  std::ofstream file(a.need("out"));
  for (const auto& o : out) file << o << '\n';
  return file ? 0 : 1;
}

// Re-runs every point of an --explore report through the backend registry,
// validates the schedule it produces and requires the report's feasible /
// latency / stats to match. Output lines: index \t backend \t verdict \t
// serial length \t reason.
int run_check_dse(const args& a) {
  std::ifstream in(a.need("report"));
  std::stringstream text;
  text << in.rdbuf();
  const softsched::json_value report = softsched::parse_json(text.str());
  se::design_spec spec;
  spec.random_vertices = static_cast<int>(a.num("random", 800));
  spec.seed = static_cast<std::uint64_t>(a.num("seed", 1));
  const auto& points = report.find("points")->items();

  std::vector<std::string> out(points.size());
  parallel_for(points.size(), static_cast<int>(a.num("jobs", 4)), [&](std::size_t i) {
    const softsched::json_value& p = points[i];
    const std::string backend_name = p.find("backend")->as_string();
    verdict v;
    try {
      se::design_point point;
      point.resources = {static_cast<int>(p.find("alus")->as_integer(0, 1 << 20)),
                         static_cast<int>(p.find("muls")->as_integer(0, 1 << 20)),
                         static_cast<int>(p.find("mems")->as_integer(0, 1 << 20))};
      point.mul_latency = static_cast<int>(p.find("mul_latency")->as_integer(1, 64));
      point.iter_budget = static_cast<int>(p.find("iter_budget")->as_integer(-1, 1024));
      si::resource_library library;
      se::apply_point_latency(point, library);
      const si::dfg design = se::build_design(spec, library);
      ss::backend_options options;
      if (point.iter_budget >= 0) options.iter_budget = point.iter_budget;
      ss::run_context ctx(ss::arena_mode::off);
      const ss::backend_outcome outcome =
          ss::get_backend(backend_name).run({design, library, point.resources, options}, ctx);
      const bool feasible = p.find("feasible")->as_bool();
      if (!feasible) {
        v = lacks_needed_class(design, point.resources) ? verdict{}
                                                        : make("fail", "spurious infeasible");
      } else if (!outcome.feasible) {
        v = make("wrong", "reported feasible, reruns infeasible");
      } else {
        const long long latency = p.find("latency")->as_integer(0, 1LL << 40);
        v = check_schedule(design, point.resources, outcome.start_times, outcome.unit_of,
                           outcome.latency);
        if (v.kind == "ok" && latency != outcome.latency)
          v = make("wrong", "reported latency " + std::to_string(latency) +
                                " != rerun " + std::to_string(outcome.latency));
        if (v.kind == "ok" && !same_stats(p.find("stats"), outcome.stats))
          v = make("wrong", "reported schedule_stats differ from the rerun");
      }
      v.serial = serial_length(design);
    } catch (const std::exception& e) {
      v = make("wrong", std::string("unreadable point: ") + e.what());
    }
    out[i] = std::to_string(i) + '\t' + backend_name + '\t' + v.kind + '\t' +
             std::to_string(v.serial) + '\t' + v.reason;
  });
  std::ofstream file(a.need("out"));
  for (const auto& o : out) file << o << '\n';
  return file ? 0 : 1;
}

// Input lines: seed \t request-json naming a bench/random design. Output:
// one JSON string per line - the design as .dfg text, its vertices
// renumbered into a random topological order and renamed, so the upload
// differs byte-wise from every other but is isomorphic to the request's.
int run_renumber(const args& a) {
  const std::vector<std::string> lines = read_lines(a.need("input"));
  std::ofstream file(a.need("out"));
  for (const std::string& line : lines) {
    const std::size_t tab = line.find('\t');
    softsched::rng rand(std::stoull(line.substr(0, tab)));
    const sv::request req = sv::parse_request_line(line.substr(tab + 1));
    si::resource_library library;
    library.set_latency(si::op_kind::mul, req.mul_latency);
    const si::dfg source = sv::build_request_design(req, library);
    const auto& g = source.graph();
    const std::size_t n = source.op_count();

    // Kahn's algorithm with a random pick from the ready set.
    std::vector<std::size_t> indegree(n, 0);
    for (const auto v : g.vertices()) indegree[v.value()] = g.preds(v).size();
    std::vector<softsched::graph::vertex_id> ready;
    for (const auto v : g.vertices())
      if (indegree[v.value()] == 0) ready.push_back(v);
    std::vector<std::uint32_t> names(n);
    for (std::uint32_t i = 0; i < n; ++i) names[i] = i;
    rand.shuffle(names);
    // Names are built by appending: `"u" + std::to_string(...)` trips a
    // false -Wrestrict in GCC 12's inlined string insert.
    std::string design_name = "u";
    design_name += std::to_string(rand.below(1u << 30));
    si::dfg renumbered(design_name, library);
    std::vector<softsched::graph::vertex_id> image(n);
    std::vector<softsched::graph::vertex_id> inputs;
    while (!ready.empty()) {
      const std::size_t pick = rand.below(ready.size());
      const auto v = ready[pick];
      ready[pick] = ready.back();
      ready.pop_back();
      inputs.clear();
      for (const auto p : g.preds(v)) inputs.push_back(image[p.value()]);
      std::string op_name = "n";
      op_name += std::to_string(names[v.value()]);
      image[v.value()] = renumbered.add_op(
          source.kind(v), std::span<const softsched::graph::vertex_id>(inputs), op_name);
      for (const auto s : g.succs(v))
        if (--indegree[s.value()] == 0) ready.push_back(s);
    }
    std::ostringstream dfg_text;
    si::write_dfg(dfg_text, renumbered);
    softsched::json_writer j(file, /*compact=*/true);
    j.value(dfg_text.str());
    file << '\n';
  }
  return file ? 0 : 1;
}

} // namespace perfbench
