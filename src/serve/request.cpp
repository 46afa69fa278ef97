#include "serve/request.h"

#include <bit>
#include <cmath>
#include <optional>

#include "ir/benchmarks.h"
#include "ir/dfg_io.h"
#include "sched/backend.h"

namespace softsched::serve {

namespace {

[[noreturn]] void bad_field(const std::string& key, const std::string& why) {
  throw json_error("request field '" + key + "': " + why);
}

int integer_field(const json_value& v, const std::string& key, long long lo,
                  long long hi) {
  try {
    return static_cast<int>(v.as_integer(lo, hi));
  } catch (const json_error& e) {
    bad_field(key, e.what());
  }
}

} // namespace

std::string request::source_signature() const {
  // The exact constructor arguments of the design, plus the multiplier
  // latency the library bakes into vertex delays. Text-format designs sign
  // with their raw text: byte-identical text parses to an identical graph.
  std::string sig;
  if (!dfg_text.empty()) {
    sig = "dfg:" + dfg_text;
  } else if (!design.bench.empty()) {
    sig = "bench:" + design.bench;
  } else {
    // edge_prob enters as its exact bit pattern: a decimal rendering
    // (std::to_string keeps 6 digits) would collide nearby probabilities
    // into one signature and serve one design's schedule for the other.
    sig = "random:" + std::to_string(design.random_vertices) + ":" +
          std::to_string(design.seed) + ":" +
          std::to_string(std::bit_cast<std::uint64_t>(design.random_edge_prob));
  }
  sig += "#ml" + std::to_string(mul_latency);
  return sig;
}

meta::meta_kind parse_request_meta(const std::string& name) {
  const std::optional<meta::meta_kind> kind = meta::meta_kind_named(name);
  if (!kind || *kind == meta::meta_kind::random)
    throw json_error("unknown meta schedule '" + name +
                     "' (expected dfs|topo|path|list)");
  return *kind;
}

request parse_request(const json_value& object) {
  if (!object.is_object()) throw json_error("request must be a JSON object");
  request req;
  int sources = 0;
  bool saw_seed = false;
  bool saw_edge_prob = false;
  for (const auto& [key, value] : object.members()) {
    if (key == "id") {
      if (!value.is_string()) bad_field(key, "must be a string");
      req.id = value.as_string();
    } else if (key == "bench") {
      if (!value.is_string() || value.as_string().empty())
        bad_field(key, "must be a non-empty benchmark name");
      req.design.bench = value.as_string();
      ++sources;
    } else if (key == "random") {
      req.design.random_vertices = integer_field(value, key, 1, ir::max_design_ops);
      ++sources;
    } else if (key == "dfg") {
      if (!value.is_string() || value.as_string().empty())
        bad_field(key, "must be non-empty .dfg text");
      req.dfg_text = value.as_string();
      ++sources;
    } else if (key == "seed") {
      if (!value.is_number()) bad_field(key, "must be a number");
      const double d = value.as_number();
      // Cap at 2^53: beyond it doubles stop being exact integers, and an
      // unchecked uint64 cast of e.g. 1e300 would be undefined behavior.
      if (d < 0 || d != std::floor(d) || d > static_cast<double>(max_seed))
        bad_field(key, "must be a non-negative integer <= 2^53");
      req.design.seed = static_cast<std::uint64_t>(d);
      saw_seed = true;
    } else if (key == "edge_prob") {
      if (!value.is_number()) bad_field(key, "must be a number");
      const double p = value.as_number();
      if (!(p > 0.0 && p <= 1.0)) bad_field(key, "must be in (0, 1]");
      req.design.random_edge_prob = p;
      saw_edge_prob = true;
    } else if (key == "alus") {
      req.resources.alus = integer_field(value, key, 0, max_units);
    } else if (key == "muls") {
      req.resources.multipliers = integer_field(value, key, 0, max_units);
    } else if (key == "mems") {
      req.resources.memory_ports = integer_field(value, key, 0, max_units);
    } else if (key == "mul_latency") {
      req.mul_latency = integer_field(value, key, min_mul_latency, max_mul_latency);
    } else if (key == "meta") {
      if (!value.is_string()) bad_field(key, "must be a string");
      req.meta = parse_request_meta(value.as_string());
    } else if (key == "backend") {
      if (!value.is_string()) bad_field(key, "must be a string");
      if (sched::find_backend(value.as_string()) == nullptr)
        bad_field(key, "unknown scheduler backend '" + value.as_string() +
                           "' (expected " + sched::backend_names_joined() + ")");
      req.backend = value.as_string();
    } else if (key == "iter_budget") {
      req.iter_budget =
          integer_field(value, key, 0, sched::sdc_iter_max_budget);
    } else {
      throw json_error("unknown request field '" + key + "'");
    }
  }
  if (sources != 1)
    throw json_error("request needs exactly one of 'bench' / 'random' / 'dfg'");
  // Fields that only parameterize the random family must not be silently
  // ignored on other sources - a client who believes `seed` varies the
  // design deserves an error, not an identical schedule back.
  if (req.design.random_vertices == 0) {
    if (saw_seed) bad_field("seed", "only valid with a 'random' design source");
    if (saw_edge_prob)
      bad_field("edge_prob", "only valid with a 'random' design source");
  }
  // Same non-silence rule for the iteration budget: a client sweeping
  // iter_budget against a one-shot backend would get N identical schedules
  // back - surface the mismatch instead.
  if (req.iter_budget >= 0 &&
      !sched::get_backend(req.backend).caps().iterative)
    bad_field("iter_budget", "only valid with an iterative backend (backend '" +
                                 req.backend + "' ignores it)");
  return req;
}

request parse_request_line(std::string_view text) {
  return parse_request(parse_json(text));
}

ir::dfg build_request_design(const request& req, const ir::resource_library& library) {
  if (!req.dfg_text.empty()) return ir::read_dfg_string(req.dfg_text, library);
  return explore::build_design(req.design, library);
}

} // namespace softsched::serve
