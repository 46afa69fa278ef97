// request.h - the JSONL request schema of the batch scheduling service and
// its strict parser. One request = one JSON object per input line:
//
//   {"id": "q1", "bench": "ewf", "alus": 2, "muls": 2, "mems": 1,
//    "mul_latency": 2, "meta": "list"}
//   {"id": "q2", "random": 600, "seed": 7, "edge_prob": 0.25, "alus": 3}
//   {"id": "q3", "dfg": "dfg t\nop a add\nop b add a\n", "backend": "list"}
//
// Exactly one of "bench" / "random" / "dfg" names the design; everything
// else is optional with the CLI's defaults. "backend" picks the scheduler
// backend by registry name (sched::backend_names(); default "soft").
// Unknown keys are rejected (a typo must surface as an error response, not
// as a silently-default schedule). The full schema is documented in
// docs/SERVING.md.
#pragma once

#include <cstdint>
#include <string>

#include "explore/grid.h"
#include "ir/dfg.h"
#include "meta/meta_schedule.h"
#include "util/json_parse.h"

namespace softsched::serve {

/// Ranges of the numeric request fields. The CLI flags of the same name
/// (--alus/--muls/--mems and their -range axes, --seed, --mul-lat-range)
/// accept exactly these ranges.
inline constexpr int max_units = 1'000'000;      ///< "alus" / "muls" / "mems"
inline constexpr long long max_seed = 1LL << 53; ///< "seed": exact as a JSON number
inline constexpr int min_mul_latency = 1;        ///< "mul_latency" lower bound
inline constexpr int max_mul_latency = 64;       ///< "mul_latency" upper bound

/// One parsed scheduling request.
struct request {
  std::string id;               ///< client echo token; service defaults to "line<N>"
  explore::design_spec design;  ///< bench / random source (unused when dfg_text set)
  std::string dfg_text;         ///< inline .dfg format source (dfg_io)
  ir::resource_set resources{2, 2, 1};
  int mul_latency = 2;
  meta::meta_kind meta = meta::meta_kind::list_priority; ///< never `random`
  /// Scheduler backend (registry name); validated at parse time, mixed
  /// into the schedule cache key so backends never share cache entries.
  std::string backend = "soft";
  /// Iteration budget for iterative backends (sdc-iter); -1 = backend
  /// default. Only valid when the named backend is iterative, and mixed
  /// into the cache key so budget sweeps never coalesce.
  long long iter_budget = -1;

  /// Canonical description of the *design source* (not the allocation):
  /// two requests with equal source signatures build byte-identical DFGs.
  /// The service memoizes source signature -> canonical digest so the hot
  /// path hashes each distinct design once, not once per request.
  [[nodiscard]] std::string source_signature() const;
};

/// Parses one request object. Throws json_error with a field-level message
/// on malformed input: wrong types, out-of-range values, zero or multiple
/// design sources, unknown keys, or meta "random" (a served schedule must
/// be reproducible from the request alone).
[[nodiscard]] request parse_request(const json_value& object);

/// Convenience: parse the JSON text of one request line.
[[nodiscard]] request parse_request_line(std::string_view text);

/// Meta-kind name used by the request schema ("dfs", "topo", "path",
/// "list"). Throws json_error for anything else, including "random".
[[nodiscard]] meta::meta_kind parse_request_meta(const std::string& name);

/// Builds the request's DFG against `library` (which the caller must have
/// configured with the request's mul_latency and must keep alive). Throws
/// graph_error / precondition_error on an invalid inline DFG or unknown
/// benchmark.
[[nodiscard]] ir::dfg build_request_design(const request& req,
                                           const ir::resource_library& library);

} // namespace softsched::serve
