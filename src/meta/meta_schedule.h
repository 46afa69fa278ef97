// meta_schedule.h - the meta schedule of Definition 2: the order in which
// operations are fed to the online scheduler. Section 5 evaluates four:
//
//   1. depth-first traversal of the precedence graph,
//   2. topological order,
//   3. path partition, paths fed longest-first,
//   4. a list-scheduling-like priority order.
//
// A random order is provided on top for the property tests and the
// meta-sensitivity ablation (bench/meta_ablation): soft scheduling must
// stay *correct* under any permutation; quality is what varies.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "graph/precedence_graph.h"
#include "util/rng.h"

namespace softsched::meta {

using graph::precedence_graph;
using graph::vertex_id;

/// The meta schedules of the paper's Figure 3, plus `random`.
enum class meta_kind {
  depth_first,   ///< meta sched 1
  topological,   ///< meta sched 2
  path_based,    ///< meta sched 3
  list_priority, ///< meta sched 4
  random,        ///< extension: uniform random permutation
};

inline constexpr meta_kind figure3_meta_kinds[] = {
    meta_kind::depth_first, meta_kind::topological, meta_kind::path_based,
    meta_kind::list_priority};

/// Paper-style display name ("meta sched1" ... "meta sched4", "random").
[[nodiscard]] std::string_view meta_name(meta_kind kind) noexcept;

/// The short name users type ("dfs", "topo", "path", "list", "random"),
/// shared by the CLI's --meta and the serve request's "meta" field;
/// nullopt for any other text. Callers that need a reproducible schedule
/// reject `random` themselves.
[[nodiscard]] std::optional<meta_kind> meta_kind_named(std::string_view name) noexcept;

/// Computes the vertex order for a deterministic meta schedule. `kind`
/// must not be meta_kind::random (that overload needs an rng).
[[nodiscard]] std::vector<vertex_id> meta_schedule(const precedence_graph& g,
                                                   meta_kind kind);

/// Internal buffers of the allocation-free meta_schedule overload. One
/// instance per worker (it lives inside sched::run_context); reuse across
/// runs is what keeps the serve hot path heap-silent.
struct meta_scratch {
  std::vector<long long> tdist;
  std::vector<std::int32_t> topo;
  std::vector<std::int32_t> degree;
  std::vector<std::pair<long long, std::uint32_t>> heap;
};

/// Allocation-free variant: clears `out` and fills it with the same order
/// meta_schedule(g, kind) returns, reusing `out` and `scratch` capacity.
/// (list_priority runs entirely on the scratch buffers - it is the serve
/// default; the other kinds fall back to the allocating helpers.)
void meta_schedule(const precedence_graph& g, meta_kind kind, meta_scratch& scratch,
                   std::vector<vertex_id>& out);

/// Random meta order.
[[nodiscard]] std::vector<vertex_id> random_meta_schedule(const precedence_graph& g,
                                                          rng& rand);

/// Meta schedule 4 in isolation: topological order whose ready set is
/// prioritized by descending sink distance (critical-path-first), the same
/// priority the hard list scheduler uses - making Figure 3 an
/// equal-priority comparison.
[[nodiscard]] std::vector<vertex_id> list_priority_order(const precedence_graph& g);

} // namespace softsched::meta
