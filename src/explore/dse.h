// dse.h - the design-space exploration engine: fan one design out over a
// resource/latency grid on the FIFO thread pool, soft-schedule
// every point, and reduce the outcomes to an area/latency Pareto frontier.
//
// Concurrency contract (docs/DESIGN.md §5): a grid point is a share-nothing
// job. Each job builds its own resource library, its own DFG, and its own
// threaded state, and writes into a result slot pre-allocated at its grid
// index; the only cross-thread communication is the pool's queue and the
// final join. Consequently the *values* in an exploration_result - points,
// schedules, frontier - are a pure function of (grid_spec, meta kind) and
// identical for any worker count; only the wall-clock fields vary.
#pragma once

#include <string>
#include <vector>

#include "core/threaded_graph.h"
#include "explore/grid.h"
#include "explore/pareto.h"
#include "meta/meta_schedule.h"
#include "sched/backend.h"
#include "util/json.h"

namespace softsched::explore {

/// Outcome of scheduling one grid point with one backend.
struct point_result {
  design_point point;
  std::string backend = "soft"; ///< scheduler backend that produced this point
  bool feasible = false;
  std::string infeasible_reason; ///< set iff !feasible
  std::size_t ops = 0;
  long long latency = -1; ///< final ||S|| in states; -1 when infeasible
  long long area = 0;     ///< allocation_area(point.resources)
  double wall_ms = 0;     ///< this job's scheduling time (timing only -
                          ///< excluded from determinism comparisons)
  core::schedule_stats stats;
  std::vector<long long> start_times; ///< per-op ASAP start cycle
  std::vector<int> unit_of;           ///< per-op thread (functional unit)

  /// Value equality ignoring the wall-clock field: the determinism witness
  /// the jobs-1-vs-jobs-N property checks per point.
  [[nodiscard]] bool same_schedule(const point_result& other) const;
};

struct exploration_result {
  /// Backend names actually explored, in option order (default {"soft"}).
  std::vector<std::string> backends;
  /// Backend-major: backend b's outcomes occupy the contiguous block
  /// [b·P, (b+1)·P) in grid enumeration order, P = point_count(spec).
  std::vector<point_result> points;
  /// One Pareto frontier per backend (indices into `points`) - a single
  /// grid run emits the per-backend frontiers side by side.
  std::vector<std::vector<int>> frontiers;
  std::vector<int> frontier; ///< frontiers[0], kept for single-backend callers
  unsigned jobs = 1;         ///< worker count actually used
  double wall_ms = 0;        ///< whole-exploration wall time

  [[nodiscard]] std::size_t feasible_count() const;
  [[nodiscard]] double points_per_sec() const;

  /// True iff every point's schedule and the frontier match (timings and
  /// worker counts are ignored).
  [[nodiscard]] bool same_outcome(const exploration_result& other) const;
};

struct exploration_options {
  int jobs = 0; ///< worker threads; < 1 means thread_pool::hardware_workers()
  meta::meta_kind meta = meta::meta_kind::list_priority; ///< not `random`
  /// Scheduler backends to fan the grid out over (registry names, see
  /// sched::backend_names()); empty means {"soft"}. Unknown names throw
  /// precondition_error before any point runs.
  std::vector<std::string> backends = {};
  /// Baseline iteration budget for iterative backends when the grid's
  /// iter_budget axis is off; -1 = backend default. A point on the axis
  /// overrides this per point.
  long long iter_budget = -1;
  /// Per-worker run_context arenas (off = the heap baseline); never changes
  /// a point's values - the jobs-1-vs-jobs-N property holds either way.
  bool arena = true;
  std::size_t arena_block_bytes = 0; ///< 0 = util::arena::default_block_bytes
};

/// Schedules one grid point in isolation with the soft scheduler (also the
/// body each pool job runs). Infeasible allocations - a resource class the
/// design needs with zero units - come back with feasible = false, not an
/// exception.
[[nodiscard]] point_result run_point(const grid_spec& spec, const design_point& point,
                                     meta::meta_kind meta);

/// Backend-parameterized variant: same isolation contract, any registered
/// scheduler backend. `ctx` is the calling worker's scratch (the engine
/// keeps one per pool worker); it never changes the point's values, only
/// where the run's memory comes from.
[[nodiscard]] point_result run_point(const grid_spec& spec, const design_point& point,
                                     const sched::scheduler_backend& backend,
                                     const sched::backend_options& options,
                                     sched::run_context& ctx);

/// One-shot variant on a private heap-mode context.
[[nodiscard]] point_result run_point(const grid_spec& spec, const design_point& point,
                                     const sched::scheduler_backend& backend,
                                     const sched::backend_options& options);

/// The engine: enumerate, fan out, reduce.
[[nodiscard]] exploration_result run_exploration(const grid_spec& spec,
                                                 const exploration_options& options = {});

/// JSON report: grid + per-point outcomes (with schedule_stats) + frontier.
/// Emits one object into an already-open writer position.
void write_report(json_writer& j, const grid_spec& spec, const exploration_result& result);

/// One schedule_stats counter block as a JSON object - shared by
/// write_report and the bench harnesses so every report spells the
/// counters the same way.
void write_schedule_stats(json_writer& j, const core::schedule_stats& s);

} // namespace softsched::explore
