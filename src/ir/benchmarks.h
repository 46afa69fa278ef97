// benchmarks.h - the HLSynth-era benchmark dataflow graphs evaluated in the
// paper's Figure 3 (HAL, AR, EF, FIR), the worked example of Figure 1, and
// parameterized generators for the extended experiments.
//
// The original UCI benchmark netlists are not distributed with the paper;
// these are canonical reconstructions from the published literature (op
// counts and delay model match the standard suite; see docs/DESIGN.md §2).
#pragma once

#include <string>
#include <vector>

#include "ir/dfg.h"

namespace softsched::ir {

/// HAL differential-equation solver (Paulin & Knight): 11 operations -
/// 6 multiplies, 2 subtracts, 2 adds, 1 compare. Computes one Euler step of
///   x' = x + dx;  u' = u - 3*x*u*dx - 3*y*dx;  y' = y + u*dx;  c = x' < a.
[[nodiscard]] dfg make_hal(const resource_library& library);

/// AR (auto-regression) lattice filter: 28 operations - 16 multiplies and
/// 12 adds arranged in two multiply stages with pairwise add reductions.
[[nodiscard]] dfg make_arf(const resource_library& library);

/// EF - fifth-order elliptic wave filter: 34 operations - 26 adds and
/// 8 multiplies; critical path 17 cycles under the standard delay model
/// (add = 1, multiply = 2), the classic EWF minimum-latency figure.
[[nodiscard]] dfg make_ewf(const resource_library& library);

/// FIR filter, 8 taps with a balanced adder tree: 8 multiplies + 7 adds.
[[nodiscard]] dfg make_fir8(const resource_library& library);

/// Parameterized FIR (taps >= 1): taps multiplies + (taps-1) tree adds.
[[nodiscard]] dfg make_fir(const resource_library& library, int taps);

/// Parameterized cascade of IIR biquad sections (extended workload, not in
/// the paper): each section is 4 multiplies + 4 adds chained section to
/// section, stressing serial mul/add interleave.
[[nodiscard]] dfg make_iir_cascade(const resource_library& library, int sections);

/// The 7-vertex running example of the paper's Figure 1 (unit delays).
/// Vertices are named "1".."7"; edges: 1->2, 1->3, 2->4, 3->6, 4->6, 6->7,
/// 5->7. Its ALAP hard schedule takes 5 states; spilling vertex 3's value
/// adds a store+load on the 3->6 dependence (6 states); a one-cycle wire
/// delay on 3->6 keeps 5 states - the numbers the paper's Section 1 and 4.1
/// walk through.
[[nodiscard]] dfg make_figure1(const resource_library& library);

/// The largest design a name or request may ask for, in operations: the
/// ceiling of the random family ("random" serve field, --bench random<N>)
/// and of the fir<N>/iir<N> sizes, so one request cannot exhaust memory.
inline constexpr int max_design_ops = 200000;

/// Benchmark lookup by CLI-style name: "hal", "arf", "ewf", "fig1",
/// "fir<N>" (e.g. "fir8"), "iir<N>". One parser shared by softsched_cli,
/// the serve engine and the design-space exploration engine. N is a strict
/// decimal (no sign, no trailing text) bounded so the design has at most
/// max_design_ops operations. Throws precondition_error on an unknown name
/// or a malformed or out-of-range parameter.
[[nodiscard]] dfg make_benchmark(const std::string& name,
                                 const resource_library& library);

/// Throws exactly what make_benchmark(name, ...) would for a bad name,
/// without building the design (the CLI's up-front flag check).
void check_benchmark_name(const std::string& name);

/// Vertex handle lookup by the diagnostic name assigned at construction.
/// Throws precondition_error if absent.
[[nodiscard]] vertex_id find_op(const dfg& graph, const std::string& name);

/// The four Figure-3 benchmarks, in table order (HAL, AR, EF, FIR).
[[nodiscard]] std::vector<dfg> figure3_benchmarks(const resource_library& library);

} // namespace softsched::ir
