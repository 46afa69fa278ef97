#include "ir/benchmarks.h"

#include <charconv>
#include <optional>
#include <string_view>
#include <utility>

#include "util/check.h"

namespace softsched::ir {

dfg make_hal(const resource_library& library) {
  dfg d("HAL", library);
  // x' = x + dx; u' = u - 3*x*u*dx - 3*y*dx; y' = y + u*dx; c = x' < a.
  // Inputs (x, y, u, dx, a, 3) are implicit; source vertices read them.
  const vertex_id m1 = d.add_op(op_kind::mul, {}, "m1"); // 3 * x
  const vertex_id m2 = d.add_op(op_kind::mul, {}, "m2"); // u * dx
  const vertex_id m3 = d.add_op(op_kind::mul, {}, "m3"); // 3 * y
  const vertex_id m4 = d.add_op(op_kind::mul, {m1, m2}, "m4"); // (3x) * (u dx)
  const vertex_id m5 = d.add_op(op_kind::mul, {m3}, "m5");     // (3y) * dx
  const vertex_id m6 = d.add_op(op_kind::mul, {}, "m6");       // u * dx (for y')
  const vertex_id s1 = d.add_op(op_kind::sub, {m4}, "s1");     // u - m4
  d.add_op(op_kind::sub, {s1, m5}, "s2");                      // u' = s1 - m5
  const vertex_id a1 = d.add_op(op_kind::add, {}, "a1");       // x' = x + dx
  d.add_op(op_kind::add, {m6}, "a2");                          // y' = y + m6
  d.add_op(op_kind::compare, {a1}, "c1");                      // x' < a
  d.validate();
  return d;
}

dfg make_arf(const resource_library& library) {
  dfg d("AR", library);
  // Stage 1: eight input products reduced pairwise.
  vertex_id m[17]; // 1-based
  for (int i = 1; i <= 8; ++i)
    m[i] = d.add_op(op_kind::mul, {}, std::string("m") += std::to_string(i));
  const vertex_id a1 = d.add_op(op_kind::add, {m[1], m[2]}, "a1");
  const vertex_id a2 = d.add_op(op_kind::add, {m[3], m[4]}, "a2");
  const vertex_id a3 = d.add_op(op_kind::add, {m[5], m[6]}, "a3");
  const vertex_id a4 = d.add_op(op_kind::add, {m[7], m[8]}, "a4");
  // Stage 2: each partial sum scaled by two lattice coefficients.
  const vertex_id stage2_in[8] = {a1, a1, a2, a2, a3, a3, a4, a4};
  for (int i = 9; i <= 16; ++i)
    m[i] = d.add_op(op_kind::mul, {stage2_in[i - 9]}, std::string("m") += std::to_string(i));
  // Stage 3/4: cross reductions down to the two lattice outputs.
  const vertex_id a5 = d.add_op(op_kind::add, {m[9], m[11]}, "a5");
  const vertex_id a6 = d.add_op(op_kind::add, {m[10], m[12]}, "a6");
  const vertex_id a7 = d.add_op(op_kind::add, {m[13], m[15]}, "a7");
  const vertex_id a8 = d.add_op(op_kind::add, {m[14], m[16]}, "a8");
  const vertex_id a9 = d.add_op(op_kind::add, {a5, a7}, "a9");
  const vertex_id a10 = d.add_op(op_kind::add, {a6, a8}, "a10");
  d.add_op(op_kind::add, {a9, a10}, "a11"); // output 1
  d.add_op(op_kind::add, {a9, a7}, "a12");  // output 2
  d.validate();
  return d;
}

dfg make_ewf(const resource_library& library) {
  dfg d("EF", library);
  // Fifth-order elliptic wave filter: three two-port adaptor sections on a
  // serial spine of 11 adds and 3 multiplies (critical path
  // 11*1 + 3*2 = 17 cycles, the classic EWF minimum-latency figure), with
  // five equal-length fork/join side branches (add -> mul -> add) that
  // shadow the spine segments - they do not stretch the critical path but
  // compete for adders and multipliers exactly where the spine needs them,
  // reproducing the EWF's characteristic resource pressure.
  auto add = [&d](std::initializer_list<vertex_id> in, const char* name) {
    return d.add_op(op_kind::add, in, name);
  };
  auto mul = [&d](std::initializer_list<vertex_id> in, const char* name) {
    return d.add_op(op_kind::mul, in, name);
  };

  // Spine (adaptor ladder).
  const vertex_id s1 = add({}, "s1");
  const vertex_id s2 = add({s1}, "s2");
  const vertex_id M1 = mul({s2}, "M1");
  const vertex_id s3 = add({M1}, "s3");
  // Branch A: s1 -> b1 -> m1 -> b2 rejoins at s4 (length 4 = s2+M1+s3).
  const vertex_id b1 = add({s1}, "b1");
  const vertex_id m1 = mul({b1}, "m1");
  const vertex_id b2 = add({m1}, "b2");
  const vertex_id s4 = add({s3, b2}, "s4");
  // Branch D: s2 -> b7 -> m4 -> b8 rejoins at s5.
  const vertex_id b7 = add({s2}, "b7");
  const vertex_id m4 = mul({b7}, "m4");
  const vertex_id b8 = add({m4}, "b8");
  const vertex_id s5 = add({s4, b8}, "s5");
  const vertex_id M2 = mul({s5}, "M2");
  const vertex_id s6 = add({M2}, "s6");
  // Branch B: s4 -> b3 -> m2 -> b4 rejoins at s7.
  const vertex_id b3 = add({s4}, "b3");
  const vertex_id m2 = mul({b3}, "m2");
  const vertex_id b4 = add({m2}, "b4");
  const vertex_id s7 = add({s6, b4}, "s7");
  // Branch E: s5 -> b9 -> m5 -> b10 rejoins at s8.
  const vertex_id b9 = add({s5}, "b9");
  const vertex_id m5 = mul({b9}, "m5");
  const vertex_id b10 = add({m5}, "b10");
  const vertex_id s8 = add({s7, b10}, "s8");
  const vertex_id M3 = mul({s8}, "M3");
  const vertex_id s9 = add({M3}, "s9");
  // Branch C: s7 -> b5 -> m3 -> b6 rejoins at s10.
  const vertex_id b5 = add({s7}, "b5");
  const vertex_id m3 = mul({b5}, "m3");
  const vertex_id b6 = add({m3}, "b6");
  const vertex_id s10 = add({s9, b6}, "s10");
  add({s10}, "s11"); // output 1
  // Output taps (do not extend the critical path).
  const vertex_id b14 = add({s2}, "b14");
  add({b14}, "b15"); // early output pair
  const vertex_id b12 = add({s7}, "b12");
  add({b12}, "b13"); // mid output pair
  add({s10}, "b11"); // late output tap
  d.validate();
  return d;
}

dfg make_fir(const resource_library& library, int taps) {
  SOFTSCHED_EXPECT(taps >= 1, "FIR needs at least one tap");
  dfg d(std::string("FIR") += std::to_string(taps), library);
  std::vector<vertex_id> level;
  for (int i = 0; i < taps; ++i)
    level.push_back(d.add_op(op_kind::mul, {}, std::string("m") += std::to_string(i + 1)));
  int adder = 1;
  while (level.size() > 1) {
    std::vector<vertex_id> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(d.add_op(op_kind::add, {level[i], level[i + 1]},
                              std::string("a") += std::to_string(adder++)));
    }
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
  }
  d.validate();
  return d;
}

dfg make_fir8(const resource_library& library) {
  dfg d = make_fir(library, 8);
  return d;
}

dfg make_iir_cascade(const resource_library& library, int sections) {
  SOFTSCHED_EXPECT(sections >= 1, "IIR cascade needs at least one section");
  dfg d(std::string("IIR") += std::to_string(sections), library);
  vertex_id carry = vertex_id::invalid();
  for (int s = 0; s < sections; ++s) {
    const std::string tag = std::to_string(s + 1);
    // Direct-form-II biquad: two feedback taps, two feedforward taps.
    const vertex_id fb1 = d.add_op(op_kind::mul, {}, "fb1_" + tag);
    const vertex_id fb2 = d.add_op(op_kind::mul, {}, "fb2_" + tag);
    std::vector<vertex_id> win_in;
    if (carry.valid()) win_in.push_back(carry);
    win_in.push_back(fb1);
    const vertex_id w1 = d.add_op(op_kind::add, win_in, "w1_" + tag);
    const vertex_id w2 = d.add_op(op_kind::add, {w1, fb2}, "w2_" + tag);
    const vertex_id ff1 = d.add_op(op_kind::mul, {w2}, "ff1_" + tag);
    const vertex_id ff2 = d.add_op(op_kind::mul, {w2}, "ff2_" + tag);
    const vertex_id y1 = d.add_op(op_kind::add, {ff1, ff2}, "y1_" + tag);
    carry = d.add_op(op_kind::add, {y1}, "y2_" + tag);
  }
  d.validate();
  return d;
}

dfg make_figure1(const resource_library& library) {
  dfg d("fig1", library);
  // All seven vertices are unit-delay ALU operations in the paper's figure.
  vertex_id v[8]; // 1-based
  for (int i = 1; i <= 7; ++i)
    v[i] = d.add_op(op_kind::add, {}, std::to_string(i));
  d.add_dependence(v[1], v[2]);
  d.add_dependence(v[1], v[3]);
  d.add_dependence(v[2], v[4]);
  d.add_dependence(v[3], v[6]);
  d.add_dependence(v[4], v[6]);
  d.add_dependence(v[6], v[7]);
  d.add_dependence(v[5], v[7]);
  d.validate();
  return d;
}

namespace {

/// A parameterized family name ("fir<N>", "iir<N>") split into its
/// generator and size. The size is the whole rest of the name, a decimal in
/// [1, max]; anything else - "fir8x", "fir", an overflowing "fir9999999999"
/// or a design past max_design_ops - is rejected, never coerced.
struct sized_family {
  dfg (*make)(const resource_library&, int) = nullptr;
  int size = 0;
};

std::optional<sized_family> parse_sized_family(const std::string& name) {
  struct family {
    std::string_view prefix;
    dfg (*make)(const resource_library&, int);
    int max; ///< largest size whose design stays within max_design_ops
  };
  static constexpr family families[] = {
      {"fir", make_fir, (max_design_ops + 1) / 2}, // taps + (taps - 1) ops
      {"iir", make_iir_cascade, max_design_ops / 8}, // 8 ops per section
  };
  for (const family& f : families) {
    if (name.rfind(f.prefix, 0) != 0) continue;
    const char* const first = name.data() + f.prefix.size();
    const char* const last = name.data() + name.size();
    int n = 0;
    const auto [stop, ec] = std::from_chars(first, last, n);
    if (first == last || ec != std::errc{} || stop != last || n < 1 || n > f.max)
      throw precondition_error("benchmark '" + name + "': " + std::string(f.prefix) +
                               "<N> size must be an integer in [1, " +
                               std::to_string(f.max) + "]");
    return sized_family{f.make, n};
  }
  return std::nullopt;
}

using fixed_maker = dfg (*)(const resource_library&);

/// The generator of an unparameterized benchmark, or nullptr.
fixed_maker find_fixed(const std::string& name) {
  static constexpr std::pair<std::string_view, fixed_maker> fixed[] = {
      {"hal", make_hal}, {"arf", make_arf}, {"ewf", make_ewf}, {"fig1", make_figure1}};
  for (const auto& [fixed_name, make] : fixed)
    if (name == fixed_name) return make;
  return nullptr;
}

[[noreturn]] void unknown_benchmark(const std::string& name) {
  throw precondition_error("unknown benchmark '" + name + "'");
}

} // namespace

void check_benchmark_name(const std::string& name) {
  if (find_fixed(name) == nullptr && !parse_sized_family(name)) unknown_benchmark(name);
}

dfg make_benchmark(const std::string& name, const resource_library& library) {
  if (const fixed_maker make = find_fixed(name)) return make(library);
  if (const auto sized = parse_sized_family(name)) return sized->make(library, sized->size);
  unknown_benchmark(name);
}

vertex_id find_op(const dfg& graph, const std::string& name) {
  for (const vertex_id v : graph.graph().vertices())
    if (graph.graph().name(v) == name) return v;
  throw precondition_error("no operation named '" + name + "' in " + graph.name());
}

std::vector<dfg> figure3_benchmarks(const resource_library& library) {
  std::vector<dfg> result;
  result.push_back(make_hal(library));
  result.push_back(make_arf(library));
  result.push_back(make_ewf(library));
  result.push_back(make_fir8(library));
  return result;
}

} // namespace softsched::ir
