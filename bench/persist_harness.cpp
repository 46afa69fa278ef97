// persist_harness - focused runner for the persistent-cache scenario:
// cold-populate a disk tier, warm-restart a fresh service over it (disk
// hits, recovery-scan time), then serve through an injected disk outage -
// the same block perf_harness embeds into BENCH_softsched.json (see
// bench/persist_scenario.h). The CI persist job runs it under the
// sanitizer matrix.
//
// Usage: persist_harness [--quick] [--out PATH] [--seed N] [--jobs N]
//   --jobs 0 (default) uses every hardware thread. --quick is accepted for
//   CI-invocation symmetry with perf_harness but changes nothing: the mix
//   is fixed so the gate always compares like against like.
// Exits nonzero when the scenario's own gate fails.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "persist_scenario.h"

int main(int argc, char** argv) {
  std::string out_path = "BENCH_persist.json";
  std::uint64_t seed = 20260729;
  unsigned jobs = 0;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--quick") {
        // accepted, no effect: fixed mix (see header comment)
      } else if (arg == "--out" && i + 1 < argc) {
        out_path = argv[++i];
      } else if (arg == "--seed" && i + 1 < argc) {
        seed = std::stoull(argv[++i]);
      } else if (arg == "--jobs" && i + 1 < argc) {
        jobs = static_cast<unsigned>(std::stoul(argv[++i]));
      } else {
        throw std::invalid_argument(arg);
      }
    }
  } catch (const std::exception&) {
    std::cerr << "usage: persist_harness [--quick] [--out PATH] [--seed N] [--jobs N]\n";
    return 2;
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << " for writing\n";
    return 1;
  }

  softsched::json_writer j(out);
  j.begin_object();
  j.member("schema", "softsched-persist-v1");
  j.member("seed", seed);
  j.key("persist");
  const bool ok = softsched::bench::write_persist_scenario(j, seed, jobs);
  j.end_object();
  out << '\n';
  if (!j.done() || !out) {
    std::cerr << "failed to emit well-formed JSON to " << out_path << "\n";
    return 1;
  }
  std::cerr << "persist_harness: wrote " << out_path << (ok ? "" : " (GATE FAILED)")
            << "\n";
  return ok ? 0 : 1;
}
