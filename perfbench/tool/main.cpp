// perfbench_tool - the compiled half of the benchmark (perfbench/run.py is
// the other). Subcommands:
//
//   closed        closed-loop client (stdio fds or unix socket)
//   open          open-loop client at a fixed rate over unix sockets
//   check         judge (request, response) pairs
//   check-dse     re-run and judge every point of an --explore report
//   renumber      catalog designs as randomly renumbered .dfg uploads
//   trace-serve   traced in-process replay of the serve pipeline
//   trace-dse     traced in-process replay of an exploration grid
//   peak-rss      run a program and record its peak resident set
//
// Flags are `--name value`; see each subcommand's source for its set.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <fstream>
#include <iostream>
#include <string>

#include "common.h"

namespace perfbench {
int run_closed(const args& a);
int run_open(const args& a);
int run_check(const args& a);
int run_check_dse(const args& a);
int run_renumber(const args& a);
int run_trace_serve(const args& a);
int run_trace_dse(const args& a);

// peak-rss <out> <program> [args...]: runs the program as this process's
// child, writes the child's peak resident set (KiB, ru_maxrss) to <out> and
// exits with the child's status. The kernel starts a child's ru_maxrss from
// its parent's resident set at exec, so the program is measured as a child
// of this small process, not of run.py, whose memory grows run by run.
int run_peak_rss(int argc, char** argv) {
  if (argc < 4) {
    std::cerr << "usage: perfbench_tool peak-rss <out> <program> [args...]\n";
    return 2;
  }
  const pid_t launcher = getpid();
  const pid_t child = fork();
  if (child < 0) return 1;
  if (child == 0) {
    // Killing the launcher (run.py's clean-up) kills the program too.
    if (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || getppid() != launcher) _exit(127);
    execvp(argv[3], argv + 3);
    _exit(127);
  }
  // The program owns the inherited stdio; holding it here would delay the
  // end-of-stream its reader waits for.
  close(STDIN_FILENO);
  close(STDOUT_FILENO);
  int status = 0;
  rusage usage{};
  while (wait4(child, &status, 0, &usage) < 0)
    if (errno != EINTR) return 1;
  std::ofstream(argv[2]) << usage.ru_maxrss << '\n';
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

} // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::cerr << "usage: perfbench_tool <closed|open|check|check-dse|renumber|"
                 "trace-serve|trace-dse|peak-rss> [--flag value ...]\n";
    return 2;
  }
  const std::string command = argv[1];
  if (command == "peak-rss") return run_peak_rss(argc, argv);
  try {
    const args a(argc, argv, 2);
    if (command == "closed") return run_closed(a);
    if (command == "open") return run_open(a);
    if (command == "check") return run_check(a);
    if (command == "check-dse") return run_check_dse(a);
    if (command == "renumber") return run_renumber(a);
    if (command == "trace-serve") return run_trace_serve(a);
    if (command == "trace-dse") return run_trace_dse(a);
    std::cerr << "perfbench_tool: unknown subcommand " << command << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_tool " << command << ": " << e.what() << "\n";
    return 1;
  }
}
