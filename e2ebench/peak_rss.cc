// e2e_peak_rss — runs a command and reports its own peak RSS.
//
//   e2e_peak_rss OUT_FILE PROGRAM [ARGS...]
//
// Forks, execs PROGRAM with ARGS, waits for it and writes the child's
// ru_maxrss (KiB) to OUT_FILE; exits with the child's exit code (128 + the
// signal number if a signal ended it). The benchmark launches its timed
// commands through this helper because Linux carries the high-water RSS of
// the address space a process execs from into that process's ru_maxrss:
// launched straight from the benchmark's Python process, a small command
// would report the benchmark's own peak instead of its own. This helper's
// address space is a few MiB, so the child's figure is its own.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: e2e_peak_rss OUT_FILE PROGRAM [ARGS...]\n");
    return 2;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("e2e_peak_rss: fork");
    return 2;
  }
  if (pid == 0) {
    execvp(argv[2], argv + 2);
    std::perror("e2e_peak_rss: exec");
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid) {
    std::perror("e2e_peak_rss: wait4");
    return 2;
  }
  std::FILE* out = std::fopen(argv[1], "w");
  if (out == nullptr || std::fprintf(out, "%ld\n", usage.ru_maxrss) < 0 ||
      std::fclose(out) != 0) {
    std::perror("e2e_peak_rss: write");
    return 2;
  }
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return WEXITSTATUS(status);
}
