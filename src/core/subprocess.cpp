#include "core/subprocess.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace hxmesh {

namespace {

constexpr std::chrono::milliseconds kPollNap{5};

// Appends `data` to `tail`, keeping only the last `limit` bytes. The tail
// is where crash messages land, so dropping the front is the right bound.
void append_tail(std::string& tail, const char* data, std::size_t n,
                 std::size_t limit) {
  tail.append(data, n);
  if (tail.size() > limit) tail.erase(0, tail.size() - limit);
}

// Drains whatever is currently readable from a nonblocking fd into `tail`.
// Returns false once the writer side is closed and the pipe is empty.
bool drain_pipe(int fd, std::string& tail, std::size_t limit) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      append_tail(tail, buf, static_cast<std::size_t>(n), limit);
      continue;
    }
    if (n == 0) return false;  // EOF: every writer closed
    if (errno == EINTR) continue;
    return true;  // EAGAIN: nothing right now, writer still alive
  }
}

// Forks and execs `argv` (argv[0] is a path; no PATH search). The child
// gets `stderr_fd` as its stderr when it is >= 0, leads a new process
// group when `own_group` is set, and is SIGKILLed by the kernel if the
// calling thread dies first: every caller blocks until it has reaped
// its child, so a child never outlives the call that started it, even
// when the whole process is killed. Returns the child's pid, or -1 with
// `error` set when the exec failed.
pid_t spawn_child(char* const* argv, int stderr_fd, bool own_group,
                  std::string& error) {
  // Carries exec's errno back; close-on-exec, so a successful exec reads
  // as EOF.
  int status_pipe[2];
  if (::pipe2(status_pipe, O_CLOEXEC) != 0) {
    error = std::string("pipe failed: ") + std::strerror(errno);
    return -1;
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Async-signal-safe calls only from here to exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);  // died before prctl landed
    if (own_group) ::setpgid(0, 0);
    if (stderr_fd >= 0) ::dup2(stderr_fd, 2);
    ::execve(argv[0], argv, environ);
    const int err = errno;
    [[maybe_unused]] const ssize_t n =
        ::write(status_pipe[1], &err, sizeof(err));
    ::_exit(127);
  }
  ::close(status_pipe[1]);
  if (pid < 0) {
    error = std::string("fork failed: ") + std::strerror(errno);
    ::close(status_pipe[0]);
    return -1;
  }
  int err = 0;
  ssize_t n = 0;
  do {
    n = ::read(status_pipe[0], &err, sizeof(err));
  } while (n < 0 && errno == EINTR);
  ::close(status_pipe[0]);
  if (n <= 0) return pid;  // EOF: the exec went through
  ::waitpid(pid, nullptr, 0);
  error = std::strerror(err);
  return -1;
}

// waitid(WNOHANG | WNOWAIT) with EINTR retry: true once the child has
// exited. The child stays a zombie — it is reaped later by reap_blocking
// — so its pid, and the id of the group it leads, cannot be reused by
// another process in between.
bool has_exited(pid_t pid) {
  for (;;) {
    siginfo_t info{};
    if (::waitid(P_PID, static_cast<id_t>(pid), &info,
                 WEXITED | WNOHANG | WNOWAIT) == 0)
      return info.si_pid == pid;
    if (errno != EINTR)
      throw std::runtime_error(std::string("run_command: waitid failed: ") +
                               std::strerror(errno));
  }
}

void reap_blocking(pid_t pid, int& status) {
  for (;;) {
    if (::waitpid(pid, &status, 0) >= 0) return;
    if (errno != EINTR)
      throw std::runtime_error(std::string("run_command: waitpid failed: ") +
                               std::strerror(errno));
  }
}

std::string fmt_seconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", s);
  return buf;
}

}  // namespace

const char* command_status_name(CommandStatus status) {
  switch (status) {
    case CommandStatus::kExited: return "exited";
    case CommandStatus::kSignaled: return "signaled";
    case CommandStatus::kTimedOut: return "timed-out";
    case CommandStatus::kSpawnFailed: return "spawn-failed";
  }
  return "unknown";
}

int CommandResult::shell_code() const {
  switch (status) {
    case CommandStatus::kExited: return exit_code;
    case CommandStatus::kSignaled: return 128 + term_signal;
    case CommandStatus::kTimedOut: return 128 + SIGKILL;
    case CommandStatus::kSpawnFailed: return -1;
  }
  return -1;
}

CommandResult run_command_watched(const std::vector<std::string>& argv,
                                  const CommandOptions& options) {
  CommandResult result;
  if (argv.empty()) {
    result.error = "run_command: empty argv";
    return result;
  }

  // Built before the fork: the child may only make async-signal-safe
  // calls.
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& arg : argv)
    cargv.push_back(const_cast<char*>(arg.c_str()));
  cargv.push_back(nullptr);

  int pipe_fds[2] = {-1, -1};
  if (options.capture_stderr && ::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    result.error = std::string("run_command: pipe failed: ") +
                   std::strerror(errno);
    return result;
  }
  if (options.capture_stderr) ::fcntl(pipe_fds[0], F_SETFL, O_NONBLOCK);

  // A watched child leads its own process group, so the deadline's
  // signals reach everything it started (a shell's sleeping child, a
  // worker's helpers), not just the direct child.
  const bool watched = options.timeout_s > 0.0;
  const pid_t pid =
      spawn_child(cargv.data(), pipe_fds[1], watched, result.error);
  if (options.capture_stderr) ::close(pipe_fds[1]);  // parent keeps read end
  if (pid < 0) {
    if (options.capture_stderr) ::close(pipe_fds[0]);
    result.error = "run_command: cannot spawn " + argv[0] + ": " +
                   result.error;
    return result;  // status stays kSpawnFailed
  }

  int status = 0;
  bool timed_out = false;
  bool killed = false;  // escalated to SIGKILL

  if (!watched && !options.capture_stderr) {
    // Classic blocking path: nothing to poll for.
    reap_blocking(pid, status);
  } else {
    // Poll loop: wait without blocking so the deadline can fire and the
    // stderr pipe stays drained (a blocking wait on a child whose stderr
    // pipe is full would deadlock).
    using clock = std::chrono::steady_clock;
    const auto start = clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<clock::duration>(
                    std::chrono::duration<double>(options.timeout_s));
    auto kill_at = clock::time_point::max();
    bool pipe_open = options.capture_stderr;
    for (;;) {
      if (has_exited(pid)) break;
      if (pipe_open)
        pipe_open = drain_pipe(pipe_fds[0], result.stderr_tail,
                               options.stderr_limit);
      const auto now = clock::now();
      if (watched && !timed_out && now >= deadline) {
        timed_out = true;
        ::kill(-pid, SIGTERM);
        kill_at = now + std::chrono::duration_cast<clock::duration>(
                            std::chrono::duration<double>(
                                std::max(0.0, options.grace_s)));
      }
      if (timed_out && !killed && now >= kill_at) {
        killed = true;
        ::kill(-pid, SIGKILL);
        // SIGKILL cannot be caught or blocked; the child is guaranteed to
        // die, so the loop keeps polling until its exit shows.
      }
      std::this_thread::sleep_for(kPollNap);
    }
    // The child may have died of its SIGTERM while a group member that
    // ignores SIGTERM lives on: nothing of a timed-out child survives.
    // The unreaped leader still holds the group id, so this signal cannot
    // reach a group that reused it.
    if (timed_out) ::kill(-pid, SIGKILL);
    reap_blocking(pid, status);
  }
  if (options.capture_stderr) {
    // Final drain: the child is reaped, so EOF (or emptiness) is terminal.
    drain_pipe(pipe_fds[0], result.stderr_tail, options.stderr_limit);
    ::close(pipe_fds[0]);
  }

  if (timed_out) {
    result.status = CommandStatus::kTimedOut;
    result.error = "timed out after " + fmt_seconds(options.timeout_s) +
                   "s (" + (killed ? "SIGTERM, then SIGKILL" : "SIGTERM") +
                   ")";
    return result;
  }
  if (WIFEXITED(status)) {
    result.status = CommandStatus::kExited;
    result.exit_code = WEXITSTATUS(status);
    if (result.exit_code != 0)
      result.error = "exit code " + std::to_string(result.exit_code);
    return result;
  }
  if (WIFSIGNALED(status)) {
    result.status = CommandStatus::kSignaled;
    result.term_signal = WTERMSIG(status);
    result.error = "killed by signal " + std::to_string(result.term_signal);
    return result;
  }
  result.status = CommandStatus::kSpawnFailed;
  result.error = "run_command: unrecognized wait status";
  return result;
}

std::string self_exe_path() {
  if (const char* env = std::getenv("HXMESH_EXE"); env && *env) return env;
  char buf[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (len <= 0)
    throw std::runtime_error(
        "self_exe_path: cannot resolve /proc/self/exe (set HXMESH_EXE)");
  buf[len] = '\0';
  return buf;
}

}  // namespace hxmesh
