// Child-process helpers for the sharded sweep orchestrator.
//
// The orchestrator fork/execs one `hxmesh shard` worker per shard; all it
// needs from the OS is "run this argv to completion — or kill it past a
// deadline — and tell me how it ended" plus a way to find its own binary
// to re-invoke. Both live here so the CLI stays free of platform ifdefs
// and the engine layer stays free of process management.
#pragma once

/// \file
/// \brief Child-process helpers: run an argv to completion (optionally
/// under a watchdog deadline with SIGTERM→SIGKILL escalation and stderr
/// capture) and resolve the running executable's own path.

#include <cstddef>
#include <string>
#include <vector>

namespace hxmesh {

/// \brief How a watched child process ended.
enum class CommandStatus {
  kExited,       ///< child called exit(); see CommandResult::exit_code
  kSignaled,     ///< child was killed by a signal it did not ask for
  kTimedOut,     ///< the watchdog deadline fired (SIGTERM, then SIGKILL)
  kSpawnFailed,  ///< the child never started; see CommandResult::error
};

/// \brief Stable lowercase name of a CommandStatus ("exited", "signaled",
/// "timed-out", "spawn-failed") — used verbatim in shard reports and logs.
const char* command_status_name(CommandStatus status);

/// \brief Knobs for run_command_watched.
struct CommandOptions {
  /// Wall-clock deadline in seconds; 0 (the default) disables the
  /// watchdog and the call waits for the child however long it runs.
  /// A watched child runs in its own process group, and the deadline's
  /// signals go to the whole group, so no descendant outlives it. The
  /// group also keeps the child out of the terminal's Ctrl-C; the child
  /// still dies with its caller (see run_command_watched).
  double timeout_s = 0.0;
  /// After the deadline's SIGTERM, how long to wait for a graceful exit
  /// before escalating to SIGKILL. The escalation is unconditional: a
  /// child that ignores or blocks SIGTERM is still reaped.
  double grace_s = 1.0;
  /// Redirect the child's stderr into a pipe and keep its tail (up to
  /// stderr_limit bytes) in CommandResult::stderr_tail. Off by default:
  /// the child inherits the parent's stderr.
  bool capture_stderr = false;
  /// Bytes of child stderr to retain (the tail — the end of the stream
  /// is where crash messages land).
  std::size_t stderr_limit = 4096;
};

/// \brief Outcome of one watched child process.
struct CommandResult {
  CommandStatus status = CommandStatus::kSpawnFailed;
  int exit_code = -1;       ///< valid when status == kExited
  int term_signal = 0;      ///< valid when status == kSignaled
  std::string error;        ///< human-readable failure description ("" = none)
  std::string stderr_tail;  ///< tail of child stderr when captured

  bool ok() const { return status == CommandStatus::kExited && exit_code == 0; }

  /// Shell-convention code, for one-number reports: the exit code, 128+signal
  /// for kSignaled, 128+SIGKILL for kTimedOut, -1 for kSpawnFailed.
  int shell_code() const;
};

/// \brief Runs `argv` as a child process under an optional watchdog.
///
/// `argv[0]` is the executable path (no PATH search); the child inherits
/// stdio (stderr optionally captured) and the environment. With a nonzero
/// `options.timeout_s` the parent polls the child and, past the deadline,
/// sends SIGTERM to its process group, waits `options.grace_s`, then
/// SIGKILLs the group — a hung child
/// can never block the caller for longer than timeout + grace (plus reap
/// latency). The child is spawned with a parent-death signal: should the
/// calling thread die first — its process killed, say by Ctrl-C — the
/// kernel SIGKILLs the child, so no child outlives the call that started
/// it. Never throws on child failure: every outcome, including a
/// spawn failure, is reported through CommandResult. Safe to call from
/// multiple threads at once — each call watches its own child.
CommandResult run_command_watched(const std::vector<std::string>& argv,
                                  const CommandOptions& options = {});

/// \brief Absolute path of the currently running executable.
///
/// `$HXMESH_EXE`, when set and non-empty, overrides the detection — that
/// is how tests point the orchestrator at a real `hxmesh` binary from
/// inside a test runner. Otherwise resolves /proc/self/exe.
/// \throws std::runtime_error when neither source resolves.
std::string self_exe_path();

}  // namespace hxmesh
