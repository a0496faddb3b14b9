#pragma once
// Artifact flush registry: guarantees observability outputs (--trace-out,
// --vcd, --provenance, --json) reach disk as *valid* documents even when
// the run is cut short.
//
// Tools register a named flush callback per pending artifact; the
// callbacks run
//  * on normal exit (std::atexit),
//  * on SIGINT/SIGTERM (the handler flushes, restores the default
//    disposition and re-raises so the exit status still reports the
//    signal),
//  * or explicitly via flush_artifacts_now() right before the tool writes
//    the artifact itself (which unregisters it).
//
// Callbacks must therefore produce a complete, well-formed file from
// whatever has been buffered so far — a trace flush first closes the
// spans in flight (obs::Trace::close_open) and the VCD writer emits a full
// header + change stream, so partial-progress flushes still pass
// `adc_obs_check`.
//
// Signal-safety caveat: the handlers run ordinary buffered I/O, which is
// formally async-signal-unsafe; for a CLI tool interrupted by a user this
// is the standard, pragmatic trade (the alternative is losing the trace).

#include <functional>
#include <string>

namespace adc {

// Registers `flush` under `name` (a label for diagnostics, typically the
// output path).  Returns a token for unregister_artifact_flush.  Re-entrant
// flushes are suppressed: each callback runs at most once.
int register_artifact_flush(const std::string& name, std::function<void()> flush);

// Removes a registered callback (after the tool wrote the artifact itself).
void unregister_artifact_flush(int token);

// Runs (and consumes) every registered callback immediately.
void flush_artifacts_now();

// Installs the atexit hook and the SIGINT/SIGTERM handlers.  Idempotent.
void install_flush_handlers();

// Graceful-termination hook for long-running services (adc_serve): when
// set, the *first* SIGINT/SIGTERM invokes `hook` — which must be
// async-signal-safe, e.g. a single write() onto a server's shutdown pipe —
// instead of the flush+re-raise path, so the daemon can drain in-flight
// jobs and exit normally (running the atexit flush on the way out).  The
// hook is one-shot: a second signal falls back to flush+re-raise, so a
// wedged drain can still be killed.  Pass nullptr to clear.
void set_signal_drain_hook(void (*hook)(int sig));

}  // namespace adc
