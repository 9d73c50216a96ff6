//! Process-signal plumbing for graceful preemption, dependency-free.
//!
//! The repo vendors everything, so instead of the `libc` crate this module
//! declares the three C functions it needs (`signal`, `_exit`, `raise`)
//! directly. All are async-signal-safe, and the handler itself touches
//! nothing but atomics — the `CancelToken` is designed so that tripping it
//! from a signal context is sound.
//!
//! Semantics (BSD/glibc `signal()`): the handler stays installed after
//! delivery, so the *second* SIGINT/SIGTERM reaches the same handler,
//! which then escalates to an immediate `_exit(128 + sig)` — the
//! conventional "killed by signal" exit status. The first signal merely
//! trips the token; workers notice at the next trial boundary and the run
//! ends through the normal checkpoint-writing path.
//!
//! Also here: [`reset_sigpipe`]. Rust sets SIGPIPE to ignore before
//! `main`, which turns `campaign ... | head` into a broken-pipe panic;
//! CLI mains call this first to restore the default die-quietly
//! disposition. And the hook for the `term@N` / `term2@N` entries of
//! `MBAVF_DRILL` ([`crate::drill`]), which signal this process at an exact
//! trial count.
//!
//! On non-unix targets everything degrades to a no-op: tokens still work
//! (budgets, explicit cancels), there is just no signal source.

use crate::cancel::{CancelReason, CancelToken};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// The token the installed handlers trip. Installed once per process.
static TOKEN: OnceLock<CancelToken> = OnceLock::new();

#[cfg(unix)]
mod ffi {
    //! The only unsafe in the crate: three libc calls. `signal` installs a
    //! handler (we only pass `extern "C"` fns or `SIG_DFL`), `_exit`
    //! terminates without running atexit handlers — the async-signal-safe
    //! way out of a handler — and `raise` signals the calling thread,
    //! running the handler before it returns.
    #![allow(unsafe_code)]

    pub(super) const SIGINT: i32 = 2;
    pub(super) const SIGPIPE: i32 = 13;
    pub(super) const SIGTERM: i32 = 15;
    const SIG_DFL: usize = 0;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn _exit(status: i32) -> !;
        fn raise(sig: i32) -> i32;
    }

    pub(super) fn set_handler(sig: i32, handler: extern "C" fn(i32)) {
        unsafe {
            signal(sig, handler as usize);
        }
    }

    pub(super) fn set_default(sig: i32) {
        unsafe {
            signal(sig, SIG_DFL);
        }
    }

    pub(super) fn exit_now(status: i32) -> ! {
        unsafe { _exit(status) }
    }

    pub(super) fn raise_now(sig: i32) {
        // SAFETY: `raise` takes a plain signal number and has no memory
        // preconditions; the handlers it can run touch only atomics and
        // `_exit`.
        unsafe {
            raise(sig);
        }
    }
}

/// First terminate signal: trip the token and keep running (the workers
/// drain at the next trial boundary). Second: abort with the conventional
/// `128 + signo` status. Only atomics and `_exit` — async-signal-safe.
#[cfg(unix)]
extern "C" fn on_terminate(sig: i32) {
    if let Some(token) = TOKEN.get() {
        if token.signal_strike() == 0 {
            token.cancel(CancelReason::Signal);
            return;
        }
    }
    ffi::exit_now(128 + sig);
}

/// Install SIGINT/SIGTERM handlers that trip `token`. Idempotent: the
/// first call's token wins; later calls re-install the handlers but keep
/// the original token (there is one cancellation domain per process).
///
/// Deliberately *not* called by worker daemons (`__serve`, `--listen`):
/// those are driven by their supervisor (drain frames, connection close)
/// and should die by default disposition when signalled directly.
#[cfg(unix)]
pub fn install_terminate_handlers(token: &CancelToken) {
    let _ = TOKEN.set(token.clone());
    ffi::set_handler(ffi::SIGINT, on_terminate);
    ffi::set_handler(ffi::SIGTERM, on_terminate);
}

/// Non-unix: no signal source; the token still works for budgets.
#[cfg(not(unix))]
pub fn install_terminate_handlers(_token: &CancelToken) {}

/// Restore SIGPIPE's default disposition so `campaign ... | head` dies
/// quietly instead of panicking on a broken pipe. Call first thing in
/// CLI `main`s, before any output.
#[cfg(unix)]
pub fn reset_sigpipe() {
    ffi::set_default(ffi::SIGPIPE);
}

/// Non-unix: SIGPIPE does not exist; nothing to restore.
#[cfg(not(unix))]
pub fn reset_sigpipe() {}

/// The `term@N` / `term2@N` drill ([`crate::drill`]): once the
/// fresh-completion count moves over `N` — that is, `N` lies in `(before,
/// after]` — deliver a real SIGTERM to this process, exactly as a
/// preempting scheduler would. Thread workers call it per finished trial,
/// counting their open commit group, so the signal lands while that group
/// is still in flight; a supervisor handler calls it once per committed
/// group.
/// `term2` adds a second signal (second strike → immediate abort, exit
/// `143`). Fires at most once per process. Used by the SIGTERM-at-every-
/// phase torture drill to pin cancellation to a deterministic trial count.
pub(crate) fn preempt_drill(before: usize, after: usize) {
    static FIRED: AtomicBool = AtomicBool::new(false);
    let Some((at, double)) = crate::drill::armed().term else { return };
    if !covers(before, after, at) {
        return;
    }
    // Several threads can each count the same `n` (each sees only its own
    // open group); a second delivery would escalate to an abort.
    if FIRED.swap(true, Ordering::SeqCst) {
        return;
    }
    // Delivery is synchronous: the handler has tripped the token (or, on
    // the second strike, exited) before `term_self` returns, so
    // cancellation lands at this trial count, not a later one.
    term_self();
    if double {
        term_self();
    }
}

/// Whether a commit moving the completion count over `(before, after]`
/// covers count `at`.
fn covers(before: usize, after: usize, at: usize) -> bool {
    before < at && at <= after
}

/// Deliver a real SIGTERM to the calling thread with `raise(3)`, which
/// runs the installed handler before it returns.
#[cfg(unix)]
fn term_self() {
    ffi::raise_now(ffi::SIGTERM);
}

#[cfg(not(unix))]
fn term_self() {}

#[cfg(test)]
mod tests {
    use super::*;

    // Handler installation is process-global, so the handler/escalation
    // behaviour proper is exercised end-to-end by the CLI preemption
    // drill; here we only pin which commits the drill count lands in.
    #[test]
    fn drill_fires_when_its_count_lies_in_the_commit_range() {
        // A group straddling the count fires; the groups around it do not.
        assert!(covers(4, 8, 7));
        assert!(!covers(0, 4, 7));
        assert!(!covers(8, 12, 7));
        // The range is half-open: `before` is already past, `after` is in.
        assert!(!covers(8, 12, 8));
        assert!(covers(4, 8, 8));
        // An empty group covers nothing.
        assert!(!covers(5, 5, 5));
        // One-record commits (the supervisor, or every = 1) fire exactly
        // at the count.
        assert!(covers(5, 6, 6));
        assert!(!covers(6, 7, 6));
    }
}
