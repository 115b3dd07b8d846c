//! Cooperative cancellation for hang containment.
//!
//! The campaign supervisor arms a wall-clock watchdog around every round
//! attempt. When the deadline passes, the watchdog flips the attempt's
//! [`CancelToken`]; deep execution loops (the `jexec` interpreter, the
//! injected-hang fault in `jvmsim`) poll the **thread-local current
//! token** every few thousand steps via [`cancelled`] and abort by
//! panicking with [`TIMEOUT_PANIC_MARKER`]. The supervisor's existing
//! panic boundary catches that unwind and classifies it as a round
//! timeout, feeding the normal retry/quarantine taxonomy.
//!
//! This module lives in `jtelemetry` (the bottom of the crate graph) so
//! both the execution substrate and the supervisor can see it without a
//! new dependency edge. The poll is polled at a coarse stride (the
//! interpreter checks every 4096 steps), so its cost — one thread-local
//! borrow and, with a token installed, one atomic load — is noise.
//!
//! Determinism: cancellation only fires on wall-clock timeouts, which
//! are inherently nondeterministic for borderline workloads — but the
//! *outcome* recorded by the supervisor (a timeout failure naming the
//! configured limit, never the elapsed time) is stable, and the injected
//! `Hang` fault used by tests blocks forever, so it times out at every
//! jobs setting and journals identically.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Marker prefix carried by the panic a cancelled execution raises. The
/// campaign supervisor classifies panic payloads by this prefix.
pub const TIMEOUT_PANIC_MARKER: &str = "mop-timeout";

/// A shared cancellation flag: cloned into a watchdog, installed on the
/// executing thread.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Flips the token; every installer observes it on the next poll.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether [`cancel`](CancelToken::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

thread_local! {
    /// Stack of installed tokens; the top is the thread's current one.
    static CURRENT: RefCell<Vec<CancelToken>> = const { RefCell::new(Vec::new()) };
}

/// Uninstalls the token it guards (restoring any outer token) on drop.
pub struct Guard(());

/// Installs `token` on this thread. Execution loops on this thread poll
/// it via [`cancelled`] until the returned [`Guard`] drops. Guards nest:
/// dropping the inner one re-exposes the outer token.
pub fn install(token: &CancelToken) -> Guard {
    CURRENT.with(|c| c.borrow_mut().push(token.clone()));
    Guard(())
}

impl Drop for Guard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// True when this thread's current token has been cancelled.
pub fn cancelled() -> bool {
    CURRENT.with(|c| c.borrow().last().is_some_and(CancelToken::is_cancelled))
}

/// Polls the current token and panics with [`TIMEOUT_PANIC_MARKER`] when
/// it is cancelled. `what` names the aborted activity in the payload.
pub fn check(what: &str) {
    if cancelled() {
        panic!("{TIMEOUT_PANIC_MARKER}: {what} cancelled by watchdog");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_token_means_never_cancelled() {
        assert!(!cancelled());
        check("idle"); // must not panic
    }

    #[test]
    fn install_poll_and_restore() {
        let token = CancelToken::new();
        {
            let _guard = install(&token);
            assert!(!cancelled());
            token.cancel();
            assert!(cancelled());
        }
        assert!(!cancelled(), "guard drop restores the previous state");
    }

    #[test]
    fn nested_guards_restore_outer_token() {
        let outer = CancelToken::new();
        let inner = CancelToken::new();
        let _g1 = install(&outer);
        outer.cancel();
        {
            let _g2 = install(&inner);
            assert!(!cancelled(), "inner token masks the outer");
        }
        assert!(cancelled(), "outer token visible again");
    }

    #[test]
    fn check_panics_with_the_marker() {
        let token = CancelToken::new();
        let _guard = install(&token);
        token.cancel();
        let caught = std::panic::catch_unwind(|| check("unit test"));
        let payload = caught.unwrap_err();
        let text = payload.downcast_ref::<String>().unwrap();
        assert!(text.starts_with(TIMEOUT_PANIC_MARKER), "{text}");
    }

    #[test]
    fn token_crosses_threads() {
        let token = CancelToken::new();
        let clone = token.clone();
        let handle = std::thread::spawn(move || {
            let _guard = install(&clone);
            while !cancelled() {
                std::thread::yield_now();
            }
            true
        });
        token.cancel();
        assert!(handle.join().unwrap());
    }
}
