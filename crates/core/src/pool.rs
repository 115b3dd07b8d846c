//! The process-wide work pool that runs the round-level campaign
//! engine's (`--jobs`) speculative rounds.
//!
//! One pool per process is the oversubscription guard: however many
//! campaigns are in flight (the daemon runs one per tenant), the number
//! of pool threads never exceeds the largest capacity any of them asked
//! for. Jobs carry their own result channel; the round engine ships
//! [`crate::supervisor`] worker tasks here and merges their outputs in
//! strict round order, so the pool moves work between threads but never
//! reorders observable effects.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, Once, OnceLock};

thread_local! {
    static SUPPRESS_PANIC_OUTPUT: Cell<bool> = const { Cell::new(false) };
}
static PANIC_HOOK: Once = Once::new();

/// Runs `f` inside a panic boundary with the default panic hook silenced
/// on this thread for the duration (the process-wide hook is wrapped
/// once; other threads keep reporting normally). The previous suppression
/// state is restored afterwards, so nested boundaries behave.
pub(crate) fn quiet_catch_unwind<T>(f: impl FnOnce() -> T) -> Result<T, Box<dyn Any + Send>> {
    PANIC_HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_OUTPUT.with(Cell::get) {
                previous(info);
            }
        }));
    });
    let saved = SUPPRESS_PANIC_OUTPUT.with(|s| s.replace(true));
    let caught = panic::catch_unwind(AssertUnwindSafe(f));
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(saved));
    caught
}

type Job = Box<dyn FnOnce() + Send>;

struct PoolState {
    queue: VecDeque<Job>,
    /// Threads alive (spawned lazily, parked forever when idle).
    threads: usize,
    /// Threads currently parked waiting for work.
    idle: usize,
    /// Thread ceiling: the max capacity any caller has requested.
    capacity: usize,
}

/// The process-wide pool. Threads are spawned on demand up to the
/// requested capacity and then live for the process — an idle pool
/// costs parked threads, not CPU.
pub(crate) struct WorkPool {
    state: Mutex<PoolState>,
    work_ready: Condvar,
}

static POOL: OnceLock<WorkPool> = OnceLock::new();

/// The shared pool.
pub(crate) fn shared() -> &'static WorkPool {
    POOL.get_or_init(|| WorkPool {
        state: Mutex::new(PoolState {
            queue: VecDeque::new(),
            threads: 0,
            idle: 0,
            capacity: 0,
        }),
        work_ready: Condvar::new(),
    })
}

impl WorkPool {
    /// Raises the thread ceiling to at least `n`. Capacities from
    /// different campaigns take the max, not the sum — that is the
    /// no-oversubscription contract.
    pub(crate) fn ensure_capacity(&self, n: usize) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.capacity = state.capacity.max(n);
    }

    /// Enqueues a job at the back of the queue.
    pub(crate) fn submit(&self, job: Job) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.queue.push_back(job);
        if state.idle > 0 {
            self.work_ready.notify_one();
        } else if state.threads < state.capacity {
            state.threads += 1;
            std::thread::spawn(|| shared().worker_loop());
        }
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if let Some(job) = state.queue.pop_front() {
                        break job;
                    }
                    state.idle += 1;
                    state = self
                        .work_ready
                        .wait(state)
                        .unwrap_or_else(|e| e.into_inner());
                    state.idle -= 1;
                }
            };
            // A panicking job must not take the pool thread with it. Jobs
            // are expected to contain their own panics (and stay silent
            // about it); anything that escapes here already reported via
            // the panic hook.
            let _ = panic::catch_unwind(AssertUnwindSafe(job));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_catch_unwind_contains_and_restores() {
        assert_eq!(quiet_catch_unwind(|| 5).unwrap(), 5);
        let err = quiet_catch_unwind(|| panic!("contained")).unwrap_err();
        assert_eq!(err.downcast_ref::<&str>(), Some(&"contained"));
        // Nested: inner catch must not clear the outer suppression.
        let outer = quiet_catch_unwind(|| {
            let _ = quiet_catch_unwind(|| panic!("inner"));
            assert!(SUPPRESS_PANIC_OUTPUT.with(Cell::get));
            panic!("outer");
        });
        assert!(outer.is_err());
        assert!(!SUPPRESS_PANIC_OUTPUT.with(Cell::get));
    }

    #[test]
    fn capacity_takes_the_max_of_requests() {
        let pool = shared();
        pool.ensure_capacity(2);
        pool.ensure_capacity(1);
        let state = pool.state.lock().unwrap();
        assert!(state.capacity >= 2);
    }
}
