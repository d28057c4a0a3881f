//! The slot gate: bounded execution concurrency without a hand-off.
//!
//! The first server shipped the textbook shape — a bounded MPMC queue
//! feeding a fixed worker pool, with each connection handler parking on
//! a reply channel. Correct, but every request paid two cross-thread
//! hand-offs (handler → worker, worker → handler) plus a queue
//! round-trip before a single prompt token was rendered. The scheduler
//! refactor made [`mqo_core::Scheduler`] the one execution entry point,
//! and with FIFO scheduling running inline, the queue bought nothing
//! but latency.
//!
//! A [`SlotGate`] keeps the *admission semantics* of the old queue —
//! at most `slots` batches executing, at most `wait_cap` admitted and
//! waiting, anything beyond that refused with backpressure — while the
//! work itself runs on the connection handler's own thread. A
//! [`SlotPermit`] carries the slot index so the handler can claim the
//! same bounded Chrome-trace track a pool worker would have owned.

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why [`SlotGate::acquire_within`] refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquireError {
    /// Wait room full: immediate backpressure, nothing queued.
    Saturated,
    /// The caller's wait budget drained before a slot freed up.
    DeadlineExpired,
}

struct GateState {
    /// Free slot indices, used as a stack so a lightly loaded server
    /// keeps re-using the same (cache-warm) low tracks.
    free: Vec<u32>,
    /// Handlers admitted past the gate but waiting for a slot.
    waiting: usize,
}

/// A counting semaphore over named slots with a bounded wait room.
pub struct SlotGate {
    state: Mutex<GateState>,
    available: Condvar,
    slots: usize,
    wait_cap: usize,
}

impl SlotGate {
    /// A gate with `slots` concurrent permits and room for `wait_cap`
    /// waiters (both clamped to ≥ 1).
    pub fn new(slots: usize, wait_cap: usize) -> SlotGate {
        let slots = slots.max(1);
        SlotGate {
            // Reversed so pop() hands out slot 0 first.
            state: Mutex::new(GateState {
                free: (0..slots as u32).rev().collect(),
                waiting: 0,
            }),
            available: Condvar::new(),
            slots,
            wait_cap: wait_cap.max(1),
        }
    }

    /// Claim a slot with a wait budget: block for a slot at most
    /// `budget` (forever when `None`), and report how long the caller
    /// actually waited — the *sojourn time* the overload controller keys
    /// its shedding decisions on. A `None` budget never returns
    /// [`AcquireError::DeadlineExpired`].
    pub fn acquire_within(
        &self,
        budget: Option<Duration>,
    ) -> Result<(SlotPermit<'_>, Duration), AcquireError> {
        let started = Instant::now();
        let mut s = self.state.lock().expect("slot gate poisoned");
        if s.free.is_empty() {
            if s.waiting >= self.wait_cap {
                return Err(AcquireError::Saturated);
            }
            s.waiting += 1;
            while s.free.is_empty() {
                match budget {
                    None => s = self.available.wait(s).expect("slot gate poisoned"),
                    Some(budget) => {
                        let Some(remaining) = budget.checked_sub(started.elapsed()) else {
                            s.waiting -= 1;
                            return Err(AcquireError::DeadlineExpired);
                        };
                        let (guard, timed_out) = self
                            .available
                            .wait_timeout(s, remaining)
                            .expect("slot gate poisoned");
                        s = guard;
                        if timed_out.timed_out() && s.free.is_empty() {
                            s.waiting -= 1;
                            return Err(AcquireError::DeadlineExpired);
                        }
                    }
                }
            }
            s.waiting -= 1;
        }
        let slot = s.free.pop().expect("non-empty free list");
        Ok((SlotPermit { gate: self, slot }, started.elapsed()))
    }

    /// Handlers currently parked waiting for a slot (the queue depth the
    /// stats endpoint reports).
    pub fn waiting(&self) -> usize {
        self.state.lock().expect("slot gate poisoned").waiting
    }

    /// The wait-room bound (the queue capacity the stats endpoint
    /// reports).
    pub fn wait_cap(&self) -> usize {
        self.wait_cap
    }

    /// Concurrent-execution bound.
    pub fn slots(&self) -> usize {
        self.slots
    }
}

/// An owned slot; dropping it releases the slot and wakes one waiter.
pub struct SlotPermit<'g> {
    gate: &'g SlotGate,
    slot: u32,
}

impl SlotPermit<'_> {
    /// The slot index, for bounded per-slot telemetry tracks.
    pub fn slot(&self) -> u32 {
        self.slot
    }
}

impl Drop for SlotPermit<'_> {
    fn drop(&mut self) {
        let mut s = self.gate.state.lock().expect("slot gate poisoned");
        s.free.push(self.slot);
        drop(s);
        self.gate.available.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    /// Unbudgeted claim, for tests that only exercise the permit logic.
    fn acquire(gate: &SlotGate) -> SlotPermit<'_> {
        gate.acquire_within(None).map(|(p, _)| p).expect("unbudgeted acquire")
    }

    #[test]
    fn permits_are_exclusive_and_recycle() {
        let gate = SlotGate::new(2, 1);
        let a = acquire(&gate);
        let b = acquire(&gate);
        assert_ne!(a.slot(), b.slot());
        let (sa, sb) = (a.slot(), b.slot());
        drop(a);
        let c = acquire(&gate);
        assert!(c.slot() == sa || c.slot() == sb);
        drop(b);
        drop(c);
        assert_eq!(gate.waiting(), 0);
    }

    #[test]
    fn full_wait_room_saturates_immediately() {
        let gate = Arc::new(SlotGate::new(1, 1));
        let held = acquire(&gate);
        let waiter = {
            let gate = Arc::clone(&gate);
            thread::spawn(move || {
                let _p = acquire(&gate);
            })
        };
        // Let the waiter park.
        while gate.waiting() == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        // Slot busy + wait room full → immediate backpressure, even with
        // no budget at all.
        match gate.acquire_within(None) {
            Ok(_) => panic!("a full wait room must refuse immediately"),
            Err(e) => assert_eq!(e, AcquireError::Saturated),
        }
        drop(held);
        waiter.join().unwrap();
        assert_eq!(gate.waiting(), 0);
        assert!(gate.acquire_within(None).is_ok());
    }

    #[test]
    fn acquire_within_reports_sojourn_and_expires() {
        let gate = Arc::new(SlotGate::new(1, 4));
        // Free slot: immediate grant, near-zero sojourn.
        let (p, sojourn) = gate.acquire_within(Some(Duration::from_secs(1))).unwrap();
        assert!(sojourn < Duration::from_millis(100), "sojourn: {sojourn:?}");
        // Slot busy: a tiny budget drains before the slot frees.
        {
            let gate = Arc::clone(&gate);
            let err = thread::spawn(move || {
                match gate.acquire_within(Some(Duration::from_millis(20))) {
                    Ok(_) => panic!("a 20ms budget must not outlast a held slot"),
                    Err(e) => e,
                }
            })
            .join()
            .unwrap();
            assert_eq!(err, AcquireError::DeadlineExpired);
        }
        assert_eq!(gate.waiting(), 0, "an expired waiter leaves no ghost in the wait room");
        // Slot busy but freed within the budget: granted, sojourn ≈ hold.
        let waiter = {
            let gate = Arc::clone(&gate);
            thread::spawn(move || gate.acquire_within(Some(Duration::from_secs(5))).unwrap().1)
        };
        while gate.waiting() == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        // Hold the slot a known while once the waiter is queued, so its
        // sojourn cannot undercut the bound however the polls interleave.
        thread::sleep(Duration::from_millis(5));
        drop(p);
        let waited = waiter.join().unwrap();
        assert!(waited >= Duration::from_millis(1), "waited: {waited:?}");
    }

    #[test]
    fn acquire_within_without_budget_never_expires() {
        let gate = Arc::new(SlotGate::new(1, 4));
        let held = acquire(&gate);
        let waiter = {
            let gate = Arc::clone(&gate);
            thread::spawn(move || {
                let (p, _) = gate.acquire_within(None).unwrap();
                drop(p);
            })
        };
        while gate.waiting() == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        drop(held);
        waiter.join().unwrap();
        assert_eq!(gate.waiting(), 0);
    }

    #[test]
    fn waiters_drain_in_bounded_concurrency() {
        let gate = Arc::new(SlotGate::new(2, 16));
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..12)
            .map(|_| {
                let (gate, live, peak) =
                    (Arc::clone(&gate), Arc::clone(&live), Arc::clone(&peak));
                thread::spawn(move || {
                    let _p = acquire(&gate);
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    thread::sleep(Duration::from_millis(2));
                    live.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2, "more than `slots` ran at once");
        assert_eq!(gate.waiting(), 0);
    }
}
