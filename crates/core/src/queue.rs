//! A bounded MPMC work queue: the [`crate::sched::Scheduler`]'s dispatch
//! queue.
//!
//! Each scheduler run sizes one queue for the work it is about to hand
//! out, fills it with [`BoundedQueue::try_push`], and lets its worker
//! pool drain it with [`BoundedQueue::pop`]. `pop` blocks until work
//! arrives and returns `None` only after [`BoundedQueue::close`] *and* a
//! fully drained queue, which is the pool's exit signal: every queued
//! item is executed before the workers stop. `try_push` never blocks; a
//! full or closed queue hands the item back as a [`PushError`].
//!
//! std `Mutex` + `Condvar` rather than a lock-free ring: the payloads are
//! whole queries whose execution dwarfs any queue overhead, and the
//! blocking semantics (drain-aware pop) are the hard part worth being
//! obviously correct about.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a [`BoundedQueue::try_push`] was refused. The rejected value comes
/// back so the caller keeps ownership of it.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity — backpressure; retry later.
    Full(T),
    /// The queue is closed (draining) — no new work is admitted.
    Closed(T),
}

impl<T> PushError<T> {
    /// The rejected value.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(v) | PushError::Closed(v) => v,
        }
    }
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue; see the module docs.
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(QueueState { items: VecDeque::new(), closed: false }),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Admit `item` without blocking. Fails with [`PushError::Full`] at
    /// capacity and [`PushError::Closed`] after [`BoundedQueue::close`].
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut state = self.state.lock().expect("queue lock");
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        state.items.push_back(item);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Take the next item, blocking while the queue is open and empty.
    /// Returns `None` once the queue is closed **and** drained — the
    /// worker-pool exit signal.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state).expect("queue lock");
        }
    }

    /// Stop admitting new work. Already-queued items remain poppable;
    /// blocked consumers wake and drain them before observing `None`.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("queue lock");
        state.closed = true;
        drop(state);
        self.available.notify_all();
    }

    /// Whether the queue has been closed.
    pub fn is_closed(&self) -> bool {
        self.state.lock().expect("queue lock").closed
    }

    /// Items currently waiting (a point-in-time snapshot).
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock").items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The admission bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn push_pop_round_trips_in_order() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert!(q.is_empty());
    }

    #[test]
    fn full_queue_pushes_back_instead_of_blocking() {
        let q = BoundedQueue::new(2);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        match q.try_push("c") {
            Err(PushError::Full(v)) => assert_eq!(v, "c", "the job comes back intact"),
            other => panic!("expected Full, got {other:?}"),
        }
        // Draining one slot re-opens admission.
        assert_eq!(q.pop(), Some("a"));
        q.try_push("c").unwrap();
    }

    #[test]
    fn close_refuses_new_work_but_drains_queued_work() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.close();
        assert!(q.is_closed());
        assert!(matches!(q.try_push(2), Err(PushError::Closed(2))));
        assert_eq!(q.pop(), Some(1), "accepted work still completes");
        assert_eq!(q.pop(), None, "then consumers see the close");
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.pop())
        };
        // Give the consumer a moment to block, then close.
        thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn mpmc_delivers_every_item_exactly_once() {
        let q = Arc::new(BoundedQueue::new(8));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..100 {
                        let item = p * 100 + i;
                        // Spin on backpressure: producers in this test
                        // genuinely want every item delivered.
                        loop {
                            match q.try_push(item) {
                                Ok(()) => break,
                                Err(PushError::Full(_)) => thread::yield_now(),
                                Err(PushError::Closed(_)) => panic!("closed early"),
                            }
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u32> = consumers.into_iter().flat_map(|c| c.join().unwrap()).collect();
        all.sort_unstable();
        let expected: Vec<u32> = (0..400).collect();
        assert_eq!(all, expected, "every item delivered exactly once");
    }
}
