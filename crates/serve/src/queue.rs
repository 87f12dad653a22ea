//! [`BoundedQueue`]: the service's explicit backpressure point.
//!
//! Producers `try_push` work items; when the queue is at capacity the
//! push fails *immediately* and the request is answered with a typed
//! `overloaded` response — the service never buffers without bound
//! and clients learn about saturation synchronously instead of through
//! timeouts. Workers block on [`BoundedQueue::pop`], which also lets them
//! peek-drain compatible follow-up items for micro-batching
//! ([`BoundedQueue::pop_batch`]).
//!
//! Closing the queue ([`BoundedQueue::close`]) wakes every blocked worker
//! but keeps already-queued items poppable, so a graceful drain is
//! exactly: close, then pop until `None`.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity — the caller should report overload.
    Full,
    /// The queue was closed — the service is draining.
    Closed,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A fixed-capacity multi-producer multi-consumer queue.
pub struct BoundedQueue<T> {
    capacity: usize,
    state: Mutex<State<T>>,
    available: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue admitting at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            capacity: capacity.max(1),
            state: Mutex::new(State { items: VecDeque::new(), closed: false }),
            available: Condvar::new(),
        }
    }

    /// The admission capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock").items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking push.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`BoundedQueue::close`]; the item is returned to the caller inside
    /// the error-free path only.
    pub fn try_push(&self, item: T) -> Result<(), PushError> {
        let mut state = self.state.lock().expect("queue lock");
        if state.closed {
            return Err(PushError::Closed);
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full);
        }
        state.items.push_back(item);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until an item is available or the queue is closed *and*
    /// drained; `None` means "no more work, ever".
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

    /// Like [`BoundedQueue::pop`], but after the first item greedily pops
    /// up to `max - 1` further items *from the front* as long as
    /// `compatible(first, candidate)` holds — the micro-batching
    /// primitive. Incompatible items stay queued in order.
    pub fn pop_batch<F>(&self, max: usize, compatible: F) -> Vec<T>
    where
        F: Fn(&T, &T) -> bool,
    {
        let Some(first) = self.pop() else {
            return Vec::new();
        };
        let mut batch = vec![first];
        if max <= 1 {
            return batch;
        }
        let mut state = self.state.lock().expect("queue lock");
        while batch.len() < max {
            match state.items.front() {
                Some(candidate) if compatible(&batch[0], candidate) => {
                    let item = state.items.pop_front().expect("front exists");
                    batch.push(item);
                }
                _ => break,
            }
        }
        batch
    }

    /// Closes the queue: future pushes fail, blocked poppers wake, queued
    /// items remain poppable until drained.
    pub fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_beyond_capacity_reports_overload() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full));
        assert_eq!(q.len(), 2);
        // Popping frees a slot.
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn close_drains_then_stops() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.try_push(3), Err(PushError::Closed));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_poppers() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        // Give the waiter time to block, then close.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(waiter.join().unwrap(), None);
    }

    #[test]
    fn pop_batch_coalesces_compatible_front_items() {
        let q = BoundedQueue::new(8);
        for item in [10, 12, 14, 15, 16] {
            q.try_push(item).unwrap();
        }
        // Even items batch together; 15 stops the drain.
        let batch = q.pop_batch(8, |a, b| a % 2 == b % 2);
        assert_eq!(batch, vec![10, 12, 14]);
        assert_eq!(q.pop(), Some(15));
        assert_eq!(q.pop(), Some(16));
    }

    #[test]
    fn pop_batch_respects_max() {
        let q = BoundedQueue::new(8);
        for item in 0..6 {
            q.try_push(item).unwrap();
        }
        assert_eq!(q.pop_batch(3, |_, _| true), vec![0, 1, 2]);
        assert_eq!(q.pop_batch(1, |_, _| true), vec![3]);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn capacity_floor_is_one() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        q.try_push(1).unwrap();
        assert_eq!(q.try_push(2), Err(PushError::Full));
        assert!(!q.is_empty());
    }
}
