//! The bounded admission queue feeding the dynamic batcher.
//!
//! A [`AdmissionQueue`] is a capacity-bounded MPMC queue with one extra
//! primitive the batcher needs:
//! [`pop_batch_into`](AdmissionQueue::pop_batch_into) blocks for the first
//! item, then takes whatever else is queued, up to `max_batch` items,
//! without waiting for more. Closing the queue rejects new pushes but lets
//! consumers drain everything already admitted, so a shutdown never drops
//! an accepted request.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the item is handed back for retry.
    Full(T),
    /// The queue was closed; the item is handed back.
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Bounded MPMC queue with batch-coalescing pops.
pub struct AdmissionQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> AdmissionQueue<T> {
    /// Creates a queue admitting at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> AdmissionQueue<T> {
        assert!(capacity > 0, "queue capacity must be positive");
        AdmissionQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Admits `item`, or rejects it when the queue is full or closed.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity (backpressure — the caller may
    /// retry), [`PushError::Closed`] after [`close`](AdmissionQueue::close).
    pub fn push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Pops a batch into a caller-owned vector: blocks until at least
    /// one item is available, then takes whatever is queued, up to
    /// `max_batch` items, without waiting for more. `batch` is cleared and
    /// refilled, reusing its capacity, so a long-lived consumer (a
    /// batching worker) that passes the same vector every iteration
    /// allocates nothing here once the vector has grown to `max_batch`.
    /// `batch` is left empty exactly when the queue is closed and fully
    /// drained — the consumer's shutdown signal.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub fn pop_batch_into(&self, max_batch: usize, batch: &mut Vec<T>) {
        assert!(max_batch > 0, "max_batch must be positive");
        batch.clear();
        let mut inner = self.lock();
        while inner.items.is_empty() {
            if inner.closed {
                return;
            }
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        let take = max_batch.min(inner.items.len());
        batch.extend(inner.items.drain(..take));
        drop(inner);
        // Items may remain (e.g. a burst larger than max_batch); make sure
        // another consumer wakes up for them.
        self.not_empty.notify_one();
    }

    /// Closes the queue: future pushes fail, blocked consumers wake, and
    /// already-admitted items remain poppable until drained.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }

    /// Number of currently queued items.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn pop(q: &AdmissionQueue<u32>, max_batch: usize) -> Vec<u32> {
        let mut batch = Vec::new();
        q.pop_batch_into(max_batch, &mut batch);
        batch
    }

    #[test]
    fn push_pop_round_trip() {
        let q = AdmissionQueue::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(pop(&q, 8), vec![1, 2]);
    }

    #[test]
    fn capacity_is_enforced() {
        let q = AdmissionQueue::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.push(3), Err(PushError::Full(3)));
        pop(&q, 1);
        q.push(3).unwrap();
    }

    #[test]
    fn close_rejects_pushes_but_drains() {
        let q = AdmissionQueue::new(4);
        q.push(7).unwrap();
        q.close();
        assert_eq!(q.push(8), Err(PushError::Closed(8)));
        assert_eq!(pop(&q, 4), vec![7]);
        assert!(pop(&q, 4).is_empty());
    }

    #[test]
    fn pop_batch_never_exceeds_max_batch() {
        let q = AdmissionQueue::new(64);
        for i in 0..10 {
            q.push(i).unwrap();
        }
        assert_eq!(pop(&q, 4).len(), 4);
        assert_eq!(q.len(), 6);
    }

    #[test]
    fn pop_batch_into_reuses_capacity_and_signals_drain() {
        let q = AdmissionQueue::new(8);
        let mut batch: Vec<u32> = Vec::new();
        for round in 0..3u32 {
            for i in 0..4 {
                q.push(round * 10 + i).unwrap();
            }
            q.pop_batch_into(4, &mut batch);
            assert_eq!(batch.len(), 4, "round {round}");
        }
        let cap = batch.capacity();
        for i in 0..4 {
            q.push(i).unwrap();
        }
        q.pop_batch_into(4, &mut batch);
        assert_eq!(batch.capacity(), cap, "warm vector was reallocated");
        q.close();
        q.pop_batch_into(4, &mut batch);
        assert!(batch.is_empty(), "closed+drained must leave batch empty");
    }

    #[test]
    fn blocked_consumer_wakes_on_close() {
        let q: Arc<AdmissionQueue<u32>> = Arc::new(AdmissionQueue::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || pop(&q, 4))
        };
        std::thread::sleep(Duration::from_millis(5));
        q.close();
        assert!(consumer.join().unwrap().is_empty());
    }
}
