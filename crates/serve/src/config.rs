//! Serving configuration knobs.

use std::time::Duration;

/// Configuration of one serving instance: admission bounds, the dynamic
/// micro-batching policy and the worker pool size.
///
/// The batcher is work-conserving: a free worker takes whatever is queued,
/// up to `max_batch` requests, and runs it at once. Requests that arrive
/// while it executes form its next batch, so batches fill under load
/// without a timer. Only right after a full batch — the shard is
/// saturated — does the worker wait, for at most `max_wait`, for the next
/// batch to fill.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Largest batch a worker executes at once (≥ 1).
    pub max_batch: usize,
    /// Longest a worker waits for a batch to fill. It waits only right
    /// after executing a full batch; otherwise it runs what is queued at
    /// once.
    pub max_wait: Duration,
    /// Bound of the admission queue; submissions beyond it are rejected
    /// with [`ServeError::QueueFull`](crate::ServeError::QueueFull) so
    /// overload turns into backpressure instead of unbounded memory.
    pub queue_capacity: usize,
    /// Worker threads (each owning a [`Session`](cn_analog::engine::Session))
    /// per instance (≥ 1).
    pub workers: usize,
}

impl ServeConfig {
    /// A config serving batches of up to `max_batch` with 2 workers, a
    /// 2 ms fill wait after full batches and a queue bound of
    /// `64 × max_batch`.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub fn new(max_batch: usize) -> ServeConfig {
        assert!(max_batch > 0, "max_batch must be positive");
        ServeConfig {
            max_batch,
            max_wait: Duration::from_millis(2),
            queue_capacity: 64 * max_batch,
            workers: 2,
        }
    }

    /// Sets the longest wait for a batch to fill after a full batch.
    pub fn max_wait(mut self, wait: Duration) -> ServeConfig {
        self.max_wait = wait;
        self
    }

    /// Sets the admission-queue bound.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn queue_capacity(mut self, capacity: usize) -> ServeConfig {
        assert!(capacity > 0, "queue_capacity must be positive");
        self.queue_capacity = capacity;
        self
    }

    /// Sets the per-instance worker count.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn workers(mut self, workers: usize) -> ServeConfig {
        assert!(workers > 0, "workers must be positive");
        self.workers = workers;
        self
    }
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig::new(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trips() {
        let cfg = ServeConfig::new(8)
            .max_wait(Duration::from_millis(5))
            .queue_capacity(100)
            .workers(3);
        assert_eq!(cfg.max_batch, 8);
        assert_eq!(cfg.max_wait, Duration::from_millis(5));
        assert_eq!(cfg.queue_capacity, 100);
        assert_eq!(cfg.workers, 3);
    }

    #[test]
    #[should_panic(expected = "max_batch must be positive")]
    fn zero_batch_rejected() {
        ServeConfig::new(0);
    }
}
