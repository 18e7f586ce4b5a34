//! Serving configuration knobs.

use std::time::Duration;

/// Configuration of one serving instance: admission bounds, the batch
/// size and the worker pool size.
///
/// The batcher is work-conserving: a free worker takes whatever is queued,
/// up to `max_batch` requests, and runs it at once. Requests that arrive
/// while it executes form its next batch, so batches fill under load
/// without a timer, and a worker never waits while it holds a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Largest batch a worker executes at once (≥ 1).
    pub max_batch: usize,
    /// Bound of the admission queue; submissions beyond it are rejected
    /// with [`ServeError::QueueFull`](crate::ServeError::QueueFull) so
    /// overload turns into backpressure instead of unbounded memory.
    pub queue_capacity: usize,
    /// Worker threads (each owning a [`Session`](cn_analog::engine::Session))
    /// per instance (≥ 1).
    pub workers: usize,
}

impl ServeConfig {
    /// A config serving batches of up to `max_batch` with 2 workers and a
    /// queue bound of `64 × max_batch`.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub fn new(max_batch: usize) -> ServeConfig {
        assert!(max_batch > 0, "max_batch must be positive");
        ServeConfig {
            max_batch,
            queue_capacity: 64 * max_batch,
            workers: 2,
        }
    }

    /// Does nothing: the batcher never waits for a batch to fill, so there
    /// is no fill window to set. Kept only so existing callers still
    /// compile; it will be removed.
    pub fn max_wait(self, _wait: Duration) -> ServeConfig {
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
        let cfg = ServeConfig::new(8).queue_capacity(100).workers(3);
        assert_eq!(cfg.max_batch, 8);
        assert_eq!(cfg.queue_capacity, 100);
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.clone().max_wait(Duration::from_millis(5)), cfg);
    }

    #[test]
    #[should_panic(expected = "max_batch must be positive")]
    fn zero_batch_rejected() {
        ServeConfig::new(0);
    }
}
