//! Micro-batching policy: when does the queue flush into the scorer?
//!
//! Single-page scoring wastes the parallel classification path; unbounded
//! coalescing wastes latency. The micro-batcher takes the standard middle
//! road: flush as soon as `max_batch` requests have coalesced, or when the
//! oldest queued request has waited `max_delay_ms` on the virtual clock —
//! whichever comes first — and never before the scorer is free.

use crate::protocol::ServeRequest;
use crate::queue::AdmissionQueue;
use serde::{Deserialize, Serialize};

/// Flush policy of a [`MicroBatcher`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Maximum requests per batch (clamped ≥ 1).
    pub max_batch: usize,
    /// Longest the oldest queued request may wait before a flush is
    /// forced, in virtual milliseconds.
    pub max_delay_ms: u64,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 8,
            max_delay_ms: 25,
        }
    }
}

/// Batch accounting over one batcher's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchCounters {
    /// Batches flushed.
    pub batches: u64,
    /// Requests flushed across all batches.
    pub requests: u64,
    /// Largest batch flushed.
    pub max_size: u64,
    /// Batches flushed because they reached `max_batch`.
    pub full_flushes: u64,
    /// Batches flushed because the oldest request hit `max_delay_ms`.
    pub deadline_flushes: u64,
}

/// Decides flush instants and cuts batches off an [`AdmissionQueue`].
#[derive(Debug, Clone)]
pub struct MicroBatcher {
    policy: BatchPolicy,
    counters: BatchCounters,
}

impl MicroBatcher {
    /// A batcher with the given policy.
    pub fn new(policy: BatchPolicy) -> Self {
        MicroBatcher {
            policy: BatchPolicy {
                max_batch: policy.max_batch.max(1),
                ..policy
            },
            counters: BatchCounters::default(),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> &BatchPolicy {
        &self.policy
    }

    /// Batch accounting so far.
    pub fn counters(&self) -> BatchCounters {
        self.counters
    }

    /// The earliest virtual instant the queue's current contents must
    /// flush, given the scorer is busy until `free_at_ms` — `None` while
    /// the queue is empty.
    ///
    /// A full batch flushes as soon as its newest member has arrived (a
    /// batch cannot flush before it is complete); a partial batch waits
    /// for the oldest request's deadline. Neither flushes before the
    /// scorer frees.
    pub fn due_at(&self, queue: &AdmissionQueue<ServeRequest>, free_at_ms: u64) -> Option<u64> {
        let oldest = queue.front()?;
        let due = if queue.len() >= self.policy.max_batch {
            // Always present (length checked above); `?` keeps the
            // no-panic contract (kyp-lint P01) without an expect.
            let newest_in_batch = queue.peek(self.policy.max_batch - 1)?;
            free_at_ms.max(newest_in_batch.arrival_ms)
        } else {
            free_at_ms.max(oldest.arrival_ms.saturating_add(self.policy.max_delay_ms))
        };
        Some(due)
    }

    /// Cuts the next batch off the queue front and records why it
    /// flushed. Call only when [`MicroBatcher::due_at`] says a flush is
    /// due; an empty queue yields an empty batch.
    pub fn take(&mut self, queue: &mut AdmissionQueue<ServeRequest>) -> Vec<ServeRequest> {
        let was_full = queue.len() >= self.policy.max_batch;
        let batch = queue.take_batch(self.policy.max_batch);
        if batch.is_empty() {
            return batch;
        }
        self.counters.batches += 1;
        self.counters.requests += batch.len() as u64;
        self.counters.max_size = self.counters.max_size.max(batch.len() as u64);
        if was_full {
            self.counters.full_flushes += 1;
        } else {
            self.counters.deadline_flushes += 1;
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, arrival_ms: u64) -> ServeRequest {
        ServeRequest {
            id,
            url: format!("http://h{id}.example.com/"),
            arrival_ms,
        }
    }

    #[test]
    fn empty_queue_has_no_flush() {
        let b = MicroBatcher::new(BatchPolicy::default());
        let q: AdmissionQueue<ServeRequest> = AdmissionQueue::new(8);
        assert_eq!(b.due_at(&q, 0), None);
    }

    #[test]
    fn partial_batch_waits_for_the_deadline() {
        let b = MicroBatcher::new(BatchPolicy {
            max_batch: 4,
            max_delay_ms: 25,
        });
        let mut q = AdmissionQueue::new(8);
        q.offer(req(1, 100)).unwrap();
        q.offer(req(2, 110)).unwrap();
        // Oldest arrived at 100 → due at 125, scorer free.
        assert_eq!(b.due_at(&q, 0), Some(125));
        // A busy scorer postpones past the deadline.
        assert_eq!(b.due_at(&q, 300), Some(300));
    }

    #[test]
    fn full_batch_flushes_as_soon_as_the_scorer_frees() {
        let b = MicroBatcher::new(BatchPolicy {
            max_batch: 2,
            max_delay_ms: 1_000,
        });
        let mut q = AdmissionQueue::new(8);
        q.offer(req(1, 100)).unwrap();
        q.offer(req(2, 101)).unwrap();
        assert_eq!(b.due_at(&q, 0), Some(101), "full once the newest arrives");
        assert_eq!(b.due_at(&q, 400), Some(400), "full but scorer busy");
    }

    #[test]
    fn take_records_flush_causes_and_sizes() {
        let mut b = MicroBatcher::new(BatchPolicy {
            max_batch: 2,
            max_delay_ms: 10,
        });
        let mut q = AdmissionQueue::new(8);
        for i in 0..3 {
            q.offer(req(i, i)).unwrap();
        }
        let first = b.take(&mut q);
        assert_eq!(first.len(), 2, "cut at max_batch");
        let second = b.take(&mut q);
        assert_eq!(second.len(), 1);
        let c = b.counters();
        assert_eq!((c.batches, c.requests, c.max_size), (2, 3, 2));
        assert_eq!((c.full_flushes, c.deadline_flushes), (1, 1));
    }

    #[test]
    fn max_batch_clamped_to_one() {
        let mut b = MicroBatcher::new(BatchPolicy {
            max_batch: 0,
            max_delay_ms: 5,
        });
        let mut q = AdmissionQueue::new(4);
        q.offer(req(1, 0)).unwrap();
        q.offer(req(2, 0)).unwrap();
        assert_eq!(b.take(&mut q).len(), 1);
    }
}
