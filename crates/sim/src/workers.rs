//! The capacity model of one multi-threaded NF instance.

use crate::time::{SimDuration, VirtualTime};

/// Identical workers (the paper's NFs are multi-threaded processes): a job
/// goes to the worker that frees up first, and starts once both are ready.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    /// When each worker becomes free.
    free_at: Vec<VirtualTime>,
}

impl WorkerPool {
    /// `workers` idle workers (at least one).
    pub fn new(workers: usize) -> WorkerPool {
        WorkerPool {
            free_at: vec![VirtualTime::ZERO; workers.max(1)],
        }
    }

    /// Serve a job that arrives at `arrival` and needs `service`; returns
    /// when it finishes.
    pub fn serve(&mut self, arrival: VirtualTime, service: SimDuration) -> VirtualTime {
        let free_at = self.free_at.iter_mut().min().expect("a pool has a worker");
        *free_at = arrival.max(*free_at) + service;
        *free_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_queue_once_every_worker_is_busy() {
        let mut pool = WorkerPool::new(2);
        let (us, at) = (SimDuration::from_micros, VirtualTime::from_micros);
        assert_eq!(pool.serve(at(0), us(10)), at(10));
        assert_eq!(pool.serve(at(0), us(10)), at(10));
        // Both busy until 10 µs: the third job waits for the first free one.
        assert_eq!(pool.serve(at(1), us(10)), at(20));
        // An idle worker starts a late job on arrival.
        assert_eq!(pool.serve(at(50), us(1)), at(51));
        assert_eq!(WorkerPool::new(0).serve(at(3), us(1)), at(4));
    }
}
