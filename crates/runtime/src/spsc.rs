//! Bounded single-producer/single-consumer ring queues.
//!
//! The real-thread chain engine connects every (upstream instance,
//! downstream instance) pair with exactly one of these rings, so each ring
//! has one producer thread and one consumer thread by construction — the
//! classic Lamport queue applies and no lock is ever taken on the packet
//! path. Two details matter for throughput:
//!
//! * **index caching** — the producer caches the consumer's head (and vice
//!   versa) and refreshes it only when the ring looks full/empty, so the
//!   common case touches a single cache line, and
//! * **batched transfer** — [`Producer::push_batch`] writes up to a whole
//!   batch of items with *one* release store of the tail, and
//!   [`Consumer::pop_batch`] mirrors that with one release store of the
//!   head. Batching amortizes the inter-core coherence traffic the same way
//!   the paper's prototype amortizes NIC and store-client overheads.
//!
//! Capacity is rounded up to a power of two; indices grow monotonically and
//! are masked on access, which keeps full/empty disambiguation trivial
//! (`tail - head` is the queue length).

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, Thread};
use std::time::Duration;

/// Pad hot atomics to their own cache line to avoid false sharing between
/// the producer's and consumer's counters.
#[repr(align(64))]
struct CachePadded<T>(T);

struct Ring<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next slot the consumer will read. Written by the consumer only.
    head: CachePadded<AtomicUsize>,
    /// Next slot the producer will write. Written by the producer only.
    tail: CachePadded<AtomicUsize>,
    /// Set once the producer is done; consumer drains and stops.
    closed: AtomicBool,
    /// True while the consumer is parked (or about to park) waiting for
    /// items. The producer checks it after every tail publication and wakes
    /// the sleeper — Dekker-style: the consumer sets it *before* its final
    /// emptiness re-check, the producer reads it *after* its release store,
    /// with `SeqCst` fences pairing the two (see `park_if_empty` / `wake`).
    waiting: AtomicBool,
    /// The parked consumer thread's handle. Off the packet path: locked
    /// only when arming a park or delivering a wake.
    sleeper: Mutex<Option<Thread>>,
}

// SAFETY: the ring is shared by exactly one producer and one consumer (the
// split constructor hands out one handle of each, neither is Clone). Slots
// between head and tail are owned by the consumer, the rest by the producer;
// the acquire/release pairs on head/tail transfer slot ownership.
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

/// Create a ring with room for at least `capacity` items, returning the two
/// endpoint handles.
pub fn ring<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let ring = Arc::new(Ring {
        buf,
        mask: cap - 1,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
        closed: AtomicBool::new(false),
        waiting: AtomicBool::new(false),
        sleeper: Mutex::new(None),
    });
    (
        Producer {
            ring: Arc::clone(&ring),
            tail: 0,
            head_cache: 0,
        },
        Consumer {
            ring,
            head: 0,
            tail_cache: 0,
        },
    )
}

/// Read-only occupancy view of a ring, for the telemetry monitor thread.
/// Estimates only: the loads are relaxed and unsynchronized with the
/// endpoints, which is fine for a gauge sampled at millisecond cadence.
pub trait RingDepth: Send + Sync {
    /// Items currently queued (approximate).
    fn depth(&self) -> usize;
    /// Ring capacity in items.
    fn capacity(&self) -> usize;
}

impl<T> Ring<T> {
    /// Wake the consumer if it is parked (or arming a park). Called by the
    /// producer after every tail publication and on close.
    ///
    /// The `SeqCst` fence orders our tail/closed store before the `waiting`
    /// load, pairing with the consumer's `waiting` store → fence → tail
    /// re-check in `park_if_empty`: either we observe `waiting` and unpark,
    /// or the consumer's re-check observes our store and it never parks.
    fn wake(&self) {
        fence(Ordering::SeqCst);
        if self.waiting.swap(false, Ordering::SeqCst) {
            let sleeper = self.sleeper.lock().expect("sleeper lock poisoned").take();
            if let Some(t) = sleeper {
                t.unpark();
            }
        }
    }
}

impl<T: Send> RingDepth for Ring<T> {
    fn depth(&self) -> usize {
        let tail = self.tail.0.load(Ordering::Relaxed);
        let head = self.head.0.load(Ordering::Relaxed);
        tail.saturating_sub(head)
    }

    fn capacity(&self) -> usize {
        self.mask + 1
    }
}

/// A type-erased occupancy probe, detachable from the ring's endpoints so
/// the monitor thread can watch rings whose handles live on other threads.
pub type RingProbe = Arc<dyn RingDepth>;

/// The writing end of a ring.
pub struct Producer<T> {
    ring: Arc<Ring<T>>,
    /// Local copy of the tail (only this thread advances it).
    tail: usize,
    /// Last observed head; refreshed only when the ring looks full.
    head_cache: usize,
}

impl<T> Producer<T> {
    /// Free slots available, refreshing the cached head only when the cache
    /// cannot satisfy a request for `want` slots.
    fn free(&mut self, want: usize) -> usize {
        let cap = self.ring.mask + 1;
        let mut free = cap - (self.tail - self.head_cache);
        if free < want {
            self.head_cache = self.ring.head.0.load(Ordering::Acquire);
            free = cap - (self.tail - self.head_cache);
        }
        free
    }

    /// Try to enqueue one item; returns it back if the ring is full.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.free(1) == 0 {
            return Err(item);
        }
        // SAFETY: the slot at `tail` is outside [head, tail) so the consumer
        // does not touch it until the release store below publishes it.
        unsafe {
            (*self.ring.buf[self.tail & self.ring.mask].get()).write(item);
        }
        self.tail += 1;
        self.ring.tail.0.store(self.tail, Ordering::Release);
        self.ring.wake();
        Ok(())
    }

    /// Enqueue up to `items.len()` items from the front of `items` with a
    /// single tail publication; returns how many were moved (the moved
    /// prefix is drained from the vector).
    pub fn push_batch(&mut self, items: &mut Vec<T>) -> usize {
        let n = self.free(items.len()).min(items.len());
        if n == 0 {
            return 0;
        }
        for item in items.drain(..n) {
            // SAFETY: as in `push`; all written slots are published together
            // by the single release store below.
            unsafe {
                (*self.ring.buf[self.tail & self.ring.mask].get()).write(item);
            }
            self.tail += 1;
        }
        self.ring.tail.0.store(self.tail, Ordering::Release);
        self.ring.wake();
        n
    }

    /// Mark the stream finished. The consumer drains what is queued and then
    /// observes exhaustion.
    pub fn close(&self) {
        self.ring.closed.store(true, Ordering::Release);
        self.ring.wake();
    }
}

impl<T: Send + 'static> Producer<T> {
    /// Detach an occupancy probe for the telemetry monitor.
    pub fn depth_probe(&self) -> RingProbe {
        Arc::clone(&self.ring) as RingProbe
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.close();
    }
}

/// The reading end of a ring.
pub struct Consumer<T> {
    ring: Arc<Ring<T>>,
    /// Local copy of the head (only this thread advances it).
    head: usize,
    /// Last observed tail; refreshed only when the ring looks empty.
    tail_cache: usize,
}

impl<T> Consumer<T> {
    /// Items available, refreshing the cached tail only when the cache
    /// cannot satisfy a request for `want` items.
    fn available(&mut self, want: usize) -> usize {
        let mut avail = self.tail_cache - self.head;
        if avail < want {
            self.tail_cache = self.ring.tail.0.load(Ordering::Acquire);
            avail = self.tail_cache - self.head;
        }
        avail
    }

    /// Dequeue one item, if any.
    pub fn pop(&mut self) -> Option<T> {
        if self.available(1) == 0 {
            return None;
        }
        // SAFETY: the slot at `head` was published by the producer's release
        // store of a tail beyond it, which our acquire load observed.
        let item = unsafe { (*self.ring.buf[self.head & self.ring.mask].get()).assume_init_read() };
        self.head += 1;
        self.ring.head.0.store(self.head, Ordering::Release);
        Some(item)
    }

    /// Dequeue up to `max` items into `out` with a single head publication;
    /// returns how many were moved.
    pub fn pop_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let n = self.available(max).min(max);
        if n == 0 {
            return 0;
        }
        out.reserve(n);
        for _ in 0..n {
            // SAFETY: as in `pop`; the whole run [head, head+n) was published
            // before the tail value we read.
            let item =
                unsafe { (*self.ring.buf[self.head & self.ring.mask].get()).assume_init_read() };
            out.push(item);
            self.head += 1;
        }
        self.ring.head.0.store(self.head, Ordering::Release);
        n
    }

    /// Park this thread until the producer publishes an item, closes the
    /// ring, or `timeout` elapses — the blocking leg of the engine's idle
    /// wait (instance and sink threads yield a few times first).
    ///
    /// Returns `false` without parking if items are already available or the
    /// ring is closed. The timeout is a lost-wake safety net only — the
    /// arm/wake fences make a genuine lost wake impossible — and bounds the
    /// latency of any future protocol bug to one timeout period.
    pub fn park_if_empty(&mut self, timeout: Duration) -> bool {
        *self.ring.sleeper.lock().expect("sleeper lock poisoned") = Some(thread::current());
        self.ring.waiting.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        // Fresh re-check after arming: pairs with the producer's
        // store → fence → `waiting` load in `Ring::wake`.
        self.tail_cache = self.ring.tail.0.load(Ordering::Acquire);
        if self.tail_cache != self.head || self.ring.closed.load(Ordering::Acquire) {
            self.ring.waiting.store(false, Ordering::SeqCst);
            return false;
        }
        thread::park_timeout(timeout);
        self.ring.waiting.store(false, Ordering::SeqCst);
        true
    }

    /// True while the producer has not closed the ring, i.e. items may
    /// still arrive. A cheap non-mutating probe for choosing a ring worth
    /// parking on.
    pub fn has_open_producer(&self) -> bool {
        !self.ring.closed.load(Ordering::Acquire)
    }

    /// True once the producer closed the ring *and* everything was drained.
    pub fn is_exhausted(&mut self) -> bool {
        // Check closed before re-checking emptiness: the producer publishes
        // items before closing, so "closed then empty" implies exhausted.
        self.ring.closed.load(Ordering::Acquire) && self.available(1) == 0
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        // Drain remaining items so their destructors run.
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_order_single_thread() {
        let (mut tx, mut rx) = ring::<u32>(8);
        for i in 0..8 {
            tx.push(i).unwrap();
        }
        assert!(tx.push(99).is_err(), "ring is full");
        for i in 0..8 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn batched_transfer_moves_prefixes() {
        let (mut tx, mut rx) = ring::<u64>(4);
        let mut pending: Vec<u64> = (0..10).collect();
        assert_eq!(tx.push_batch(&mut pending), 4);
        assert_eq!(pending.len(), 6, "unmoved suffix stays");
        let mut got = Vec::new();
        assert_eq!(rx.pop_batch(&mut got, 3), 3);
        assert_eq!(got, vec![0, 1, 2]);
        assert_eq!(tx.push_batch(&mut pending), 3);
        rx.pop_batch(&mut got, usize::MAX);
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn close_signals_exhaustion_after_drain() {
        let (mut tx, mut rx) = ring::<u8>(4);
        tx.push(1).unwrap();
        tx.close();
        assert!(!rx.is_exhausted(), "still holds an item");
        assert_eq!(rx.pop(), Some(1));
        assert!(rx.is_exhausted());
    }

    #[test]
    fn cross_thread_stream_is_lossless_and_ordered() {
        const N: u64 = 1_000_000;
        let (mut tx, mut rx) = ring::<u64>(1024);
        let producer = thread::spawn(move || {
            let mut batch = Vec::with_capacity(64);
            let mut next = 0u64;
            while next < N {
                while batch.len() < 64 && next < N {
                    batch.push(next);
                    next += 1;
                }
                while !batch.is_empty() {
                    if tx.push_batch(&mut batch) == 0 {
                        std::hint::spin_loop();
                    }
                }
            }
        });
        let mut expected = 0u64;
        let mut buf = Vec::with_capacity(64);
        loop {
            buf.clear();
            if rx.pop_batch(&mut buf, 64) == 0 {
                if rx.is_exhausted() {
                    break;
                }
                std::hint::spin_loop();
                continue;
            }
            for v in &buf {
                assert_eq!(*v, expected);
                expected += 1;
            }
        }
        producer.join().unwrap();
        assert_eq!(expected, N);
    }

    #[test]
    fn depth_probe_tracks_occupancy() {
        let (mut tx, mut rx) = ring::<u32>(8);
        let probe = tx.depth_probe();
        assert_eq!(probe.capacity(), 8);
        assert_eq!(probe.depth(), 0);
        for i in 0..5 {
            tx.push(i).unwrap();
        }
        assert_eq!(probe.depth(), 5);
        rx.pop();
        rx.pop();
        assert_eq!(probe.depth(), 3);
        drop((tx, rx));
        assert_eq!(probe.depth(), 0, "consumer drop drains the ring");
    }

    #[test]
    fn parked_consumer_wakes_on_push_and_close() {
        let (mut tx, mut rx) = ring::<u64>(8);
        // Items already queued: the arm re-check refuses to park.
        tx.push(7).unwrap();
        assert!(!rx.park_if_empty(Duration::from_secs(5)));
        assert_eq!(rx.pop(), Some(7));

        // A parked consumer is woken by the next push — well before the
        // generous timeout — and by close.
        let consumer = thread::spawn(move || {
            let mut got = Vec::new();
            loop {
                if rx.pop_batch(&mut got, 64) == 0 {
                    if rx.is_exhausted() {
                        break;
                    }
                    rx.park_if_empty(Duration::from_secs(60));
                }
            }
            got
        });
        thread::sleep(Duration::from_millis(20));
        for i in 0..100u64 {
            let mut item = i;
            while let Err(back) = tx.push(item) {
                item = back;
                thread::yield_now();
            }
            if i % 10 == 0 {
                thread::sleep(Duration::from_millis(1));
            }
        }
        tx.close();
        let got = consumer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn drop_runs_destructors_of_queued_items() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let (mut tx, _rx) = ring::<D>(8);
            for _ in 0..5 {
                tx.push(D).unwrap();
            }
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 5);
    }
}
