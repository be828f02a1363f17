//! A ring hop's allocation budget, as a test: zero.
//!
//! The engine's rings carry ring batches, and every link owns a fixed pool
//! of batch buffers laid with it (`chc_runtime::wiring::link`). Once a link
//! is laid, a packet's trip across it — into the producer's buffer, through
//! the ring as part of one batch, out of the consumer's hands and the
//! buffer back to the pool — touches no allocator, on one thread or across
//! two. A consumer that fail-stops halfway through a popped batch hands the
//! buffer back too, so the pool keeps its size.
//!
//! Allocations are counted per thread (the test harness runs tests on
//! parallel threads), by a counting wrapper around the system allocator.

use chc_core::TaggedPacket;
use chc_packet::Packet;
use chc_runtime::wiring::{link, InputRing};
use chc_store::Clock;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::thread;

thread_local! {
    // `const` initialisation and no destructor: reading this inside the
    // allocator can neither allocate nor recurse.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the only addition is a
// thread-local counter bump, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`, plus the caller's `new_size` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (and reallocations) this thread performed inside `f`.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// The engine's default ring: 1,024 packets in batches of 32.
const DEPTH: usize = 1024;
const BATCH: usize = 32;
/// Packets per test: well over ten thousand, and not a whole batch count.
const PACKETS: u64 = 20_011;

fn packet(n: u64) -> TaggedPacket {
    TaggedPacket::new(Packet::builder().id(n).build(), Clock(n))
}

/// Pop every queued batch, check its packets continue the stream at
/// `next`, and hand each buffer back.
fn drain(input: &mut InputRing, next: &mut u64) {
    while let Some(batch) = input.pop() {
        for tp in &batch {
            assert_eq!(tp.clock.counter(), *next);
            *next += 1;
        }
        input.recycle(batch);
    }
}

#[test]
fn the_counter_sees_allocations() {
    // Guards the budget tests against passing vacuously.
    let (boxed, ()) = allocations_in(|| drop(std::hint::black_box(Box::new(7u64))));
    assert_eq!(boxed, 1);
}

#[test]
fn a_packet_crosses_a_link_without_allocating() {
    let (mut out, mut input) = link(DEPTH, BATCH);
    let pool = out.buffers_at_rest();
    let (allocations, next) = allocations_in(|| {
        let (mut pushed, mut next) = (0, 1);
        // Runs of packets between drains, each flushed as an idle thread
        // flushes: partial batches, whole ones, and a ring filled to its
        // last slot.
        let runs = [1, 7, 31, 32, 33, 100, DEPTH as u64];
        for run in runs.into_iter().cycle() {
            for _ in 0..run.min(PACKETS - pushed) {
                pushed += 1;
                out.push(packet(pushed), BATCH);
            }
            out.flush();
            drain(&mut input, &mut next);
            if pushed == PACKETS {
                return next;
            }
        }
        unreachable!("the runs cycle until every packet is pushed")
    });
    assert_eq!(next, PACKETS + 1, "every packet crossed once, in order");
    assert_eq!(allocations, 0, "allocations over {PACKETS} packets");
    assert_eq!(out.buffers_at_rest(), pool);
}

#[test]
fn a_stream_across_two_threads_allocates_on_neither() {
    let (mut out, mut input) = link(DEPTH, BATCH);
    let consumer = thread::spawn(move || {
        allocations_in(|| {
            let mut next = 1;
            while next <= PACKETS {
                drain(&mut input, &mut next);
                thread::yield_now();
            }
            next
        })
    });
    let (produced, ()) = allocations_in(|| {
        for n in 1..=PACKETS {
            out.push(packet(n), BATCH);
        }
        out.flush();
    });
    let (consumed, next) = consumer.join().unwrap();
    assert_eq!(next, PACKETS + 1);
    assert_eq!(
        (produced, consumed),
        (0, 0),
        "producer, consumer allocations"
    );
}

/// What a fail-stopped instance does with its links: the popped batch's
/// remainder dies with it but the buffer goes back to its pool, and its
/// unflushed output is discarded into the buffer it sits in.
#[test]
fn a_fail_stop_mid_batch_leaves_the_pool_whole() {
    let (mut out, mut input) = link(DEPTH, BATCH);
    let pool = out.buffers_at_rest();
    // Three full batches and a half-filled buffer.
    for n in 1..=(3 * BATCH as u64 + 16) {
        out.push(packet(n), BATCH);
    }
    let mut batch = input.pop().expect("a full batch");
    let processed: Vec<TaggedPacket> = batch.drain(..BATCH / 2).collect();
    assert_eq!(processed.len(), BATCH / 2);
    input.recycle(batch);
    assert_eq!(out.discard().count(), 16, "the unflushed half batch");
    assert_eq!(out.buffers_at_rest(), pool, "the pool kept its size");
    // A replacement consumer carries on from the next batch.
    let mut next = BATCH as u64 + 1;
    drain(&mut input, &mut next);
    assert_eq!(next, 3 * BATCH as u64 + 1);
    assert_eq!(out.buffers_at_rest(), pool);
}
