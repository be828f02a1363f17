//! Property tests for [`ClockWindow`], the clock-indexed bitmap behind the
//! engine's duplicate suppression, against the structure it replaced: a
//! `HashSet<Clock>` that forgets nothing, plus the forgotten floor ("at or
//! below it ⇒ already seen").
//!
//! Each case draws a seed and derives its scenario from a `StdRng` (the
//! vendored proptest shim has no collection strategies). Scenarios mix
//! dense runs, sparse jumps, counters straddling page boundaries,
//! re-offered duplicates, and `forget_through` followed by clocks below and
//! above the new base.

use chc_core::ClockWindow;
use chc_store::Clock;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// The oracle: every clock ever offered, and the forgotten floor.
#[derive(Default)]
struct Oracle {
    seen: HashSet<Clock>,
    forgotten_through: Option<u64>,
    /// Pages a remembered insert touched.
    touched: HashSet<u64>,
}

impl Oracle {
    fn forgotten(&self, clock: Clock) -> bool {
        self.forgotten_through.is_some_and(|f| clock.counter() <= f)
    }

    fn insert(&mut self, clock: Clock) -> bool {
        if self.forgotten(clock) {
            return false;
        }
        self.touched
            .insert(clock.counter() / ClockWindow::PAGE_BITS);
        self.seen.insert(clock)
    }

    fn forget_through(&mut self, clock: Clock) {
        let floor = self.forgotten_through.get_or_insert(0);
        *floor = (*floor).max(clock.counter());
    }

    /// The highest clock remembered, and every counter from the floor up
    /// to it never offered.
    fn gaps(&self) -> (u64, Vec<u64>) {
        let floor = self.forgotten_through.map_or(1, |f| f + 1).max(1);
        let held = |c: &u64| self.seen.contains(&Clock(*c));
        let top = (self.seen.iter().map(|c| c.counter()))
            .filter(|&c| c >= floor)
            .max()
            .unwrap_or(0);
        (top, (floor..=top).filter(|c| !held(c)).collect())
    }

    /// Pages that must still be resident: touched, and not wholly at or
    /// below the forgotten counter.
    fn resident_pages(&self) -> usize {
        self.touched
            .iter()
            .filter(|page| match self.forgotten_through {
                Some(f) => **page >= (f + 1) / ClockWindow::PAGE_BITS,
                None => true,
            })
            .count()
    }
}

/// A counter near `cursor`, drawn the way the seed's scenario says.
fn draw(rng: &mut StdRng, style: u8, cursor: u64) -> u64 {
    match style {
        // Dense: the next few counters after the cursor, as a root stamps them.
        0 => cursor + rng.gen_range(0..4u64),
        // Sparse: jumps of up to several pages.
        1 => cursor + rng.gen_range(0..200_000u64),
        // Page boundaries: within two counters of a multiple of the page.
        _ => {
            let page = cursor / ClockWindow::PAGE_BITS + rng.gen_range(0..3u64);
            (page * ClockWindow::PAGE_BITS + rng.gen_range(0..5u64)).saturating_sub(2)
        }
    }
}

proptest! {
    #[test]
    fn window_agrees_with_a_hash_set_that_forgets_nothing(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let style = rng.gen_range(0..3u8);
        let mut window = ClockWindow::new();
        let mut oracle = Oracle::default();
        let mut cursor = 1;
        let mut offered: Vec<Clock> = Vec::new();

        for _ in 0..rng.gen_range(50..400usize) {
            let at = &mut cursor;
            match rng.gen_range(0..10u8) {
                // A fresh draw, moving the cursor on.
                0..=5 => {
                    let clock = Clock(draw(&mut rng, style, *at));
                    *at = (*at).max(clock.counter());
                    offered.push(clock);
                    prop_assert_eq!(window.insert(clock), oracle.insert(clock), "{}", clock);
                }
                // A duplicate of something offered before.
                6..=7 if !offered.is_empty() => {
                    let clock = offered[rng.gen_range(0..offered.len())];
                    prop_assert_eq!(window.insert(clock), oracle.insert(clock), "dup {}", clock);
                }
                // Forget through a counter around the cursor, then re-offer
                // clocks just below and just above the new base.
                _ => {
                    let base = at.saturating_sub(rng.gen_range(0..6u64));
                    let through = Clock(base);
                    window.forget_through(through);
                    oracle.forget_through(through);
                    for counter in [base.saturating_sub(1), base, base + 1, base + 2] {
                        let clock = Clock(counter);
                        offered.push(clock);
                        prop_assert_eq!(
                            window.insert(clock),
                            oracle.insert(clock),
                            "{} after forgetting through {}", clock, through
                        );
                    }
                    *at = (*at).max(base + 2);
                }
            }
            prop_assert_eq!(window.resident_pages(), oracle.resident_pages());
        }
        prop_assert_eq!(
            window.resident_bytes(),
            oracle.resident_pages() * ClockWindow::PAGE_BYTES
        );
        prop_assert_eq!(window.gaps(), oracle.gaps());
    }
}

#[test]
fn a_dense_run_costs_a_bit_per_clock_and_forgetting_frees_whole_pages() {
    let mut window = ClockWindow::new();
    let n = 3 * ClockWindow::PAGE_BITS + 17;
    for counter in 1..=n {
        assert!(window.insert(Clock::with_root(0, counter)));
    }
    // Counters 1..=n touch pages 0..=3: ⌈n/8⌉ bytes rounded up to pages.
    assert_eq!(window.resident_pages(), 4);
    assert!(window.resident_bytes() <= (n as usize).div_ceil(8) + ClockWindow::PAGE_BYTES);

    // Forgetting through the last counter of page 1 frees pages 0 and 1 …
    window.forget_through(Clock::with_root(0, 2 * ClockWindow::PAGE_BITS - 1));
    assert_eq!(window.resident_pages(), 2);
    // … everything at or below it answers "seen", everything above is
    // still remembered exactly.
    assert!(!window.insert(Clock::with_root(0, 5)));
    assert!(!window.insert(Clock::with_root(0, 2 * ClockWindow::PAGE_BITS - 1)));
    assert!(!window.insert(Clock::with_root(0, 2 * ClockWindow::PAGE_BITS)));
    assert!(window.insert(Clock::with_root(0, n + 1)));
    // A lower forget is ignored.
    window.forget_through(Clock::with_root(0, 3));
    assert!(!window.insert(Clock::with_root(0, ClockWindow::PAGE_BITS)));
}
