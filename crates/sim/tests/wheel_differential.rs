//! Differential property test: the calendar-wheel [`EventQueue`] and the
//! [`HeapEventQueue`] oracle must stay byte-equal in pop order for any
//! insert/pop script — including timestamps that sit exactly on bucket
//! boundaries, same-instant bursts (FIFO tie-break), and far-future
//! events that ride the overflow heap and cascade into the wheel.
//!
//! Scripts are driven by a deterministic xorshift generator, mirroring
//! the scheduler differential suite's harness form.

use tacc_sim::{EventQueue, HeapEventQueue, SimTime};

/// Deterministic xorshift64* generator — no dependencies, stable forever.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Wheel geometry mirrored from `crates/sim/src/event.rs` so the script
/// generator can aim at bucket boundaries and the overflow region. The
/// differential assertion itself does not depend on these values being
/// exact — any drift only shifts which cases the script emphasises.
const WHEEL_WINDOW_SECS: f64 = 4096.0;

/// Samples an event timestamp, biased toward the wheel's interesting
/// regions: near the current virtual time, exactly on bucket boundaries,
/// same-instant repeats, and far beyond the window (overflow + cascade).
fn sample_time(rng: &mut XorShift, now: f64, last: &mut f64) -> f64 {
    match rng.below(8) {
        // Near future: the common bucket path.
        0..=2 => now + rng.below(600) as f64 / 10.0,
        // Exactly on a bucket boundary (integral seconds).
        3 => now.ceil() + rng.below(64) as f64,
        // Same instant as a previous event: exercises the FIFO tie-break.
        4 => *last,
        // Just inside / just outside the window edge.
        5 => now + WHEEL_WINDOW_SECS + (rng.below(5) as f64 - 2.0),
        // Far future: overflow heap, cascades in much later.
        6 => now + WHEEL_WINDOW_SECS * (2 + rng.below(5)) as f64 + rng.below(1000) as f64 / 7.0,
        // Distant same-bucket cluster: several laps out, collides modulo
        // the bucket count with near events.
        _ => now + WHEEL_WINDOW_SECS * rng.below(3) as f64 + rng.below(32) as f64,
    }
}

/// Runs one xorshift-driven script against both queues and demands the
/// pop streams match element-for-element, then drains both to the end.
fn run_script(seed: u64, steps: usize) {
    let mut rng = XorShift::new(seed);
    let mut wheel = EventQueue::new();
    let mut oracle = HeapEventQueue::new();
    let mut now = 0.0_f64;
    let mut last = 0.0_f64;
    let mut payload = 0u64;
    for step in 0..steps {
        // Bias toward inserts so the queues grow and cascades happen.
        if rng.below(3) < 2 || wheel.is_empty() {
            let t = sample_time(&mut rng, now, &mut last);
            last = t;
            let at = SimTime::from_secs(t);
            wheel.schedule(at, payload);
            oracle.schedule(at, payload);
            payload += 1;
        } else {
            let w = wheel.pop();
            let o = oracle.pop();
            assert_eq!(w, o, "pop diverged [seed {seed}, step {step}]");
            if let Some((t, _)) = w {
                // Virtual time follows the pop stream, like a real sim.
                now = now.max(t.as_secs());
            }
        }
        assert_eq!(
            wheel.len(),
            oracle.len(),
            "len diverged [seed {seed}, step {step}]"
        );
        assert_eq!(
            wheel.peek_time(),
            oracle.peek_time(),
            "peek diverged [seed {seed}, step {step}]"
        );
    }
    loop {
        let w = wheel.pop();
        let o = oracle.pop();
        assert_eq!(w, o, "drain diverged [seed {seed}]");
        if w.is_none() {
            break;
        }
    }
    assert_eq!(wheel.scheduled_total(), oracle.scheduled_total());
}

#[test]
fn wheel_matches_heap_oracle_across_seeds() {
    for seed in 1..=40 {
        run_script(seed, 400);
    }
}

#[test]
fn wheel_matches_heap_oracle_long_scripts() {
    for seed in [7, 99, 20_240_601] {
        run_script(seed, 5_000);
    }
}

#[test]
fn wheel_handles_all_same_instant_burst() {
    let mut wheel = EventQueue::new();
    let mut oracle = HeapEventQueue::new();
    let at = SimTime::from_secs(12_345.0);
    for i in 0..1_000u32 {
        wheel.schedule(at, i);
        oracle.schedule(at, i);
    }
    for _ in 0..=1_000 {
        assert_eq!(wheel.pop(), oracle.pop());
    }
}

#[test]
fn wheel_finds_a_lone_bucket_behind_the_cursor_in_its_own_word() {
    // The occupancy scan's last step: the cursor sits mid-word and the
    // only occupied bucket is almost a full lap ahead — the same 64-bucket
    // word, a lower bit. Seeded over cursor positions and distances.
    let mut rng = XorShift::new(0xB17_5EED);
    for case in 0..200 {
        let mut wheel = EventQueue::new();
        let mut oracle = HeapEventQueue::new();
        let bit = 1 + rng.below(63);
        let cursor = 64 * rng.below(1_000) + bit;
        let behind = 1 + rng.below(bit);
        let lone = cursor + WHEEL_WINDOW_SECS as u64 - behind;
        for (at, payload) in [(cursor, 0u8), (lone, 1)] {
            let at = SimTime::from_secs(at as f64 + 0.5);
            let bucketed = wheel.wheel_stats().inserts;
            wheel.schedule(at, payload);
            oracle.schedule(at, payload);
            if payload == 1 {
                let now = wheel.wheel_stats().inserts;
                assert_eq!(now, bucketed + 1, "lone event bucketed [case {case}]");
            }
            assert_eq!(wheel.peek_time(), oracle.peek_time(), "peek [case {case}]");
            assert_eq!(wheel.pop(), oracle.pop(), "pop [case {case}]");
        }
        assert!(wheel.is_empty());
    }
}
