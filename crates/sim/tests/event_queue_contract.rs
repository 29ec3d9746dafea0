//! The [`EventQueue`] contract, checked against a model: every pop must
//! return the earliest pending event by `(timestamp, scheduling order)`,
//! which is the head of a stable sort by timestamp of everything
//! scheduled and not yet popped. Scripts cover same-instant bursts (the
//! FIFO tie-break), integral and fractional timestamps, events days out,
//! scheduling into the past, and `peek_time` / `len` after every step.
//!
//! Scripts are driven by a deterministic xorshift generator, mirroring
//! the scheduler differential suite's harness form.

use tacc_sim::{EventQueue, SimTime};

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

/// The reference: what was scheduled and not yet popped, as
/// `(timestamp, payload)` in scheduling order until the next pop sorts it.
#[derive(Default)]
struct Model(Vec<(SimTime, u64)>);

impl Model {
    fn schedule(&mut self, at: SimTime, payload: u64) {
        self.0.push((at, payload));
    }

    /// Stable by timestamp, so same-instant events keep scheduling order.
    fn sort(&mut self) {
        self.0.sort_by_key(|&(at, _)| at);
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.sort();
        (!self.0.is_empty()).then(|| self.0.remove(0))
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        self.sort();
        self.0.first().map(|&(at, _)| at)
    }
}

/// A window of simulated seconds the sampler measures "far" in.
const HOUR_ISH_SECS: f64 = 4096.0;

/// Samples an event timestamp: near the current virtual time, integral
/// seconds, same-instant repeats, far out, and behind the clock.
fn sample_time(rng: &mut XorShift, now: f64, last: &mut f64) -> f64 {
    match rng.below(9) {
        // Near future: the common case.
        0..=2 => now + rng.below(600) as f64 / 10.0,
        // Integral seconds.
        3 => now.ceil() + rng.below(64) as f64,
        // Same instant as a previous event: exercises the FIFO tie-break.
        4 => *last,
        // About an hour out.
        5 => now + HOUR_ISH_SECS + (rng.below(5) as f64 - 2.0),
        // Hours out.
        6 => now + HOUR_ISH_SECS * (2 + rng.below(5)) as f64 + rng.below(1000) as f64 / 7.0,
        // Behind the clock: scheduling into the past.
        7 => (now - rng.below(2_000) as f64 / 3.0).max(0.0),
        // A cluster a whole number of hours out.
        _ => now + HOUR_ISH_SECS * rng.below(3) as f64 + rng.below(32) as f64,
    }
}

/// Runs one xorshift-driven script against the queue and the model,
/// demanding equal pops, peeks and lengths at every step, then drains.
fn run_script(seed: u64, steps: usize) {
    let mut rng = XorShift::new(seed);
    let mut queue = EventQueue::new();
    let mut model = Model::default();
    let mut now = 0.0_f64;
    let mut last = 0.0_f64;
    let mut payload = 0u64;
    for step in 0..steps {
        // Bias toward inserts so the queue grows.
        if rng.below(3) < 2 || queue.is_empty() {
            let t = sample_time(&mut rng, now, &mut last);
            last = t;
            let at = SimTime::from_secs(t);
            queue.schedule(at, payload);
            model.schedule(at, payload);
            payload += 1;
        } else {
            let popped = queue.pop();
            assert_eq!(
                popped,
                model.pop(),
                "pop diverged [seed {seed}, step {step}]"
            );
            if let Some((t, _)) = popped {
                // Virtual time follows the pop stream, like a real sim.
                now = now.max(t.as_secs());
            }
        }
        assert_eq!(queue.len(), model.0.len(), "len [seed {seed}, step {step}]");
        assert_eq!(
            queue.peek_time(),
            model.peek_time(),
            "peek [seed {seed}, step {step}]"
        );
    }
    loop {
        let popped = queue.pop();
        assert_eq!(popped, model.pop(), "drain diverged [seed {seed}]");
        if popped.is_none() {
            break;
        }
    }
    assert_eq!(queue.scheduled_total(), payload);
}

#[test]
fn queue_matches_the_sorted_model_across_seeds() {
    for seed in 1..=40 {
        run_script(seed, 400);
    }
}

#[test]
fn queue_matches_the_sorted_model_on_long_scripts() {
    for seed in [7, 99, 20_240_601] {
        run_script(seed, 5_000);
    }
}

#[test]
fn a_same_instant_burst_pops_first_in_first_out() {
    let mut queue = EventQueue::new();
    let at = SimTime::from_secs(12_345.0);
    for i in 0..1_000u32 {
        queue.schedule(at, i);
    }
    for i in 0..1_000u32 {
        assert_eq!(queue.peek_time(), Some(at));
        assert_eq!(queue.len(), (1_000 - i) as usize);
        assert_eq!(queue.pop(), Some((at, i)), "FIFO");
    }
    assert_eq!(queue.pop(), None);
}

/// A fixed mixed script with repeated timestamps, scheduled all at once
/// and drained: exactly the stable sort by timestamp.
#[test]
fn mixed_script_drains_in_stable_sorted_order() {
    let times = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0];
    let mut queue = EventQueue::new();
    let mut model = Model::default();
    for (i, t) in (0u64..).zip(times) {
        let at = SimTime::from_secs(t * 1_024.0);
        queue.schedule(at, i);
        model.schedule(at, i);
    }
    model.sort();
    let drained: Vec<_> = std::iter::from_fn(|| queue.pop()).collect();
    assert_eq!(drained, model.0);
}

/// `peek_time` removes nothing, however often it is asked, including
/// after an event is scheduled behind the current head.
#[test]
fn peek_time_removes_nothing() {
    let mut queue = EventQueue::new();
    queue.schedule(SimTime::from_secs(50.0), 0u8);
    queue.schedule(SimTime::from_secs(20.0), 1);
    for _ in 0..3 {
        assert_eq!(queue.peek_time(), Some(SimTime::from_secs(20.0)));
        assert_eq!(queue.len(), 2);
    }
    queue.schedule(SimTime::from_secs(10.0), 2);
    assert_eq!(queue.peek_time(), Some(SimTime::from_secs(10.0)));
    assert_eq!(queue.len(), 3);
    let order: Vec<u8> = std::iter::from_fn(|| queue.pop().map(|(_, e)| e)).collect();
    assert_eq!(order, vec![2, 1, 0]);
}
