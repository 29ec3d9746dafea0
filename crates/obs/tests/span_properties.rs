//! Property tests for the span fold: randomized lifecycle sequences
//! drawn from the transition matrix must always produce non-overlapping,
//! gap-free span timelines that partition each job's makespan exactly
//! (bitwise boundary equality, so the durations telescope), records that
//! name no matrix edge must never open or close a span, and the goodput
//! factors must stay in `[0, 1]` with the badput items summing to their
//! total.
//!
//! The generator is a deterministic xorshift64* walk (no external
//! proptest dependency), mirroring the lifecycle property suite in
//! `tacc-workload`.

use std::collections::BTreeMap;

use tacc_obs::{
    span_conservation, GoodputReport, JobGoodputInput, SpanBook, SpanConfig, TransitionEvent,
};
use tacc_workload::{JobEventKind, JobId, JobState, TRANSITION_MATRIX};

/// Deterministic xorshift64* PRNG — reproducible without extra crates.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[(self.next() % items.len() as u64) as usize]
    }
}

fn matrix_edge(from: JobState, kind: JobEventKind) -> Option<JobState> {
    TRANSITION_MATRIX
        .iter()
        .find(|(f, k, _)| *f == from && *k == kind)
        .map(|(_, _, to)| *to)
}

fn random_config(rng: &mut XorShift) -> SpanConfig {
    SpanConfig {
        restore_secs: (rng.next() % 256) as f64 / 8.0,
        // Strictly below 1, as the book's constructor requires.
        checkpoint_overhead_fraction: (rng.next() % 64) as f64 / 64.0,
    }
}

/// Drives one job through up to `steps` random legal transitions starting
/// with the submission anchor, feeding every record to `book` with
/// nondecreasing timestamps (zero-width gaps included, as the engine
/// produces for preempt-and-requeue at one instant). Returns the last
/// event time.
fn random_walk(
    book: &mut SpanBook,
    rng: &mut XorShift,
    job: JobId,
    start_secs: f64,
    steps: usize,
) -> f64 {
    let mut t = start_secs;
    let mut state = JobState::Submitted;
    book.observe(TransitionEvent {
        at_secs: t,
        job,
        from: state,
        to: state,
        event: JobEventKind::Submit,
    });
    for _ in 0..steps {
        if state.is_terminal() {
            break;
        }
        let kind = rng.pick(&JobEventKind::ALL);
        let Some(next) = matrix_edge(state, kind) else {
            continue;
        };
        // Three in four records advance time; the rest land at the same
        // instant and must fold into zero-width spans.
        if !rng.next().is_multiple_of(4) {
            t += (rng.next() % 100_000) as f64 / 64.0;
        }
        book.observe(TransitionEvent {
            at_secs: t,
            job,
            from: state,
            to: next,
            event: kind,
        });
        state = next;
    }
    t
}

/// Builds a multi-job book from random walks; returns the book and a
/// horizon strictly past every observed event.
fn random_book(rng: &mut XorShift, jobs: u64, steps: usize) -> (SpanBook, f64) {
    let mut book = SpanBook::new(random_config(rng));
    let mut last = 0.0f64;
    for j in 0..jobs {
        let start = (rng.next() % 50_000) as f64 / 64.0;
        let end = random_walk(&mut book, rng, JobId::from_value(j), start, steps);
        last = last.max(end);
    }
    let horizon = last + 1.0 + (rng.next() % 1024) as f64 / 32.0;
    (book, horizon)
}

/// Random legal sequences always fold into timelines whose spans abut
/// bitwise (no gap, no overlap), so their durations telescope to the
/// job's makespan.
#[test]
fn random_sequences_partition_the_makespan_exactly() {
    for seed in 0..32u64 {
        let mut rng = XorShift(0x5EED_0B5E_0000_0001 + seed);
        let (book, horizon) = random_book(&mut rng, 12, 48);
        assert!(book.ignored() == 0, "walks only emit matrix edges");
        span_conservation(&book, horizon).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        // Re-state the law explicitly, independent of the checker.
        for (job, spans) in book.timelines(horizon) {
            for w in spans.windows(2) {
                assert_eq!(
                    w[0].end_secs.to_bits(),
                    w[1].start_secs.to_bits(),
                    "seed {seed} job {}: spans must abut bitwise",
                    job.value()
                );
            }
            for s in &spans {
                assert!(
                    s.end_secs >= s.start_secs,
                    "seed {seed} job {}: negative duration",
                    job.value()
                );
            }
        }
    }
}

/// Records that name no transition-matrix edge are counted as ignored
/// and leave every timeline byte-identical: rejected events never open,
/// close, or reshape a span.
#[test]
fn rejected_events_never_open_or_close_spans() {
    let mut rng = XorShift(0xBAD5_EED0_0000_0007);
    let (mut book, horizon) = random_book(&mut rng, 6, 40);
    let before_jsonl = book.to_jsonl(horizon);
    let observed_before = book.observed();
    let ignored_before = book.ignored();

    // Every (state, kind) pair without a matrix edge, aimed at both an
    // existing job and a brand-new one.
    let mut injected = 0u64;
    for from in JobState::ALL {
        for kind in JobEventKind::ALL {
            if matrix_edge(from, kind).is_some() {
                continue;
            }
            let to = rng.pick(&JobState::ALL);
            for job in [0u64, 9_999] {
                book.observe(TransitionEvent {
                    at_secs: 1e9,
                    job: JobId::from_value(job),
                    from,
                    to,
                    event: kind,
                });
                injected += 1;
            }
        }
    }
    // Plus edges whose (from, kind) exists but whose destination lies:
    // (Submitted, enqueue) goes to Queued, never Running.
    book.observe(TransitionEvent {
        at_secs: 1e9,
        job: JobId::from_value(0),
        from: JobState::Submitted,
        to: JobState::Running,
        event: JobEventKind::Enqueue,
    });
    injected += 1;

    assert_eq!(book.ignored(), ignored_before + injected);
    assert_eq!(book.observed(), observed_before);
    assert_eq!(
        book.to_jsonl(horizon),
        before_jsonl,
        "rejected records must not perturb any span"
    );
    // The phantom job never gained a timeline.
    assert!(book.timeline(JobId::from_value(9_999), horizon).is_empty());
}

/// For random runs and random GPU weights every headline factor stays in
/// [0, 1] and the itemized causes sum to the badput total.
#[test]
fn goodput_factors_stay_in_range_for_random_runs() {
    for seed in 0..32u64 {
        let mut rng = XorShift(0x900D_0000_0000_0011 + seed);
        let (book, horizon) = random_book(&mut rng, 10, 48);
        let mut inputs: BTreeMap<JobId, JobGoodputInput> = BTreeMap::new();
        for job in book.jobs() {
            inputs.insert(
                job,
                JobGoodputInput {
                    // Mixed integer and fractional weights, CPU-only
                    // (zero-GPU) jobs included.
                    gpus: (rng.next() % 32) as f64 / 2.0,
                    useful_secs: (rng.next() % 1_000_000) as f64 / 64.0,
                },
            );
        }
        let r = GoodputReport::compute(&book, horizon, 256.0, |j| inputs.get(&j).copied());
        for (label, v) in [
            ("availability", r.availability),
            ("throughput_efficiency", r.throughput_efficiency),
            ("badput_fraction", r.badput_fraction),
            ("goodput", r.goodput),
        ] {
            assert!((0.0..=1.0).contains(&v), "seed {seed}: {label} = {v}");
        }
        // Itemization sums to the total by definition (exact equality).
        let itemized: f64 = r.badput.items().iter().map(|(_, v)| v).sum();
        assert_eq!(itemized, r.badput.total_gpu_secs(), "seed {seed}");
    }
}

/// A job still queued, checked at an infinite horizon, closes its open
/// span at infinity: the law answers with an error naming the job and
/// the span, not a panic.
#[test]
fn an_infinite_horizon_is_an_error() {
    let mut book = SpanBook::new(SpanConfig::plain());
    let job = JobId::from_value(3);
    for (at_secs, from, to, event) in [
        (
            0.0,
            JobState::Submitted,
            JobState::Submitted,
            JobEventKind::Submit,
        ),
        (
            5.0,
            JobState::Submitted,
            JobState::Queued,
            JobEventKind::Enqueue,
        ),
    ] {
        book.observe(TransitionEvent {
            at_secs,
            job,
            from,
            to,
            event,
        });
    }
    span_conservation(&book, 1e6).expect("finite horizon");
    let err = span_conservation(&book, f64::INFINITY).expect_err("infinite horizon");
    assert_eq!(err, "job 3: span 1 (Queued) is not finite: [5, inf]");
}
