//! ML Productivity Goodput: how much of the fleet's GPU time became
//! forward training progress, and an itemized account of where the rest
//! went.
//!
//! Following the decomposition popularized for large TPU/GPU fleets,
//!
//! ```text
//! goodput = availability × throughput_efficiency × (1 − badput)
//! ```
//!
//! * **availability** — the fraction of fleet capacity
//!   (`total_gpus × horizon`) that was allocated to jobs (running,
//!   restoring or checkpointing on nodes);
//! * **throughput efficiency** — of the wall GPU-time spent in `Running`
//!   spans, the fraction that was forward progress (the rest is slowdown
//!   from interference, elastic shrink, re-executed lost work, staging);
//! * **badput** — the fraction of fleet capacity lost to itemized
//!   causes: queue wait, compilation, checkpoint write overhead, restart
//!   rework (restore + recovery), preemption gaps and idle reserved
//!   capacity.
//!
//! Everything derives from the span timelines of a [`SpanBook`] plus one
//! [`JobGoodputInput`] per job (GPU weight and useful service seconds),
//! so the report is a pure function of sim-time data — byte-stable
//! across replays.
//!
//! The badput itemization obeys a machine-checked conservation law
//! ([`goodput_conservation`]): every span lands in exactly one bucket
//! and the bucket sums partition the total span GPU-time **exactly**
//! under [`Dyadic`] rational arithmetic. Every finite `f64` is a dyadic
//! rational (`m × 2^e`), so sums and products of span durations can be
//! compared with zero tolerance — any float-drift shortcut in the
//! decomposition fails the law outright.

use std::collections::BTreeMap;
use std::fmt;

use tacc_json::{obj, Json};
use tacc_workload::JobId;

use crate::span::{SpanBook, SpanPhase};

/// Gauge: composite goodput ratio in `[0, 1]`.
pub const GOODPUT_RATIO_METRIC: &str = "tacc_obs_goodput_ratio";
/// Gauge: availability factor of the goodput decomposition.
pub const GOODPUT_AVAILABILITY_METRIC: &str = "tacc_obs_goodput_availability";
/// Gauge: throughput-efficiency factor of the goodput decomposition.
pub const GOODPUT_EFFICIENCY_METRIC: &str = "tacc_obs_goodput_throughput_efficiency";
/// Gauge: total badput fraction of fleet capacity.
pub const GOODPUT_BADPUT_METRIC: &str = "tacc_obs_goodput_badput_ratio";
/// Counter: platform events evicted from the bounded event-bus ring (a
/// nonzero value means the transition export, and span timelines
/// reconstructed from it, cover only the ring's window).
pub const DROPPED_EVENTS_METRIC: &str = "tacc_obs_dropped_events_total";

/// An itemized cause of badput.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BadputCause {
    /// Time queued waiting for resources.
    QueueWait,
    /// Time in compilation/provisioning before first enqueue.
    Compile,
    /// Amortized checkpoint-write stalls while running.
    CheckpointOverhead,
    /// Restart rework: checkpoint restores plus post-fault recovery.
    RestartRework,
    /// Off-node gaps after quota-reclaim preemptions.
    Preemption,
    /// Fleet capacity no job was occupying.
    IdleReserved,
}

impl BadputCause {
    /// Every cause, in report order: declaration order, which is also
    /// each cause's index in a [`BadputBreakdown`].
    pub const ALL: [BadputCause; 6] = [
        BadputCause::QueueWait,
        BadputCause::Compile,
        BadputCause::CheckpointOverhead,
        BadputCause::RestartRework,
        BadputCause::Preemption,
        BadputCause::IdleReserved,
    ];

    /// Stable snake_case name used in JSON reports and tables.
    pub fn name(self) -> &'static str {
        match self {
            BadputCause::QueueWait => "queue_wait",
            BadputCause::Compile => "compile",
            BadputCause::CheckpointOverhead => "checkpoint_overhead",
            BadputCause::RestartRework => "restart_rework",
            BadputCause::Preemption => "preemption",
            BadputCause::IdleReserved => "idle_reserved",
        }
    }
}

impl fmt::Display for BadputCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which badput bucket a span phase is charged to (`None` for phases
/// that are not badput: `Running` progress and the zero-width
/// `Scheduled` marker). This single function defines the partition the
/// conservation law checks.
pub fn badput_cause_of(phase: SpanPhase) -> Option<BadputCause> {
    match phase {
        SpanPhase::Queued => Some(BadputCause::QueueWait),
        SpanPhase::Compiling => Some(BadputCause::Compile),
        SpanPhase::Checkpointing => Some(BadputCause::CheckpointOverhead),
        SpanPhase::Restoring | SpanPhase::Recovering => Some(BadputCause::RestartRework),
        SpanPhase::Preempted => Some(BadputCause::Preemption),
        SpanPhase::Running | SpanPhase::Scheduled => None,
    }
}

/// Per-job inputs the span timelines cannot carry: the job's GPU weight
/// and how much useful service it accumulated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobGoodputInput {
    /// GPUs the job occupies when running (weight for GPU-seconds).
    pub gpus: f64,
    /// Useful service seconds accumulated (service demand minus
    /// remaining). Jobs missing from the input map weigh 1 GPU with
    /// zero useful seconds.
    pub useful_secs: f64,
}

/// GPU-seconds of badput by cause, one amount per cause in
/// [`BadputCause::ALL`] order.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BadputBreakdown([f64; 6]);

impl BadputBreakdown {
    /// The value for one cause.
    pub fn get(&self, cause: BadputCause) -> f64 {
        self.0[cause as usize]
    }

    fn add(&mut self, cause: BadputCause, gpu_secs: f64) {
        self.0[cause as usize] += gpu_secs;
    }

    /// `(cause, gpu_secs)` pairs in report order.
    pub fn items(&self) -> [(BadputCause, f64); 6] {
        BadputCause::ALL.map(|cause| (cause, self.get(cause)))
    }

    /// Total badput GPU-seconds: by definition the sum of the itemized
    /// causes in report order, so itemization always sums to the total.
    pub fn total_gpu_secs(&self) -> f64 {
        self.0.iter().fold(0.0, |acc, &gpu_secs| acc + gpu_secs)
    }
}

/// The ML Productivity Goodput decomposition of one platform run.
/// Derived entirely from sim-time quantities; equality is strict.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GoodputReport {
    /// Horizon the open spans were closed at, sim seconds.
    pub horizon_secs: f64,
    /// Fleet GPU count the capacity is computed from.
    pub total_gpus: f64,
    /// Fleet capacity: `total_gpus × horizon` GPU-seconds.
    pub capacity_gpu_secs: f64,
    /// GPU-seconds allocated to jobs on nodes (running + restoring +
    /// checkpointing).
    pub allocated_gpu_secs: f64,
    /// GPU-seconds of `Running` spans (wall time making progress).
    pub running_gpu_secs: f64,
    /// GPU-seconds of useful service accumulated across jobs.
    pub productive_gpu_secs: f64,
    /// `allocated / capacity` (1 when capacity is zero).
    pub availability: f64,
    /// `productive / running`, capped at 1 (1 when nothing ran).
    pub throughput_efficiency: f64,
    /// Waste share of accounted GPU-time:
    /// `badput total / (badput total + productive)`, 0 when nothing is
    /// accounted. The denominator is demand, not capacity: queue wait
    /// accrues GPU-time *off* capacity, so a contended cluster can owe
    /// more badput than it has GPU-seconds and a capacity ratio would
    /// saturate at 1.
    pub badput_fraction: f64,
    /// `availability × throughput_efficiency × (1 − badput_fraction)`.
    pub goodput: f64,
    /// Itemized badput GPU-seconds.
    pub badput: BadputBreakdown,
}

impl GoodputReport {
    /// Computes the decomposition from folded span timelines.
    ///
    /// `inputs` supplies each job's GPU weight and useful seconds; jobs
    /// absent from the map weigh 1 GPU with zero useful seconds.
    ///
    /// # Panics
    ///
    /// Panics if `horizon_secs` or `total_gpus` is negative or
    /// non-finite.
    pub fn compute(
        book: &SpanBook,
        horizon_secs: f64,
        total_gpus: f64,
        inputs: &BTreeMap<JobId, JobGoodputInput>,
    ) -> GoodputReport {
        Self::compute_with(book, horizon_secs, total_gpus, |job| {
            inputs.get(&job).copied()
        })
    }

    /// [`GoodputReport::compute`] reading each job's input through
    /// `input_of` — for a caller that already holds the inputs by job
    /// and need not build a map of them per report.
    ///
    /// # Panics
    ///
    /// As [`GoodputReport::compute`].
    pub fn compute_with(
        book: &SpanBook,
        horizon_secs: f64,
        total_gpus: f64,
        input_of: impl Fn(JobId) -> Option<JobGoodputInput>,
    ) -> GoodputReport {
        assert!(
            horizon_secs.is_finite() && horizon_secs >= 0.0,
            "horizon must be finite and nonnegative"
        );
        assert!(
            total_gpus.is_finite() && total_gpus >= 0.0,
            "total_gpus must be finite and nonnegative"
        );
        let capacity_gpu_secs = total_gpus * horizon_secs;
        let mut badput = BadputBreakdown::default();
        let mut running_gpu_secs = 0.0;
        let mut productive_gpu_secs = 0.0;
        let mut on_node_overhead_gpu_secs = 0.0;
        for (job, spans) in book.iter_timelines(horizon_secs) {
            let input = input_of(job).unwrap_or(JobGoodputInput {
                gpus: 1.0,
                useful_secs: 0.0,
            });
            productive_gpu_secs += input.gpus * input.useful_secs;
            for span in spans.iter() {
                let gpu_secs = input.gpus * span.duration_secs();
                match badput_cause_of(span.phase) {
                    None => running_gpu_secs += gpu_secs,
                    Some(cause) => {
                        badput.add(cause, gpu_secs);
                        if matches!(span.phase, SpanPhase::Checkpointing | SpanPhase::Restoring) {
                            on_node_overhead_gpu_secs += gpu_secs;
                        }
                    }
                }
            }
        }
        let allocated_gpu_secs = running_gpu_secs + on_node_overhead_gpu_secs;
        badput.add(
            BadputCause::IdleReserved,
            (capacity_gpu_secs - allocated_gpu_secs).max(0.0),
        );
        let availability = if capacity_gpu_secs > 0.0 {
            (allocated_gpu_secs / capacity_gpu_secs).min(1.0)
        } else {
            1.0
        };
        let throughput_efficiency = if running_gpu_secs > 0.0 {
            (productive_gpu_secs / running_gpu_secs).min(1.0)
        } else {
            1.0
        };
        // Waste over demand (productive work + every itemized cause),
        // which keeps the ratio in [0, 1] even when queue-wait GPU-time
        // exceeds fleet capacity on a contended cluster.
        let accounted = badput.total_gpu_secs() + productive_gpu_secs;
        let badput_fraction = if accounted > 0.0 {
            badput.total_gpu_secs() / accounted
        } else {
            0.0
        };
        let goodput = (availability * throughput_efficiency * (1.0 - badput_fraction)).max(0.0);
        GoodputReport {
            horizon_secs,
            total_gpus,
            capacity_gpu_secs,
            allocated_gpu_secs,
            running_gpu_secs,
            productive_gpu_secs,
            availability,
            throughput_efficiency,
            badput_fraction,
            goodput,
            badput,
        }
    }

    /// The report as a JSON value: fixed key order, and printed compactly
    /// (`to_string`) byte-deterministic with shortest round-trip floats.
    pub fn to_json(&self) -> Json {
        let by_cause = self.badput.items().into_iter();
        obj(vec![
            ("horizon_secs", Json::Num(self.horizon_secs)),
            ("total_gpus", Json::Num(self.total_gpus)),
            ("capacity_gpu_secs", Json::Num(self.capacity_gpu_secs)),
            ("allocated_gpu_secs", Json::Num(self.allocated_gpu_secs)),
            ("running_gpu_secs", Json::Num(self.running_gpu_secs)),
            ("productive_gpu_secs", Json::Num(self.productive_gpu_secs)),
            ("availability", Json::Num(self.availability)),
            (
                "throughput_efficiency",
                Json::Num(self.throughput_efficiency),
            ),
            ("badput_fraction", Json::Num(self.badput_fraction)),
            ("goodput", Json::Num(self.goodput)),
            (
                "badput_gpu_secs",
                obj(by_cause.map(|(c, v)| (c.name(), Json::Num(v))).collect()),
            ),
        ])
    }
}

/// Machine-checks the badput conservation law: recomputed in exact
/// [`Dyadic`] arithmetic over the same spans, the itemized span-derived
/// badput buckets plus running time sum to the total span GPU-time —
/// i.e. [`badput_cause_of`] is a true partition and no GPU-second is
/// double-counted or lost. (`IdleReserved` is defined as
/// `capacity − allocated`, not span-derived, so it is outside this law.)
pub fn goodput_conservation(
    book: &SpanBook,
    horizon_secs: f64,
    inputs: &BTreeMap<JobId, JobGoodputInput>,
) -> Result<(), String> {
    let mut buckets: BTreeMap<&'static str, Dyadic> = BTreeMap::new();
    let mut running = Dyadic::ZERO;
    let mut total = Dyadic::ZERO;
    for (job, spans) in book.iter_timelines(horizon_secs) {
        let gpus = inputs.get(&job).map(|i| i.gpus).unwrap_or(1.0);
        let weight = Dyadic::from_f64(gpus);
        for span in spans.iter() {
            let d = Dyadic::from_f64(span.end_secs) - Dyadic::from_f64(span.start_secs);
            let gpu_secs = weight * d;
            total = total + gpu_secs;
            match badput_cause_of(span.phase) {
                None => running = running + gpu_secs,
                Some(cause) => {
                    let entry = buckets.entry(cause.name()).or_insert(Dyadic::ZERO);
                    *entry = *entry + gpu_secs;
                }
            }
        }
    }
    let mut recombined = running;
    for v in buckets.values() {
        recombined = recombined + *v;
    }
    if recombined != total {
        return Err(
            "badput itemization does not partition total span GPU-time exactly".to_string(),
        );
    }
    Ok(())
}

/// An exact dyadic rational `num × 2^exp`. Every finite `f64` is one,
/// and sums/differences/products of dyadics are again dyadics, so span
/// accounting identities can be checked with **zero** tolerance — no
/// epsilon to hide a leak in. Arithmetic panics on (astronomically
/// unlikely) `i128` mantissa overflow rather than silently rounding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dyadic {
    num: i128,
    exp: i32,
}

impl Dyadic {
    /// Exact zero.
    pub const ZERO: Dyadic = Dyadic { num: 0, exp: 0 };

    /// Exact conversion of a finite `f64`.
    ///
    /// # Panics
    ///
    /// Panics on NaN or infinity.
    pub fn from_f64(v: f64) -> Dyadic {
        assert!(v.is_finite(), "dyadic conversion of non-finite {v}");
        let bits = v.to_bits();
        let sign = if bits >> 63 == 1 { -1i128 } else { 1i128 };
        let biased = ((bits >> 52) & 0x7ff) as i32;
        let frac = (bits & ((1u64 << 52) - 1)) as i128;
        let (mant, exp) = if biased == 0 {
            (frac, -1074) // subnormal (or zero)
        } else {
            (frac | (1i128 << 52), biased - 1075)
        };
        Dyadic {
            num: sign * mant,
            exp,
        }
        .normalized()
    }

    fn normalized(mut self) -> Dyadic {
        if self.num == 0 {
            return Dyadic::ZERO;
        }
        while self.num % 2 == 0 {
            self.num /= 2;
            self.exp += 1;
        }
        self
    }
}

/// Exact sum.
///
/// # Panics
///
/// Panics if the aligned mantissa overflows `i128`.
impl std::ops::Add for Dyadic {
    type Output = Dyadic;

    fn add(self, other: Dyadic) -> Dyadic {
        let (lo, hi) = if self.exp <= other.exp {
            (self, other)
        } else {
            (other, self)
        };
        let shift = u32::try_from(hi.exp - lo.exp).expect("dyadic exponent gap");
        let hi_num = hi
            .num
            .checked_shl(shift)
            .filter(|n| n >> shift == hi.num)
            .expect("dyadic mantissa overflow in add");
        Dyadic {
            num: lo.num.checked_add(hi_num).expect("dyadic overflow in add"),
            exp: lo.exp,
        }
        .normalized()
    }
}

/// Exact difference.
///
/// # Panics
///
/// Panics if the aligned mantissa overflows `i128`.
impl std::ops::Sub for Dyadic {
    type Output = Dyadic;

    fn sub(self, other: Dyadic) -> Dyadic {
        self + Dyadic {
            num: -other.num,
            exp: other.exp,
        }
    }
}

/// Exact product.
///
/// # Panics
///
/// Panics if the mantissa product overflows `i128`.
impl std::ops::Mul for Dyadic {
    type Output = Dyadic;

    // Exponents of a product add: (a·2^x)(b·2^y) = ab·2^(x+y).
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn mul(self, other: Dyadic) -> Dyadic {
        Dyadic {
            num: self
                .num
                .checked_mul(other.num)
                .expect("dyadic overflow in mul"),
            exp: self.exp + other.exp,
        }
        .normalized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanConfig, TransitionEvent};
    use tacc_workload::{JobEventKind as K, JobState as S};

    fn ev(at: f64, job: u64, from: S, to: S, event: K) -> TransitionEvent {
        TransitionEvent {
            at_secs: at,
            job: JobId::from_value(job),
            from,
            to,
            event,
        }
    }

    fn one_job_book() -> SpanBook {
        let mut book = SpanBook::new(SpanConfig {
            restore_secs: 0.0,
            checkpoint_overhead_fraction: 0.25,
        });
        for r in [
            ev(0.0, 1, S::Submitted, S::Submitted, K::Submit),
            ev(10.0, 1, S::Submitted, S::Queued, K::Enqueue),
            ev(50.0, 1, S::Queued, S::Running, K::Start),
            ev(450.0, 1, S::Running, S::Completed, K::Complete),
        ] {
            book.observe(r);
        }
        book
    }

    #[test]
    fn decomposition_of_a_single_job() {
        let book = one_job_book();
        let mut inputs = BTreeMap::new();
        inputs.insert(
            JobId::from_value(1),
            JobGoodputInput {
                gpus: 8.0,
                useful_secs: 240.0,
            },
        );
        // Fleet: 16 GPUs over 500 s. Job: 8 GPUs, wall run 400 s of
        // which 100 s is checkpoint writes, 300 s running, 240 s useful.
        let r = GoodputReport::compute(&book, 500.0, 16.0, &inputs);
        assert_eq!(r.capacity_gpu_secs, 8000.0);
        assert!((r.running_gpu_secs - 2400.0).abs() < 1e-6);
        assert!((r.allocated_gpu_secs - 3200.0).abs() < 1e-6);
        assert_eq!(r.productive_gpu_secs, 1920.0);
        assert!((r.availability - 0.4).abs() < 1e-9);
        assert!((r.throughput_efficiency - 0.8).abs() < 1e-9);
        assert!((r.badput.get(BadputCause::QueueWait) - 320.0).abs() < 1e-6);
        assert!((r.badput.get(BadputCause::Compile) - 80.0).abs() < 1e-6);
        assert!((r.badput.get(BadputCause::CheckpointOverhead) - 800.0).abs() < 1e-6);
        assert_eq!(r.badput.get(BadputCause::Preemption), 0.0);
        assert!((r.badput.get(BadputCause::IdleReserved) - 4800.0).abs() < 1e-6);
        // Itemization sums to the total by definition.
        let total = r.badput.total_gpu_secs();
        assert_eq!(total, r.badput.items().iter().map(|(_, v)| v).sum::<f64>());
        assert!((r.badput_fraction - total / (total + 1920.0)).abs() < 1e-12);
        assert!(
            (r.goodput - r.availability * r.throughput_efficiency * (1.0 - r.badput_fraction))
                .abs()
                < 1e-12
        );
        goodput_conservation(&book, 500.0, &inputs).unwrap();
    }

    #[test]
    fn empty_book_is_all_idle() {
        let book = SpanBook::new(SpanConfig::plain());
        let r = GoodputReport::compute(&book, 100.0, 4.0, &BTreeMap::new());
        assert_eq!(r.availability, 0.0);
        assert_eq!(r.throughput_efficiency, 1.0);
        assert_eq!(r.badput.get(BadputCause::IdleReserved), 400.0);
        assert_eq!(r.badput_fraction, 1.0);
        assert_eq!(r.goodput, 0.0);
        goodput_conservation(&book, 100.0, &BTreeMap::new()).unwrap();
    }

    #[test]
    fn json_is_byte_stable_and_ordered() {
        let book = one_job_book();
        let mut inputs = BTreeMap::new();
        inputs.insert(
            JobId::from_value(1),
            JobGoodputInput {
                gpus: 8.0,
                useful_secs: 240.0,
            },
        );
        let json = || GoodputReport::compute(&book, 500.0, 16.0, &inputs).to_json();
        let (a, b) = (json().to_string(), json().to_string());
        assert_eq!(a, b);
        assert!(a.starts_with("{\"horizon_secs\":500,"), "{a}");
        let keys = [
            "queue_wait",
            "compile",
            "checkpoint_overhead",
            "restart_rework",
            "preemption",
            "idle_reserved",
        ];
        let mut last = 0;
        for key in keys {
            let at = a.find(&format!("\"{key}\":")).expect(key);
            assert!(at > last, "badput keys out of order: {a}");
            last = at;
        }
    }

    #[test]
    fn dyadic_arithmetic_is_exact() {
        // 0.1 + 0.2 != 0.3 in f64, but each value is an exact dyadic and
        // the identity (a + b) - b == a holds exactly.
        let a = Dyadic::from_f64(0.1);
        let b = Dyadic::from_f64(0.2);
        assert_eq!(a + b - b, a);
        assert_ne!(a + b, Dyadic::from_f64(0.3));
        assert_eq!(
            Dyadic::from_f64(0.5) * Dyadic::from_f64(8.0),
            Dyadic::from_f64(4.0)
        );
        assert_eq!(Dyadic::from_f64(0.0), Dyadic::ZERO);
        assert_eq!(Dyadic::from_f64(-1.5) + Dyadic::from_f64(1.5), Dyadic::ZERO);
    }

    #[test]
    fn every_phase_has_exactly_one_bucket() {
        // The partition property behind the conservation law: each phase
        // maps to exactly one bucket (badput cause or running/none).
        for phase in SpanPhase::ALL {
            let cause = badput_cause_of(phase);
            match phase {
                SpanPhase::Running | SpanPhase::Scheduled => assert!(cause.is_none()),
                _ => assert!(cause.is_some(), "{phase} unbucketed"),
            }
        }
        // Each cause indexes its own amount of a breakdown.
        for (i, cause) in BadputCause::ALL.into_iter().enumerate() {
            assert_eq!(cause as usize, i, "{cause}");
        }
    }
}
