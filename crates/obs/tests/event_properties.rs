//! Seeded property sweeps for the event bus: timestamps are monotone
//! non-decreasing in simulated time regardless of input, the ring
//! respects its capacity, and the JSONL export reads back exactly.
//!
//! Every case draws from a `DetRng` seeded with the case number, and
//! every assertion names that seed: a failing seed is the reproducer.

use tacc_obs::{EventBus, EventRecord, InstructionKind, PlatformEvent, RejectReason};
use tacc_sim::{dist, DetRng};
use tacc_workload::{GroupId, JobEventKind, JobId, JobState, RuntimePreference};

/// Names that exercise the string escaper: a quote, a backslash, control
/// bytes, and multi-byte characters up to the astral plane.
const NAMES: [&str; 5] = [
    "job",
    "q\"uote",
    "back\\slash",
    "ctl\u{1}\n\t",
    "múlti-字-😀",
];

fn below(rng: &mut DetRng, n: u64) -> u64 {
    rng.next_u64() % n
}

/// One event of every [`PlatformEvent`] variant, built from `j` and
/// `text`: the free-text fields (`name`, `node`) carry `text`, a field
/// drawn from a closed set carries the member `j` picks. Each arm names
/// the next variant and there is no wildcard arm, so a new variant does
/// not compile until it joins the sweep.
fn every_variant(j: u64, text: &str) -> Vec<PlatformEvent> {
    let job = JobId::from_value(j);
    let group = GroupId::from_index((j % 7) as usize);
    let text = || text.to_owned();
    let runtime = RuntimePreference::ALL[(j % 5) as usize];
    let mut out = Vec::new();
    let mut next = Some(PlatformEvent::Submitted {
        job,
        group,
        name: text().into(),
    });
    while let Some(event) = next {
        next = match &event {
            PlatformEvent::Submitted { .. } => Some(PlatformEvent::Compiled {
                job,
                instruction: InstructionKind::ALL[(j % 2) as usize],
                payload_mb: j as f64 * 0.5,
                transferred_mb: j as f64 * 0.25,
                chunk_hits: j % 5,
                chunk_misses: j % 3,
                provisioning_secs: j as f64 * 0.125,
            }),
            PlatformEvent::Compiled { .. } => Some(PlatformEvent::Rejected {
                job,
                reason: if j.is_multiple_of(2) {
                    RejectReason::GangNeverFits
                } else {
                    RejectReason::ExceedsGroupQuota
                },
            }),
            PlatformEvent::Rejected { .. } => Some(PlatformEvent::Queued { job }),
            PlatformEvent::Queued { .. } => Some(PlatformEvent::Placed {
                job,
                nodes: 1 + j % 4,
                runtime,
                slowdown: 1.0 + (j % 10) as f64 * 0.125,
                granted_workers: 1 + j % 2,
                requested_workers: 2,
                backfilled: j.is_multiple_of(2),
            }),
            PlatformEvent::Placed { .. } => Some(PlatformEvent::Preempted {
                job,
                reclaimed_for: group,
            }),
            PlatformEvent::Preempted { .. } => Some(PlatformEvent::Completed {
                job,
                jct_secs: j as f64 * 2.0,
            }),
            PlatformEvent::Completed { .. } => Some(PlatformEvent::FailedOver {
                job,
                node: text(),
                fallback: runtime,
            }),
            PlatformEvent::FailedOver { .. } => Some(PlatformEvent::Failed { job, node: text() }),
            PlatformEvent::Failed { .. } => Some(PlatformEvent::Cancelled { job }),
            PlatformEvent::Cancelled { .. } => Some(PlatformEvent::IllegalTransition {
                job,
                from: JobState::ALL[(j % 7) as usize],
                event: JobEventKind::ALL[(j % 9) as usize],
            }),
            PlatformEvent::IllegalTransition { .. } => None,
        };
        out.push(event);
    }
    out
}

fn random_event(rng: &mut DetRng) -> PlatformEvent {
    let name = NAMES[below(rng, NAMES.len() as u64) as usize];
    let mut variants = every_variant(below(rng, 100), name);
    variants.swap_remove(below(rng, variants.len() as u64) as usize)
}

#[test]
fn the_sweep_draws_from_all_eleven_variants() {
    let mut kinds: Vec<&str> = every_variant(3, "x").iter().map(|e| e.kind()).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(kinds.len(), 11);
}

#[test]
fn timestamps_monotone_and_ring_bounded() {
    for seed in 0..256 {
        let rng = &mut DetRng::seed_from_u64(seed);
        let cap = 1 + below(rng, 63) as usize;
        let len = below(rng, 128);
        let mut bus = EventBus::new(cap);
        for _ in 0..len {
            // Any bit pattern: NaNs, infinities, negatives, subnormals.
            let at = f64::from_bits(rng.next_u64());
            bus.record(at, random_event(rng));
        }
        let recs: Vec<EventRecord> = bus.records().cloned().collect();
        for w in recs.windows(2) {
            assert!(
                w[0].at_secs <= w[1].at_secs,
                "seed {seed}: timestamps regressed: {} then {}",
                w[0].at_secs,
                w[1].at_secs
            );
            assert!(w[0].seq < w[1].seq, "seed {seed}: sequence not increasing");
        }
        for r in &recs {
            assert!(r.at_secs.is_finite(), "seed {seed}: non-finite timestamp");
        }
        assert!(bus.len() <= cap, "seed {seed}");
        assert_eq!(bus.recorded(), len, "seed {seed}");
        assert_eq!(bus.dropped(), len - bus.len() as u64, "seed {seed}");
    }
}

#[test]
fn jsonl_round_trips() {
    for seed in 0..256 {
        let rng = &mut DetRng::seed_from_u64(seed);
        let mut bus = EventBus::new(1024);
        for _ in 0..below(rng, 64) {
            let at = dist::uniform(rng, 0.0, 1e9);
            bus.record(at, random_event(rng));
        }
        let text = bus.to_jsonl();
        assert_eq!(text.lines().count(), bus.len(), "seed {seed}");
        let parsed = EventBus::parse_jsonl(&text)
            .unwrap_or_else(|e| panic!("seed {seed}: export does not parse back: {e}"));
        let original: Vec<EventRecord> = bus.records().cloned().collect();
        assert_eq!(parsed, original, "seed {seed}");
    }
}

/// Every variant with every awkward name, not just the ones a seed
/// happens to draw.
#[test]
fn jsonl_round_trips_every_variant_with_every_awkward_name() {
    let mut bus = EventBus::new(1024);
    for (j, name) in NAMES.iter().enumerate() {
        for event in every_variant(j as u64, name) {
            bus.record(j as f64 + 0.1, event);
        }
    }
    assert_eq!(bus.len(), 11 * NAMES.len());
    let parsed = EventBus::parse_jsonl(&bus.to_jsonl()).expect("export parses back");
    let original: Vec<EventRecord> = bus.records().cloned().collect();
    assert_eq!(parsed, original);
}

/// An event's floats may be non-finite: each is written as the string
/// (`"inf"`, `"-inf"`, `"nan"`) the number reader takes back, never a
/// panic or a bare `inf` no parser reads.
#[test]
fn jsonl_round_trips_non_finite_floats() {
    let mut bus = EventBus::new(64);
    for v in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
        let job = JobId::from_value(1);
        let events = [
            PlatformEvent::Compiled {
                job,
                instruction: InstructionKind::ContainerImage,
                payload_mb: v,
                transferred_mb: -v,
                chunk_hits: 1,
                chunk_misses: 2,
                provisioning_secs: v,
            },
            PlatformEvent::Placed {
                job,
                nodes: 1,
                runtime: RuntimePreference::AllReduce,
                slowdown: v,
                granted_workers: 1,
                requested_workers: 1,
                backfilled: false,
            },
            PlatformEvent::Completed { job, jct_secs: v },
        ];
        for event in events {
            bus.record(2.5, event);
        }
    }
    let parsed = EventBus::parse_jsonl(&bus.to_jsonl()).expect("export parses back");
    let original: Vec<EventRecord> = bus.records().cloned().collect();
    // Debug text, so that a NaN reads back equal to itself.
    assert_eq!(format!("{parsed:?}"), format!("{original:?}"));
}

/// Read-back is closed-world: a name no member of the field's set
/// renders as is refused, never turned into a value the writer could not
/// have held.
#[test]
fn read_back_refuses_a_name_outside_its_closed_set() {
    let mut bus = EventBus::new(16);
    for event in every_variant(4, "x") {
        bus.record(1.0, event);
    }
    let text = bus.to_jsonl();
    assert!(EventBus::parse_jsonl(&text).is_ok());
    for (written, forged, complaint) in [
        (
            "\"shell\"",
            "\"Training\"",
            "unknown instruction 'Training'",
        ),
        (
            "\"runtime\":\"SingleProcess\"",
            "\"runtime\":\"MultiProcess\"",
            "unknown runtime 'MultiProcess'",
        ),
        (
            "\"fallback\":\"SingleProcess\"",
            "\"fallback\":\"single-process\"",
            "unknown fallback 'single-process'",
        ),
        (
            "\"from\":\"completed\"",
            "\"from\":\"Completed\"",
            "unknown from 'Completed'",
        ),
        (
            "\"event\":\"interrupt\"",
            "\"event\":\"explode\"",
            "unknown event 'explode'",
        ),
    ] {
        let forgery = text.replacen(written, forged, 1);
        assert_ne!(forgery, text, "the export names {written}");
        let err = EventBus::parse_jsonl(&forgery).expect_err("a name the writer cannot emit");
        assert!(err.ends_with(complaint), "{err}");
    }
}
