//! Differential testing: the optimized [`Scheduler`] against the naive
//! [`ReferenceScheduler`].
//!
//! Every hot-path optimization in the scheduler — sort skipping, the
//! incremental usage vectors, the id-indexed queue, the capacity-index
//! fast paths, the reclaim gate and its cached hypothetical cluster — is
//! claimed to be *decision-invariant*. This suite drives both schedulers
//! through identical randomized operation scripts and requires the
//! `Debug`-formatted decision streams to match byte for byte, round by
//! round.
//!
//! The scripts come from plain `#[test]` seed sweeps over a deterministic
//! xorshift generator: a failing seed is the reproducer.
//!
//! A red-flip test proves the harness has teeth: two schedulers that
//! genuinely differ (backfill on vs off) must produce diverging streams
//! on a script built to expose the difference.

use tacc_cluster::{Cluster, ClusterSpec, GpuModel, ResourceVec};
use tacc_sched::reference::ReferenceScheduler;
use tacc_sched::{
    BackfillMode, CapacityWindow, PlacementStrategy, PolicyKind, QuotaMode, Scheduler,
    SchedulerConfig, TaskRequest,
};
use tacc_workload::{GroupId, JobId, QosClass};

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

const GROUPS: usize = 4;

fn config(seed: u64) -> SchedulerConfig {
    let mut rng = XorShift::new(seed ^ 0xC0FFEE);
    let policy = [
        PolicyKind::Fifo,
        PolicyKind::Sjf,
        PolicyKind::FairShare,
        PolicyKind::Drf,
        PolicyKind::MultiFactor,
    ][rng.below(5) as usize];
    let placement = [
        PlacementStrategy::Pack,
        PlacementStrategy::Spread,
        PlacementStrategy::TopologyAware,
    ][rng.below(3) as usize];
    let backfill = [
        BackfillMode::None,
        BackfillMode::Easy,
        BackfillMode::Conservative,
    ][rng.below(3) as usize];
    let quota =
        [QuotaMode::Disabled, QuotaMode::Static, QuotaMode::Borrowing][rng.below(3) as usize];
    let time_slice_secs = if rng.below(2) == 0 { Some(600.0) } else { None };
    // Planned capacity windows (64-GPU cluster): none, a mid-script drain,
    // or a permanent holdback stacked with an overlapping drain. They only
    // shape reservation shadows, so both schedulers must agree on them.
    let capacity_windows = match rng.below(4) {
        0 | 1 => Vec::new(),
        2 => vec![CapacityWindow {
            gpus: 16,
            from_secs: 1_800.0,
            until_secs: 7_200.0,
        }],
        _ => vec![
            CapacityWindow {
                gpus: 8,
                from_secs: 0.0,
                until_secs: f64::INFINITY,
            },
            CapacityWindow {
                gpus: 24,
                from_secs: 3_600.0,
                until_secs: 10_800.0,
            },
        ],
    };
    SchedulerConfig {
        policy,
        placement,
        backfill,
        quota,
        quotas: vec![12, 12, 20, 20],
        group_count: GROUPS,
        time_slice_secs,
        capacity_windows,
        ..SchedulerConfig::default()
    }
}

fn cluster() -> Cluster {
    // 2 racks x 4 nodes x 8 GPUs = 64 GPUs, small enough to stay contended.
    Cluster::new(ClusterSpec::uniform(2, 4, GpuModel::A100, 8))
}

fn random_request(rng: &mut XorShift, id: u64, now: f64) -> TaskRequest {
    let workers = 1 + rng.below(4) as u32;
    // Mostly GPU gangs; occasionally a zero-GPU (CPU-side) task to cover
    // the capacity gates' gpus == 0 edge.
    let gpus = [0, 1, 1, 2, 2, 4, 8][rng.below(7) as usize];
    TaskRequest {
        id: JobId::from_value(id),
        group: GroupId::from_index(rng.below(GROUPS as u64) as usize),
        qos: if rng.below(2) == 0 {
            QosClass::Guaranteed
        } else {
            QosClass::BestEffort
        },
        workers,
        per_worker: ResourceVec::gpus_only(gpus),
        est_secs: 60.0 + rng.below(7200) as f64,
        submit_secs: now,
        elastic: rng.below(4) == 0,
    }
}

/// Drives both schedulers through one identical randomized script and
/// returns (optimized stream, reference stream). Streams include every
/// round's `Debug`-formatted decisions plus queue/running census lines.
fn run_script(seed: u64, steps: usize) -> (String, String) {
    let cfg = config(seed);
    let mut opt = Scheduler::new(cfg.clone());
    let mut reference = ReferenceScheduler::new(cfg);
    let mut opt_cluster = cluster();
    let mut ref_cluster = cluster();

    let mut rng = XorShift::new(seed);
    let mut opt_stream = String::new();
    let mut ref_stream = String::new();
    let mut next_id = 1u64;
    let mut live: Vec<JobId> = Vec::new(); // submitted, possibly queued or running
    let mut now = 0.0f64;

    for _ in 0..steps {
        now += rng.below(900) as f64;
        match rng.below(10) {
            // Submit (weighted heaviest so queues build up).
            0..=4 => {
                let request = random_request(&mut rng, next_id, now);
                next_id += 1;
                live.push(request.id);
                opt.submit(request);
                reference.submit(request);
            }
            // Finish a running task (same id fed to both).
            5..=6 => {
                if !live.is_empty() {
                    let id = live[rng.below(live.len() as u64) as usize];
                    let a = opt.task_finished(id, &mut opt_cluster);
                    let b = reference.task_finished(id, &mut ref_cluster);
                    assert_eq!(
                        a.is_some(),
                        b.is_some(),
                        "running sets diverged at finish({id}) [seed {seed}]"
                    );
                    if a.is_some() {
                        live.retain(|&j| j != id);
                    }
                }
            }
            // Cancel a queued task.
            7 => {
                if !live.is_empty() {
                    let id = live[rng.below(live.len() as u64) as usize];
                    let a = opt.cancel(id);
                    let b = reference.cancel(id);
                    assert_eq!(a, b, "cancel({id}) diverged [seed {seed}]");
                    if a {
                        live.retain(|&j| j != id);
                    }
                }
            }
            // Gang rotation (no-op unless the config time-slices).
            8 => {
                let a = opt.rotate(now, &mut opt_cluster);
                let b = reference.rotate(now, &mut ref_cluster);
                opt_stream.push_str(&format!("rotate@{now}: {:?}\n", a.decisions));
                ref_stream.push_str(&format!("rotate@{now}: {:?}\n", b.decisions));
            }
            // Scheduling round.
            _ => {
                let a = opt.schedule(now, &mut opt_cluster);
                let b = reference.schedule(now, &mut ref_cluster);
                opt_stream.push_str(&format!("round@{now}: {:?}\n", a.decisions));
                ref_stream.push_str(&format!("round@{now}: {:?}\n", b.decisions));
            }
        }
        opt_stream.push_str(&format!(
            "census q={} r={} free={}\n",
            opt.queue_len(),
            opt.running_len(),
            opt_cluster.free_gpus()
        ));
        ref_stream.push_str(&format!(
            "census q={} r={} free={}\n",
            reference.queue_len(),
            reference.running_len(),
            ref_cluster.free_gpus()
        ));
    }
    // Drain: keep scheduling with everything finishing so end states meet.
    let a = opt.schedule(now + 1.0, &mut opt_cluster);
    let b = reference.schedule(now + 1.0, &mut ref_cluster);
    opt_stream.push_str(&format!("final: {:?}\n", a.decisions));
    ref_stream.push_str(&format!("final: {:?}\n", b.decisions));
    (opt_stream, ref_stream)
}

fn assert_identical(seed: u64, steps: usize) {
    let (opt, reference) = run_script(seed, steps);
    if opt != reference {
        let diff = opt
            .lines()
            .zip(reference.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b);
        match diff {
            Some((i, (a, b))) => panic!(
                "decision streams diverged [seed {seed}] at line {}:\n  optimized: {a}\n  reference: {b}",
                i + 1
            ),
            None => panic!(
                "decision streams diverged [seed {seed}]: lengths {} vs {}",
                opt.len(),
                reference.len()
            ),
        }
    }
}

#[test]
fn seed_sweep_short_scripts() {
    // Broad but shallow: many configurations, shorter scripts.
    for seed in 1..=60 {
        assert_identical(seed, 120);
    }
}

#[test]
fn seed_sweep_long_scripts() {
    // Narrow but deep: fewer configurations, long enough for queues to
    // build, borrowers to accumulate, and reclaims/rotations to trigger.
    for seed in 1..=8 {
        assert_identical(seed * 7919, 900);
    }
}

#[test]
fn red_flip_harness_detects_decision_changes() {
    // Prove the harness would catch a real decision change: run the
    // reference with backfill where the subject has none. A wide job
    // blocks the head of the queue and a narrow job waits behind it —
    // backfill starts the narrow one, strict FIFO must not.
    let base = SchedulerConfig {
        policy: PolicyKind::Fifo,
        placement: PlacementStrategy::Pack,
        backfill: BackfillMode::None,
        quota: QuotaMode::Disabled,
        quotas: vec![0; GROUPS],
        group_count: GROUPS,
        time_slice_secs: None,
        ..SchedulerConfig::default()
    };
    let mut opt = Scheduler::new(base.clone());
    let mut reference = ReferenceScheduler::new(SchedulerConfig {
        backfill: BackfillMode::Easy,
        ..base
    });
    let mut opt_cluster = cluster();
    let mut ref_cluster = cluster();

    // 7 of 8 nodes fully occupied: 8 GPUs stay free, too few for the wide
    // 2x8 gang, plenty for the narrow 1x1.
    let occupant = TaskRequest {
        id: JobId::from_value(1),
        group: GroupId::from_index(0),
        qos: QosClass::Guaranteed,
        workers: 7,
        per_worker: ResourceVec::gpus_only(8),
        est_secs: 3600.0,
        submit_secs: 0.0,
        elastic: false,
    };
    let wide = TaskRequest {
        id: JobId::from_value(2),
        workers: 2,
        est_secs: 600.0,
        submit_secs: 1.0,
        ..occupant
    };
    let narrow = TaskRequest {
        id: JobId::from_value(3),
        workers: 1,
        per_worker: ResourceVec::gpus_only(1),
        est_secs: 60.0,
        submit_secs: 2.0,
        ..occupant
    };
    // Fill the cluster, then queue the blocked wide job and the narrow one.
    opt.submit(occupant);
    reference.submit(occupant);
    let a = opt.schedule(0.0, &mut opt_cluster);
    let b = reference.schedule(0.0, &mut ref_cluster);
    assert_eq!(format!("{:?}", a.decisions), format!("{:?}", b.decisions));
    opt.submit(wide);
    opt.submit(narrow);
    reference.submit(wide);
    reference.submit(narrow);
    let a = opt.schedule(3.0, &mut opt_cluster);
    let b = reference.schedule(3.0, &mut ref_cluster);
    assert_ne!(
        format!("{:?}", a.decisions),
        format!("{:?}", b.decisions),
        "a decision-affecting config change must flip the comparison red"
    );
    // And the direction is the expected one: backfill started the narrow
    // job, strict FIFO started nothing.
    assert_eq!(a.starts().count(), 0);
    assert_eq!(b.starts().count(), 1);
}

#[test]
fn red_flip_slot_boundary_bug_diverges_from_reference() {
    // Prove the differential suite would catch a one-line slot-split bug:
    // inject an off-by-one interval boundary (every claim end shifted by
    // +600s) into the optimized planner only. The skewed reservation
    // shadow admits a backfill candidate the reference rejects, so the
    // decision streams must diverge.
    let cfg = SchedulerConfig {
        policy: PolicyKind::Fifo,
        placement: PlacementStrategy::Pack,
        backfill: BackfillMode::Conservative,
        quota: QuotaMode::Disabled,
        quotas: vec![0; GROUPS],
        group_count: GROUPS,
        time_slice_secs: None,
        ..SchedulerConfig::default()
    };
    let mut opt = Scheduler::new(cfg.clone());
    opt.debug_set_boundary_skew(600.0);
    let mut reference = ReferenceScheduler::new(cfg);
    let mut opt_cluster = cluster();
    let mut ref_cluster = cluster();

    // 7 of 8 nodes occupied until t=3600; 8 GPUs stay free.
    let occupant = TaskRequest {
        id: JobId::from_value(1),
        group: GroupId::from_index(0),
        qos: QosClass::Guaranteed,
        workers: 7,
        per_worker: ResourceVec::gpus_only(8),
        est_secs: 3600.0,
        submit_secs: 0.0,
        elastic: false,
    };
    // Demands the whole cluster: blocked with shadow 3600 and zero extra.
    let wide = TaskRequest {
        id: JobId::from_value(2),
        workers: 8,
        est_secs: 600.0,
        submit_secs: 1.0,
        ..occupant
    };
    // Fits the free node now, but runs until ~3703: past the true shadow
    // (3600 — reference blocks it), within the skewed one (4200 — the
    // buggy planner lets it through).
    let narrow = TaskRequest {
        id: JobId::from_value(3),
        workers: 1,
        est_secs: 3700.0,
        submit_secs: 2.0,
        ..occupant
    };
    opt.submit(occupant);
    reference.submit(occupant);
    let a = opt.schedule(0.0, &mut opt_cluster);
    let b = reference.schedule(0.0, &mut ref_cluster);
    assert_eq!(format!("{:?}", a.decisions), format!("{:?}", b.decisions));
    opt.submit(wide);
    opt.submit(narrow);
    reference.submit(wide);
    reference.submit(narrow);
    let a = opt.schedule(3.0, &mut opt_cluster);
    let b = reference.schedule(3.0, &mut ref_cluster);
    assert_ne!(
        format!("{:?}", a.decisions),
        format!("{:?}", b.decisions),
        "an off-by-one slot boundary must flip the comparison red"
    );
    // And in the expected direction: the skewed planner backfilled the
    // narrow job, the honest reference blocked it.
    assert_eq!(a.starts().count(), 1);
    assert_eq!(b.starts().count(), 0);
}
