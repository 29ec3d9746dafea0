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
//!
//! The second half of the file holds the two incremental structures of
//! the contended round to the same standard: a resumed walk must leave
//! the decisions, the round-by-round trace and the skip ledger exactly as
//! a walk from the head of the queue would, and the carried reclaim view
//! must be the one a rebuild would produce — each with a red-flip built
//! on a test-only fault hook, and one unit case per invalidation.

use tacc_cluster::{Cluster, ClusterSpec, GpuModel, ResourceVec};
use tacc_sched::reference::ReferenceScheduler;
use tacc_sched::{
    BackfillMode, CapacityWindow, DebugRoundHook, PlacementStrategy, PolicyKind, QuotaMode,
    Scheduler, SchedulerConfig, TaskRequest, WorkCounters,
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

/// The waiting requests, id-ordered: the two schedulers keep the same
/// queue in different physical orders (the subject binary-inserts where
/// the reference appends and re-sorts).
fn queue_contents<'a>(queued: impl Iterator<Item = &'a TaskRequest>) -> String {
    let mut queued: Vec<&TaskRequest> = queued.collect();
    queued.sort_by_key(|r| r.id);
    format!("{queued:?}")
}

/// Drives both schedulers through one identical randomized script and
/// returns (optimized stream, reference stream). Streams include every
/// round's `Debug`-formatted decisions plus a census line after every
/// step, the queue's contents among it.
fn run_script(cfg: SchedulerConfig, seed: u64, steps: usize) -> (String, String) {
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
            "census q={} r={} free={} queued={}\n",
            opt.queue_len(),
            opt.running_len(),
            opt_cluster.free_gpus(),
            queue_contents(opt.queued())
        ));
        ref_stream.push_str(&format!(
            "census q={} r={} free={} queued={}\n",
            reference.queue_len(),
            reference.running_len(),
            ref_cluster.free_gpus(),
            queue_contents(reference.queued())
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
    assert_identical_under(config(seed), seed, steps);
}

fn assert_identical_under(cfg: SchedulerConfig, seed: u64, steps: usize) {
    let (opt, reference) = run_script(cfg, seed, steps);
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
fn seed_sweep_under_each_order_validity_at_apply_time() {
    // A round's queue edits are applied after its walk, through the same
    // operations a submit or a cancel uses — binary when the order is
    // provable, scan-and-mark-dirty when it is not. The three cases:
    // FIFO's order is still valid when the edits land; FairShare's was
    // valid when the walk began and is not by then (the first start moved
    // the usage its keys read); MultiFactor's never is. Borrowing, so
    // that rounds re-queue victims as well as remove starts.
    for policy in [
        PolicyKind::Fifo,
        PolicyKind::FairShare,
        PolicyKind::MultiFactor,
    ] {
        for seed in 1..=24 {
            let cfg = SchedulerConfig {
                policy,
                quota: QuotaMode::Borrowing,
                ..config(seed)
            };
            assert_identical_under(cfg, seed, 250);
        }
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

// ---------------------------------------------------------------------
// The contended round: resumed walks and the carried reclaim view.
// ---------------------------------------------------------------------

/// FIFO + EASY + borrowing — the regime of `replay-contended`, and the
/// configuration in which a round may resume. Placement and capacity
/// windows still vary with the seed.
fn contended_config(seed: u64) -> SchedulerConfig {
    let placement = [
        PlacementStrategy::Pack,
        PlacementStrategy::Spread,
        PlacementStrategy::TopologyAware,
    ][(seed % 3) as usize];
    let capacity_windows = if seed.is_multiple_of(4) {
        vec![CapacityWindow {
            gpus: 16,
            from_secs: 1_800.0,
            until_secs: 7_200.0,
        }]
    } else {
        Vec::new()
    };
    SchedulerConfig {
        policy: PolicyKind::Fifo,
        placement,
        backfill: BackfillMode::Easy,
        quota: QuotaMode::Borrowing,
        quotas: vec![12, 12, 20, 20],
        group_count: GROUPS,
        time_slice_secs: None,
        capacity_windows,
    }
}

/// What one contended script left behind.
#[derive(Default)]
struct Contended {
    opt_stream: String,
    ref_stream: String,
    /// Every retained `RoundTrace` minus its wall time.
    trace: Vec<String>,
    counters: WorkCounters,
}

/// The optimized scheduler (under a hook, if any) and the reference,
/// each on its own cluster, driven in lockstep.
struct Rig {
    opt: Scheduler,
    reference: ReferenceScheduler,
    opt_cluster: Cluster,
    ref_cluster: Cluster,
    out: Contended,
}

impl Rig {
    fn new(cfg: SchedulerConfig, hook: Option<DebugRoundHook>) -> Rig {
        let mut opt = Scheduler::new(cfg.clone());
        if let Some(hook) = hook {
            opt.debug_set_round_hook(hook);
        }
        Rig {
            opt,
            reference: ReferenceScheduler::new(cfg),
            opt_cluster: cluster(),
            ref_cluster: cluster(),
            out: Contended::default(),
        }
    }

    fn submit(&mut self, request: TaskRequest) {
        self.opt.submit(request);
        self.reference.submit(request);
    }

    fn finish(&mut self, id: JobId) {
        let a = self.opt.task_finished(id, &mut self.opt_cluster);
        let b = self.reference.task_finished(id, &mut self.ref_cluster);
        assert!(a.is_some() && b.is_some(), "finish({id}) of a running task");
    }

    fn cancel(&mut self, id: JobId) -> bool {
        let found = self.opt.cancel(id);
        assert_eq!(found, self.reference.cancel(id), "cancel({id})");
        found
    }

    /// Rounds to a fixpoint, as the platform does after every event.
    fn settle(&mut self, now: f64) {
        loop {
            let a = self.opt.schedule(now, &mut self.opt_cluster);
            let b = self.reference.schedule(now, &mut self.ref_cluster);
            self.out
                .opt_stream
                .push_str(&format!("round@{now}: {:?}\n", a.decisions));
            self.out
                .ref_stream
                .push_str(&format!("round@{now}: {:?}\n", b.decisions));
            if a.is_empty() && b.is_empty() {
                break;
            }
        }
    }
}

/// Drives the optimized scheduler (under `hook`, if any) and the
/// reference through a script biased the way a deep queue lives: streaks
/// of submissions with a settled round after each, between occasional
/// finishes and cancels, on a clock that advances in steps small enough
/// for estimates to straddle the head's shadow.
fn run_contended(seed: u64, steps: usize, hook: Option<DebugRoundHook>) -> Contended {
    let mut rig = Rig::new(contended_config(seed), hook);
    let mut rng = XorShift::new(seed);
    let mut next_id = 1u64;
    let mut now = 0.0f64;
    for _ in 0..steps {
        now += rng.below(240) as f64;
        match rng.below(10) {
            0..=6 => {
                for _ in 0..=rng.below(4) {
                    rig.submit(random_request(&mut rng, next_id, now));
                    next_id += 1;
                    rig.settle(now);
                    now += rng.below(30) as f64;
                }
            }
            7..=8 => {
                let running: Vec<JobId> = rig.opt.running().map(|t| t.request.id).collect();
                if !running.is_empty() {
                    rig.finish(running[rng.below(running.len() as u64) as usize]);
                }
            }
            _ => {
                rig.cancel(JobId::from_value(1 + rng.below(next_id)));
            }
        }
        rig.settle(now);
        rig.out.opt_stream.push_str(&format!(
            "census q={} r={} free={}\n",
            rig.opt.queue_len(),
            rig.opt.running_len(),
            rig.opt_cluster.free_gpus()
        ));
        rig.out.ref_stream.push_str(&format!(
            "census q={} r={} free={}\n",
            rig.reference.queue_len(),
            rig.reference.running_len(),
            rig.ref_cluster.free_gpus()
        ));
    }
    rig.out.trace = rig
        .opt
        .decision_trace()
        .rounds()
        .map(|r| {
            format!(
                "{} @{} q={} started={:?} preempted={:?} skips={:?}",
                r.round, r.at_secs, r.queue_len, r.started, r.preempted, r.skips
            )
        })
        .collect();
    rig.out.counters = rig.opt.work_counters();
    rig.out
}

#[test]
fn resumed_walks_change_no_decision_and_no_trace() {
    let mut resumes = 0;
    for seed in 1..=24 {
        let resumed = run_contended(seed, 160, None);
        assert_eq!(
            resumed.opt_stream, resumed.ref_stream,
            "decision streams diverged [seed {seed}]"
        );
        // Against the same scheduler walking every round from the head:
        // each round's started/preempted/skip lists, and the ledger's own
        // counts, must not be able to tell the difference.
        let full = run_contended(seed, 160, Some(DebugRoundHook::NoResume));
        assert_eq!(full.counters.walk_resumes, 0);
        assert_eq!(resumed.opt_stream, full.opt_stream, "[seed {seed}]");
        assert!(
            resumed.trace.len() < 2048,
            "trace ring wrapped; shorten the script"
        );
        for (i, (a, b)) in resumed.trace.iter().zip(&full.trace).enumerate() {
            assert_eq!(a, b, "round trace {i} diverged [seed {seed}]");
        }
        assert_eq!(resumed.trace.len(), full.trace.len(), "[seed {seed}]");
        let (r, f) = (resumed.counters, full.counters);
        assert_eq!(r.skip_records, f.skip_records, "[seed {seed}]");
        assert_eq!(r.skip_suppressions, f.skip_suppressions, "[seed {seed}]");
        assert_eq!(r.slots, f.slots, "[seed {seed}]");
        assert!(r.plan.attempts <= f.plan.attempts, "[seed {seed}]");
        resumes += r.walk_resumes;
    }
    assert!(
        resumes > 200,
        "the script family must exercise resumption ({resumes} resumed rounds)"
    );
}

#[test]
fn red_flip_unchecked_time_permitted_entries_diverge_in_the_trace() {
    // A resumed round can never change a decision — nothing the skipped
    // entries could start on has moved — so what the recheck of the
    // time-permitted entries protects is the trace and the ledger. Drop
    // it, and a script whose estimates straddle the shadow must record a
    // different round-by-round skip history than the full walk does.
    let diverged = (1..=24).any(|seed| {
        let faulty = run_contended(seed, 160, Some(DebugRoundHook::SkipPermittedRecheck));
        let full = run_contended(seed, 160, Some(DebugRoundHook::NoResume));
        assert_eq!(faulty.opt_stream, full.opt_stream, "[seed {seed}]");
        faulty.trace != full.trace
    });
    assert!(
        diverged,
        "skipping the time-permitted recheck must flip the trace comparison red"
    );
}

/// One gang of `workers` x 8 GPUs (a whole node each on the 8 x 8 test
/// cluster).
fn gang(id: u64, group: usize, qos: QosClass, workers: u32, submit_secs: f64) -> TaskRequest {
    TaskRequest {
        id: JobId::from_value(id),
        group: GroupId::from_index(group),
        qos,
        workers,
        per_worker: ResourceVec::gpus_only(8),
        est_secs: 3_600.0,
        submit_secs,
        elastic: false,
    }
}

#[test]
fn red_flip_stale_reclaim_view_diverges_from_reference() {
    // A reclaim after a guaranteed finish: the finish frees half the
    // cluster in the view too. A view that misses it still counts those
    // GPUs as held, fails the pre-check, and leaves a guaranteed job
    // waiting that the reference starts by evicting a borrower.
    let cfg = SchedulerConfig {
        policy: PolicyKind::Fifo,
        placement: PlacementStrategy::Pack,
        backfill: BackfillMode::Easy,
        quota: QuotaMode::Borrowing,
        quotas: vec![32, 32, 0, 0],
        group_count: GROUPS,
        time_slice_secs: None,
        ..SchedulerConfig::default()
    };
    let run = |hook: Option<DebugRoundHook>| -> (String, String) {
        let mut rig = Rig::new(cfg.clone(), hook);
        let script = [
            // Half the cluster guaranteed, half borrowed: full.
            Some(gang(1, 0, QosClass::Guaranteed, 4, 0.0)),
            Some(gang(2, 1, QosClass::BestEffort, 4, 1.0)),
            // Reclaims from the borrower — the view's first use.
            Some(gang(3, 1, QosClass::Guaranteed, 1, 2.0)),
            // Borrows what is left (after the evicted borrower is cancelled).
            Some(gang(4, 0, QosClass::BestEffort, 3, 3.0)),
            // Job 1 finishes here; a borrower takes its half…
            None,
            Some(gang(5, 1, QosClass::BestEffort, 4, 5.0)),
            // …and group 0's guaranteed demand returns for it.
            Some(gang(6, 0, QosClass::Guaranteed, 4, 6.0)),
        ];
        for (step, request) in script.into_iter().enumerate() {
            match request {
                Some(request) => rig.submit(request),
                None => rig.finish(JobId::from_value(1)),
            }
            rig.settle(step as f64 * 10.0);
            if step == 2 {
                assert!(rig.cancel(JobId::from_value(2)), "evicted borrower queued");
            }
        }
        assert!(rig.opt.work_counters().reclaim_view_rebuilds <= 1);
        (rig.out.opt_stream, rig.out.ref_stream)
    };
    let (opt, reference) = run(None);
    assert_eq!(
        opt, reference,
        "the carried view must decide like a rebuild"
    );
    assert!(
        opt.contains("Preempt { id: JobId(5)"),
        "script reclaims: {opt}"
    );
    let (opt, reference) = run(Some(DebugRoundHook::SkipViewRelease));
    assert_ne!(
        opt, reference,
        "a view that misses a guaranteed finish must flip the comparison red"
    );
}

#[test]
fn reclaim_view_equals_a_rebuild_after_every_step() {
    // Starts, finishes, preemptions (reclaim and rotation), drains,
    // undrains and reservations in random order: whenever the view claims
    // to mirror the cluster it must be the view a rebuild would give.
    let mut checked = 0u64;
    let mut rebuilds = 0u64;
    for seed in 1..=240u64 {
        let cfg = SchedulerConfig {
            placement: [
                PlacementStrategy::Pack,
                PlacementStrategy::Spread,
                PlacementStrategy::TopologyAware,
            ][(seed % 3) as usize],
            time_slice_secs: seed.is_multiple_of(2).then_some(600.0),
            ..contended_config(1)
        };
        let mut sched = Scheduler::new(cfg);
        let mut cluster = cluster();
        let mut rng = XorShift::new(seed ^ 0x5EED);
        let mut now = 0.0f64;
        let mut next_id = 1u64;
        for step in 0..120 {
            now += rng.below(400) as f64;
            match rng.below(12) {
                0..=4 => {
                    sched.submit(random_request(&mut rng, next_id, now));
                    next_id += 1;
                    while !sched.schedule(now, &mut cluster).is_empty() {}
                }
                5..=6 => {
                    let running: Vec<JobId> = sched.running().map(|t| t.request.id).collect();
                    if !running.is_empty() {
                        let id = running[rng.below(running.len() as u64) as usize];
                        sched.task_finished(id, &mut cluster);
                    }
                    while !sched.schedule(now, &mut cluster).is_empty() {}
                }
                7 => {
                    sched.rotate(now, &mut cluster);
                }
                8 => {
                    let node = tacc_cluster::NodeId::from_index(rng.below(8) as usize);
                    cluster.drain(node);
                }
                9 => {
                    let node = tacc_cluster::NodeId::from_index(rng.below(8) as usize);
                    cluster.undrain(node);
                }
                10 => sched.reserve_capacity(CapacityWindow {
                    gpus: 8,
                    from_secs: now + 600.0,
                    until_secs: now + 1_800.0,
                }),
                _ => while !sched.schedule(now, &mut cluster).is_empty() {},
            }
            if let Some(in_step) = sched.debug_reclaim_view_in_step(&cluster) {
                assert!(in_step, "view out of step [seed {seed}, step {step}]");
                checked += 1;
            }
        }
        rebuilds += sched.work_counters().reclaim_view_rebuilds;
    }
    assert!(
        checked > 2_000,
        "sweep too vacuous: {checked} views checked"
    );
    assert!(rebuilds > 240, "drains must force rebuilds ({rebuilds})");
}

/// A queue the walk cannot move: seven of eight nodes held until t=3600,
/// a whole-cluster gang blocked at the head, and behind it one entry the
/// head's reservation lets through on time (it still does not fit) and
/// one it denies. Returns the scheduler after the round that proves it.
fn blocked_queue(cfg: SchedulerConfig) -> (Scheduler, Cluster) {
    let mut sched = Scheduler::new(SchedulerConfig {
        quota: QuotaMode::Disabled,
        quotas: vec![0; GROUPS],
        group_count: GROUPS,
        time_slice_secs: None,
        ..cfg
    });
    let mut cluster = cluster();
    sched.submit(gang(1, 0, QosClass::Guaranteed, 7, 0.0));
    assert_eq!(sched.schedule(0.0, &mut cluster).starts().count(), 1);
    sched.submit(gang(2, 0, QosClass::Guaranteed, 8, 1.0));
    sched.submit(TaskRequest {
        est_secs: 100.0,
        ..gang(3, 0, QosClass::Guaranteed, 2, 2.0)
    });
    sched.submit(TaskRequest {
        est_secs: 5_000.0,
        ..gang(4, 0, QosClass::Guaranteed, 2, 3.0)
    });
    assert!(sched.schedule(4.0, &mut cluster).is_empty());
    (sched, cluster)
}

/// Whether the next round (at `now`) resumes.
fn resumes(sched: &mut Scheduler, cluster: &mut Cluster, now: f64) -> bool {
    let before = sched.work_counters().walk_resumes;
    sched.schedule(now, cluster);
    sched.work_counters().walk_resumes > before
}

fn fifo_easy() -> SchedulerConfig {
    SchedulerConfig {
        policy: PolicyKind::Fifo,
        backfill: BackfillMode::Easy,
        ..SchedulerConfig::default()
    }
}

#[test]
fn a_tail_append_resumes_and_the_clock_alone_can_refuse() {
    let (mut sched, mut cluster) = blocked_queue(fifo_easy());
    // Nothing moved at all; then only the tail grew.
    assert!(resumes(&mut sched, &mut cluster, 5.0));
    sched.submit(gang(5, 1, QosClass::Guaranteed, 2, 6.0));
    assert!(resumes(&mut sched, &mut cluster, 6.0));
    let c = sched.work_counters();
    assert_eq!((c.walk_resumes, c.walk_resumed_entries), (2, 3 + 3));
    // Job 3 (est 100) was let through on time; at t=3501 it would end
    // past the shadow at 3600, so its verdict flips and the proof is void.
    assert!(!resumes(&mut sched, &mut cluster, 3_501.0));
    // The full walk that round made proved the queue afresh.
    assert!(resumes(&mut sched, &mut cluster, 3_502.0));
}

#[test]
fn every_invalidation_forces_a_full_walk() {
    // A re-queued job keeps its original submission time: mid-queue.
    let (mut sched, mut cluster) = blocked_queue(fifo_easy());
    sched.submit(gang(9, 1, QosClass::Guaranteed, 2, 0.5));
    assert!(!resumes(&mut sched, &mut cluster, 5.0), "mid-queue insert");

    // An SJF arrival shorter than the queue goes to the front.
    let (mut sched, mut cluster) = blocked_queue(SchedulerConfig {
        policy: PolicyKind::Sjf,
        ..fifo_easy()
    });
    assert!(resumes(&mut sched, &mut cluster, 5.0), "SJF resumes at all");
    sched.submit(TaskRequest {
        est_secs: 10.0,
        ..gang(9, 1, QosClass::Guaranteed, 2, 6.0)
    });
    assert!(!resumes(&mut sched, &mut cluster, 6.0), "SJF front insert");

    let (mut sched, mut cluster) = blocked_queue(fifo_easy());
    assert!(sched.cancel(JobId::from_value(4)));
    assert!(!resumes(&mut sched, &mut cluster, 5.0), "cancel");

    let (mut sched, mut cluster) = blocked_queue(fifo_easy());
    sched.reserve_capacity(CapacityWindow {
        gpus: 8,
        from_secs: 100.0,
        until_secs: 200.0,
    });
    assert!(!resumes(&mut sched, &mut cluster, 5.0), "reserve_capacity");

    // A productive walk proves nothing: the round after it walks in full.
    let (mut sched, mut cluster) = blocked_queue(fifo_easy());
    sched.submit(TaskRequest {
        per_worker: ResourceVec::gpus_only(1),
        est_secs: 10.0,
        ..gang(9, 1, QosClass::Guaranteed, 1, 6.0)
    });
    let before = sched.work_counters().walk_resumes;
    assert_eq!(sched.schedule(6.0, &mut cluster).starts().count(), 1);
    assert_eq!(sched.work_counters().walk_resumes, before + 1);
    assert!(!resumes(&mut sched, &mut cluster, 6.0), "productive walk");
    assert!(resumes(&mut sched, &mut cluster, 6.0), "and the one after");

    // A finish moves the cluster version and the usage epoch.
    let (mut sched, mut cluster) = blocked_queue(fifo_easy());
    assert!(sched
        .task_finished(JobId::from_value(1), &mut cluster)
        .is_some());
    assert!(!resumes(&mut sched, &mut cluster, 5.0), "finish");

    // So does a drain, with no scheduler call at all.
    let (mut sched, mut cluster) = blocked_queue(fifo_easy());
    cluster.drain(tacc_cluster::NodeId::from_index(7));
    assert!(!resumes(&mut sched, &mut cluster, 5.0), "drain");
}

#[test]
fn only_easy_backfill_under_a_static_order_ever_resumes() {
    for (policy, backfill) in [
        // Always sorts.
        (PolicyKind::MultiFactor, BackfillMode::Easy),
        // Stops at the first block / probes per blocked entry.
        (PolicyKind::Fifo, BackfillMode::None),
        (PolicyKind::Fifo, BackfillMode::Conservative),
    ] {
        let (mut sched, mut cluster) = blocked_queue(SchedulerConfig {
            policy,
            backfill,
            ..SchedulerConfig::default()
        });
        for round in 0..4 {
            assert!(
                !resumes(&mut sched, &mut cluster, 5.0 + f64::from(round)),
                "{policy:?}/{backfill:?} resumed"
            );
        }
    }
}
