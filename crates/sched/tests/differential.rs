//! Differential testing: the optimized [`Scheduler`] against the naive
//! [`ReferenceScheduler`].
//!
//! Every hot-path optimization in the scheduler — sort skipping, the
//! incremental usage vectors, the id-indexed queue, the capacity-index
//! fast paths, the reclaim gate and its per-node borrowed counts — is
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
//! Every script also runs a third scheduler, the optimized one under
//! `DebugRoundHook::WakeAll`, whose walks judge every entry every round:
//! entries kept asleep by their wake keys must leave the decisions, the
//! skip counters and every `why` answer, after every step, exactly as
//! judging them would.
//!
//! The second half of the file holds the contended round to the same
//! standard: the wake keys, with red-flips built on test-only fault hooks
//! and unit cases for what wakes an entry and what does not; and the
//! reclaim and rotation pre-checks, whose per-node arithmetic must answer
//! as a plan on a cloned cluster with the borrowers released would.

use tacc_cluster::{Cluster, ClusterSpec, GpuModel, ResourceVec};
use tacc_sched::reference::ReferenceScheduler;
use tacc_sched::{
    BackfillMode, CapacityWindow, DebugRoundHook, Decision, PlacementStrategy, Planner, PolicyKind,
    QuotaMode, Scheduler, SchedulerConfig, TaskRequest, WorkCounters,
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

/// One census line: queue depth, running count, free GPUs and the
/// queue's contents.
fn census<'a>(
    queued_len: usize,
    running_len: usize,
    cluster: &Cluster,
    queued: impl Iterator<Item = &'a TaskRequest>,
) -> String {
    format!(
        "census q={queued_len} r={running_len} free={} queued={}\n",
        cluster.free_gpus(),
        queue_contents(queued)
    )
}

/// What `why` shows of a scheduler: the answer for every queued job,
/// id-ordered.
fn observed(sched: &Scheduler) -> String {
    let mut out = String::new();
    let mut queued: Vec<JobId> = sched.queued().map(|r| r.id).collect();
    queued.sort();
    for id in queued {
        out.push_str(&format!("why {id}: {:?}\n", sched.latest_skip(id)));
    }
    out
}

/// Drives the schedulers through one identical randomized script and
/// returns (optimized stream, reference stream). Streams include every
/// round's `Debug`-formatted decisions plus a census line after every
/// step, the queue's contents among it. The optimized scheduler under
/// `WakeAll` runs the same script and must match it in its stream, after
/// every step in what [`observed`] shows, and in the skip counters.
fn run_script(cfg: SchedulerConfig, seed: u64, steps: usize) -> (String, String) {
    let mut opt = Scheduler::new(cfg.clone());
    let mut woke = Scheduler::new(cfg.clone());
    woke.debug_set_round_hook(DebugRoundHook::WakeAll);
    let mut reference = ReferenceScheduler::new(cfg);
    let mut opt_cluster = cluster();
    let mut woke_cluster = cluster();
    let mut ref_cluster = cluster();

    let mut rng = XorShift::new(seed);
    let mut opt_stream = String::new();
    let mut woke_stream = String::new();
    let mut ref_stream = String::new();
    let mut next_id = 1u64;
    let mut live: Vec<JobId> = Vec::new(); // submitted, possibly queued or running
    let mut now = 0.0f64;

    for step in 0..steps {
        now += rng.below(900) as f64;
        match rng.below(10) {
            // Submit (weighted heaviest so queues build up).
            0..=4 => {
                let request = random_request(&mut rng, next_id, now);
                next_id += 1;
                live.push(request.id);
                opt.submit(request);
                woke.submit(request);
                reference.submit(request);
            }
            // Finish a running task (same id fed to all).
            5..=6 => {
                if !live.is_empty() {
                    let id = live[rng.below(live.len() as u64) as usize];
                    let a = opt.task_finished(id, &mut opt_cluster);
                    woke.task_finished(id, &mut woke_cluster);
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
                    woke.cancel(id);
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
                let w = woke.rotate(now, &mut woke_cluster);
                let b = reference.rotate(now, &mut ref_cluster);
                opt_stream.push_str(&format!("rotate@{now}: {:?}\n", a.decisions));
                woke_stream.push_str(&format!("rotate@{now}: {:?}\n", w.decisions));
                ref_stream.push_str(&format!("rotate@{now}: {:?}\n", b.decisions));
            }
            // Scheduling round.
            _ => {
                let a = opt.schedule(now, &mut opt_cluster);
                let w = woke.schedule(now, &mut woke_cluster);
                let b = reference.schedule(now, &mut ref_cluster);
                opt_stream.push_str(&format!("round@{now}: {:?}\n", a.decisions));
                woke_stream.push_str(&format!("round@{now}: {:?}\n", w.decisions));
                ref_stream.push_str(&format!("round@{now}: {:?}\n", b.decisions));
            }
        }
        for (s, c, stream) in [
            (&opt, &opt_cluster, &mut opt_stream),
            (&woke, &woke_cluster, &mut woke_stream),
        ] {
            stream.push_str(&census(s.queue_len(), s.running_len(), c, s.queued()));
        }
        ref_stream.push_str(&census(
            reference.queue_len(),
            reference.running_len(),
            &ref_cluster,
            reference.queued(),
        ));
        assert_eq!(
            observed(&opt),
            observed(&woke),
            "why diverged from WakeAll at step {step} [seed {seed}]"
        );
    }
    // Drain: keep scheduling with everything finishing so end states meet.
    let a = opt.schedule(now + 1.0, &mut opt_cluster);
    let w = woke.schedule(now + 1.0, &mut woke_cluster);
    let b = reference.schedule(now + 1.0, &mut ref_cluster);
    opt_stream.push_str(&format!("final: {:?}\n", a.decisions));
    woke_stream.push_str(&format!("final: {:?}\n", w.decisions));
    ref_stream.push_str(&format!("final: {:?}\n", b.decisions));
    assert_eq!(
        opt_stream, woke_stream,
        "diverged from WakeAll [seed {seed}]"
    );
    let (o, w) = (opt.work_counters(), woke.work_counters());
    assert_eq!(
        (o.skip_records, o.skip_suppressions),
        (w.skip_records, w.skip_suppressions),
        "skip counters diverged from WakeAll [seed {seed}]"
    );
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
    // Prove the differential suite would catch a one-line release-order
    // bug: inject an off-by-one boundary (every release shifted by +600s)
    // into the optimized scheduler only. The skewed reservation
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
        "an off-by-one release boundary must flip the comparison red"
    );
    // And in the expected direction: the skewed planner backfilled the
    // narrow job, the honest reference blocked it.
    assert_eq!(a.starts().count(), 1);
    assert_eq!(b.starts().count(), 0);
}

// ---------------------------------------------------------------------
// The contended round: wake-keyed verdicts and the reclaim pre-checks.
// ---------------------------------------------------------------------

/// FIFO + EASY + borrowing — the regime of `replay-contended`, and the
/// configuration in which entries sleep. Placement and capacity
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
    /// The optimized scheduler's `why` answers at the end.
    observed: String,
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

    /// Finishes `id` on both sides; whether each was running goes into
    /// its stream, so a subject that diverged says so there.
    fn finish(&mut self, id: JobId) {
        let a = self.opt.task_finished(id, &mut self.opt_cluster);
        let b = self.reference.task_finished(id, &mut self.ref_cluster);
        self.record("finish", id, a.is_some(), b.is_some());
    }

    /// Cancels `id` on both sides, recorded like a finish; returns whether
    /// the subject had it queued.
    fn cancel(&mut self, id: JobId) -> bool {
        let found = self.opt.cancel(id);
        let reference = self.reference.cancel(id);
        self.record("cancel", id, found, reference);
        found
    }

    fn record(&mut self, what: &str, id: JobId, opt: bool, reference: bool) {
        let out = &mut self.out;
        out.opt_stream.push_str(&format!("{what} {id}: {opt}\n"));
        out.ref_stream
            .push_str(&format!("{what} {id}: {reference}\n"));
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
                // Drawn from the running ids in id order.
                let mut running: Vec<JobId> = rig.opt.running().map(|t| t.request.id).collect();
                running.sort();
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
    rig.out.observed = observed(&rig.opt);
    rig.out.counters = rig.opt.work_counters();
    rig.out
}

#[test]
fn sleeping_entries_change_no_decision_no_trace_and_no_why() {
    let mut slept = 0;
    for seed in 1..=24 {
        let keyed = run_contended(seed, 160, None);
        assert_eq!(
            keyed.opt_stream, keyed.ref_stream,
            "decision streams diverged [seed {seed}]"
        );
        // Against the same scheduler judging every entry every round:
        // the decisions, each `why` and the skip counters must not be able
        // to tell the difference.
        let woke = run_contended(seed, 160, Some(DebugRoundHook::WakeAll));
        assert_eq!(keyed.opt_stream, woke.opt_stream, "[seed {seed}]");
        assert_eq!(keyed.observed, woke.observed, "[seed {seed}]");
        let (k, w) = (keyed.counters, woke.counters);
        assert_eq!(k.skip_records, w.skip_records, "[seed {seed}]");
        assert_eq!(k.skip_suppressions, w.skip_suppressions, "[seed {seed}]");
        assert_eq!(k.slots, w.slots, "[seed {seed}]");
        assert!(k.plan.attempts <= w.plan.attempts, "[seed {seed}]");
        slept += w.walk_examined - k.walk_examined;
    }
    assert!(
        slept > 2_000,
        "the script family must exercise sleeping ({slept} entries slept)"
    );
}

#[test]
fn red_flip_an_input_that_wakes_nobody_diverges_from_reference() {
    // Each key's fault keeps entries asleep through the move that should
    // wake them: a quota release, a reservation that lets the gate floor
    // through, released capacity. Some entry then misses the start the
    // reference makes.
    for hook in [
        DebugRoundHook::ReleaseWakesNobody,
        DebugRoundHook::LoosenedGateWakesNobody,
        DebugRoundHook::CapacityWakesNobody,
    ] {
        let diverged = (1..=24).any(|seed| {
            let faulty = run_contended(seed, 160, Some(hook));
            faulty.opt_stream != faulty.ref_stream
        });
        assert!(diverged, "{hook:?} must flip the comparison red");
    }
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
fn reclaim_after_a_guaranteed_finish_decides_like_reference() {
    // A reclaim after a guaranteed finish: the finish frees half the
    // cluster, a borrower takes it, and the group's guaranteed demand
    // returns for it. A pre-check that still counted the finished task's
    // GPUs as held would leave the guaranteed job waiting where the
    // reference starts it by evicting the borrower.
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
    let mut rig = Rig::new(cfg, None);
    let script = [
        // Half the cluster guaranteed, half borrowed: full.
        Some(gang(1, 0, QosClass::Guaranteed, 4, 0.0)),
        Some(gang(2, 1, QosClass::BestEffort, 4, 1.0)),
        // Reclaims from the borrower.
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
    let out = rig.out;
    assert_eq!(out.opt_stream, out.ref_stream);
    assert!(
        out.opt_stream.contains("Preempt { id: JobId(5)"),
        "script reclaims: {}",
        out.opt_stream
    );
}

/// The jobs `rotate` must evict, by its definition: the expired borrowers
/// oldest first, released one at a time from a clone of `cluster`, up to
/// the first release after which a quota-admitted queued request plans.
fn rotation_by_clone_and_plan(sched: &Scheduler, cluster: &Cluster, now: f64) -> Vec<JobId> {
    let Some(quantum) = sched.config().time_slice_secs else {
        return Vec::new();
    };
    let mut expired: Vec<_> = sched
        .running()
        .filter(|t| t.request.qos == QosClass::BestEffort && t.start_secs + quantum <= now)
        .map(|t| (t.start_secs, t.request.id, t.lease_id))
        .collect();
    expired.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let planner = Planner::new(sched.config().placement);
    let mut hypothetical = cluster.clone();
    for (i, &(_, _, lease)) in expired.iter().enumerate() {
        hypothetical.release(lease).expect("running lease");
        let fits_someone = sched.queued().any(|r| {
            sched.quota_table().admits(sched.config().quota, r)
                && planner
                    .plan(&hypothetical, r.workers, r.per_worker)
                    .is_some()
        });
        if fits_someone {
            return expired[..=i].iter().map(|&(_, id, _)| id).collect();
        }
    }
    Vec::new()
}

#[test]
fn reclaim_and_rotation_pre_checks_equal_clone_and_plan_after_every_step() {
    // Starts, finishes, preemptions (reclaim and rotation), drains,
    // undrains and reservations in random order. After every step the
    // reclaim pre-check must answer a random request as a plan on the
    // borrowers-evicted clone does, and every rotation must evict the
    // jobs a clone-and-plan search picks.
    let (mut checked, mut reclaim_only, mut rotations) = (0u64, 0u64, 0u64);
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
        let planner = Planner::new(cfg.placement);
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
                    // Drawn from the running ids in id order.
                    let mut running: Vec<JobId> = sched.running().map(|t| t.request.id).collect();
                    running.sort();
                    if !running.is_empty() {
                        let id = running[rng.below(running.len() as u64) as usize];
                        sched.task_finished(id, &mut cluster);
                    }
                    while !sched.schedule(now, &mut cluster).is_empty() {}
                }
                7 => {
                    let expected = rotation_by_clone_and_plan(&sched, &cluster, now);
                    let outcome = sched.rotate(now, &mut cluster);
                    if expected.is_empty() {
                        assert!(outcome.is_empty(), "[seed {seed}, step {step}]");
                    } else {
                        // The victims lead the outcome, before the
                        // follow-up round's decisions.
                        let victims: Vec<JobId> = (outcome.decisions.iter())
                            .take(expected.len())
                            .filter_map(|d| match d {
                                Decision::Preempt { id, .. } => Some(*id),
                                _ => None,
                            })
                            .collect();
                        assert_eq!(victims, expected, "[seed {seed}, step {step}]");
                        rotations += 1;
                    }
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
            let r = random_request(&mut rng, 0, now);
            let fits = sched.reclaim_fits(&cluster, r.workers, r.per_worker);
            let evicted = sched.borrowers_evicted(&cluster);
            let plans = planner.plan(&evicted, r.workers, r.per_worker).is_some();
            assert_eq!(fits, plans, "{r:?} [seed {seed}, step {step}]");
            checked += 1;
            if fits && planner.plan(&cluster, r.workers, r.per_worker).is_none() {
                reclaim_only += 1;
            }
        }
    }
    assert!(
        reclaim_only > 3_000,
        "sweep too vacuous: {reclaim_only} of {checked} requests fit only by eviction"
    );
    assert!(rotations > 300, "sweep must rotate ({rotations} rotations)");
}

/// A queue the walk cannot move: seven of eight nodes held until t=3600,
/// a whole-cluster gang blocked at the head, and behind it one entry the
/// head's reservation lets through on time (it still does not fit) and
/// one it denies. Returns the scheduler after the round that judges them.
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

/// How many entries the next round (at `now`) judges.
fn examined(sched: &mut Scheduler, cluster: &mut Cluster, now: f64) -> u64 {
    let before = sched.work_counters().walk_examined;
    sched.schedule(now, cluster);
    sched.work_counters().walk_examined - before
}

fn fifo_easy() -> SchedulerConfig {
    SchedulerConfig {
        policy: PolicyKind::Fifo,
        backfill: BackfillMode::Easy,
        ..SchedulerConfig::default()
    }
}

#[test]
fn a_settled_queue_sleeps_and_the_clock_alone_can_wake_it() {
    let (mut sched, mut cluster) = blocked_queue(fifo_easy());
    // Nothing moved: the head sleeps and still reserves, job 3 is still
    // let through, job 4 still denied.
    assert_eq!(examined(&mut sched, &mut cluster, 5.0), 0);
    // An arrival is judged, alone.
    sched.submit(gang(5, 1, QosClass::Guaranteed, 2, 6.0));
    assert_eq!(examined(&mut sched, &mut cluster, 6.0), 1);
    // Job 3 (est 100) would now end past the shadow at 3600: the gate
    // denies it, and the round that judges it files the change.
    assert_eq!(examined(&mut sched, &mut cluster, 3_501.0), 1);
    let why = sched.latest_skip(JobId::from_value(3));
    assert!(
        matches!(why, Some((since, tacc_sched::SkipReason::BackfillBlocked { .. })) if since == 3_501.0),
        "{why:?}"
    );
    assert_eq!(examined(&mut sched, &mut cluster, 3_502.0), 0);
}

#[test]
fn what_moves_wakes_what_waits_on_it_and_nothing_else() {
    // Leaving or entering the queue moves other entries, not their
    // verdicts: a cancel and a mid-queue insert wake nobody else.
    let (mut sched, mut cluster) = blocked_queue(fifo_easy());
    assert!(sched.cancel(JobId::from_value(3)));
    assert_eq!(examined(&mut sched, &mut cluster, 5.0), 0, "cancel");
    sched.submit(gang(9, 1, QosClass::Guaranteed, 2, 1.5));
    assert_eq!(examined(&mut sched, &mut cluster, 6.0), 1, "insert");

    // A reservation window that pushes the head's shadow past job 4's
    // end lets the gate floor through: job 4 alone wakes.
    let (mut sched, mut cluster) = blocked_queue(fifo_easy());
    sched.reserve_capacity(CapacityWindow {
        gpus: 8,
        from_secs: 100.0,
        until_secs: 10_000.0,
    });
    assert_eq!(examined(&mut sched, &mut cluster, 5.0), 1, "gate");

    // Capacity that comes back — a drain moves the version, as a finish
    // would — wakes the two entries placed nowhere.
    let (mut sched, mut cluster) = blocked_queue(fifo_easy());
    cluster.drain(tacc_cluster::NodeId::from_index(7));
    assert_eq!(examined(&mut sched, &mut cluster, 5.0), 2, "capacity");

    // A quota release wakes the group's quota-denied entries, and only
    // a release of that group does.
    let mut sched = Scheduler::new(SchedulerConfig {
        quota: QuotaMode::Static,
        quotas: vec![8, 8, 8, 40],
        ..fifo_easy()
    });
    let mut cluster = crate::cluster();
    let one = |id, group, submit_secs| TaskRequest {
        per_worker: ResourceVec::gpus_only(8),
        ..gang(id, group, QosClass::Guaranteed, 1, submit_secs)
    };
    sched.submit(one(1, 0, 0.0));
    sched.submit(one(2, 1, 1.0));
    sched.submit(one(3, 0, 2.0));
    assert_eq!(sched.schedule(3.0, &mut cluster).starts().count(), 2);
    assert_eq!(examined(&mut sched, &mut cluster, 4.0), 0, "settled");
    sched.task_finished(JobId::from_value(2), &mut cluster);
    assert_eq!(examined(&mut sched, &mut cluster, 5.0), 0, "other group");
    sched.task_finished(JobId::from_value(1), &mut cluster);
    assert_eq!(examined(&mut sched, &mut cluster, 6.0), 1, "own group");
    assert_eq!(sched.running_len(), 1, "job 3 started");
}

#[test]
fn only_easy_backfill_under_a_static_order_ever_sleeps() {
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
        let judged = if backfill == BackfillMode::None { 1 } else { 3 };
        for round in 0..4 {
            assert_eq!(
                examined(&mut sched, &mut cluster, 5.0 + f64::from(round)),
                judged,
                "{policy:?}/{backfill:?}"
            );
        }
    }
}
