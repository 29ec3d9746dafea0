//! The scheduling-layer facade: configuration, the pending queue and its
//! ordering invariant, and the submit/cancel/finished entry points.
//!
//! The round machinery lives in focused submodules, each an
//! `impl Scheduler` block:
//!
//! * [`rounds`](self) — the scheduling round walk (quota, backfill,
//!   placement) over wake-keyed entries, skip tracing per verdict change,
//!   and the reservation/release-profile caches;
//! * [`gang`](self) — gang time-slicing rotation;
//! * [`elastic`](self) — placement commitment: elastic gang shrinking
//!   and quota reclaim with borrower eviction.

use std::collections::BTreeMap;

use tacc_cluster::{Cluster, LeaseId, ResourceVec};
use tacc_obs::{DecisionTraceLog, Histogram, JobSkip, MetricsRegistry, SkipReason};
use tacc_workload::{GroupRoster, JobId, QosClass};

use crate::backfill::{self, BackfillMode, CapacityWindow, Release, Reservation};
use crate::placement::{PlacementStrategy, PlanStats, Planner};
use crate::policy::{compare, PolicyContext, PolicyKind};
use crate::quota::{QuotaMode, QuotaTable};
use crate::request::{RunningTask, TaskRequest};

mod elastic;
mod gang;
mod rounds;

/// Configuration of a [`Scheduler`].
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerConfig {
    /// Queue-ordering policy.
    pub policy: PolicyKind,
    /// Gang placement strategy.
    pub placement: PlacementStrategy,
    /// Backfill variant.
    pub backfill: BackfillMode,
    /// Quota enforcement mode.
    pub quota: QuotaMode,
    /// Per-group GPU quotas (indexed by group). May be empty when quotas
    /// are [`QuotaMode::Disabled`]; groups beyond the vector get quota 0.
    pub quotas: Vec<u32>,
    /// Number of groups the scheduler will see (sizes fair-share state).
    pub group_count: usize,
    /// Gang time-slicing quantum (Slurm's "gang scheduling (time-slicing
    /// jobs)"): when set, a best-effort task that has run a full quantum
    /// can be rotated out in favour of queued work via
    /// [`Scheduler::rotate`]. `None` disables rotation.
    pub time_slice_secs: Option<f64>,
    /// Planned capacity changes (drain/maintenance windows, permanent
    /// reductions) withheld from the availability profile the reservation
    /// sweep walks. Windows shape backfill reservation shadows; they do
    /// not alter the physical cluster.
    pub capacity_windows: Vec<CapacityWindow>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            policy: PolicyKind::Fifo,
            placement: PlacementStrategy::Pack,
            backfill: BackfillMode::Easy,
            quota: QuotaMode::Disabled,
            quotas: Vec::new(),
            group_count: 8,
            time_slice_secs: None,
            capacity_windows: Vec::new(),
        }
    }
}

impl SchedulerConfig {
    /// Derives quotas and group count from a roster.
    pub fn with_roster(mut self, roster: &GroupRoster) -> Self {
        self.quotas = roster.ids().map(|g| roster.quota(g)).collect();
        self.group_count = roster.len();
        self
    }
}

/// The scheduling layer: a queue, the policy suite, and the bookkeeping
/// linking running jobs to their cluster leases.
///
/// Drive it with four calls:
///
/// 1. [`Scheduler::submit`] when the compiler layer finishes a task;
/// 2. [`Scheduler::schedule`] whenever state changed (submission,
///    completion, or a timer) — it commits placements and returns them;
/// 3. [`Scheduler::task_finished`] when the execution layer reports
///    completion (releases the lease and quota charge);
/// 4. [`Scheduler::cancel`] for user kills of queued tasks.
#[derive(Debug)]
pub struct Scheduler {
    config: SchedulerConfig,
    planner: Planner,
    quota: QuotaTable,
    /// The pending queue, each request with the verdict the walk last
    /// reached on it. Kept *sorted* under the policy comparator whenever
    /// that order is provable (`queue_dirty == false`): `queue_push`
    /// binary-inserts and `queue_remove_request` removes in place, so
    /// steady-state rounds never re-sort at all. Those two and
    /// `queue_remove` are its only editors; none runs during a walk (see
    /// [`QueueEdit`]).
    queue: Vec<Queued>,
    /// Set when the queue's physical order stopped being the sorted
    /// permutation (an append under an invalid comparator context, or a
    /// swap-remove on the fallback path); policies with
    /// static per-request keys (FIFO/SJF) skip re-sorting while clean.
    queue_dirty: bool,
    /// Bumped on every quota charge/release. FairShare/DRF keys depend on
    /// group usage, so those policies also re-sort when this moved.
    usage_epoch: u64,
    /// `usage_epoch` at the last sort.
    sorted_usage_epoch: u64,
    /// Cluster capacity at the last sort. DRF keys divide by capacity, so
    /// a capacity change (node failures, drains) invalidates the sorted
    /// order the same way a usage change does.
    sorted_capacity: ResourceVec,
    /// The tick each wait key last moved at, indexed by
    /// [`Scheduler::key`]; key 0, never asleep, at `u64::MAX`.
    moved: Vec<u64>,
    /// Counts key moves: what a [`Wake`] is stamped with.
    tick: u64,
    /// The [`Cluster::version`] the last walk ended on: capacity may have
    /// come back at any other (a drain, an undrain).
    walked_version: Option<u64>,
    /// Bounds the gate-denied entries (see [`GateFloor`]).
    gate_floor: GateFloor,
    /// Incrementally maintained per-group running resource totals (the
    /// recomputed-from-scratch value is debug-asserted every round).
    group_usage_vec: Vec<ResourceVec>,
    /// Reusable round buffers (capacity survives across rounds, so the
    /// steady-state hot path allocates nothing per round).
    scratch_usage: Vec<u32>,
    /// The current round's skip records (moved into its `RoundTrace`).
    scratch_skips: Vec<JobSkip>,
    scratch_started: Vec<JobId>,
    scratch_preempted: Vec<JobId>,
    /// The current round's capacity reservations, in the order their
    /// blocked requests were met.
    scratch_reservations: Vec<Reservation>,
    /// What the current round's walk decided about the queue, in decision
    /// order; empty between rounds.
    scratch_edits: Vec<QueueEdit>,
    /// The reclaim pre-check's hypothetical cluster (all borrowers
    /// evicted), kept in step with the real one: placements and finishes
    /// carry it forward, any other mutation leaves it behind and the next
    /// use rebuilds it.
    reclaim_view: Option<ReclaimView>,
    /// Running best-effort tasks (the reclaim path's "no borrower" test),
    /// maintained where `running` is mutated.
    running_best_effort: usize,
    /// The running set in [`release_order`](backfill::release_order), as
    /// `(est_end_secs + boundary_skew_secs, id, gpus)`: kept where
    /// `running` is, so a reservation never sorts.
    releases: Vec<Release>,
    /// `capacity_windows` as [`window_steps`](backfill::window_steps),
    /// recomputed where the windows are written.
    window_steps: Vec<(f64, u32)>,
    /// Test-only release skew (see [`Scheduler::debug_set_boundary_skew`]).
    boundary_skew_secs: f64,
    /// Test-only switch (see [`Scheduler::debug_set_round_hook`]).
    debug_hook: Option<DebugRoundHook>,
    running: BTreeMap<JobId, RunningTask>,
    backfill_starts: u64,
    preemptions: u64,
    rounds: u64,
    counters: WorkCounters,
    trace: DecisionTraceLog,
    /// `tacc_sched_round_latency_seconds` in an attached registry: the
    /// one series recorded as rounds run (the rest are published).
    round_latency: Option<Histogram>,
}

/// Deterministic algorithmic work counters for the scheduler hot path.
///
/// Every field counts *work performed or avoided* — never wall time — so
/// two runs over the same inputs produce identical values. The perf
/// harness records them in `BENCH_hotpath.json` and CI gates on exact
/// equality across runs; wall time stays informational.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WorkCounters {
    /// Rounds that early-exited because the queue was empty (the sort,
    /// snapshot and usage work was skipped entirely).
    pub empty_rounds: u64,
    /// Rounds that re-sorted the queue.
    pub queue_sorts: u64,
    /// Rounds that proved the previous order still valid and skipped the
    /// sort (clean queue, and — for usage-keyed policies — unchanged usage).
    pub queue_sorts_skipped: u64,
    /// Skip verdicts recorded into the decision trace — a queued entry's
    /// first skip, or one whose blocking reason changed.
    pub skip_records: u64,
    /// Entries a walk passed whose verdict stood, judged again or not
    /// (the steady-state cost of a deeply blocked queue).
    pub skip_suppressions: u64,
    /// Entries whose gates a walk ran; the others kept their verdict
    /// because nothing it waits on had moved.
    pub walk_examined: u64,
    /// Planner effort: attempts, node scans, and O(1) fast-path rejects.
    pub plan: PlanStats,
    /// Reservation-sweep effort: the releases its probes read.
    pub slots: SlotStats,
    /// Arena slots newly allocated (job slots plus lease slots). The
    /// scheduler itself reports zero; `Platform::work_counters()` fills
    /// these platform-layer structural counters when merging.
    pub arena_alloc: u64,
    /// Lease-arena slots recycled from the free list instead of grown.
    pub arena_reuse: u64,
    /// Always 0: placement scans the cluster's nodes, and no free-capacity
    /// index is re-keyed. Kept while the benchmark still reads it by name.
    pub free_index_updates: u64,
    /// Events scheduled on the platform's event queue. Platform-filled;
    /// the name is the calendar wheel's, which the queue replaced.
    pub wheel_insert: u64,
    /// Always 0: the event queue is one heap and nothing cascades. Kept
    /// while the benchmark still reads it by name.
    pub wheel_cascade: u64,
    /// Clone-and-release constructions of the reclaim view (a use against
    /// a cluster version the incremental maintenance did not track).
    pub reclaim_view_rebuilds: u64,
}

/// The reservation sweep's work counters, under the slot timeline's
/// names, which the benchmark still reads them by.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SlotStats {
    /// Always 0: the sweep keeps no timeline to split.
    pub splits: u64,
    /// Releases the reservation probes read off the running set, each
    /// probe from the earliest only as far as its demand needed.
    pub intersections: u64,
    /// Always 0: the sweep keeps no timeline to rebuild.
    pub rebuilds: u64,
}

/// One row of [`WorkCounters::TABLE`]: everything that is said about a
/// counter besides its field.
#[derive(Debug)]
pub struct WorkCounterRow {
    /// The key `BENCH_hotpath.json` reports the counter under.
    pub key: &'static str,
    /// The `tacc_sched_*` series [`Scheduler::publish_metrics`] publishes
    /// it as; `None` for the counters that have no series (the platform
    /// fills most of those in when merging).
    pub series: Option<&'static str>,
    /// Reads the counter.
    pub get: fn(&WorkCounters) -> u64,
}

/// Marks a row's series name: a call named `counter` is where
/// `tacc-lint`'s `metric-name` family reads one.
const fn counter(series: &'static str) -> Option<&'static str> {
    Some(series)
}

/// `key, series => field.path;` per row.
macro_rules! work_counter_rows {
    ($($key:literal, $series:expr => $($field:ident).+;)*) => {
        &[$(WorkCounterRow { key: $key, series: $series, get: |c| c.$($field).+ }),*]
    };
}

impl WorkCounters {
    /// Every counter, in report order — the one table behind the
    /// published series and the perf harness's report, so a counter is
    /// spelled twice: its field and its row.
    pub const TABLE: &'static [WorkCounterRow] = work_counter_rows! {
        "empty_rounds", counter("tacc_sched_empty_rounds_total") => empty_rounds;
        "queue_sorts", counter("tacc_sched_queue_sorts_total") => queue_sorts;
        "queue_sorts_skipped", counter("tacc_sched_queue_sorts_skipped_total") => queue_sorts_skipped;
        "skip_records", counter("tacc_sched_skip_records_total") => skip_records;
        "skip_suppressions", counter("tacc_sched_skip_suppressions_total") => skip_suppressions;
        "walk_examined", counter("tacc_sched_walk_examined_total") => walk_examined;
        "placement_attempts", counter("tacc_sched_placement_attempts_total") => plan.attempts;
        "node_scans", counter("tacc_sched_node_scans_total") => plan.nodes_scanned;
        "fastpath_rejects", counter("tacc_sched_placement_fastpath_rejects_total") => plan.fastpath_rejects;
        "slot_splits", None => slots.splits;
        "slot_intersections", counter("tacc_sched_slot_intersections_total") => slots.intersections;
        "slot_rebuilds", None => slots.rebuilds;
        "arena_alloc", None => arena_alloc;
        "arena_reuse", None => arena_reuse;
        "free_index_updates", None => free_index_updates;
        "free_index_probes", None => plan.free_index_probes;
        "wheel_insert", None => wheel_insert;
        "wheel_cascade", None => wheel_cascade;
        "reclaim_view_rebuilds", counter("tacc_sched_reclaim_view_rebuilds_total") => reclaim_view_rebuilds;
    };
}

/// One edit of the pending queue, recorded by a walk (in `scratch_edits`,
/// in decision order) and replayed by [`Scheduler::apply_queue_edits`]
/// once it is over. A list, not two sets: a borrower started and then evicted in one round is a `Remove`
/// followed by a `Push` of the same job, and ends it queued exactly once.
#[derive(Debug, Clone, Copy)]
enum QueueEdit {
    /// A placement committed: the started request leaves the queue.
    Remove(TaskRequest),
    /// A reclaim evicted a running borrower: it re-enters the queue.
    Push(TaskRequest),
}

/// A pending request and the verdict the walk last reached on it. The
/// verdict lives with the entry, so every queue edit and sort moves it
/// along and it leaves the queue with the request.
#[derive(Debug, Clone, Copy)]
struct Queued {
    request: TaskRequest,
    /// What the verdict waits on; the walk judges the entry again only
    /// once that has moved.
    wake: Wake,
    /// The skip the entry's verdict was recorded as, with the round time
    /// it was first reached ("waiting since"); `None` until its first skip.
    verdict: Option<(f64, SkipReason)>,
}

impl Queued {
    fn new(request: TaskRequest) -> Queued {
        Queued {
            request,
            wake: Wake::NOW,
            verdict: None,
        }
    }
}

/// The input a judged entry's verdict waits on: one of the scheduler's
/// wait keys, and the tick it was judged at. Under EASY, behind an order
/// that stood, a walk keeps the verdict of an entry whose key has not
/// moved since — one table compare, not a gate (`skip_sleepers`); a
/// debug oracle re-derives each verdict kept.
#[derive(Debug, Clone, Copy)]
struct Wake {
    key: u32,
    judged: u64,
}

impl Wake {
    /// Key 0 is always moving: an entry queued since the last walk.
    const NOW: Wake = Wake { key: 0, judged: 0 };
}

/// What a verdict waits on. Each is kept per group — moved by that
/// group's quota-counted charges or releases, and read only by
/// quota-counted entries (see [`Scheduler::quota_counts`]) — plus once
/// for the entries quota cannot move.
#[derive(Debug, Clone, Copy)]
enum Wait {
    /// Quota-denied: until the group releases.
    Release,
    /// Backfill-denied: until the group is charged, or a reservation lets
    /// the [`GateFloor`] through.
    Gate,
    /// Placed nowhere: until the group is charged or capacity comes back;
    /// behind the head it is also re-tested against the reservation.
    Capacity,
}

/// The smallest `est_secs` and the smallest GPU demand among the entries
/// the backfill gate denied since it last let the floor through (some may
/// have left the queue since: a floor only errs low). IEEE addition is
/// monotone, so a reservation that denies a request with both — `now +
/// est > shadow` and `gpus > extra` — denies every one of them: one test
/// per round stands in for all of them.
#[derive(Debug, Clone, Copy)]
struct GateFloor {
    est_secs: f64,
    gpus: u32,
}

impl GateFloor {
    /// No entry denied.
    const EMPTY: GateFloor = GateFloor {
        est_secs: f64::INFINITY,
        gpus: u32::MAX,
    };

    fn fold(&mut self, request: &TaskRequest) {
        self.est_secs = self.est_secs.min(request.est_secs);
        self.gpus = self.gpus.min(request.total_gpus());
    }

    /// Whether `reservation`, at `now_secs`, denies every entry the floor
    /// covers.
    fn shut(&self, now_secs: f64, reservation: &Reservation) -> bool {
        now_secs + self.est_secs > reservation.shadow_secs && self.gpus > reservation.extra_gpus
    }
}

/// The reclaim pre-check's hypothetical: the real cluster with every
/// best-effort lease released, as of `version`.
#[derive(Debug)]
struct ReclaimView {
    /// The real cluster's [`Cluster::version`] this mirrors.
    version: u64,
    cluster: Cluster,
    /// The view's own lease for each guaranteed task placed since the
    /// last rebuild (the view allocates from its own arena, so those ids
    /// differ from the real cluster's; older tasks share theirs).
    leases: BTreeMap<JobId, LeaseId>,
}

/// Test-only switches for the differential suite (see
/// [`Scheduler::debug_set_round_hook`]).
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DebugRoundHook {
    /// Every walk judges every entry.
    WakeAll,
    /// Fault: a group's quota release wakes none of its quota-denied
    /// entries.
    ReleaseWakesNobody,
    /// Fault: a reservation that lets the gate floor through wakes none of
    /// the backfill-denied entries.
    LoosenedGateWakesNobody,
    /// Fault: released capacity wakes none of the entries placed nowhere.
    CapacityWakesNobody,
    /// Fault: a guaranteed finish is not mirrored into the reclaim view.
    SkipViewRelease,
}

/// The category of a skip, which is what the trace dedups on. Volatile
/// payloads (current usage, free-GPU counts, shadow times — all of which
/// wobble every round in a busy cluster) are excluded, so a steadily
/// blocked job is traced once per *category of reason* and its record
/// reads as "waiting like this since t".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SkipVerdict {
    /// Blocked on group quota.
    Quota,
    /// Blocked by a backfill reservation.
    Backfill,
    /// No feasible placement on current capacity.
    NoPlacement,
    /// Stalled behind a blocked head under no-backfill.
    HeadOfLine { behind: JobId },
}

impl SkipVerdict {
    /// Whether `reason` is a skip of this category.
    fn matches(self, reason: &SkipReason) -> bool {
        match (self, reason) {
            (SkipVerdict::Quota, SkipReason::QuotaExhausted { .. })
            | (SkipVerdict::Backfill, SkipReason::BackfillBlocked { .. })
            | (SkipVerdict::NoPlacement, SkipReason::NoFeasiblePlacement { .. }) => true,
            (SkipVerdict::HeadOfLine { behind }, SkipReason::HeadOfLineBlocked { behind: b }) => {
                behind == *b
            }
            _ => false,
        }
    }
}

/// How many round traces the scheduler's decision trace retains.
const DECISION_TRACE_ROUNDS: usize = 2048;

impl Scheduler {
    /// Creates a scheduler from a configuration.
    pub fn new(config: SchedulerConfig) -> Self {
        let mut quotas = config.quotas.clone();
        if quotas.len() < config.group_count {
            quotas.resize(config.group_count, 0);
        }
        Scheduler {
            window_steps: backfill::window_steps(&config.capacity_windows),
            planner: Planner::new(config.placement),
            quota: QuotaTable::from_quotas(quotas),
            trace: DecisionTraceLog::new(DECISION_TRACE_ROUNDS),
            group_usage_vec: vec![ResourceVec::ZERO; config.group_count],
            moved: std::iter::once(u64::MAX)
                .chain(std::iter::repeat_n(0, 3 * (config.group_count + 1)))
                .collect(),
            config,
            queue: Vec::new(),
            queue_dirty: true,
            usage_epoch: 0,
            sorted_usage_epoch: 0,
            sorted_capacity: ResourceVec::ZERO,
            tick: 0,
            walked_version: None,
            gate_floor: GateFloor::EMPTY,
            scratch_usage: Vec::new(),
            scratch_skips: Vec::new(),
            scratch_started: Vec::new(),
            scratch_preempted: Vec::new(),
            scratch_reservations: Vec::new(),
            scratch_edits: Vec::new(),
            reclaim_view: None,
            running_best_effort: 0,
            releases: Vec::new(),
            boundary_skew_secs: 0.0,
            debug_hook: None,
            running: BTreeMap::new(),
            backfill_starts: 0,
            preemptions: 0,
            rounds: 0,
            counters: WorkCounters::default(),
            round_latency: None,
        }
    }

    /// Attaches operational metrics: subsequent rounds observe their
    /// wall-clock latency into `registry`'s
    /// `tacc_sched_round_latency_seconds` histogram.
    pub fn attach_registry(&mut self, registry: &MetricsRegistry) {
        self.round_latency = Some(registry.histogram("tacc_sched_round_latency_seconds", &[]));
    }

    /// Publishes the scheduler's counts into `registry` as they stand:
    /// the round, preemption and backfill counters, the queue-depth and
    /// running-task gauges, and one counter per [`WorkCounters::TABLE`]
    /// row that names a series. Called at scrape time.
    pub fn publish_metrics(&self, registry: &MetricsRegistry) {
        let counter = |series, total| registry.counter(series, &[]).catch_up(total);
        counter("tacc_sched_rounds_total", self.rounds);
        counter("tacc_sched_preemptions_total", self.preemptions);
        counter("tacc_sched_backfill_starts_total", self.backfill_starts);
        let gauge = |series, value: usize| registry.gauge(series, &[]).set(value as f64);
        gauge("tacc_sched_queue_depth", self.queue.len());
        gauge("tacc_sched_running_tasks", self.running.len());
        for row in WorkCounters::TABLE {
            if let Some(series) = row.series {
                counter(series, (row.get)(&self.counters));
            }
        }
    }

    /// A snapshot of the deterministic work counters accumulated so far.
    pub fn work_counters(&self) -> WorkCounters {
        self.counters
    }

    /// Registers an advance reservation: `window.gpus` GPUs are withheld
    /// from the availability profile over `[from_secs, until_secs)`,
    /// reachable from a live client request (`tcloud reserve`). Backfill
    /// shadows respect the window from the next reservation on; the
    /// physical cluster is untouched.
    pub fn reserve_capacity(&mut self, window: CapacityWindow) {
        self.config.capacity_windows.push(window);
        self.window_steps = backfill::window_steps(&self.config.capacity_windows);
    }

    /// The capacity windows currently shaping the availability profile
    /// (config-supplied plus live reservations, in registration order).
    pub fn capacity_windows(&self) -> &[CapacityWindow] {
        &self.config.capacity_windows
    }

    /// Whether the queue's current physical order is provably the sorted
    /// permutation under the policy comparator *with the current keys* —
    /// the precondition for binary-searching it instead of re-sorting.
    fn queue_order_valid(&self) -> bool {
        !self.queue_dirty
            && match self.config.policy {
                // Static per-request keys: only membership can unsort.
                PolicyKind::Fifo | PolicyKind::Sjf => true,
                // Usage-keyed policies: valid only while usage has not
                // moved since the last sort (and, for DRF, capacity —
                // which the round's order step checks against the cluster).
                PolicyKind::FairShare | PolicyKind::Drf => {
                    self.usage_epoch == self.sorted_usage_epoch
                }
                // MultiFactor keys move with `now`: every round re-sorts.
                PolicyKind::MultiFactor => false,
            }
    }

    /// The comparator's view of the scheduler: group usage as of the last
    /// `usage_by_group_into(&mut self.scratch_usage)`, capacity as of the
    /// last sort.
    fn policy_context(&self) -> PolicyContext<'_> {
        PolicyContext {
            group_gpu_usage: &self.scratch_usage,
            group_usage_vec: &self.group_usage_vec,
            group_quota: self.quota.quotas(),
            capacity: self.sorted_capacity,
        }
    }

    /// Where `request` sits — or would be inserted — in the sorted queue.
    /// Meaningful only while [`Scheduler::queue_order_valid`]; the
    /// comparator is a total order, so the sorted permutation is unique.
    fn sorted_position(&mut self, request: &TaskRequest) -> usize {
        self.quota.usage_by_group_into(&mut self.scratch_usage);
        let (policy, ctx) = (self.config.policy, self.policy_context());
        // `now`/`queue_len` feed only MultiFactor scores, whose order is
        // never valid.
        self.queue
            .partition_point(|e| compare(policy, 0.0, 0, &e.request, request, &ctx).is_lt())
    }

    /// Adds to the queue, not yet judged. When the current order is
    /// provably sorted the request is binary-inserted at the position a
    /// full re-sort would give it; otherwise it is appended and the next
    /// round sorts.
    fn queue_push(&mut self, request: TaskRequest) {
        debug_assert!(
            !self.queue.iter().any(|e| e.request.id == request.id),
            "duplicate submission of {}",
            request.id
        );
        if self.queue_order_valid() {
            let pos = self.sorted_position(&request);
            self.queue.insert(pos, Queued::new(request));
        } else {
            self.queue.push(Queued::new(request));
            self.queue_dirty = true;
        }
    }

    /// Removes a queued task by id (user cancel: no request to compare
    /// against, so this scans). An in-place removal preserves whatever
    /// order the queue had. Returns `false` if the id is not queued.
    fn queue_remove(&mut self, id: JobId) -> bool {
        let Some(pos) = self.queue.iter().position(|e| e.request.id == id) else {
            return false;
        };
        self.queue.remove(pos);
        true
    }

    /// Removes a task we hold the full request for (a started one). While
    /// the sorted order is provable the position comes from a binary
    /// search; otherwise from a scan. Both remove in place, so the
    /// relative order of the remaining entries survives.
    fn queue_remove_request(&mut self, request: &TaskRequest) {
        if self.queue_order_valid() {
            let pos = self.sorted_position(request);
            if self.queue.get(pos).map(|e| e.request.id) == Some(request.id) {
                self.queue.remove(pos);
                return;
            }
            // The comparator did not land on the entry — the sorted-order
            // invariant must have been broken. Recover below.
            debug_assert!(false, "binary removal missed {}", request.id);
        }
        if let Some(pos) = self.queue.iter().position(|e| e.request.id == request.id) {
            self.queue.remove(pos);
            self.queue_dirty = true;
        }
    }

    /// The round's *apply* step: replays what a finished walk recorded,
    /// in decision order, through the plain queue operations.
    fn apply_queue_edits(&mut self) {
        let mut edits = std::mem::take(&mut self.scratch_edits);
        for edit in edits.drain(..) {
            match edit {
                QueueEdit::Remove(request) => self.queue_remove_request(&request),
                QueueEdit::Push(request) => self.queue_push(request),
            }
        }
        self.scratch_edits = edits;
    }

    /// The decision trace: recent [`RoundTrace`](tacc_obs::RoundTrace)s.
    pub fn decision_trace(&self) -> &DecisionTraceLog {
        &self.trace
    }

    /// Why a queued job is not running ("waiting since"): the skip its
    /// current verdict was recorded as, with the round time the job first
    /// reached that verdict. `None` when the job is not queued or no walk
    /// has judged it yet.
    pub fn latest_skip(&self, job: JobId) -> Option<(f64, SkipReason)> {
        self.queue.iter().find(|e| e.request.id == job)?.verdict
    }

    /// The configuration in use.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// Tasks currently waiting.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Iterates over waiting tasks, in the queue's physical order (the
    /// policy order whenever that is provable, see `queue_dirty`).
    pub fn queued(&self) -> impl Iterator<Item = &TaskRequest> {
        self.queue.iter().map(|e| &e.request)
    }

    /// Tasks currently running.
    pub fn running_len(&self) -> usize {
        self.running.len()
    }

    /// Iterates over running tasks.
    pub fn running(&self) -> impl Iterator<Item = &RunningTask> {
        self.running.values()
    }

    /// Looks up a running task.
    pub fn running_task(&self, id: JobId) -> Option<&RunningTask> {
        self.running.get(&id)
    }

    /// Total backfilled starts so far.
    pub fn backfill_starts(&self) -> u64 {
        self.backfill_starts
    }

    /// Total preemptions so far.
    pub fn preemption_count(&self) -> u64 {
        self.preemptions
    }

    /// Scheduling rounds executed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Read access to the quota table (experiment reporting).
    pub fn quota_table(&self) -> &QuotaTable {
        &self.quota
    }

    /// Whether `request` could **ever** be admitted under this scheduler's
    /// quota configuration, regardless of current usage. Platforms use this
    /// for admission control: a guaranteed request larger than its group's
    /// whole quota would otherwise queue forever.
    pub fn admissible_ever(&self, request: &TaskRequest) -> bool {
        let quota = self.quota.quota(request.group);
        match self.config.quota {
            QuotaMode::Disabled => true,
            QuotaMode::Static => request.total_gpus() <= quota,
            QuotaMode::Borrowing => {
                request.qos != QosClass::Guaranteed || request.total_gpus() <= quota
            }
        }
    }

    /// Adds a task to the queue.
    ///
    /// # Panics
    ///
    /// Panics if the task's group is outside the configured `group_count`,
    /// or a task with the same id is already running (or, in debug builds,
    /// queued: the platform mints ids, so that check is a debug scan).
    pub fn submit(&mut self, request: TaskRequest) {
        assert!(
            request.group.index() < self.config.group_count,
            "group {} outside configured group_count {}",
            request.group,
            self.config.group_count
        );
        assert!(
            !self.running.contains_key(&request.id),
            "duplicate submission of {}",
            request.id
        );
        self.queue_push(request);
    }

    /// Removes a queued task. Returns `true` if it was found (running tasks
    /// are not cancelled here — stop them via the platform, then call
    /// [`Scheduler::task_finished`]).
    pub fn cancel(&mut self, id: JobId) -> bool {
        self.queue_remove(id)
    }

    /// Reports that a running task finished (completed, failed or was
    /// cancelled): releases its lease and quota charge.
    ///
    /// Returns the task's record, or `None` if it was not running.
    pub fn task_finished(&mut self, id: JobId, cluster: &mut Cluster) -> Option<RunningTask> {
        let task = self.running.remove(&id)?;
        let release = self.release_of(&task);
        let found = self
            .releases
            .binary_search_by(|r| backfill::release_order(r, &release));
        debug_assert!(found.is_ok(), "{id} missing from the release order");
        if let Ok(pos) = found {
            self.releases.remove(pos);
        }
        let pre_version = cluster.version();
        cluster
            .release(task.lease_id)
            .expect("running task holds a valid lease");
        // Keep the reclaim view in step: a borrower was never in it, a
        // guaranteed task's lease is released in it too.
        match task.request.qos {
            QosClass::BestEffort => {
                self.running_best_effort -= 1;
                self.carry_reclaim_view(pre_version, cluster, |_| true);
            }
            QosClass::Guaranteed => {
                let skip = self.debug_hook == Some(DebugRoundHook::SkipViewRelease);
                self.carry_reclaim_view(pre_version, cluster, |view| {
                    let lease = view.leases.remove(&id).unwrap_or(task.lease_id);
                    skip || view.cluster.release(lease).is_ok()
                });
            }
        }
        self.quota.release(&task.request);
        let group = task.request.group.index();
        self.group_usage_vec[group] -= task.request.total_resources();
        self.usage_epoch += 1;
        // Live inside a walk too: a reclaim's evictions wake the entries
        // behind it.
        if self.debug_hook != Some(DebugRoundHook::ReleaseWakesNobody)
            && self.quota_counts(&task.request)
        {
            self.wake(Wait::Release, group..group + 1);
        }
        if self.debug_hook != Some(DebugRoundHook::CapacityWakesNobody) {
            self.wake(Wait::Capacity, 0..self.config.group_count + 1);
        }
        Some(task)
    }

    /// Index into `moved` of `wait`'s key for `slot`: a group, or
    /// `group_count` for the entries quota cannot move.
    fn key(&self, wait: Wait, slot: usize) -> usize {
        1 + wait as usize * (self.config.group_count + 1) + slot
    }

    /// Moves `wait`'s keys for `slots`: every entry judged before now and
    /// waiting on one of them wakes, later in this walk or in the next.
    fn wake(&mut self, wait: Wait, slots: std::ops::Range<usize>) {
        self.tick += 1;
        for slot in slots {
            let key = self.key(wait, slot);
            self.moved[key] = self.tick;
        }
    }

    /// Stamps a verdict just reached on `request` as waiting on `wait`.
    fn stamp(&self, wait: Wait, request: &TaskRequest) -> Wake {
        let slot = if self.quota_counts(request) {
            request.group.index()
        } else {
            self.config.group_count
        };
        Wake {
            key: self.key(wait, slot) as u32,
            judged: self.tick,
        }
    }

    /// Whether `request`'s GPUs are what the quota gate reads for its
    /// group: every class under `Static`, guaranteed under `Borrowing`.
    /// Only such charges and releases move a verdict, and only such a
    /// request's verdict moves with them.
    fn quota_counts(&self, request: &TaskRequest) -> bool {
        match self.config.quota {
            QuotaMode::Disabled => false,
            QuotaMode::Static => true,
            QuotaMode::Borrowing => request.qos == QosClass::Guaranteed,
        }
    }

    /// Test-only fault injection for the differential red-flip suite:
    /// shifts every release the reservation sweep reads by `skew_secs`,
    /// simulating an off-by-one boundary bug in the release order. With
    /// any non-zero skew, reservation shadows move and the backfill
    /// decisions diverge from [`ReferenceScheduler`](crate::reference::ReferenceScheduler)
    /// — the differential suite proves it would catch such a bug.
    #[doc(hidden)]
    pub fn debug_set_boundary_skew(&mut self, skew_secs: f64) {
        self.boundary_skew_secs = skew_secs;
        // Re-key what is running under the new skew, so inserts and
        // removals keep agreeing on each entry's key.
        self.releases = self.releases_recomputed();
    }

    /// A running task's entry in `releases`.
    pub(super) fn release_of(&self, task: &RunningTask) -> Release {
        (
            task.est_end_secs + self.boundary_skew_secs,
            task.request.id,
            task.request.total_gpus(),
        )
    }

    /// `releases` recomputed from the running set — what the
    /// incrementally kept order must equal.
    fn releases_recomputed(&self) -> Vec<Release> {
        let mut releases: Vec<Release> =
            self.running.values().map(|t| self.release_of(t)).collect();
        releases.sort_by(backfill::release_order);
        releases
    }

    /// Test-only switch for the differential suite: makes every walk
    /// judge every entry (the comparison subject for traces and `why`),
    /// or injects a fault the suite must catch — an input that moves
    /// without waking the entries waiting on it, or a reclaim view that
    /// misses a guaranteed finish. The debug oracles stand down while a
    /// hook is set, so an injected fault surfaces as a diverging decision
    /// stream, not as an assertion.
    #[doc(hidden)]
    pub fn debug_set_round_hook(&mut self, hook: DebugRoundHook) {
        self.debug_hook = Some(hook);
    }

    /// Carries the reclaim view from the cluster state it mirrored
    /// (`pre_version`) to the current one by applying `mirror`, the
    /// view's half of the mutation just made. A view that mirrored some
    /// other version is left stale for the next use to rebuild; one whose
    /// half fails is dropped.
    fn carry_reclaim_view(
        &mut self,
        pre_version: u64,
        cluster: &Cluster,
        mirror: impl FnOnce(&mut ReclaimView) -> bool,
    ) {
        let Some(view) = self.reclaim_view.as_mut() else {
            return;
        };
        if view.version != pre_version {
            return;
        }
        if mirror(view) {
            view.version = cluster.version();
        } else {
            self.reclaim_view = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacc_workload::GroupId;

    /// Red-flip for `tests/scheduler.rs`'s
    /// `borrower_started_and_evicted_in_one_round_ends_it_queued_once`:
    /// that round records `[Remove(B), Push(B), Remove(G)]`. Replayed
    /// push-before-remove, B is pushed while its round-start entry is
    /// still queued — two entries for one job, which the queue's
    /// duplicate guard refuses.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate submission of job1")]
    fn edits_applied_push_before_remove_trip_the_duplicate_guard() {
        let request = |id: u64, submit_secs: f64| TaskRequest {
            id: JobId::from_value(id),
            group: GroupId::from_index(0),
            qos: QosClass::BestEffort,
            workers: 1,
            per_worker: ResourceVec::gpus_only(8),
            est_secs: 60.0,
            submit_secs,
            elastic: false,
        };
        let (b, g) = (request(1, 0.0), request(2, 1.0));
        let mut sched = Scheduler::new(SchedulerConfig::default());
        sched.submit(b);
        sched.submit(g);
        // In decision order the same edits leave exactly [B].
        sched.scratch_edits = vec![
            QueueEdit::Remove(b),
            QueueEdit::Push(b),
            QueueEdit::Remove(g),
        ];
        sched.apply_queue_edits();
        assert_eq!(sched.queued().map(|r| r.id).collect::<Vec<_>>(), [b.id]);
        sched.submit(g);
        sched.scratch_edits = vec![
            QueueEdit::Push(b),
            QueueEdit::Remove(b),
            QueueEdit::Remove(g),
        ];
        sched.apply_queue_edits();
    }
}
