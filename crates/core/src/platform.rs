//! The platform: a thin event-loop orchestrator over the four layers.
//!
//! This file owns the platform *state* and the discrete-event loop; the
//! behavior lives in focused sibling modules, each an `impl Platform`
//! block:
//!
//! * [`crate::admission`] — submission front door, compilation, and
//!   quota/gang-feasibility rejection;
//! * [`crate::lifecycle`] — the job lifecycle engine: the **only** code
//!   that mutates [`Job`] state (via `JobState::transition`), plus the
//!   scheduling-round glue and the transition log's read of the bus;
//! * [`crate::accounting`] — group GPU-time accrual, interruption
//!   amounts, metrics handles and the scrape-time publish step, and
//!   event emission;
//! * [`crate::faults`] — fault delivery, failover, checkpoint-restart;
//! * [`crate::observability`] — span timelines and the goodput
//!   decomposition folded from the transition stream;
//! * [`crate::status`] — client-facing read model (`tcloud` status,
//!   logs, why, artifacts).

use tacc_cluster::{Cluster, NodeId};
use tacc_compiler::Compiler;
use tacc_exec::{CheckpointPolicy, ExecModel, ExecTelemetry, FailoverPolicy, FailureInjector};
use tacc_metrics::UtilizationTracker;
use tacc_obs::{EventBus, EventRecord, MetricsRegistry, MetricsSnapshot, SpanBook, SpanConfig};
use tacc_sched::Scheduler;
use tacc_sim::{Clock, EventQueue, SimTime};
use tacc_storage::{SharedStore, Staging};
use tacc_workload::{Job, JobId, RuntimePreference, Trace};

use crate::accounting::CoreMetrics;
use crate::admission::due_secs;
use crate::arena::JobArena;
use crate::config::PlatformConfig;
use crate::report::{CompletedJob, ReportInputs, SimulationReport};

/// Events the platform schedules for itself. A submission is not one of
/// them: arrivals are pulled from the loaded traces (see
/// [`Platform::load_trace`]) or pushed by `Command::Submit`, and both
/// enter through `Platform::admit`.
#[derive(Debug)]
pub(crate) enum Event {
    /// The compiler layer finished provisioning a task.
    CompileDone { job: JobId },
    /// A running job's execution plan predicts completion now.
    Finish { job: JobId, token: u64 },
    /// A node under a running job faults now.
    Fault {
        job: JobId,
        token: u64,
        node: NodeId,
    },
    /// The user kills this job now (from the trace's cancellation field).
    Cancel { job: JobId },
    /// A gang time-slice quantum expired; consider rotating.
    RotateCheck,
    /// A dataset staging finished; release its shared-store readers.
    StagingDone { staging: Staging },
}

/// Which of the platform's two pending sources is due next.
#[derive(Debug, Clone, Copy)]
enum Due {
    /// The next record of the loaded trace at this index of the cursor.
    Arrival(usize),
    /// The head of the event queue.
    Event,
}

/// Per-run state of a currently executing job.
#[derive(Debug, Clone)]
pub(crate) struct ActiveRun {
    pub(crate) start_secs: f64,
    /// Wall-time stretch over service time: slowdown × checkpoint overhead
    /// × elastic shrink factor (requested/granted workers).
    pub(crate) stretch: f64,
    /// GPUs actually held (granted gang), for utilization accounting.
    pub(crate) gpus: f64,
    /// Wall-clock restore penalty paid at the start of this run.
    pub(crate) resume_penalty: f64,
    pub(crate) runtime: RuntimePreference,
}

/// The full-stack platform.
///
/// See the crate docs for the layer map. All methods are deterministic for
/// a given configuration, trace and seed.
#[derive(Debug)]
pub struct Platform {
    pub(crate) config: PlatformConfig,
    pub(crate) clock: Clock,
    pub(crate) events: EventQueue<Event>,
    /// The arrival cursor: each loaded trace that still has records to
    /// deliver, with the position of its next one, in load order.
    pub(crate) arrivals: Vec<(Trace, usize)>,
    pub(crate) cluster: Cluster,
    pub(crate) compiler: Compiler,
    pub(crate) scheduler: Scheduler,
    pub(crate) exec: ExecModel,
    pub(crate) checkpoint: CheckpointPolicy,
    pub(crate) failover: FailoverPolicy,
    pub(crate) injector: Option<FailureInjector>,
    pub(crate) store: Option<SharedStore>,

    /// Dense per-job state: job, runtime, active run, last nodes, run
    /// token — one slot per minted id (see [`crate::arena`]).
    pub(crate) jobs: JobArena,
    pub(crate) next_job: u64,

    pub(crate) bus: EventBus,
    /// Transitions applied since their job's last emit (debug check).
    #[cfg(debug_assertions)]
    pub(crate) applied: Vec<tacc_obs::TransitionEvent>,
    pub(crate) spans: SpanBook,
    pub(crate) registry: MetricsRegistry,
    pub(crate) exec_telemetry: ExecTelemetry,
    pub(crate) metrics: CoreMetrics,

    pub(crate) util: UtilizationTracker,
    pub(crate) group_busy: Vec<f64>,
    pub(crate) group_gpu_secs: Vec<f64>,
    pub(crate) group_last_update: f64,
    pub(crate) completed: Vec<CompletedJob>,
    pub(crate) failed_waste_gpu_secs: f64,
    pub(crate) staging_secs_total: f64,
    pub(crate) stagings: u64,
    pub(crate) provisioning_latency_total: f64,
    pub(crate) events_processed: u64,
}

impl Platform {
    /// Builds a platform from configuration.
    pub fn new(config: PlatformConfig) -> Self {
        let cluster = Cluster::new(config.cluster.clone());
        let total_gpus = f64::from(cluster.total_gpus());
        let registry = MetricsRegistry::new();
        let mut scheduler = Scheduler::new(config.resolved_scheduler());
        scheduler.attach_registry(&registry);
        let mut compiler = Compiler::new(config.compiler);
        compiler.attach_registry(&registry);
        let exec_telemetry = ExecTelemetry::new(&registry);
        let metrics = CoreMetrics::new(&registry);
        let bus = EventBus::new(config.event_buffer_capacity);
        let spans = SpanBook::new(SpanConfig {
            restore_secs: config.checkpoint.restore_cost_secs(),
            checkpoint_overhead_fraction: config.checkpoint.overhead_fraction(),
        });
        let injector = config
            .node_mtbf_secs
            .map(|mtbf| FailureInjector::new(mtbf, config.seed ^ 0xFA17));
        let store = config
            .storage
            .map(|cfg| SharedStore::new(cfg, cluster.node_count()));
        let groups = config.roster.len();
        Platform {
            compiler,
            exec: ExecModel::new(config.exec),
            checkpoint: config.checkpoint,
            failover: config.failover,
            injector,
            store,
            scheduler,
            cluster,
            clock: Clock::new(),
            events: EventQueue::new(),
            arrivals: Vec::new(),
            jobs: JobArena::new(),
            next_job: 0,
            bus,
            #[cfg(debug_assertions)]
            applied: Vec::new(),
            spans,
            registry,
            exec_telemetry,
            metrics,
            util: UtilizationTracker::new(total_gpus),
            group_busy: vec![0.0; groups],
            group_gpu_secs: vec![0.0; groups],
            group_last_update: 0.0,
            completed: Vec::new(),
            failed_waste_gpu_secs: 0.0,
            staging_secs_total: 0.0,
            stagings: 0,
            provisioning_latency_total: 0.0,
            config,
            events_processed: 0,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// The cluster under management (read-only).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The scheduling layer (read-only).
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// The compiler layer (read-only; exposes cache stats).
    pub fn compiler(&self) -> &Compiler {
        &self.compiler
    }

    /// Deterministic work counters across every layer: the scheduler's
    /// own counters plus the platform-layer structural counters the
    /// scheduler cannot see — job/lease arena churn and events scheduled.
    /// This is what the perf harness records and CI gates on.
    pub fn work_counters(&self) -> tacc_sched::WorkCounters {
        let mut c = self.scheduler.work_counters();
        let (lease_allocs, lease_reuses) = self.cluster.lease_arena_stats();
        c.arena_alloc = lease_allocs + self.jobs.len() as u64;
        c.arena_reuse = lease_reuses;
        c.wheel_insert = self.events.scheduled_total();
        c
    }

    /// Looks up a job.
    pub fn job(&self, id: JobId) -> Option<&Job> {
        self.jobs.get(id).map(|slot| &slot.job)
    }

    /// Number of jobs ever submitted.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// All job ids ever submitted, in submission order.
    pub fn job_ids(&self) -> Vec<JobId> {
        self.jobs.iter().map(|(id, _)| id).collect()
    }

    /// The platform event bus: every job state transition so far, stamped
    /// with simulated time and a monotone sequence number.
    pub fn events(&self) -> &EventBus {
        &self.bus
    }

    /// All buffered events for one job, oldest first.
    pub fn job_events(&self, id: JobId) -> Vec<EventRecord> {
        self.bus.for_job(id)
    }

    /// Snapshot of every operational metric of the four layers
    /// (`tacc_core_*`, `tacc_sched_*`, `tacc_compiler_*`, `tacc_exec_*`,
    /// `tacc_cluster_*`, `tacc_obs_*`), published as of now.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.publish_metrics();
        self.registry.snapshot()
    }

    /// Prometheus text exposition of every operational metric, published
    /// as of now.
    pub fn metrics_text(&self) -> String {
        self.publish_metrics();
        self.registry.expose()
    }

    /// Loads `trace` for replay: the platform keeps a shared handle and a
    /// position, and each record is copied out and admitted when the
    /// clock reaches its `submit_secs` — through the same door, with the
    /// same refusals, as a `Command::Submit` stamped then. A record
    /// behind the clock is due at once, and refused.
    ///
    /// Loading mid-run merges by time. Of an arrival and a scheduled
    /// event due at the same instant the arrival goes first; of two
    /// arrivals, the earlier-loaded trace's.
    pub fn load_trace(&mut self, trace: &Trace) {
        if !trace.is_empty() {
            self.arrivals.push((trace.clone(), 0));
        }
    }

    /// What is due next and when: the arrival cursor's head — of the
    /// loaded traces' next records the earliest, load order breaking ties
    /// — unless a scheduled event is due strictly before it.
    fn next_due(&self) -> Option<(SimTime, Due)> {
        let now = self.clock.now();
        let mut head: Option<(SimTime, Due)> = None;
        for (slot, (trace, position)) in self.arrivals.iter().enumerate() {
            let Some(record) = trace.records().get(*position) else {
                continue; // exhausted traces are dropped in `arrive`
            };
            let at = due_secs(record.submit_secs, now.as_secs()).map_or(now, SimTime::from_secs);
            if head.is_none_or(|(earliest, _)| at < earliest) {
                head = Some((at, Due::Arrival(slot)));
            }
        }
        match (head, self.events.peek_time()) {
            (Some((at, _)), Some(queued)) if queued < at => Some((queued, Due::Event)),
            (None, Some(queued)) => Some((queued, Due::Event)),
            (head, _) => head,
        }
    }

    /// Advances the clock to `at` and processes what [`Self::next_due`]
    /// found there.
    fn settle(&mut self, at: SimTime, due: Due) {
        self.clock.advance_to(at);
        self.events_processed += 1;
        assert!(
            self.events_processed <= self.config.max_events,
            "event budget exhausted ({}); runaway simulation?",
            self.config.max_events
        );
        match due {
            Due::Arrival(slot) => self.arrive(slot),
            Due::Event => {
                if let Some((_, event)) = self.events.pop() {
                    self.handle(event);
                }
            }
        }
    }

    /// Delivers the next record of loaded trace `slot` to the front door.
    fn arrive(&mut self, slot: usize) {
        let Some((trace, position)) = self.arrivals.get_mut(slot) else {
            return;
        };
        let Some(record) = trace.records().get(*position).cloned() else {
            return;
        };
        *position += 1;
        if *position == trace.len() {
            self.arrivals.remove(slot);
        }
        // A refusal is counted where it is decided; the replay moves on.
        let _ = self.admit(record);
    }

    /// Processes the next arrival or scheduled event, whichever is due
    /// first; returns its timestamp, or `None` when nothing is pending.
    pub fn step(&mut self) -> Option<SimTime> {
        let (at, due) = self.next_due()?;
        self.settle(at, due);
        Some(at)
    }

    /// When the next arrival or scheduled event is due; `None` when
    /// nothing is pending. A record stamped with this time and carrying
    /// `Advance { secs: 0.0 }` settles exactly what is due then.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.next_due().map(|(at, _)| at)
    }

    /// Runs until neither an arrival nor an event remains.
    pub fn run_until_idle(&mut self) {
        while self.step().is_some() {}
    }

    /// Runs arrivals and events up to and including time `until`.
    pub fn run_until(&mut self, until: SimTime) {
        while let Some((at, due)) = self.next_due() {
            if at > until {
                break;
            }
            self.settle(at, due);
        }
        if self.clock.now() < until {
            self.clock.advance_to(until);
        }
    }

    /// Convenience: loads a trace, runs to completion, and reports.
    pub fn run_trace(&mut self, trace: &Trace) -> SimulationReport {
        self.load_trace(trace);
        self.run_until_idle();
        self.report()
    }

    /// Builds the simulation report for everything processed so far.
    pub fn report(&self) -> SimulationReport {
        let horizon = self.clock.now().as_secs().max(1e-9);
        let (faults, failovers) = self.fault_counts();
        let snapshot = self.registry.snapshot();
        let round_latency = snapshot
            .histogram("tacc_sched_round_latency_seconds")
            .cloned()
            .unwrap_or_default();
        SimulationReport::build(ReportInputs {
            completed: &self.completed,
            submitted: self.jobs.len(),
            failed: self.bus.kind_count("failed"),
            failed_waste_gpu_hours: self.failed_waste_gpu_secs / 3600.0,
            rejected: self.bus.kind_count("rejected"),
            cancelled: self.bus.kind_count("cancelled"),
            staging_secs_total: self.staging_secs_total,
            stagings: self.stagings,
            faults,
            failovers,
            preemptions: self.scheduler.preemption_count(),
            backfill_starts: self.scheduler.backfill_starts(),
            util: &self.util,
            horizon_secs: horizon,
            group_gpu_secs: &self.group_gpu_secs,
            group_count: self.config.roster.len(),
            cache: self.compiler.cache().stats(),
            provisioning_latency_total: self.provisioning_latency_total,
            compilations: self.compiler.compilations(),
            rounds: self.scheduler.rounds(),
            round_latency,
            events_recorded: self.bus.recorded(),
            events_dropped: self.bus.dropped(),
            goodput_decomposition: self.goodput(),
        })
    }

    /// Dispatches one simulation event to the owning module's handler.
    fn handle(&mut self, event: Event) {
        match event {
            Event::CompileDone { job } => self.on_compile_done(job),
            Event::Finish { job, token } => self.on_finish(job, token),
            Event::Fault { job, token, node } => self.on_fault(job, token, node),
            Event::Cancel { job } => {
                // The user may already have seen the job finish; cancelling
                // a terminal job is a no-op.
                let _ = self.cancel_job(job);
            }
            Event::StagingDone { staging } => {
                if let Some(store) = &mut self.store {
                    store.end_staging(&staging);
                }
            }
            Event::RotateCheck => {
                let now = self.clock.now().as_secs();
                let outcome = self.scheduler.rotate(now, &mut self.cluster);
                if !outcome.is_empty() {
                    self.apply_decisions(&outcome, now);
                    // Freed + re-filled capacity may unblock more work.
                    self.run_round();
                }
            }
        }
    }
}
