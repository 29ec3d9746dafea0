//! The job lifecycle engine: the **only** module that mutates job state.
//!
//! Every state change in the platform flows through
//! `Platform::apply_lifecycle_event` (crate-internal), which routes the typed
//! [`JobEvent`] through `JobState::transition` (the checked transition
//! matrix in `tacc-workload`), bumps the run token at the transition site
//! (entering or leaving `Running`), and folds it into the live span book;
//! the bus event its call site emits next stands for it, and the
//! transition log is read off the bus. Illegal transitions — e.g. a
//! stale-token fault delivered after completion — are rejected without
//! touching state and surfaced on the event bus as
//! `PlatformEvent::IllegalTransition`, whose lifetime count is
//! `tacc_core_illegal_transitions_total`.
//!
//! The `single-writer` lint family (`lint-owners.toml`, rule
//! `job-state-transition`) enforces that no production code outside
//! this module calls `Job::apply_event`.
//!
//! This module also owns the scheduling-round glue (`run_round`,
//! `apply_decisions`) and the start/preempt/finish/cancel handlers,
//! since those are exactly the places transitions happen.

use std::fmt;

use tacc_cluster::{GpuModel, NodeId};
use tacc_obs::{PlatformEvent, TransitionEvent};
use tacc_sim::{SimDuration, SimTime};
use tacc_workload::{
    IllegalTransition, Job, JobEvent, JobId, JobState, RuntimePreference, TaskKind,
};

use crate::platform::{ActiveRun, Event, Platform};
use crate::report::CompletedJob;

/// Why a lifecycle event was not applied.
///
/// `Illegal` is the transition matrix saying no — also surfaced on the
/// bus, so callers may discard it (see the crate-internal
/// `Platform::apply_lifecycle_event`). `UnknownJob` means the caller
/// handed the engine an id the platform never tracked: a bug upstream,
/// reported as a value instead of a panic so the replay path stays
/// panic-free end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleError {
    /// The job id is not in the platform's job table.
    UnknownJob(JobId),
    /// The transition matrix rejected the event; the job is untouched.
    Illegal(IllegalTransition),
}

impl fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LifecycleError::UnknownJob(id) => {
                write!(f, "job {id:?} is not in the platform job table")
            }
            LifecycleError::Illegal(err) => err.fmt(f),
        }
    }
}

impl std::error::Error for LifecycleError {}

impl From<IllegalTransition> for LifecycleError {
    fn from(err: IllegalTransition) -> Self {
        LifecycleError::Illegal(err)
    }
}

impl Platform {
    /// The tracked job behind an id the platform produced itself (active
    /// runs, scheduler decisions, event payloads). Absence is a platform
    /// bug; it is reported as `None` (or [`LifecycleError::UnknownJob`]
    /// at the engine boundary) rather than panicking, so the
    /// `panic-surface` lint keeps the reachable simulation path at zero
    /// panic sites.
    pub(crate) fn job_ref(&self, id: JobId) -> Option<&Job> {
        self.jobs.get(id).map(|slot| &slot.job)
    }

    /// Mutable sibling of [`Platform::job_ref`].
    pub(crate) fn job_mut(&mut self, id: JobId) -> Option<&mut Job> {
        self.jobs.get_mut(id).map(|slot| &mut slot.job)
    }

    /// Applies one lifecycle event to a job — the platform's single
    /// state-write site.
    ///
    /// On success the run token is bumped if the job entered or left
    /// `Running` (invalidating any in-flight `Finish`/`Fault` events aimed
    /// at the previous run), and the caller emits the bus event that
    /// stands for the transition. On an illegal transition the job is
    /// untouched; the rejection is surfaced as a
    /// `PlatformEvent::IllegalTransition` on the bus (which
    /// `tacc_core_illegal_transitions_total` counts), so callers may
    /// safely discard the returned error.
    pub(crate) fn apply_lifecycle_event(
        &mut self,
        id: JobId,
        event: JobEvent,
    ) -> Result<JobState, LifecycleError> {
        let now = self.clock.now().as_secs();
        let Some(job) = self.job_mut(id) else {
            return Err(LifecycleError::UnknownJob(id));
        };
        let from = job.state();
        match job.apply_event(event) {
            Ok(to) => {
                if to == JobState::Running || from == JobState::Running {
                    self.bump_token(id);
                }
                let record = TransitionEvent {
                    at_secs: now,
                    job: id,
                    from,
                    to,
                    event: event.kind(),
                };
                // The span book folds the same stream the bus exports, so
                // live timelines and timelines replayed from the exported
                // JSONL are the same pure function of the same input.
                self.spans.observe(record);
                #[cfg(debug_assertions)]
                self.applied.push(record);
                Ok(to)
            }
            Err(err) => {
                self.emit(
                    now,
                    PlatformEvent::IllegalTransition {
                        job: id,
                        from: err.from,
                        event: err.event,
                    },
                );
                Err(LifecycleError::Illegal(err))
            }
        }
    }

    /// Test harness: delivers a raw lifecycle event to the engine,
    /// bypassing the event-loop guards (token checks, terminal-state
    /// short-circuits) that normally filter it out — exactly what a
    /// platform bug would do. Accounting is *not* adjusted; use this
    /// only to probe the engine's rejection behavior.
    #[doc(hidden)]
    pub fn force_lifecycle_event(
        &mut self,
        id: JobId,
        event: JobEvent,
    ) -> Result<JobState, LifecycleError> {
        self.apply_lifecycle_event(id, event)
    }

    /// Applied transitions concerning `job`, oldest first, as the bus's
    /// retained records stand for them.
    pub fn transitions(&self, job: JobId) -> Vec<TransitionEvent> {
        self.bus.transitions().filter(|t| t.job == job).collect()
    }

    /// Lifecycle events rejected by the transition matrix so far: the
    /// bus's lifetime count of `illegal_transition` records.
    pub fn illegal_transitions(&self) -> u64 {
        self.bus.kind_count("illegal_transition")
    }

    /// The transition log as JSON Lines, oldest first: what the bus's
    /// retained records stand for ([`tacc_obs::EventBus::transitions`]),
    /// so once the bus has dropped records, the log of its window — the
    /// byte-reproduction target for journal replay. Counted, then
    /// reserved once at [`TransitionEvent::LINE_BOUND`] per line.
    pub fn transition_log_jsonl(&self) -> String {
        let lines = self.bus.transitions().count();
        let mut out = String::with_capacity(lines * TransitionEvent::LINE_BOUND);
        for t in self.bus.transitions() {
            t.write_json(&mut out);
            out.push('\n');
        }
        out
    }

    /// Cancels a job (user kill). Queued jobs are dequeued; running jobs
    /// are stopped and their resources freed. Returns `false` if the job
    /// does not exist or is already terminal.
    pub(crate) fn cancel_job(&mut self, id: JobId) -> bool {
        let now = self.clock.now().as_secs();
        let Some(slot) = self.jobs.get(id) else {
            return false;
        };
        if slot.job.state().is_terminal() {
            return false;
        }
        if self.release_run(id, now).is_some() {
            self.scheduler.task_finished(id, &mut self.cluster);
        } else {
            self.scheduler.cancel(id);
        }
        let _ = self.apply_lifecycle_event(id, JobEvent::Cancel { at_secs: now });
        self.emit(now, PlatformEvent::Cancelled { job: id });
        self.run_round();
        true
    }

    /// One scheduling round plus processing of its decisions — in the
    /// order the scheduler took them, because a reclaim may preempt a task
    /// started earlier in the same round.
    pub(crate) fn run_round(&mut self) {
        let now = self.clock.now().as_secs();
        // Iterate to a fixpoint: a round's preemptions re-queue victims
        // that can only restart in a subsequent round (each round works on
        // a queue snapshot). Guaranteed to terminate: every non-empty
        // round starts at least one job.
        loop {
            let outcome = self.scheduler.schedule(now, &mut self.cluster);
            if outcome.is_empty() {
                break;
            }
            self.apply_decisions(&outcome, now);
        }
    }

    pub(crate) fn apply_decisions(&mut self, outcome: &tacc_sched::SchedOutcome, now: f64) {
        for decision in &outcome.decisions {
            match decision {
                tacc_sched::Decision::Preempt { id, reclaimed_for } => {
                    self.on_preempted(*id, now);
                    self.emit(
                        now,
                        PlatformEvent::Preempted {
                            job: *id,
                            reclaimed_for: *reclaimed_for,
                        },
                    );
                }
                tacc_sched::Decision::Start(started) => {
                    self.on_started(
                        started.request.id,
                        &started.worker_nodes,
                        started.backfilled,
                        now,
                    );
                }
                _ => {}
            }
        }
    }

    pub(crate) fn on_started(
        &mut self,
        id: JobId,
        worker_nodes: &[NodeId],
        backfilled: bool,
        now: f64,
    ) {
        let _ = self.apply_lifecycle_event(id, JobEvent::Start { at_secs: now });
        // Copy out only the schema fields this path needs; cloning the whole
        // schema would heap-allocate the name/image/dependency strings on
        // every start.
        let Some(job) = self.job_ref(id) else {
            return;
        };
        let schema = job.schema();
        let per_worker_gpus = schema.resources.gpus;
        let requested_workers = schema.workers;
        let model = schema.model;
        let kind = schema.kind;
        let qos = schema.qos;
        let group = schema.group;
        let dataset = schema.env.dataset.clone();
        let remaining = job.remaining_secs();
        let resumed = job.preemptions() + job.restarts() > 0;

        // Elastic tasks may have been granted fewer workers than requested
        // (one entry in `worker_nodes` per granted worker); a shrunken
        // data-parallel gang runs proportionally longer.
        let granted_workers = (worker_nodes.len().min(u32::MAX as usize) as u32).max(1);
        let granted_gpus = per_worker_gpus * granted_workers; // 0 for CPU tasks
        let shrink = f64::from(requested_workers) / f64::from(granted_workers);

        let gpu_model = self
            .cluster
            .node(worker_nodes[0])
            .map(|n| n.gpu_model())
            .unwrap_or(GpuModel::A100);
        let runtime = self
            .jobs
            .get(id)
            .map(|slot| slot.runtime)
            .unwrap_or(RuntimePreference::Auto);
        let plan = match (&model, kind) {
            (Some(profile), TaskKind::Training | TaskKind::Inference) => self.exec.plan_training(
                &self.cluster,
                runtime,
                worker_nodes,
                granted_gpus.max(1),
                gpu_model,
                profile,
            ),
            _ if kind.is_cpu_only() => self.exec.plan_simple(None),
            _ => self.exec.plan_simple(Some(gpu_model)),
        };

        // Co-location interference from neighbours present at start time.
        let interference = self.exec.interference_factor(&self.cluster, worker_nodes);
        let stretch =
            plan.slowdown * interference * self.checkpoint.runtime_overhead_factor() * shrink;
        let resume_penalty = if resumed {
            self.checkpoint.restore_cost_secs()
        } else {
            0.0
        };
        // Dataset staging from the shared filesystem happens before any
        // useful work; nodes that still cache the dataset skip it.
        let staging_secs = match (&mut self.store, &dataset) {
            (Some(store), Some((dataset, size_mb))) => {
                let staging = store.begin_staging(worker_nodes, dataset, *size_mb);
                if staging.readers > 0 {
                    self.staging_secs_total += staging.secs;
                    self.stagings += 1;
                    self.events.schedule(
                        SimTime::from_secs(now) + SimDuration::from_secs(staging.secs),
                        Event::StagingDone { staging },
                    );
                }
                staging.secs
            }
            _ => 0.0,
        };
        let wall = remaining * stretch + resume_penalty + staging_secs;
        // The `Start` transition above minted this run's token.
        let token = self.current_token(id);
        let mut distinct = worker_nodes.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let distinct_nodes = distinct.len();
        if let Some(slot) = self.jobs.get_mut(id) {
            slot.last_nodes = distinct;
            slot.active = Some(ActiveRun {
                start_secs: now,
                stretch,
                gpus: f64::from(granted_gpus),
                // Both restore and staging are dead wall time before useful
                // progress; interruption accounting subtracts them.
                resume_penalty: resume_penalty + staging_secs,
                runtime: plan.runtime,
            });
        }
        self.events.schedule(
            SimTime::from_secs(now) + SimDuration::from_secs(wall),
            Event::Finish { job: id, token },
        );
        if let Some(quantum) = self.config.scheduler.time_slice_secs {
            if qos == tacc_workload::QosClass::BestEffort {
                self.events.schedule(
                    SimTime::from_secs(now) + SimDuration::from_secs(quantum),
                    Event::RotateCheck,
                );
            }
        }
        if let Some(injector) = &self.injector {
            if let Some(fault) = injector.first_fault(worker_nodes, now, wall) {
                self.events.schedule(
                    SimTime::from_secs(now) + SimDuration::from_secs(fault.at_secs),
                    Event::Fault {
                        job: id,
                        token,
                        node: fault.node,
                    },
                );
            }
        }

        let gpus = f64::from(granted_gpus);
        self.accrue_group_time(now);
        self.util.acquire(now, gpus);
        self.group_busy[group.index()] += gpus;
        self.exec_telemetry.note_plan(&plan);
        self.emit(
            now,
            PlatformEvent::Placed {
                job: id,
                nodes: distinct_nodes as u64,
                runtime: plan.runtime,
                slowdown: plan.slowdown,
                granted_workers: u64::from(granted_workers),
                requested_workers: u64::from(requested_workers),
                backfilled,
            },
        );
    }

    pub(crate) fn on_preempted(&mut self, id: JobId, now: f64) {
        let Some(run) = self.release_run(id, now) else {
            return;
        };
        let (progress, lost) = self.interruption_amounts(&run, now);
        let _ = self.apply_lifecycle_event(
            id,
            JobEvent::Preempt {
                at_secs: now,
                progress_secs: progress,
                lost_secs: lost,
            },
        );
        // The scheduler already holds the re-queued request.
        let _ = self.apply_lifecycle_event(id, JobEvent::Enqueue);
    }

    pub(crate) fn on_finish(&mut self, id: JobId, token: u64) {
        if self.jobs.get(id).map(|slot| slot.token) != Some(token) {
            return; // stale completion from a run that was interrupted
        }
        let now = self.clock.now().as_secs();
        if self.release_run(id, now).is_none() {
            return;
        }
        self.scheduler.task_finished(id, &mut self.cluster);
        let _ = self.apply_lifecycle_event(id, JobEvent::Complete { at_secs: now });
        let (record, jct_secs, queue_delay_secs) = {
            let Some(job) = self.job_ref(id) else {
                return;
            };
            let schema = job.schema();
            // `Complete` set finish = now, so JCT is exactly now - submit.
            let jct_secs = now - job.submit_secs();
            let queue_delay_secs = job.queueing_delay_secs().unwrap_or(0.0);
            (
                CompletedJob {
                    id,
                    group: schema.group,
                    gpus: schema.total_gpus(),
                    kind: schema.kind,
                    submit_secs: job.submit_secs(),
                    queue_delay_secs,
                    jct_secs,
                    service_secs: job.service_secs(),
                    preemptions: job.preemptions(),
                    restarts: job.restarts(),
                    wasted_secs: job.wasted_secs(),
                },
                jct_secs,
                queue_delay_secs,
            )
        };
        self.completed.push(record);
        self.metrics.queue_delay.observe(queue_delay_secs);
        self.emit(now, PlatformEvent::Completed { job: id, jct_secs });
        self.run_round();
    }

    /// The current run token for a job (0 if it never started).
    pub(crate) fn current_token(&self, id: JobId) -> u64 {
        self.jobs.get(id).map(|slot| slot.token).unwrap_or(0)
    }

    pub(crate) fn bump_token(&mut self, id: JobId) -> u64 {
        match self.jobs.get_mut(id) {
            Some(slot) => {
                slot.token += 1;
                slot.token
            }
            None => 0,
        }
    }
}
