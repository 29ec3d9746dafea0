//! Admission: the platform's one front door. Every submission — a trace
//! arrival or a `Command::Submit` — enters through [`Platform::admit`],
//! which refuses what the platform cannot run as a typed error, runs the
//! rest through the compiler layer, and schedules queue entry. Admission
//! control then rejects outright (`Submitted → Failed`) a gang the
//! hardware can never hold, or a guaranteed request larger than its
//! group's entire quota, instead of queueing it forever.

use tacc_compiler::CompiledTask;
use tacc_obs::{PlatformEvent, RejectReason};
use tacc_sched::{gang_ever_fits, TaskRequest};
use tacc_sim::{SimDuration, SimTime};
use tacc_workload::{Job, JobEvent, JobId, TraceRecord};

use crate::command::CommandError;
use crate::platform::{Event, Platform};

/// When a submission stamped `submit_secs` is due on a clock reading
/// `now`: at its stamp, or `None` when that is behind the clock or not a
/// time at all — [`Platform::admit`] refuses those.
pub(crate) fn due_secs(submit_secs: f64, now: f64) -> Option<f64> {
    (now..f64::INFINITY)
        .contains(&submit_secs)
        .then_some(submit_secs)
}

/// What the scheduling layer is told about `job`: the user's estimate,
/// never the oracle service time.
pub(crate) fn task_request(job: &Job) -> TaskRequest {
    let schema = job.schema();
    TaskRequest {
        id: job.id(),
        group: schema.group,
        qos: schema.qos,
        workers: schema.workers,
        per_worker: schema.resources,
        est_secs: schema.est_duration_secs,
        submit_secs: job.submit_secs(),
        elastic: schema.elastic,
    }
}

impl Platform {
    /// Admits a submission at the current platform time: its record
    /// becomes the job (the shared schema moves in, it is not copied) and
    /// queue entry is scheduled after the provisioning latency. No scheduling
    /// round runs here — the job is still compiling, so nothing a round
    /// reads has been written; the round is `on_compile_done`'s.
    ///
    /// # Errors
    ///
    /// [`CommandError::InvalidTask`] for a record that fails
    /// [`TraceRecord::validate`], names a group outside the roster or
    /// does not compile; [`CommandError::TimeRegression`] for one stamped
    /// behind the clock. A refusal mints no job and is counted in
    /// `tacc_core_submissions_refused_total`.
    pub(crate) fn admit(&mut self, record: TraceRecord) -> Result<JobId, CommandError> {
        let now = self.clock.now().as_secs();
        let compiled = match self.vet(&record, now) {
            Ok(compiled) => compiled,
            Err(refusal) => {
                self.metrics.submissions_refused.inc();
                return Err(refusal);
            }
        };
        let id = JobId::from_value(self.jobs.len() as u64);
        let group = record.schema.group;
        let name = record.schema.name.clone();
        self.jobs
            .push(Job::new(id, record.schema, now, record.service_secs));
        if let Some(slot) = self.jobs.get_mut(id) {
            slot.runtime = compiled.instruction.runtime;
        }
        // Anchor the job's transition timeline at its submission: a
        // recorded self-loop on `Submitted`, so span reconstruction from
        // the exported stream alone knows when provisioning began.
        let _ = self.apply_lifecycle_event(id, JobEvent::Submit { at_secs: now });
        self.emit(
            now,
            PlatformEvent::Submitted {
                job: id,
                group,
                name,
            },
        );
        // Provisioning latency delays queue entry.
        self.provisioning_latency_total += compiled.provisioning.latency_secs;
        self.emit(
            now,
            PlatformEvent::Compiled {
                job: id,
                instruction: compiled.instruction.kind,
                payload_mb: compiled.provisioning.total_mb,
                transferred_mb: compiled.provisioning.transferred_mb,
                chunk_hits: u64::from(compiled.provisioning.chunk_hits),
                chunk_misses: u64::from(compiled.provisioning.chunk_misses),
                provisioning_secs: compiled.provisioning.latency_secs,
            },
        );
        let at = SimTime::from_secs(now);
        self.events.schedule(
            at + SimDuration::from_secs(compiled.provisioning.latency_secs),
            Event::CompileDone { job: id },
        );
        if let Some(after) = record.cancel_after_secs {
            self.events.schedule(
                at + SimDuration::from_secs(after),
                Event::Cancel { job: id },
            );
        }
        Ok(id)
    }

    /// Checks `record` against the platform at `now` and compiles it
    /// (layer 2); `Err` is the refusal.
    fn vet(&mut self, record: &TraceRecord, now: f64) -> Result<CompiledTask, CommandError> {
        record.validate().map_err(CommandError::InvalidTask)?;
        let roster = self.config.roster.len();
        if record.schema.group.index() >= roster {
            return Err(CommandError::InvalidTask(format!(
                "group {} is outside the {roster}-group roster",
                record.schema.group
            )));
        }
        if due_secs(record.submit_secs, now).is_none() {
            return Err(CommandError::TimeRegression {
                now_secs: now,
                at_secs: record.submit_secs,
            });
        }
        self.compiler
            .compile(&record.schema)
            .map_err(|err| CommandError::InvalidTask(err.to_string()))
    }

    /// Compilation finished: run admission control, then either reject
    /// the job (`Reject` lifecycle event) or enqueue it with the
    /// scheduler (`Enqueue`).
    pub(crate) fn on_compile_done(&mut self, id: JobId) {
        let now = self.clock.now().as_secs();
        let Some(job) = self.job_ref(id) else {
            return;
        };
        if job.state().is_terminal() {
            return; // cancelled during provisioning
        }
        let request = task_request(job);
        // Admission control: reject outright anything that could never run
        // here — a gang the hardware cannot hold, or a guaranteed request
        // larger than its group's entire quota — instead of queueing it
        // forever.
        let verdict = if !gang_ever_fits(&self.cluster, request.workers, request.per_worker) {
            Some(RejectReason::GangNeverFits)
        } else if !self.scheduler.admissible_ever(&request) {
            Some(RejectReason::ExceedsGroupQuota)
        } else {
            None
        };
        if let Some(reason) = verdict {
            let _ = self.apply_lifecycle_event(id, JobEvent::Reject { at_secs: now });
            self.emit(now, PlatformEvent::Rejected { job: id, reason });
            return;
        }
        let _ = self.apply_lifecycle_event(id, JobEvent::Enqueue);
        self.scheduler.submit(request);
        self.emit(now, PlatformEvent::Queued { job: id });
        self.run_round();
    }
}
