//! Admission: the platform front door. Accepts trace/interactive
//! submissions, runs them through the compiler layer, and applies
//! admission control — a gang the hardware can never hold, or a
//! guaranteed request larger than its group's entire quota, is rejected
//! outright (`Submitted → Failed`) instead of queueing forever.

use tacc_obs::{PlatformEvent, RejectReason};
use tacc_sched::TaskRequest;
use tacc_sim::{SimDuration, SimTime};
use tacc_workload::{Job, JobEvent, JobId, TaskSchema, TraceRecord};

use crate::platform::{Event, Platform};

impl Platform {
    /// Admits a submission: its record becomes the job (the schema moves,
    /// it is not copied), the compiler reads the schema where the job
    /// keeps it, and queue entry is scheduled after the provisioning
    /// latency.
    pub(crate) fn do_submit(&mut self, record: TraceRecord) -> JobId {
        let now = self.clock.now().as_secs();
        let id = JobId::from_value(self.next_job);
        self.next_job += 1;
        let group = record.schema.group;
        let name = record.schema.name.clone();
        self.jobs
            .push(Job::new(id, record.schema, now, record.service_secs));
        // Anchor the job's transition timeline at its submission: a
        // recorded self-loop on `Submitted`, so span reconstruction from
        // the exported stream alone knows when provisioning began.
        let _ = self.apply_lifecycle_event(id, JobEvent::Submit { at_secs: now });
        self.metrics.jobs_submitted.inc();
        self.emit(
            now,
            PlatformEvent::Submitted {
                job: id,
                group,
                name,
            },
        );

        // Layer 2: compile. Provisioning latency delays queue entry.
        let Some(slot) = self.jobs.get_mut(id) else {
            return id; // pushed above
        };
        let compiled = self
            .compiler
            .compile(slot.job.schema())
            .expect("trace schemas are pre-validated");
        slot.runtime = compiled.instruction.runtime;
        self.provisioning_latency_total += compiled.provisioning.latency_secs;
        self.emit(
            now,
            PlatformEvent::Compiled {
                job: id,
                instruction: compiled.instruction.kind.to_string(),
                payload_mb: compiled.provisioning.total_mb,
                transferred_mb: compiled.provisioning.transferred_mb,
                chunk_hits: u64::from(compiled.provisioning.chunk_hits),
                chunk_misses: u64::from(compiled.provisioning.chunk_misses),
                provisioning_secs: compiled.provisioning.latency_secs,
            },
        );
        self.events.schedule(
            SimTime::from_secs(now) + SimDuration::from_secs(compiled.provisioning.latency_secs),
            Event::CompileDone { job: id },
        );
        if let Some(after) = record.cancel_after_secs {
            self.schedule_cancel(id, now, after);
        }
        id
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
        let schema = job.schema();
        let request = TaskRequest {
            id,
            group: schema.group,
            qos: schema.qos,
            workers: schema.workers,
            per_worker: schema.resources,
            est_secs: schema.est_duration_secs,
            submit_secs: job.submit_secs(),
            elastic: schema.elastic,
        };
        // Admission control: reject outright anything that could never run
        // here — a gang the hardware cannot hold, or a guaranteed request
        // larger than its group's entire quota — instead of queueing it
        // forever.
        let verdict = if !self.gang_feasible(schema) {
            Some(RejectReason::GangNeverFits)
        } else if !self.scheduler.admissible_ever(&request) {
            Some(RejectReason::ExceedsGroupQuota)
        } else {
            None
        };
        if let Some(reason) = verdict {
            self.rejected += 1;
            self.metrics.jobs_rejected.inc();
            self.emit(now, PlatformEvent::Rejected { job: id, reason });
            let _ = self.apply_lifecycle_event(id, JobEvent::Reject { at_secs: now });
            return;
        }
        let _ = self.apply_lifecycle_event(id, JobEvent::Enqueue);
        self.scheduler.submit(request);
        self.emit(now, PlatformEvent::Queued { job: id });
        self.run_round();
    }

    /// Whether `schema`'s gang could ever be placed on an empty cluster.
    pub(crate) fn gang_feasible(&self, schema: &TaskSchema) -> bool {
        let per = schema.resources;
        let mut capacity_workers: u32 = 0;
        for node in self.cluster.nodes() {
            let cap = node.capacity();
            let mut k = u32::MAX;
            if let Some(q) = cap.gpus.checked_div(per.gpus) {
                k = k.min(q);
            }
            if let Some(q) = cap.cpu_cores.checked_div(per.cpu_cores) {
                k = k.min(q);
            }
            if let Some(q) = cap.mem_gb.checked_div(per.mem_gb) {
                k = k.min(q);
            }
            if k == u32::MAX {
                k = 0; // zero-resource schemas are rejected by validation
            }
            capacity_workers = capacity_workers.saturating_add(k);
            if capacity_workers >= schema.workers {
                return true;
            }
        }
        false
    }
}
