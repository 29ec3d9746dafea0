//! Read-only status surface: everything `tcloud` asks the platform
//! about a job — status snapshots, `why` explanations, artifacts,
//! storage stats, and the bounded per-job logs. Nothing here mutates
//! platform state.

use tacc_cluster::NodeId;
use tacc_obs::PlatformEvent;
use tacc_workload::{JobId, JobState};

use crate::platform::Platform;

/// A snapshot of one job's lifecycle, as reported to clients.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// The job id.
    pub id: JobId,
    /// Lifecycle state.
    pub state: JobState,
    /// Task name from the schema.
    pub name: String,
    /// Nodes the job currently runs on (empty unless running).
    pub nodes: Vec<NodeId>,
    /// Submission time, seconds.
    pub submit_secs: f64,
    /// Remaining service time, seconds.
    pub remaining_secs: f64,
    /// Times preempted so far.
    pub preemptions: u32,
}

impl Platform {
    /// Client-facing status snapshot of a job.
    pub fn job_status(&self, id: JobId) -> Option<JobStatus> {
        let slot = self.jobs.get(id)?;
        let job = &slot.job;
        let nodes = slot
            .active
            .as_ref()
            .map(|r| {
                let mut n = r.worker_nodes.clone();
                n.sort_unstable();
                n.dedup();
                n
            })
            .unwrap_or_default();
        Some(JobStatus {
            id,
            state: job.state(),
            name: job.schema().name.clone(),
            nodes,
            submit_secs: job.submit_secs(),
            remaining_secs: job.remaining_secs(),
            preemptions: job.preemptions(),
        })
    }

    /// Explains a job's current situation — the answer `tcloud why`
    /// prints. For a waiting job this is the scheduler's most recent skip
    /// reason (quota exhausted, no feasible placement, blocked backfill
    /// window, head-of-line blocking); otherwise the job's most recent
    /// lifecycle transition from the transition log (falling back to the
    /// event bus if the ring already evicted it).
    pub fn why(&self, id: JobId) -> Option<String> {
        let job = &self.jobs.get(id)?.job;
        match job.state() {
            JobState::Submitted => {
                Some("provisioning: the compiler layer is preparing the task".to_owned())
            }
            JobState::Queued | JobState::Preempted => {
                match self.scheduler.decision_trace().latest_skip(id) {
                    Some((at, reason)) => Some(format!("waiting since t={at:.0}s: {reason}")),
                    None => Some("queued: no scheduling round has evaluated it yet".to_owned()),
                }
            }
            JobState::Running | JobState::Completed | JobState::Failed | JobState::Cancelled => {
                match self.transitions(id).last() {
                    Some(r) => Some(format!(
                        "t={:.0}s: {} \u{2192} {} ({})",
                        r.at_secs, r.from, r.to, r.event
                    )),
                    None => match self.bus.for_job(id).last() {
                        Some(rec) => Some(format!("t={:.0}s: {}", rec.at_secs, rec.event)),
                        None => Some(format!("{:?}", job.state())),
                    },
                }
            }
        }
    }

    /// The output artifacts a job left on its nodes — what `tcloud get`
    /// retrieves. One entry per `(node, file, size-MiB)`; empty until the
    /// job has run at least once. Sizes are deterministic per job so
    /// retrieval output is reproducible.
    pub fn job_artifacts(&self, id: JobId) -> Vec<(NodeId, String, u32)> {
        let Some(slot) = self.jobs.get(id) else {
            return Vec::new();
        };
        let nodes = &slot.last_nodes;
        let checkpoint_mb = slot
            .job
            .schema()
            .model
            .map(|m| m.param_mb as u32)
            .unwrap_or(50);
        let mut out = Vec::new();
        for (rank, &node) in nodes.iter().enumerate() {
            out.push((
                node,
                format!("worker-{rank}.log"),
                1 + (id.value() % 7) as u32,
            ));
            if rank == 0 {
                out.push((node, "checkpoint.pt".to_owned(), checkpoint_mb));
                out.push((node, "metrics.jsonl".to_owned(), 2));
            }
        }
        out
    }

    /// Shared-store totals: `(MiB staged from the backend, node-cache
    /// hits)`. `None` when the storage model is disabled.
    pub fn storage_stats(&self) -> Option<(u64, u64)> {
        self.store
            .as_ref()
            .map(|s| (s.total_staged_mb(), s.cache_hits()))
    }

    /// The platform-side log of a job (what `tcloud logs` aggregates),
    /// rendered from the job's retained events. Bounded: once a job
    /// accumulates more than
    /// [`crate::PlatformConfig::log_lines_per_job`] lines, the oldest are
    /// evicted ([`Self::job_log_dropped`] counts them).
    pub fn job_log(&self, id: JobId) -> Vec<(f64, String)> {
        let rendered = |(at, event): &(f64, PlatformEvent)| (*at, event.to_string());
        self.jobs
            .get(id)
            .map(|slot| slot.log.events.iter().map(rendered).collect())
            .unwrap_or_default()
    }

    /// Lines evicted from the job's bounded log ring.
    pub fn job_log_dropped(&self, id: JobId) -> u64 {
        self.jobs.get(id).map(|slot| slot.log.dropped).unwrap_or(0)
    }
}
