//! Simulation reports: the numbers every experiment reads.

use tacc_metrics::{jain_index, Summary};
use tacc_obs::GoodputReport;
use tacc_workload::{GroupId, Job, JobId, TaskKind};

use crate::platform::Platform;

/// Per-job completion record.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedJob {
    /// The job.
    pub id: JobId,
    /// Its group.
    pub group: GroupId,
    /// Total GPUs it used.
    pub gpus: u32,
    /// Task kind.
    pub kind: TaskKind,
    /// Submission time, seconds.
    pub submit_secs: f64,
    /// Delay from submission to first start, seconds.
    pub queue_delay_secs: f64,
    /// Job completion time (submission → completion), seconds.
    pub jct_secs: f64,
    /// Oracle service requirement, seconds.
    pub service_secs: f64,
    /// Times preempted.
    pub preemptions: u32,
    /// Times restarted after faults.
    pub restarts: u32,
    /// Service-seconds of work lost to interruptions.
    pub wasted_secs: f64,
}

impl CompletedJob {
    /// The row of a job in its terminal state, read from the job alone:
    /// a finished job is held once, in its slot, and its row is built
    /// when a report asks for it.
    fn of(job: &Job) -> Self {
        let schema = job.schema();
        CompletedJob {
            id: job.id(),
            group: schema.group,
            gpus: schema.total_gpus(),
            kind: schema.kind,
            submit_secs: job.submit_secs(),
            queue_delay_secs: job.queueing_delay_secs().unwrap_or(0.0),
            // `Complete` set finish = the completion instant, so this is
            // bit-equal to the `jct_secs` the `completed` event carries.
            jct_secs: job.jct_secs().unwrap_or(0.0),
            service_secs: job.service_secs(),
            preemptions: job.preemptions(),
            restarts: job.restarts(),
            wasted_secs: job.wasted_secs(),
        }
    }
}

/// Per-group aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupReport {
    /// The group.
    pub group: GroupId,
    /// Completed jobs.
    pub completed: usize,
    /// Mean queueing delay, seconds.
    pub mean_queue_delay_secs: f64,
    /// 95th percentile queueing delay, seconds.
    pub p95_queue_delay_secs: f64,
    /// GPU-hours of service delivered to the group.
    pub gpu_hours: f64,
}

/// The aggregate outcome of a platform run: a plain value of what the
/// simulation decided, all of it sim-time, so equality is derived and
/// "same config + same trace ⇒ equal reports" covers every field. Host
/// time (the scheduler's round-latency histogram, experiment T4) is read
/// from [`Platform::metrics`] instead. [`Platform::report`] sets every
/// field in one literal; `Default` is the all-zero value, not what any
/// run reports (a run with no jobs reads goodput and fairness 1.0).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimulationReport {
    /// Jobs submitted.
    pub submitted: usize,
    /// Jobs completed successfully.
    pub completed: usize,
    /// Jobs that failed fatally.
    pub failed: u64,
    /// Jobs rejected at admission (gang can never fit the cluster).
    pub rejected: u64,
    /// Jobs the user cancelled.
    pub cancelled: u64,
    /// Mean dataset-staging time per staged start, seconds.
    pub mean_staging_secs: f64,
    /// Number of starts that actually staged data.
    pub stagings: u64,
    /// Node faults injected.
    pub faults: u64,
    /// Faults absorbed by runtime switching.
    pub failovers: u64,
    /// Preemptions performed by the scheduler.
    pub preemptions: u64,
    /// Starts that were backfills.
    pub backfill_starts: u64,
    /// Job completion time summary (seconds).
    pub jct: Summary,
    /// Queueing delay summary (seconds).
    pub queue_delay: Summary,
    /// Slowdown summary: JCT / service time per job.
    pub slowdown: Summary,
    /// Mean cluster GPU utilization over the run (0..=1).
    pub mean_utilization: f64,
    /// Useful service GPU-hours delivered.
    pub useful_gpu_hours: f64,
    /// GPU-hours lost to preemption/failure waste, including everything
    /// consumed by jobs that ultimately failed.
    pub wasted_gpu_hours: f64,
    /// Goodput: useful / (useful + wasted).
    pub goodput: f64,
    /// Per-group aggregates.
    pub groups: Vec<GroupReport>,
    /// Jain fairness index over per-group GPU-hours delivered.
    pub fairness: f64,
    /// Compiler cache counters at end of run.
    pub cache_hits: u64,
    /// Compiler cache miss count at end of run.
    pub cache_misses: u64,
    /// Byte-level cache hit rate.
    pub cache_byte_hit_rate: f64,
    /// Mean provisioning latency per compilation, seconds.
    pub mean_provisioning_secs: f64,
    /// Scheduling rounds executed.
    pub rounds: u64,
    /// Platform events recorded on the bus over the run.
    pub events_recorded: u64,
    /// Events dropped from the bounded bus ring.
    pub events_dropped: u64,
    /// ML Productivity Goodput decomposition
    /// (`availability × throughput_efficiency × (1 − badput)`), with
    /// badput itemized by cause, derived from sim-time span timelines.
    pub goodput_decomposition: GoodputReport,
    /// The per-job completion records (for CDFs in figure harnesses).
    pub jobs: Vec<CompletedJob>,
}

impl Platform {
    /// Builds the simulation report for everything processed so far.
    pub fn report(&self) -> SimulationReport {
        let (faults, failovers) = self.fault_counts();
        let cache = self.compiler.cache().stats();
        let compilations = self.compiler.compilations();
        let SimulationReport {
            completed,
            jct,
            queue_delay,
            slowdown,
            useful_gpu_hours,
            wasted_gpu_hours,
            goodput,
            groups,
            fairness,
            jobs,
            ..
        } = SimulationReport::from_jobs(
            self.completed_rows(),
            self.failed_waste_gpu_secs / 3600.0,
            &self.group_gpu_secs,
        );
        // No struct-update spread: a field added to `SimulationReport`
        // fails to compile here until the run sets it.
        SimulationReport {
            submitted: self.jobs.len(),
            completed,
            failed: self.bus.kind_count("failed"),
            rejected: self.bus.kind_count("rejected"),
            cancelled: self.bus.kind_count("cancelled"),
            mean_staging_secs: if self.stagings > 0 {
                self.staging_secs_total / self.stagings as f64
            } else {
                0.0
            },
            stagings: self.stagings,
            faults,
            failovers,
            preemptions: self.scheduler.preemption_count(),
            backfill_starts: self.scheduler.backfill_starts(),
            jct,
            queue_delay,
            slowdown,
            mean_utilization: self
                .util
                .mean_utilization(self.clock.now().as_secs().max(1e-9)),
            useful_gpu_hours,
            wasted_gpu_hours,
            goodput,
            groups,
            fairness,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_byte_hit_rate: cache.byte_hit_rate(),
            mean_provisioning_secs: if compilations > 0 {
                self.provisioning_latency_total / compilations as f64
            } else {
                0.0
            },
            rounds: self.scheduler.rounds(),
            events_recorded: self.bus.recorded(),
            events_dropped: self.bus.dropped(),
            goodput_decomposition: self.goodput(),
            jobs,
        }
    }

    /// One row per completed job, in completion order, built from the
    /// jobs' slots into a table sized once.
    fn completed_rows(&self) -> Vec<CompletedJob> {
        let mut rows = Vec::with_capacity(self.completed.len());
        rows.extend(
            self.completed
                .iter()
                .filter_map(|&id| self.job(id))
                .map(CompletedJob::of),
        );
        rows
    }
}

impl SimulationReport {
    /// The completed-jobs arithmetic: summaries, useful and wasted
    /// GPU-hours, goodput, one row per group of `group_gpu_secs` and
    /// fairness. Every other field is zero.
    fn from_jobs(
        completed: Vec<CompletedJob>,
        failed_waste_gpu_hours: f64,
        group_gpu_secs: &[f64],
    ) -> Self {
        let jct: Vec<f64> = completed.iter().map(|j| j.jct_secs).collect();
        let delay: Vec<f64> = completed.iter().map(|j| j.queue_delay_secs).collect();
        let slowdown: Vec<f64> = completed
            .iter()
            .map(|j| (j.jct_secs / j.service_secs).max(1.0))
            .collect();
        let useful_gpu_hours: f64 = completed
            .iter()
            .map(|j| f64::from(j.gpus) * j.service_secs / 3600.0)
            .sum();
        let wasted_gpu_hours: f64 = completed
            .iter()
            .map(|j| f64::from(j.gpus) * j.wasted_secs / 3600.0)
            .sum::<f64>()
            + failed_waste_gpu_hours;
        let goodput = if useful_gpu_hours + wasted_gpu_hours > 0.0 {
            useful_gpu_hours / (useful_gpu_hours + wasted_gpu_hours)
        } else {
            1.0
        };

        let mut groups = Vec::with_capacity(group_gpu_secs.len());
        for (gi, &gpu_secs) in group_gpu_secs.iter().enumerate() {
            let group = GroupId::from_index(gi);
            let delays: Vec<f64> = completed
                .iter()
                .filter(|j| j.group == group)
                .map(|j| j.queue_delay_secs)
                .collect();
            let s = Summary::from_samples(&delays);
            groups.push(GroupReport {
                group,
                completed: delays.len(),
                mean_queue_delay_secs: s.mean(),
                p95_queue_delay_secs: s.p95(),
                gpu_hours: gpu_secs / 3600.0,
            });
        }
        let group_hours: Vec<f64> = groups.iter().map(|g| g.gpu_hours).collect();

        SimulationReport {
            completed: completed.len(),
            jct: Summary::from_samples(&jct),
            queue_delay: Summary::from_samples(&delay),
            slowdown: Summary::from_samples(&slowdown),
            useful_gpu_hours,
            wasted_gpu_hours,
            goodput,
            fairness: jain_index(&group_hours),
            groups,
            jobs: completed,
            ..SimulationReport::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(group: usize, gpus: u32, jct: f64, service: f64, wasted: f64) -> CompletedJob {
        CompletedJob {
            id: JobId::from_value(0),
            group: GroupId::from_index(group),
            gpus,
            kind: TaskKind::Training,
            submit_secs: 0.0,
            queue_delay_secs: jct - service,
            jct_secs: jct,
            service_secs: service,
            preemptions: 0,
            restarts: 0,
            wasted_secs: wasted,
        }
    }

    #[test]
    fn report_math() {
        let completed = vec![
            job(0, 2, 2000.0, 1800.0, 0.0),
            job(1, 2, 3600.0, 1800.0, 1800.0),
        ];
        let group_secs = vec![3600.0 * 2.0, 3600.0 * 2.0];
        let r = SimulationReport::from_jobs(completed.clone(), 0.0, &group_secs);
        assert_eq!(r.completed, 2);
        assert_eq!(r.jct.count(), 2);
        // useful = 2*(2*1800/3600) = 2 gpu-hours; wasted = 2*1800/3600 = 1.
        assert!((r.useful_gpu_hours - 2.0).abs() < 1e-9);
        assert!((r.wasted_gpu_hours - 1.0).abs() < 1e-9);
        assert!((r.goodput - 2.0 / 3.0).abs() < 1e-9);
        // Equal group hours: perfectly fair.
        assert!((r.fairness - 1.0).abs() < 1e-12);
        assert_eq!(r.groups.len(), 2);
        assert_eq!(r.groups[1].mean_queue_delay_secs, 1800.0);
        assert_eq!(r.jobs, completed);
        // A failed job's consumption is waste too.
        let r = SimulationReport::from_jobs(completed, 1.0, &group_secs);
        assert!((r.goodput - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_report_is_sane() {
        let r = SimulationReport::from_jobs(Vec::new(), 0.0, &[]);
        assert_eq!(r.completed, 0);
        assert_eq!(r.goodput, 1.0);
        assert_eq!(r.fairness, 1.0);
        assert_eq!(
            r,
            SimulationReport {
                goodput: 1.0,
                fairness: 1.0,
                ..SimulationReport::default()
            }
        );
    }
}
