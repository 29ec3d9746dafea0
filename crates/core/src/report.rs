//! Simulation reports: the numbers every experiment reads.

use tacc_compiler::CacheStats;
use tacc_metrics::{jain_index, Summary, UtilizationTracker};
use tacc_obs::{GoodputReport, HistogramSnapshot};
use tacc_workload::{GroupId, JobId, TaskKind};

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

/// The aggregate outcome of a platform run.
///
/// Equality is manual, not derived: every field participates except the
/// wall-clock-measured parts of [`round_latency`](Self::round_latency),
/// so the determinism guarantee ("same config + trace ⇒ equal reports")
/// keeps holding even though host timing varies between runs.
#[derive(Debug, Clone)]
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
    /// Wall-clock scheduler round latency distribution, seconds. This is
    /// measured host time (experiment T4), not simulated time, so it is
    /// excluded from determinism comparisons.
    pub round_latency: HistogramSnapshot,
    /// Platform events recorded on the bus over the run.
    pub events_recorded: u64,
    /// Events dropped from the bounded bus ring.
    pub events_dropped: u64,
    /// ML Productivity Goodput decomposition
    /// (`availability × throughput_efficiency × (1 − badput)`), with
    /// badput itemized by cause. Derived purely from sim-time span
    /// timelines, so equality is strict.
    pub goodput_decomposition: GoodputReport,
    /// The per-job completion records (for CDFs in figure harnesses).
    pub jobs: Vec<CompletedJob>,
}

impl PartialEq for SimulationReport {
    fn eq(&self, other: &Self) -> bool {
        // Destructure so that adding a field without deciding whether it
        // participates in determinism comparisons fails to compile.
        let SimulationReport {
            submitted,
            completed,
            failed,
            rejected,
            cancelled,
            mean_staging_secs,
            stagings,
            faults,
            failovers,
            preemptions,
            backfill_starts,
            jct,
            queue_delay,
            slowdown,
            mean_utilization,
            useful_gpu_hours,
            wasted_gpu_hours,
            goodput,
            groups,
            fairness,
            cache_hits,
            cache_misses,
            cache_byte_hit_rate,
            mean_provisioning_secs,
            rounds,
            round_latency,
            events_recorded,
            events_dropped,
            goodput_decomposition,
            jobs,
        } = self;
        *submitted == other.submitted
            && *completed == other.completed
            && *failed == other.failed
            && *rejected == other.rejected
            && *cancelled == other.cancelled
            && *mean_staging_secs == other.mean_staging_secs
            && *stagings == other.stagings
            && *faults == other.faults
            && *failovers == other.failovers
            && *preemptions == other.preemptions
            && *backfill_starts == other.backfill_starts
            && *jct == other.jct
            && *queue_delay == other.queue_delay
            && *slowdown == other.slowdown
            && *mean_utilization == other.mean_utilization
            && *useful_gpu_hours == other.useful_gpu_hours
            && *wasted_gpu_hours == other.wasted_gpu_hours
            && *goodput == other.goodput
            && *groups == other.groups
            && *fairness == other.fairness
            && *cache_hits == other.cache_hits
            && *cache_misses == other.cache_misses
            && *cache_byte_hit_rate == other.cache_byte_hit_rate
            && *mean_provisioning_secs == other.mean_provisioning_secs
            && *rounds == other.rounds
            // Only the observation count of the round-latency histogram is
            // deterministic; the bucket placement and sum are host time.
            && round_latency.count == other.round_latency.count
            && *events_recorded == other.events_recorded
            && *events_dropped == other.events_dropped
            // Sim-time-only by construction, so strict equality holds
            // across replays.
            && *goodput_decomposition == other.goodput_decomposition
            && *jobs == other.jobs
    }
}

/// Everything [`SimulationReport::build`] aggregates, gathered by the
/// platform at report time.
pub(crate) struct ReportInputs<'a> {
    pub completed: &'a [CompletedJob],
    pub submitted: usize,
    pub failed: u64,
    pub failed_waste_gpu_hours: f64,
    pub rejected: u64,
    pub cancelled: u64,
    pub staging_secs_total: f64,
    pub stagings: u64,
    pub faults: u64,
    pub failovers: u64,
    pub preemptions: u64,
    pub backfill_starts: u64,
    pub util: &'a UtilizationTracker,
    pub horizon_secs: f64,
    pub group_gpu_secs: &'a [f64],
    pub group_count: usize,
    pub cache: CacheStats,
    pub provisioning_latency_total: f64,
    pub compilations: u64,
    pub rounds: u64,
    pub round_latency: HistogramSnapshot,
    pub events_recorded: u64,
    pub events_dropped: u64,
    pub goodput_decomposition: GoodputReport,
}

impl SimulationReport {
    pub(crate) fn build(inputs: ReportInputs<'_>) -> Self {
        let ReportInputs {
            completed,
            submitted,
            failed,
            failed_waste_gpu_hours,
            rejected,
            cancelled,
            staging_secs_total,
            stagings,
            faults,
            failovers,
            preemptions,
            backfill_starts,
            util,
            horizon_secs,
            group_gpu_secs,
            group_count,
            cache,
            provisioning_latency_total,
            compilations,
            rounds,
            round_latency,
            events_recorded,
            events_dropped,
            goodput_decomposition,
        } = inputs;
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

        let mut groups = Vec::with_capacity(group_count);
        for gi in 0..group_count {
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
                gpu_hours: group_gpu_secs.get(gi).copied().unwrap_or(0.0) / 3600.0,
            });
        }
        let group_hours: Vec<f64> = groups.iter().map(|g| g.gpu_hours).collect();

        SimulationReport {
            submitted,
            completed: completed.len(),
            failed,
            rejected,
            cancelled,
            mean_staging_secs: if stagings > 0 {
                staging_secs_total / stagings as f64
            } else {
                0.0
            },
            stagings,
            faults,
            failovers,
            preemptions,
            backfill_starts,
            jct: Summary::from_samples(&jct),
            queue_delay: Summary::from_samples(&delay),
            slowdown: Summary::from_samples(&slowdown),
            mean_utilization: util.mean_utilization(horizon_secs),
            useful_gpu_hours,
            wasted_gpu_hours,
            goodput,
            fairness: jain_index(&group_hours),
            groups,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_byte_hit_rate: cache.byte_hit_rate(),
            mean_provisioning_secs: if compilations > 0 {
                provisioning_latency_total / compilations as f64
            } else {
                0.0
            },
            rounds,
            round_latency,
            events_recorded,
            events_dropped,
            goodput_decomposition,
            jobs: completed.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_goodput(horizon_secs: f64, total_gpus: f64) -> GoodputReport {
        GoodputReport::compute(
            &tacc_obs::SpanBook::new(tacc_obs::SpanConfig::plain()),
            horizon_secs,
            total_gpus,
            &std::collections::BTreeMap::new(),
        )
    }

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
        let mut util = UtilizationTracker::new(8.0);
        util.acquire(0.0, 4.0);
        util.release(1800.0, 4.0);
        let completed = vec![
            job(0, 2, 2000.0, 1800.0, 0.0),
            job(1, 2, 3600.0, 1800.0, 1800.0),
        ];
        let group_secs = vec![3600.0 * 2.0, 3600.0 * 2.0];
        let r = SimulationReport::build(ReportInputs {
            completed: &completed,
            submitted: 2,
            failed: 0,
            failed_waste_gpu_hours: 0.0,
            rejected: 0,
            cancelled: 0,
            staging_secs_total: 0.0,
            stagings: 0,
            faults: 0,
            failovers: 0,
            preemptions: 1,
            backfill_starts: 0,
            util: &util,
            horizon_secs: 3600.0,
            group_gpu_secs: &group_secs,
            group_count: 2,
            cache: CacheStats::default(),
            provisioning_latency_total: 10.0,
            compilations: 2,
            rounds: 4,
            round_latency: HistogramSnapshot::default(),
            events_recorded: 9,
            events_dropped: 0,
            goodput_decomposition: empty_goodput(3600.0, 8.0),
        });
        assert_eq!(r.rounds, 4);
        assert_eq!(r.events_recorded, 9);
        assert_eq!(r.completed, 2);
        assert_eq!(r.jct.count(), 2);
        // useful = 2*(2*1800/3600) = 2 gpu-hours; wasted = 2*1800/3600 = 1.
        assert!((r.useful_gpu_hours - 2.0).abs() < 1e-9);
        assert!((r.wasted_gpu_hours - 1.0).abs() < 1e-9);
        assert!((r.goodput - 2.0 / 3.0).abs() < 1e-9);
        // Equal group hours: perfectly fair.
        assert!((r.fairness - 1.0).abs() < 1e-12);
        // Utilization: 4/8 busy for half the window.
        assert!((r.mean_utilization - 0.25).abs() < 1e-9);
        assert_eq!(r.mean_provisioning_secs, 5.0);
        assert_eq!(r.groups.len(), 2);
    }

    #[test]
    fn empty_report_is_sane() {
        let util = UtilizationTracker::new(8.0);
        let r = SimulationReport::build(ReportInputs {
            completed: &[],
            submitted: 0,
            failed: 0,
            failed_waste_gpu_hours: 0.0,
            rejected: 0,
            cancelled: 0,
            staging_secs_total: 0.0,
            stagings: 0,
            faults: 0,
            failovers: 0,
            preemptions: 0,
            backfill_starts: 0,
            util: &util,
            horizon_secs: 100.0,
            group_gpu_secs: &[],
            group_count: 0,
            cache: CacheStats::default(),
            provisioning_latency_total: 0.0,
            compilations: 0,
            rounds: 0,
            round_latency: HistogramSnapshot::default(),
            events_recorded: 0,
            events_dropped: 0,
            goodput_decomposition: empty_goodput(100.0, 8.0),
        });
        assert_eq!(r.completed, 0);
        assert_eq!(r.goodput, 1.0);
        assert_eq!(r.mean_utilization, 0.0);
        assert_eq!(r.fairness, 1.0);
    }
}
