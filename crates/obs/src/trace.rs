//! Scheduler decision tracing: per-round records of what started, what
//! was preempted, and *why a job's skip verdict changed*, plus the
//! wall-clock latency of the round. The reasons are the vocabulary of
//! `tcloud why <job>`.

use std::fmt;
use tacc_workload::{GroupId, JobId};

use crate::Ring;

/// Why the scheduler passed over a queued job in one round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SkipReason {
    /// The owning group's quota (plus any borrowable headroom) cannot
    /// cover the request right now.
    QuotaExhausted {
        /// Owning group.
        group: GroupId,
        /// GPUs the group is currently using.
        used: u32,
        /// The group's guaranteed GPU quota.
        quota: u32,
        /// GPUs this request would add.
        demand: u32,
    },
    /// No placement exists on the current free capacity.
    NoFeasiblePlacement {
        /// Workers requested.
        workers: u32,
        /// GPUs per worker requested.
        gpus_per_worker: u32,
        /// Total free GPUs cluster-wide.
        free_gpus: u32,
        /// Largest contiguous free block on any single node.
        largest_free_block: u32,
    },
    /// A backfill start would overrun a blocked job's reservation.
    BackfillBlocked {
        /// Simulated time this job would end if started now (absolute).
        est_end_secs: f64,
        /// Expected start of the blocked job holding the reservation
        /// (absolute simulated time).
        shadow_secs: f64,
    },
    /// Strict FIFO (no backfill): a job ahead in the queue is stuck, so
    /// everything behind it waits.
    HeadOfLineBlocked {
        /// The job blocking the head of the queue.
        behind: JobId,
    },
}

impl fmt::Display for SkipReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkipReason::QuotaExhausted {
                group,
                used,
                quota,
                demand,
            } => write!(
                f,
                "quota exhausted: {group} using {used}/{quota} GPUs, +{demand} requested"
            ),
            SkipReason::NoFeasiblePlacement {
                workers,
                gpus_per_worker,
                free_gpus,
                largest_free_block,
            } => write!(
                f,
                "no feasible placement: needs {workers}x{gpus_per_worker} GPUs, \
                 {free_gpus} free (largest block {largest_free_block})"
            ),
            SkipReason::BackfillBlocked {
                est_end_secs,
                shadow_secs,
            } => write!(
                f,
                "backfill window blocked: would run until t={est_end_secs:.0}s, \
                 past the reservation shadow at t={shadow_secs:.0}s"
            ),
            SkipReason::HeadOfLineBlocked { behind } => {
                write!(
                    f,
                    "head-of-line blocked behind {behind} (backfill disabled)"
                )
            }
        }
    }
}

/// One skipped job in a round, with the reason.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSkip {
    /// The skipped job.
    pub job: JobId,
    /// Why it was skipped.
    pub reason: SkipReason,
}

/// Everything one scheduling round decided.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundTrace {
    /// Scheduler round counter at the time of the trace.
    pub round: u64,
    /// Simulated time of the round, seconds.
    pub at_secs: f64,
    /// Wall-clock latency of the round, microseconds (real time spent
    /// deciding, the T4 measurement).
    pub wall_micros: u64,
    /// Queue depth when the round began.
    pub queue_len: u64,
    /// Jobs started this round.
    pub started: Vec<JobId>,
    /// Jobs preempted this round.
    pub preempted: Vec<JobId>,
    /// Jobs skipped this round whose verdict changed (a queued entry's
    /// first skip, or a new reason category), with reasons.
    pub skips: Vec<JobSkip>,
}

/// Bounded log of [`RoundTrace`]s (the scheduler recycles an evicted
/// round's vectors). A queued job's current skip reason lives with the
/// job in the scheduler's queue, so it outlives the round.
pub type DecisionTraceLog = Ring<RoundTrace>;

#[cfg(test)]
mod tests {
    use super::*;

    fn job(n: u64) -> JobId {
        JobId::from_value(n)
    }

    fn round(n: u64, at: f64, started: Vec<JobId>, skips: Vec<JobSkip>) -> RoundTrace {
        RoundTrace {
            round: n,
            at_secs: at,
            wall_micros: 10,
            queue_len: skips.len() as u64,
            started,
            preempted: vec![],
            skips,
        }
    }

    #[test]
    fn ring_bounds_rounds() {
        let mut log = DecisionTraceLog::new(2);
        let skip = JobSkip {
            job: job(5),
            reason: SkipReason::HeadOfLineBlocked { behind: job(9) },
        };
        assert!(log.push(round(1, 1.0, vec![], vec![skip])).is_none());
        log.push(round(2, 2.0, vec![], vec![]));
        let evicted = log.push(round(3, 3.0, vec![], vec![]));
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 1);
        assert_eq!(log.iter().map(|r| r.round).collect::<Vec<_>>(), [2, 3]);
        // The evicted round comes back whole, for its buffers to be reused.
        assert_eq!(evicted.map(|r| r.skips), Some(vec![skip]));
    }

    #[test]
    fn skip_reason_rendering() {
        let r = SkipReason::NoFeasiblePlacement {
            workers: 4,
            gpus_per_worker: 8,
            free_gpus: 12,
            largest_free_block: 6,
        };
        assert_eq!(
            r.to_string(),
            "no feasible placement: needs 4x8 GPUs, 12 free (largest block 6)"
        );
        let r = SkipReason::BackfillBlocked {
            est_end_secs: 3600.0,
            shadow_secs: 1200.0,
        };
        assert!(r.to_string().contains("reservation shadow at t=1200s"));
    }

    #[test]
    fn recent_returns_tail() {
        let mut log = DecisionTraceLog::new(8);
        for n in 1..=5 {
            log.push(round(n, n as f64, vec![], vec![]));
        }
        let tail = log.recent(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].round, 4);
        assert_eq!(tail[1].round, 5);
    }
}
