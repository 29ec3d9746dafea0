//! Why the scheduler passed over a queued job: the verdict each queued
//! entry carries, and the vocabulary of `tcloud why <job>`.

use std::fmt;
use tacc_workload::{GroupId, JobId};

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
