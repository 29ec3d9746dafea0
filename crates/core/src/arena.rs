//! Dense per-job storage: one arena slot per submitted job.
//!
//! Job ids are minted by the platform from a monotone counter and jobs
//! are never removed (terminal jobs stay queryable for `tcloud`), so the
//! id value *is* a dense index. That turns the per-job `BTreeMap`
//! tables the platform used to keep — job, runtime preference, active
//! run, last nodes, run token — into one `Vec` of [`JobSlot`]s:
//! every lookup on the hot path becomes a bounds-checked index instead
//! of a tree walk, and iteration in id order (which the goodput fold and
//! `job_ids()` rely on) is just slot order.

use tacc_cluster::NodeId;
use tacc_workload::{Job, JobId, RuntimePreference};

use crate::platform::ActiveRun;

/// Everything the platform tracks about one job, colocated in one slot.
#[derive(Debug)]
pub(crate) struct JobSlot {
    pub(crate) job: Job,
    /// Runtime preference after compilation (and after any failover).
    pub(crate) runtime: RuntimePreference,
    /// The current run, if the job is executing right now.
    pub(crate) active: Option<ActiveRun>,
    /// Distinct nodes of the job's current run, or its last one once it
    /// stopped (sorted; survives completion, for `tcloud get`).
    pub(crate) last_nodes: Vec<NodeId>,
    /// Run token; bumped on every enter/leave of `Running` to invalidate
    /// in-flight `Finish`/`Fault` events aimed at a previous run.
    pub(crate) token: u64,
}

/// The dense job arena. Slots are indexed by `JobId::value()`; ids are
/// dense and never freed, so no generation tag is needed (unlike the
/// lease arena in `tacc-cluster`, whose slots are recycled).
#[derive(Debug, Default)]
pub(crate) struct JobArena {
    slots: Vec<JobSlot>,
}

impl JobArena {
    pub(crate) fn new() -> Self {
        JobArena::default()
    }

    /// Number of jobs ever submitted (slots are never removed).
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Makes room for `additional` more slots (a loaded trace's records),
    /// so the table is allocated once instead of doubling.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.slots.reserve(additional);
    }

    /// Appends the slot for a freshly minted job. The id must be the
    /// next dense value — the platform mints ids from the same counter,
    /// so a mismatch is a platform bug.
    pub(crate) fn push(&mut self, job: Job) {
        debug_assert_eq!(
            job.id().value(),
            self.slots.len() as u64,
            "job ids must be minted densely"
        );
        self.slots.push(JobSlot {
            job,
            runtime: RuntimePreference::Auto,
            active: None,
            last_nodes: Vec::new(),
            token: 0,
        });
    }

    pub(crate) fn get(&self, id: JobId) -> Option<&JobSlot> {
        self.slots.get(usize::try_from(id.value()).ok()?)
    }

    pub(crate) fn get_mut(&mut self, id: JobId) -> Option<&mut JobSlot> {
        self.slots.get_mut(usize::try_from(id.value()).ok()?)
    }

    /// All slots in ascending id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (JobId, &JobSlot)> {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, slot)| (JobId::from_value(i as u64), slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacc_workload::{GroupId, TaskSchema};

    fn job(v: u64) -> Job {
        let schema = TaskSchema::builder("arena-unit", GroupId::from_index(0))
            .build()
            .expect("valid schema");
        Job::new(JobId::from_value(v), schema, 0.0, 10.0)
    }

    #[test]
    fn slots_index_by_id_value() {
        let mut arena = JobArena::new();
        arena.push(job(0));
        arena.push(job(1));
        arena.push(job(2));
        assert_eq!(arena.len(), 3);
        for v in 0..3 {
            let id = JobId::from_value(v);
            assert_eq!(arena.get(id).map(|s| s.job.id()), Some(id));
        }
        assert!(arena.get(JobId::from_value(3)).is_none());
        assert!(arena.get(JobId::from_value(u64::MAX)).is_none());
    }

    #[test]
    fn iter_is_id_ordered() {
        let mut arena = JobArena::new();
        for v in 0..5 {
            arena.push(job(v));
        }
        let ids: Vec<u64> = arena.iter().map(|(id, _)| id.value()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn slot_state_mutates_in_place() {
        let mut arena = JobArena::new();
        arena.push(job(0));
        let id = JobId::from_value(0);
        let slot = arena.get_mut(id).expect("slot exists");
        slot.token = 3;
        slot.last_nodes = vec![NodeId::from_index(1)];
        assert_eq!(arena.get(id).map(|s| s.token), Some(3));
        assert_eq!(arena.get(id).map(|s| s.last_nodes.len()), Some(1));
    }
}
