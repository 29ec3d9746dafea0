//! The scheduling round: queue ordering, the quota/backfill/placement
//! walk over the live queue, skip tracing with positional dedup, and
//! temporal-planner-backed reservations.

use std::time::Instant;

use tacc_cluster::{Cluster, ResourceVec};
use tacc_obs::{JobSkip, RoundTrace, SkipReason};
use tacc_workload::JobId;

use crate::backfill::{may_backfill, BackfillMode, Reservation};
use crate::policy::{order_queue, PolicyContext, PolicyKind};
use crate::request::{Decision, SchedOutcome, StartedTask, TaskRequest};
use crate::scheduler::{DebugRoundHook, GateBounds, Scheduler, SkipVerdict, WalkProof};

impl Scheduler {
    /// Runs one scheduling round at time `now_secs`: orders the queue,
    /// starts everything that fits (subject to quota, gang placement and
    /// backfill rules), and preempts borrowers when guaranteed demand
    /// reclaims quota.
    pub fn schedule(&mut self, now_secs: f64, cluster: &mut Cluster) -> SchedOutcome {
        // tacc-lint: allow(wall-clock, reason = "measures host-side scheduling-round latency for the T4 round-latency histogram; reported, never fed back into decisions")
        let round_start = Instant::now();
        self.rounds += 1;
        let queue_len_at_start = self.queue.len() as u64;
        let mut outcome = SchedOutcome::default();
        // Whatever the last walk proved is spent here; only this round's
        // walk, if it finishes and decides nothing, leaves a new proof.
        let proof = self.walk_proof.take();

        // Empty queue: nothing can start or preempt, so the sort, snapshot
        // and usage work below is skipped entirely. The `rounds` counter,
        // gauges and the round-latency observation behave exactly as the
        // full path would, and an idle round was never traced anyway.
        if self.queue.is_empty() {
            self.counters.empty_rounds += 1;
            let wall = round_start.elapsed();
            if let Some(m) = &self.metrics {
                m.rounds.inc();
                m.round_latency.observe(wall.as_secs_f64());
                m.queue_depth.set(0.0);
                m.running_tasks.set(self.running.len() as f64);
            }
            self.flush_work_metrics();
            return outcome;
        }

        // The incremental usage vectors must always equal a recount over
        // the running set; any drift is an accounting bug.
        debug_assert_eq!(
            self.group_usage_vec,
            self.group_usage_vectors_recomputed(),
            "incremental group usage diverged from recomputation"
        );

        // Order the queue under the configured policy — but only when the
        // previous order can no longer be proven valid. Every comparator
        // ends in an id tiebreak (a total order), so a sorted queue is the
        // *unique* sorted permutation: if the keys did not change, the
        // existing order is byte-identical to what a re-sort would produce.
        //   - FIFO/SJF keys are static per request → re-sort only when
        //     membership changed.
        //   - FairShare/DRF keys also read group usage → re-sort when usage
        //     moved since the last sort.
        //   - MultiFactor scores depend on `now_secs` and the queue length
        //     → always re-sort.
        let sort_needed = match self.config.policy {
            PolicyKind::Fifo | PolicyKind::Sjf => self.queue_dirty,
            PolicyKind::FairShare | PolicyKind::Drf => {
                self.queue_dirty
                    || self.sorted_usage_epoch != self.usage_epoch
                    || self.sorted_capacity != cluster.total_capacity()
            }
            PolicyKind::MultiFactor => true,
        };
        if sort_needed {
            self.quota.usage_by_group_into(&mut self.scratch_usage);
            let ctx = PolicyContext {
                group_gpu_usage: &self.scratch_usage,
                group_usage_vec: &self.group_usage_vec,
                group_quota: self.quota.quotas(),
                capacity: cluster.total_capacity(),
            };
            order_queue(self.config.policy, now_secs, &mut self.queue, &ctx);
            self.queue_dirty = false;
            self.sorted_usage_epoch = self.usage_epoch;
            self.sorted_capacity = cluster.total_capacity();
            self.counters.queue_sorts += 1;
        } else {
            self.counters.queue_sorts_skipped += 1;
            // When the sort is skipped the queue must already be the unique
            // sorted permutation — binary inserts and in-place removals are
            // claimed to preserve it exactly.
            #[cfg(debug_assertions)]
            {
                self.quota.usage_by_group_into(&mut self.scratch_usage);
                let ctx = PolicyContext {
                    group_gpu_usage: &self.scratch_usage,
                    group_usage_vec: &self.group_usage_vec,
                    group_quota: self.quota.quotas(),
                    capacity: self.sorted_capacity,
                };
                let policy = self.config.policy;
                let queue_len = self.queue.len();
                debug_assert!(
                    self.queue.windows(2).all(|w| {
                        crate::policy::compare(policy, now_secs, queue_len, &w[0], &w[1], &ctx)
                            .is_lt()
                    }),
                    "sort-skip invariant violated: queue is not in sorted order"
                );
            }
        }
        debug_assert!(
            self.queue.len() == self.queue_members.len()
                && self
                    .queue
                    .iter()
                    .all(|r| self.queue_members.contains(&r.id)),
            "queue membership set diverged from the queue"
        );

        let mut reservations: Vec<Reservation> = std::mem::take(&mut self.scratch_reservations);
        reservations.clear();
        // Skip records accumulate into a recycled buffer (handed back by
        // the trace ring at push time once it is warm).
        let mut skips = std::mem::take(&mut self.scratch_skips);
        skips.clear();
        self.scratch_verdicts_next.clear();

        // Walk the live queue in place instead of copying it into a
        // per-round snapshot (the copy used to be the largest work
        // counter on the hot path). Placement commits remove the
        // examined entry order-preservingly, and reclaim may re-queue
        // victims mid-walk; `queue_push`/`queue_remove_request` compensate
        // the cursor so the walk visits exactly the entries the snapshot
        // held, in the same order. `examined` numbers them with their
        // round-start positions, keeping the positional skip dedup
        // byte-identical.
        //
        // The walk starts at the head of the queue — or, when nothing the
        // previous walk's verdicts depend on has moved, behind the prefix
        // that walk proved, with its ledger copied and its head's
        // reservation re-probed. Either way the loop below is the walk.
        let resumed = proof
            .filter(|_| !sort_needed)
            .and_then(|proof| self.resume_walk(now_secs, cluster, proof, &mut reservations));
        let (mut examined, mut head, mut gate) = match resumed {
            Some(proof) => (proof.examined, proof.head, proof.gate),
            None => (0, None, GateBounds::NONE),
        };
        self.walk_active = true;
        self.walk_cursor = examined;
        self.walk_inserted.clear();
        while self.walk_cursor < self.queue.len() {
            let request = self.queue[self.walk_cursor];
            // Mid-walk insertions were invisible to the old snapshot.
            if self.walk_inserted.contains(&request.id) {
                self.walk_cursor += 1;
                continue;
            }
            let pos = examined;
            examined += 1;
            self.walk_removed_current = false;
            let request = &request;

            // 1. Quota gate.
            if !self.quota.admits(self.config.quota, request) {
                if self.skip_should_record(pos, request.id, SkipVerdict::Quota) {
                    skips.push(JobSkip {
                        job: request.id,
                        reason: SkipReason::QuotaExhausted {
                            group: request.group,
                            used: self.quota.total_used(request.group),
                            quota: self.quota.quota(request.group),
                            demand: request.total_gpus(),
                        },
                    });
                }
                // Blocked on quota, not capacity: holds no capacity
                // reservation. Under no-backfill the queue is strictly
                // ordered, so later jobs stall behind it anyway.
                if self.config.backfill == BackfillMode::None {
                    self.skip_tail_live(&mut skips, &mut examined, request.id);
                    break;
                }
                self.walk_cursor += 1;
                continue;
            }

            // 2. Backfill gate (someone ahead is capacity-blocked).
            if !reservations.is_empty() {
                let est_end = now_secs + request.est_secs;
                let permitted = match self.config.backfill {
                    BackfillMode::None => false,
                    BackfillMode::Easy => {
                        let permitted =
                            may_backfill(est_end, request.total_gpus(), &reservations[0]);
                        if !permitted {
                            gate.min_denied_est = gate.min_denied_est.min(request.est_secs);
                        } else if request.total_gpus() > reservations[0].extra_gpus {
                            gate.max_permitted_est = gate.max_permitted_est.max(request.est_secs);
                        }
                        permitted
                    }
                    BackfillMode::Conservative => reservations
                        .iter()
                        .all(|r| may_backfill(est_end, request.total_gpus(), r)),
                };
                if !permitted {
                    if self.skip_should_record(pos, request.id, SkipVerdict::Backfill) {
                        let blocking = reservations
                            .iter()
                            .find(|r| !may_backfill(est_end, request.total_gpus(), r))
                            .unwrap_or(&reservations[0]);
                        skips.push(JobSkip {
                            job: request.id,
                            reason: SkipReason::BackfillBlocked {
                                est_end_secs: est_end,
                                shadow_secs: blocking.shadow_secs,
                            },
                        });
                    }
                    if self.config.backfill == BackfillMode::Conservative {
                        self.push_reservation(now_secs, request, cluster, &mut reservations);
                    }
                    self.walk_cursor += 1;
                    continue;
                }
            }

            // 3. Placement (with quota reclaim if allowed).
            let backfilled = !reservations.is_empty();
            match self.try_place(now_secs, request, cluster, &mut outcome) {
                Some(start) => {
                    self.scratch_verdicts_next
                        .push((request.id, SkipVerdict::Started));
                    if backfilled {
                        self.backfill_starts += 1;
                        if let Some(m) = &self.metrics {
                            m.backfill_starts.inc();
                        }
                    }
                    outcome.decisions.push(Decision::Start(StartedTask {
                        backfilled,
                        ..start
                    }));
                    // The commit removed the examined entry in place; the
                    // cursor already points at its successor.
                    debug_assert!(self.walk_removed_current, "started job still queued");
                    if !self.walk_removed_current {
                        self.walk_cursor += 1;
                    }
                }
                None => {
                    // Capacity-blocked.
                    if self.skip_should_record(pos, request.id, SkipVerdict::NoPlacement) {
                        skips.push(JobSkip {
                            job: request.id,
                            reason: SkipReason::NoFeasiblePlacement {
                                workers: request.workers,
                                gpus_per_worker: request.per_worker.gpus,
                                free_gpus: cluster.free_gpus(),
                                largest_free_block: cluster.largest_free_block(),
                            },
                        });
                    }
                    match self.config.backfill {
                        BackfillMode::None => {
                            self.skip_tail_live(&mut skips, &mut examined, request.id);
                            break;
                        }
                        BackfillMode::Easy => {
                            if reservations.is_empty() {
                                self.push_reservation(
                                    now_secs,
                                    request,
                                    cluster,
                                    &mut reservations,
                                );
                                head = Some((*request, reservations[0].extra_gpus));
                            }
                        }
                        BackfillMode::Conservative => {
                            self.push_reservation(now_secs, request, cluster, &mut reservations);
                        }
                    }
                    self.walk_cursor += 1;
                }
            }
        }
        self.walk_active = false;
        self.walk_inserted.clear();
        self.scratch_reservations = reservations;
        // A walk that decided nothing judged every entry against the state
        // it ends in: that is a proof the next round can stand on.
        if self.config.backfill == BackfillMode::Easy && outcome.is_empty() {
            self.walk_proof = Some(WalkProof {
                version: cluster.version(),
                usage_epoch: self.usage_epoch,
                examined,
                head,
                gate,
            });
        }

        // The walk examined exactly the round-start queue and pushed one
        // ledger entry per examined position; the ledger becomes the
        // baseline the next round's walk dedups against.
        debug_assert_eq!(
            examined as u64, queue_len_at_start,
            "walk out of step with the round-start queue"
        );
        debug_assert_eq!(
            self.scratch_verdicts_next.len(),
            examined,
            "walk ledger out of step with the walk"
        );
        std::mem::swap(&mut self.scratch_verdicts, &mut self.scratch_verdicts_next);
        let wall = round_start.elapsed();
        if let Some(m) = &self.metrics {
            m.rounds.inc();
            m.round_latency.observe(wall.as_secs_f64());
            m.queue_depth.set(self.queue.len() as f64);
            m.running_tasks.set(self.running.len() as f64);
        }
        self.flush_work_metrics();
        // Idle rounds (nothing queued, nothing decided) are not traced:
        // the platform's fixpoint loop would otherwise flood the ring.
        if queue_len_at_start > 0 || !outcome.is_empty() {
            let mut started = std::mem::take(&mut self.scratch_started);
            started.clear();
            started.extend(outcome.starts().map(|t| t.request.id));
            let mut preempted = std::mem::take(&mut self.scratch_preempted);
            preempted.clear();
            preempted.extend(outcome.preemptions().map(|(id, _)| id));
            let evicted = self.trace.push(RoundTrace {
                round: self.rounds,
                at_secs: now_secs,
                wall_micros: wall.as_micros() as u64,
                queue_len: queue_len_at_start,
                started,
                preempted,
                skips,
            });
            // Once the ring is warm every push evicts a round; its vectors
            // become the next round's buffers, closing the allocation loop.
            if let Some(old) = evicted {
                self.scratch_started = old.started;
                self.scratch_preempted = old.preempted;
                self.scratch_skips = old.skips;
            }
        } else {
            self.scratch_skips = skips;
        }

        outcome
    }

    /// Tries to enter this round's walk behind the prefix `proof` covers,
    /// and hands the proof back when it may. The caller has established
    /// that the queue needs no sort; the proof's own existence that the
    /// prefix is as the proving walk left it. What remains is that nothing
    /// a verdict reads has moved: the cluster version and usage epoch
    /// (quota and placement verdicts), and — the clock being the one input
    /// that always moves — that the head's reservation, re-probed at
    /// `now_secs` with the single probe the full walk would make, still
    /// sorts every time-clause entry onto the side of the backfill gate it
    /// was on. On success `reservations` holds that probe, the ledger
    /// prefix is copied and counted as the suppressions it would have
    /// been; on any failure nothing is left changed and the walk starts
    /// at 0.
    fn resume_walk(
        &mut self,
        now_secs: f64,
        cluster: &Cluster,
        proof: WalkProof,
        reservations: &mut Vec<Reservation>,
    ) -> Option<WalkProof> {
        if self.debug_hook == Some(DebugRoundHook::NoResume)
            || proof.version != cluster.version()
            || proof.usage_epoch != self.usage_epoch
            || proof.examined != self.scratch_verdicts.len()
        {
            return None;
        }
        if let Some((head, extra_gpus)) = &proof.head {
            // A stale timeline means a rebuild, which is the full walk's
            // to pay for and count.
            if self.timeline_version != Some(proof.version) {
                return None;
            }
            let slots = self.counters.slots;
            self.push_reservation(now_secs, head, cluster, reservations);
            let probed = reservations[0];
            let recheck = self.debug_hook != Some(DebugRoundHook::SkipPermittedRecheck);
            let holds = probed.extra_gpus == *extra_gpus
                && now_secs + proof.gate.min_denied_est > probed.shadow_secs
                && (!recheck || now_secs + proof.gate.max_permitted_est <= probed.shadow_secs);
            if !holds {
                self.counters.slots = slots;
                reservations.clear();
                return None;
            }
        }
        self.scratch_verdicts_next
            .extend_from_slice(&self.scratch_verdicts);
        let entries = proof.examined as u64;
        self.counters.skip_suppressions += entries;
        self.counters.walk_resumes += 1;
        self.counters.walk_resumed_entries += entries;
        #[cfg(debug_assertions)]
        self.debug_check_resumed(now_secs, cluster, &proof, reservations.first());
        Some(proof)
    }

    /// Debug oracle for a resumed round: re-derives, read-only, the
    /// verdict of every entry the round did not examine — the quota gate,
    /// the backfill gate against the re-probed reservation, and for an
    /// entry past both a non-committing placement — and asserts that each
    /// equals the ledger's and that none would have started.
    #[cfg(debug_assertions)]
    fn debug_check_resumed(
        &self,
        now_secs: f64,
        cluster: &Cluster,
        proof: &WalkProof,
        probed: Option<&Reservation>,
    ) {
        if self.debug_hook.is_some() {
            return;
        }
        let mut hypothetical = None;
        let mut head = None;
        for (request, ledger) in self.queue.iter().zip(&self.scratch_verdicts) {
            let verdict = if !self.quota.admits(self.config.quota, request) {
                SkipVerdict::Quota
            } else if head.is_some()
                && !probed.is_some_and(|r| {
                    may_backfill(now_secs + request.est_secs, request.total_gpus(), r)
                })
            {
                SkipVerdict::Backfill
            } else {
                debug_assert!(
                    !self.would_start(request, cluster, &mut hypothetical),
                    "resumed walk skipped {}, which would have started",
                    request.id
                );
                head = head.or(Some(request.id));
                SkipVerdict::NoPlacement
            };
            debug_assert_eq!(
                *ledger,
                (request.id, verdict),
                "resumed walk copied a verdict the full walk would not have reached"
            );
        }
        debug_assert_eq!(head, proof.head.map(|(request, _)| request.id));
    }

    /// Whether `try_place` would start `request` right now, decided
    /// without committing or counting anything: the elastic halvings
    /// against `cluster`, then the reclaim pre-check against a
    /// borrowers-evicted copy built at most once per caller.
    #[cfg(debug_assertions)]
    fn would_start(
        &self,
        request: &TaskRequest,
        cluster: &Cluster,
        hypothetical: &mut Option<Cluster>,
    ) -> bool {
        use crate::quota::QuotaMode;
        use tacc_workload::QosClass;
        let mut granted = request.workers;
        loop {
            if self
                .planner
                .plan(cluster, granted, request.per_worker)
                .is_some()
            {
                return true;
            }
            if !request.elastic || granted <= 1 {
                break;
            }
            granted = (granted / 2).max(1);
        }
        self.config.quota == QuotaMode::Borrowing
            && request.qos == QosClass::Guaranteed
            && self.running_best_effort > 0
            && self
                .planner
                .plan(
                    hypothetical.get_or_insert_with(|| self.borrowers_evicted(cluster)),
                    request.workers,
                    request.per_worker,
                )
                .is_some()
    }

    /// Computes and appends the capacity reservation for a blocked request
    /// by probing the temporal planner.
    ///
    /// The planner timeline depends only on the running set and the
    /// configured capacity windows, and every change to the running set
    /// (placement, finish, preemption) also bumps the cluster's mutation
    /// version. Placements and releases maintain the timeline
    /// incrementally; whenever the version check shows the mirror went
    /// stale (first round, preemption fallout, fault injection) it is
    /// rebuilt from the running set in one pass. Conservative backfill
    /// asks for one reservation per blocked job per round, and all of
    /// those probes share the same slots.
    fn push_reservation(
        &mut self,
        now_secs: f64,
        request: &TaskRequest,
        cluster: &Cluster,
        reservations: &mut Vec<Reservation>,
    ) {
        let version = cluster.version();
        if self.timeline_version != Some(version) {
            let skew = self.boundary_skew_secs;
            // Id-ordered iteration over the BTreeMap: rebuilding is a
            // deterministic function of the running set.
            self.timeline.rebuild(
                cluster.free_gpus(),
                self.running
                    .iter()
                    .map(|(&id, t)| (id, t.est_end_secs + skew, t.request.total_gpus())),
                &self.config.capacity_windows,
                &mut self.counters.slots,
            );
            self.timeline_version = Some(version);
        }
        #[cfg(debug_assertions)]
        if self.rounds.is_multiple_of(61) {
            // Sampled oracle: the incrementally maintained timeline must
            // stay count-equivalent to a fresh rebuild. (Abstract id
            // assignment may differ between the two; the count-level
            // fingerprint is invariant to it.)
            let mut oracle = crate::slotset::SlotSet::new();
            let mut stats = crate::slotset::SlotStats::default();
            let skew = self.boundary_skew_secs;
            oracle.rebuild(
                cluster.free_gpus(),
                self.running
                    .iter()
                    .map(|(&id, t)| (id, t.est_end_secs + skew, t.request.total_gpus())),
                &self.config.capacity_windows,
                &mut stats,
            );
            debug_assert_eq!(
                self.timeline.fingerprint(),
                oracle.fingerprint(),
                "incremental timeline diverged from a fresh rebuild"
            );
        }
        reservations.push(self.timeline.probe(
            now_secs,
            request.total_gpus(),
            cluster.free_gpus(),
            &mut self.counters.slots,
        ));
    }

    /// Decides whether this position's skip goes into the round's skip
    /// list: only when the previous walk examined a *different* job at
    /// this position, or the same job with a different verdict.
    /// Re-deciding the same "why not" round after round is pure work —
    /// the trace ring and `why` explanations only gain information when
    /// something changes, and in a stable blocked queue nothing does. One
    /// positional compare replaces a per-job map; suppressed repeats are
    /// counted so the work ledger still proves the gate ran. Returning
    /// the decision (instead of taking a pre-built [`JobSkip`]) lets the
    /// caller defer the skip-reason lookups — quota totals, the blocking
    /// reservation — to the recorded minority.
    fn skip_should_record(&mut self, pos: usize, job: JobId, verdict: SkipVerdict) -> bool {
        let unchanged = self
            .scratch_verdicts
            .get(pos)
            .is_some_and(|&(id, v)| id == job && v == verdict);
        self.scratch_verdicts_next.push((job, verdict));
        if unchanged {
            self.counters.skip_suppressions += 1;
            false
        } else {
            self.counters.skip_records += 1;
            true
        }
    }

    /// Records a head-of-line skip for every not-yet-examined live-queue
    /// entry (round-start positions `examined..`): under strict FIFO (no
    /// backfill) a blocked job stalls everything behind it. Mid-walk
    /// insertions are passed over — they were not part of the round-start
    /// queue.
    fn skip_tail_live(&mut self, skips: &mut Vec<JobSkip>, examined: &mut usize, behind: JobId) {
        let mut i = self.walk_cursor + 1;
        while i < self.queue.len() {
            let job = self.queue[i].id;
            i += 1;
            if self.walk_inserted.contains(&job) {
                continue;
            }
            let pos = *examined;
            *examined += 1;
            if self.skip_should_record(pos, job, SkipVerdict::HeadOfLine { behind }) {
                skips.push(JobSkip {
                    job,
                    reason: SkipReason::HeadOfLineBlocked { behind },
                });
            }
        }
    }

    /// Per-group running resource vectors recomputed from scratch — the
    /// oracle the incrementally maintained `group_usage_vec` is
    /// debug-asserted against every round.
    fn group_usage_vectors_recomputed(&self) -> Vec<ResourceVec> {
        let mut usage = vec![ResourceVec::ZERO; self.config.group_count];
        for task in self.running.values() {
            usage[task.request.group.index()] += task.request.total_resources();
        }
        usage
    }
}
