//! The scheduling round — order, walk, apply: queue ordering, the
//! quota/backfill/placement walk over the round-start queue, skip tracing
//! with positional dedup, and temporal-planner-backed reservations.

use std::time::{Duration, Instant};

use tacc_cluster::{Cluster, ResourceVec};
use tacc_obs::{JobSkip, RoundTrace, SkipReason};
use tacc_workload::JobId;

use crate::backfill::{may_backfill, BackfillMode};
use crate::policy::{compare, order_queue, PolicyKind};
use crate::request::{Decision, SchedOutcome, StartedTask, TaskRequest};
use crate::scheduler::{DebugRoundHook, GateBounds, Scheduler, SkipVerdict, WalkProof};

/// The crate's one wall-clock read: a round or a rotation starts timing.
pub(super) fn round_clock() -> Instant {
    // tacc-lint: allow(wall-clock, reason = "measures host-side scheduling-round and rotation latency for the T4 round-latency histogram and the trace's wall_micros; reported, never fed back into decisions")
    Instant::now()
}

impl Scheduler {
    /// Runs one scheduling round at time `now_secs`: orders the queue,
    /// starts everything that fits (subject to quota, gang placement and
    /// backfill rules), and preempts borrowers when guaranteed demand
    /// reclaims quota. Three steps: **order** the queue, **walk** it as
    /// it stood at round start, **apply** the edits the walk recorded.
    pub fn schedule(&mut self, now_secs: f64, cluster: &mut Cluster) -> SchedOutcome {
        let round_start = round_clock();
        self.rounds += 1;
        let queue_len_at_start = self.queue.len();
        let mut outcome = SchedOutcome::default();
        // Whatever the last walk proved is spent here; only this round's
        // walk, if it decides nothing, leaves a new proof.
        let proof = self.walk_proof.take();
        // An empty queue can start or preempt nothing: only the epilogue
        // runs, and the skip ledger stays as the last walk left it.
        if self.queue.is_empty() {
            self.counters.empty_rounds += 1;
        } else {
            let sorted = self.order(now_secs, cluster);
            let resumed = proof
                .as_ref()
                .filter(|proof| !sorted && self.resume_walk(now_secs, cluster, proof));
            let queue = std::mem::take(&mut self.queue);
            self.walk(now_secs, cluster, &queue, resumed, &mut outcome);
            self.queue = queue;
            self.apply_queue_edits();
            // The ledger the walk built becomes the baseline the next
            // round's walk dedups against.
            std::mem::swap(&mut self.scratch_verdicts, &mut self.scratch_verdicts_next);
        }
        self.finish_round(now_secs, round_start, queue_len_at_start, &outcome);
        outcome
    }

    /// The round's *order* step: sorts the queue under the configured
    /// policy — but only when the previous order can no longer be proven
    /// valid, which is what it returns — and resets the per-round buffers.
    /// Behind an order that stood, the last walk's proof may still hold
    /// (`resume_walk`).
    ///
    /// Every comparator ends in an id tiebreak (a total order), so a
    /// sorted queue is the *unique* sorted permutation: while the keys
    /// stand (`queue_order_valid`, per policy), the existing order is
    /// byte-identical to what a re-sort would produce.
    fn order(&mut self, now_secs: f64, cluster: &Cluster) -> bool {
        // The incremental usage vectors must always equal a recount over
        // the running set; any drift is an accounting bug.
        debug_assert_eq!(
            self.group_usage_vec,
            self.group_usage_vectors_recomputed(),
            "incremental group usage diverged from recomputation"
        );
        // DRF keys also divide by capacity, which `queue_order_valid` —
        // asked between rounds, with no cluster at hand — cannot see.
        let sort_needed = !self.queue_order_valid()
            || (matches!(self.config.policy, PolicyKind::FairShare | PolicyKind::Drf)
                && self.sorted_capacity != cluster.total_capacity());
        // Read by the sort, or by the debug check that stands in for it.
        if sort_needed || cfg!(debug_assertions) {
            self.quota.usage_by_group_into(&mut self.scratch_usage);
        }
        if sort_needed {
            self.sorted_capacity = cluster.total_capacity();
            let mut queue = std::mem::take(&mut self.queue);
            let (policy, ctx) = (self.config.policy, self.policy_context());
            order_queue(policy, now_secs, &mut queue, &ctx);
            self.queue = queue;
            self.queue_dirty = false;
            self.sorted_usage_epoch = self.usage_epoch;
            self.counters.queue_sorts += 1;
        } else {
            self.counters.queue_sorts_skipped += 1;
            // When the sort is skipped the queue must already be the unique
            // sorted permutation — binary inserts and in-place removals are
            // claimed to preserve it exactly.
            debug_assert!(
                self.queue.windows(2).all(|w| {
                    let (policy, len) = (self.config.policy, self.queue.len());
                    compare(policy, now_secs, len, &w[0], &w[1], &self.policy_context()).is_lt()
                }),
                "sort-skip invariant violated: queue is not in sorted order"
            );
        }
        self.scratch_reservations.clear();
        self.scratch_skips.clear();
        self.scratch_verdicts_next.clear();
        sort_needed
    }

    /// The round's *walk* step: examines `queue` — the pending queue as it
    /// stood at round start, which nothing edits while this runs — entry
    /// by entry against the live cluster: quota gate, backfill gate,
    /// placement. A start or an eviction changes the cluster, the quota
    /// table and the running set at once; what it means for the queue is
    /// recorded in `scratch_edits`. An entry's index is its round-start
    /// position, which is what the positional skip dedup keys on.
    ///
    /// The one loop starts at the head of the queue — or, given `resumed`,
    /// behind the prefix the previous walk proved. A walk that decides
    /// nothing leaves the proof the next round can stand on.
    fn walk(
        &mut self,
        now_secs: f64,
        cluster: &mut Cluster,
        queue: &[TaskRequest],
        resumed: Option<&WalkProof>,
        outcome: &mut SchedOutcome,
    ) {
        let (start, mut head, mut gate) = match resumed {
            Some(proof) => (proof.examined, proof.head, proof.gate),
            None => (0, None, GateBounds::NONE),
        };
        for (pos, request) in queue.iter().enumerate().skip(start) {
            // 1. Quota gate.
            if !self.quota.admits(self.config.quota, request) {
                if self.skip_should_record(pos, request.id, SkipVerdict::Quota) {
                    self.scratch_skips.push(JobSkip {
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
                    self.skip_tail(queue, pos + 1, request.id);
                    break;
                }
                continue;
            }

            // 2. Backfill gate (someone ahead is capacity-blocked).
            let backfilled = !self.scratch_reservations.is_empty();
            if backfilled {
                let reservations = &self.scratch_reservations;
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
                        let reservations = &self.scratch_reservations;
                        let blocking = reservations
                            .iter()
                            .find(|r| !may_backfill(est_end, request.total_gpus(), r))
                            .unwrap_or(&reservations[0]);
                        self.scratch_skips.push(JobSkip {
                            job: request.id,
                            reason: SkipReason::BackfillBlocked {
                                est_end_secs: est_end,
                                shadow_secs: blocking.shadow_secs,
                            },
                        });
                    }
                    if self.config.backfill == BackfillMode::Conservative {
                        self.push_reservation(now_secs, request, cluster);
                    }
                    continue;
                }
            }

            // 3. Placement (with quota reclaim if allowed).
            match self.try_place(now_secs, request, cluster, outcome) {
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
                }
                None => {
                    // Capacity-blocked.
                    if self.skip_should_record(pos, request.id, SkipVerdict::NoPlacement) {
                        self.scratch_skips.push(JobSkip {
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
                            self.skip_tail(queue, pos + 1, request.id);
                            break;
                        }
                        BackfillMode::Easy => {
                            if !backfilled {
                                self.push_reservation(now_secs, request, cluster);
                                head = Some((*request, self.scratch_reservations[0].extra_gpus));
                            }
                        }
                        BackfillMode::Conservative => {
                            self.push_reservation(now_secs, request, cluster);
                        }
                    }
                }
            }
        }
        // One ledger entry per position of the round-start queue.
        debug_assert_eq!(
            self.scratch_verdicts_next.len(),
            queue.len(),
            "walk ledger out of step with the round-start queue"
        );
        // A walk that decided nothing judged every entry against the state
        // it ends in: that is a proof the next round can stand on.
        if self.config.backfill == BackfillMode::Easy && outcome.is_empty() {
            self.walk_proof = Some(WalkProof {
                version: cluster.version(),
                usage_epoch: self.usage_epoch,
                examined: queue.len(),
                head,
                gate,
            });
        }
    }

    /// The epilogue every round shares, walked or not: the round-latency
    /// observation, the gauges, the work-counter flush and — unless the
    /// round was idle — its `RoundTrace`.
    fn finish_round(
        &mut self,
        now_secs: f64,
        round_start: Instant,
        queue_len_at_start: usize,
        outcome: &SchedOutcome,
    ) {
        let wall = round_start.elapsed();
        if let Some(m) = &self.metrics {
            m.rounds.inc();
            m.round_latency.observe(wall.as_secs_f64());
            m.queue_depth.set(self.queue.len() as f64);
            m.running_tasks.set(self.running.len() as f64);
        }
        self.flush_work_metrics();
        // Idle rounds (nothing queued, so nothing decided) are not traced:
        // the platform's fixpoint loop would otherwise flood the ring.
        if queue_len_at_start > 0 {
            let skips = std::mem::take(&mut self.scratch_skips);
            self.trace_round(now_secs, wall, queue_len_at_start, outcome, skips);
        }
    }

    /// Pushes the `RoundTrace` of a round — or of a rotation, which decides
    /// outside one and skips nobody.
    pub(super) fn trace_round(
        &mut self,
        now_secs: f64,
        wall: Duration,
        queue_len: usize,
        outcome: &SchedOutcome,
        skips: Vec<JobSkip>,
    ) {
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
            queue_len: queue_len as u64,
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
    }

    /// Whether this round's walk may start behind the prefix `proof`
    /// covers. The caller has established that the queue needs no sort;
    /// the proof's own existence that the prefix is as the proving walk
    /// left it. What remains is that nothing
    /// a verdict reads has moved: the cluster version and usage epoch
    /// (quota and placement verdicts), and — the clock being the one input
    /// that always moves — that the head's reservation, re-probed at
    /// `now_secs` with the single probe the full walk would make, still
    /// sorts every time-clause entry onto the side of the backfill gate it
    /// was on. On success the round's reservations hold that probe, the
    /// ledger prefix is copied and counted as the suppressions it would
    /// have been; on any failure nothing is left changed and the walk
    /// starts at 0.
    fn resume_walk(&mut self, now_secs: f64, cluster: &Cluster, proof: &WalkProof) -> bool {
        if self.debug_hook == Some(DebugRoundHook::NoResume)
            || proof.version != cluster.version()
            || proof.usage_epoch != self.usage_epoch
            || proof.examined != self.scratch_verdicts.len()
        {
            return false;
        }
        if let Some((head, extra_gpus)) = &proof.head {
            // A stale timeline means a rebuild, which is the full walk's
            // to pay for and count.
            if self.timeline_version != Some(proof.version) {
                return false;
            }
            let slots = self.counters.slots;
            self.push_reservation(now_secs, head, cluster);
            let probed = self.scratch_reservations[0];
            let recheck = self.debug_hook != Some(DebugRoundHook::SkipPermittedRecheck);
            let holds = probed.extra_gpus == *extra_gpus
                && now_secs + proof.gate.min_denied_est > probed.shadow_secs
                && (!recheck || now_secs + proof.gate.max_permitted_est <= probed.shadow_secs);
            if !holds {
                self.counters.slots = slots;
                self.scratch_reservations.clear();
                return false;
            }
        }
        self.scratch_verdicts_next
            .extend_from_slice(&self.scratch_verdicts);
        let entries = proof.examined as u64;
        self.counters.skip_suppressions += entries;
        self.counters.walk_resumes += 1;
        self.counters.walk_resumed_entries += entries;
        #[cfg(debug_assertions)]
        self.debug_check_resumed(now_secs, cluster, proof);
        true
    }

    /// Debug oracle for a resumed round: re-derives, read-only, the
    /// verdict of every entry the round did not examine — the quota gate,
    /// the backfill gate against the re-probed reservation, and for an
    /// entry past both a non-committing placement — and asserts that each
    /// equals the ledger's and that none would have started.
    #[cfg(debug_assertions)]
    fn debug_check_resumed(&self, now_secs: f64, cluster: &Cluster, proof: &WalkProof) {
        if self.debug_hook.is_some() {
            return;
        }
        let probed = self.scratch_reservations.first();
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

    /// Computes the capacity reservation for a blocked request by probing
    /// the temporal planner, and appends it to the round's reservations.
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
    fn push_reservation(&mut self, now_secs: f64, request: &TaskRequest, cluster: &Cluster) {
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
        let reservation = self.timeline.probe(
            now_secs,
            request.total_gpus(),
            cluster.free_gpus(),
            &mut self.counters.slots,
        );
        self.scratch_reservations.push(reservation);
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

    /// Records a head-of-line skip for every not-yet-examined entry of the
    /// round-start queue (positions `from..`): under strict FIFO (no
    /// backfill) a blocked job stalls everything behind it.
    fn skip_tail(&mut self, queue: &[TaskRequest], from: usize, behind: JobId) {
        for (pos, request) in queue.iter().enumerate().skip(from) {
            let job = request.id;
            if self.skip_should_record(pos, job, SkipVerdict::HeadOfLine { behind }) {
                self.scratch_skips.push(JobSkip {
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
