//! The scheduling round — order, walk, apply: queue ordering, the
//! quota/backfill/placement walk over the round-start queue with its
//! wake-keyed verdicts, skip tracing per verdict change, and
//! reservations swept off the running set in release order.

use std::time::{Duration, Instant};

use tacc_cluster::{Cluster, ResourceVec};
use tacc_obs::{JobSkip, RoundTrace, SkipReason};
use tacc_workload::JobId;

use crate::backfill::{may_backfill, reserve, BackfillMode};
use crate::policy::{compare, PolicyKind};
use crate::request::{Decision, SchedOutcome, StartedTask, TaskRequest};
use crate::scheduler::{DebugRoundHook, GateFloor, Queued, Scheduler, SkipVerdict, Wait};

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
        // An empty queue can start or preempt nothing: only the epilogue
        // runs.
        if self.queue.is_empty() {
            self.counters.empty_rounds += 1;
        } else {
            let sorted = self.order(now_secs, cluster);
            let mut queue = std::mem::take(&mut self.queue);
            self.walk(now_secs, cluster, &mut queue, sorted, &mut outcome);
            self.queue = queue;
            self.apply_queue_edits();
        }
        self.finish_round(now_secs, round_start, queue_len_at_start, &outcome);
        outcome
    }

    /// The round's *order* step: sorts the queue under the configured
    /// policy — but only when the previous order can no longer be proven
    /// valid, which is what it returns — and resets the per-round buffers.
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
        let (policy, len) = (self.config.policy, self.queue.len());
        if sort_needed {
            self.sorted_capacity = cluster.total_capacity();
            let mut queue = std::mem::take(&mut self.queue);
            let ctx = self.policy_context();
            queue.sort_by(|a, b| compare(policy, now_secs, len, &a.request, &b.request, &ctx));
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
                    let ctx = self.policy_context();
                    compare(policy, now_secs, len, &w[0].request, &w[1].request, &ctx).is_lt()
                }),
                "sort-skip invariant violated: queue is not in sorted order"
            );
        }
        self.scratch_reservations.clear();
        self.scratch_skips.clear();
        sort_needed
    }

    /// The round's *walk* step: examines `queue` — the pending queue as it
    /// stood at round start, whose membership nothing edits while this
    /// runs — entry by entry against the live cluster: quota gate,
    /// backfill gate, placement. A start or an eviction changes the
    /// cluster, the quota table and the running set at once; what it
    /// means for the queue is recorded in `scratch_edits`. What the walk
    /// writes into the entries is their verdicts and wake stamps.
    ///
    /// Under EASY, behind an order that stood (`sorted == false`), an
    /// entry whose wait key has not moved keeps its verdict without its
    /// gates running (`skip_sleepers`). Every other walk judges every
    /// entry.
    fn walk(
        &mut self,
        now_secs: f64,
        cluster: &mut Cluster,
        queue: &mut [Queued],
        sorted: bool,
        outcome: &mut SchedOutcome,
    ) {
        let may_sleep = self.config.backfill == BackfillMode::Easy
            && !sorted
            && self.debug_hook != Some(DebugRoundHook::WakeAll);
        if self.walked_version != Some(cluster.version())
            && self.debug_hook != Some(DebugRoundHook::CapacityWakesNobody)
        {
            self.wake(Wait::Capacity, 0..self.config.group_count + 1);
        }
        let mut next = 0;
        while next < queue.len() {
            if may_sleep {
                next += self.skip_sleepers(now_secs, cluster, &queue[next..]);
                if next == queue.len() {
                    break;
                }
            }
            let pos = next;
            next += 1;
            let entry = &mut queue[pos];
            self.counters.walk_examined += 1;
            let request = entry.request;
            // 1. Quota gate.
            if !self.quota.admits(self.config.quota, &request) {
                entry.wake = self.stamp(Wait::Release, &request);
                self.file(now_secs, entry, SkipVerdict::Quota, |s| {
                    SkipReason::QuotaExhausted {
                        group: request.group,
                        used: s.quota.total_used(request.group),
                        quota: s.quota.quota(request.group),
                        demand: request.total_gpus(),
                    }
                });
                // Blocked on quota, not capacity: holds no capacity
                // reservation. Under no-backfill the queue is strictly
                // ordered, so later jobs stall behind it anyway.
                if self.config.backfill == BackfillMode::None {
                    self.skip_tail(now_secs, &mut queue[pos + 1..], request.id);
                    break;
                }
                continue;
            }

            // 2. Backfill gate (someone ahead is capacity-blocked).
            let backfilled = !self.scratch_reservations.is_empty();
            if backfilled {
                let (est_end, gpus) = (now_secs + request.est_secs, request.total_gpus());
                let reservations = &self.scratch_reservations;
                let permitted = match self.config.backfill {
                    BackfillMode::None => false,
                    BackfillMode::Easy => may_backfill(est_end, gpus, &reservations[0]),
                    BackfillMode::Conservative => {
                        reservations.iter().all(|r| may_backfill(est_end, gpus, r))
                    }
                };
                if !permitted {
                    entry.wake = self.stamp(Wait::Gate, &request);
                    self.gate_floor.fold(&request);
                    self.file(now_secs, entry, SkipVerdict::Backfill, |s| {
                        let reservations = &s.scratch_reservations;
                        let blocking = reservations
                            .iter()
                            .find(|r| !may_backfill(est_end, gpus, r))
                            .unwrap_or(&reservations[0]);
                        SkipReason::BackfillBlocked {
                            est_end_secs: est_end,
                            shadow_secs: blocking.shadow_secs,
                        }
                    });
                    if self.config.backfill == BackfillMode::Conservative {
                        self.push_reservation(now_secs, &request, cluster);
                    }
                    continue;
                }
            }

            // 3. Placement (with quota reclaim if allowed).
            match self.try_place(now_secs, &request, cluster, outcome) {
                Some(start) => {
                    if backfilled {
                        self.backfill_starts += 1;
                    }
                    outcome.decisions.push(Decision::Start(StartedTask {
                        backfilled,
                        ..start
                    }));
                }
                None => {
                    // Capacity-blocked.
                    entry.wake = self.stamp(Wait::Capacity, &request);
                    self.file(now_secs, entry, SkipVerdict::NoPlacement, |_| {
                        SkipReason::NoFeasiblePlacement {
                            workers: request.workers,
                            gpus_per_worker: request.per_worker.gpus,
                            free_gpus: cluster.free_gpus(),
                            largest_free_block: cluster.largest_free_block(),
                        }
                    });
                    match self.config.backfill {
                        BackfillMode::None => {
                            self.skip_tail(now_secs, &mut queue[pos + 1..], request.id);
                            break;
                        }
                        BackfillMode::Easy => {
                            if !backfilled {
                                self.reserve_for_head(now_secs, &request, cluster);
                            }
                        }
                        BackfillMode::Conservative => {
                            self.push_reservation(now_secs, &request, cluster);
                        }
                    }
                }
            }
        }
        self.walked_version = Some(cluster.version());
    }

    /// How many entries from the front of `queue` keep their verdict
    /// unjudged here: their key has not moved since they were judged, and
    /// the verdict holds at this place of the walk. The bulk takes one
    /// compare each — a quota verdict anywhere, a gate-denied one once the
    /// head has reserved (`reserve_for_head` tested the floor then). One
    /// placed nowhere is the head, whose reservation is pushed here, or
    /// behind it and still let through (such entries are few, so each is
    /// tested).
    fn skip_sleepers(&mut self, now_secs: f64, cluster: &Cluster, queue: &[Queued]) -> usize {
        let (gate_key, capacity_key) = (self.key(Wait::Gate, 0), self.key(Wait::Capacity, 0));
        let mut asleep = 0;
        loop {
            let limit = if self.scratch_reservations.is_empty() {
                gate_key
            } else {
                capacity_key
            };
            let moved = &self.moved;
            let run = queue[asleep..]
                .iter()
                .take_while(|e| {
                    let key = e.wake.key as usize;
                    key < limit && moved[key] <= e.wake.judged
                })
                .count();
            #[cfg(debug_assertions)]
            for entry in &queue[asleep..asleep + run] {
                self.debug_check_asleep(now_secs, cluster, entry);
            }
            asleep += run;
            let Some(entry) = queue.get(asleep).filter(|e| {
                let (key, request) = (e.wake.key as usize, &e.request);
                key >= capacity_key
                    && self.moved[key] <= e.wake.judged
                    && self.scratch_reservations.first().is_none_or(|r| {
                        may_backfill(now_secs + request.est_secs, request.total_gpus(), r)
                    })
            }) else {
                break;
            };
            #[cfg(debug_assertions)]
            self.debug_check_asleep(now_secs, cluster, entry);
            if self.scratch_reservations.is_empty() {
                self.reserve_for_head(now_secs, &entry.request, cluster);
            }
            asleep += 1;
        }
        self.counters.skip_suppressions += asleep as u64;
        asleep
    }

    /// Pushes EASY's one reservation, the head's. If it lets the gate
    /// floor through, every gate-denied entry behind the head wakes, and
    /// the floor starts over from what this walk denies.
    fn reserve_for_head(&mut self, now_secs: f64, head: &TaskRequest, cluster: &Cluster) {
        self.push_reservation(now_secs, head, cluster);
        if self.debug_hook != Some(DebugRoundHook::LoosenedGateWakesNobody)
            && !self
                .gate_floor
                .shut(now_secs, &self.scratch_reservations[0])
        {
            self.wake(Wait::Gate, 0..self.config.group_count + 1);
            self.gate_floor = GateFloor::EMPTY;
        }
    }

    /// The epilogue every round shares, walked or not: the round-latency
    /// observation and — unless the round was idle — its `RoundTrace`.
    fn finish_round(
        &mut self,
        now_secs: f64,
        round_start: Instant,
        queue_len_at_start: usize,
        outcome: &SchedOutcome,
    ) {
        let wall = round_start.elapsed();
        if let Some(round_latency) = &self.round_latency {
            round_latency.observe(wall.as_secs_f64());
        }
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

    /// Debug oracle for an entry the walk left asleep: re-derives its
    /// verdict read-only against the state at its place in the walk — the
    /// quota gate, the backfill gate against the round's reservation, and
    /// for an entry past both a non-committing placement — and asserts it
    /// is the verdict the entry holds. A wake the keys miss fails here.
    #[cfg(debug_assertions)]
    fn debug_check_asleep(&self, now_secs: f64, cluster: &Cluster, entry: &Queued) {
        if self.debug_hook.is_some() {
            return;
        }
        let request = &entry.request;
        let verdict =
            if !self.quota.admits(self.config.quota, request) {
                SkipVerdict::Quota
            } else if self.scratch_reservations.first().is_some_and(|r| {
                !may_backfill(now_secs + request.est_secs, request.total_gpus(), r)
            }) {
                SkipVerdict::Backfill
            } else {
                debug_assert!(
                    !self.would_start(request, cluster),
                    "{} slept through a start",
                    request.id
                );
                SkipVerdict::NoPlacement
            };
        debug_assert!(
            entry
                .verdict
                .is_some_and(|(_, held)| verdict.matches(&held)),
            "{} slept on {:?}; a walk judging it reaches {verdict:?}",
            request.id,
            entry.verdict
        );
    }

    /// Whether `try_place` would start `request` right now, decided
    /// without committing or counting anything: the elastic halvings
    /// against `cluster`, then the reclaim pre-check against a
    /// borrowers-evicted copy.
    #[cfg(debug_assertions)]
    fn would_start(&self, request: &TaskRequest, cluster: &Cluster) -> bool {
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
                    &self.borrowers_evicted(cluster),
                    request.workers,
                    request.per_worker,
                )
                .is_some()
    }

    /// Computes the capacity reservation for a blocked request by sweeping
    /// the running set in release order, and appends it to the round's
    /// reservations. Conservative backfill asks for one reservation per
    /// blocked job per round; each reads `releases` only as far as its
    /// demand needs.
    fn push_reservation(&mut self, now_secs: f64, request: &TaskRequest, cluster: &Cluster) {
        // Sampled oracle: the incrementally kept release order must equal
        // a fresh sort of the running set.
        #[cfg(debug_assertions)]
        if self.rounds.is_multiple_of(61) {
            debug_assert_eq!(
                self.releases,
                self.releases_recomputed(),
                "release order diverged from the running set"
            );
        }
        let reservation = reserve(
            now_secs,
            request.total_gpus(),
            cluster.free_gpus(),
            &self.releases,
            &self.window_steps,
            &mut self.counters.slots.intersections,
        );
        self.scratch_reservations.push(reservation);
    }

    /// Files `verdict` on `entry`. A verdict the entry already holds
    /// stands — it is counted as suppressed and its "since" does not
    /// move, wherever the entry now sits in the queue. A changed one is
    /// traced: `reason` is built only then (the quota totals, the blocking
    /// reservation), becomes what `why` answers, and joins the round's
    /// skips.
    fn file(
        &mut self,
        now_secs: f64,
        entry: &mut Queued,
        verdict: SkipVerdict,
        reason: impl FnOnce(&Self) -> SkipReason,
    ) {
        if entry
            .verdict
            .is_some_and(|(_, held)| verdict.matches(&held))
        {
            self.counters.skip_suppressions += 1;
            return;
        }
        self.counters.skip_records += 1;
        let reason = reason(self);
        entry.verdict = Some((now_secs, reason));
        self.scratch_skips.push(JobSkip {
            job: entry.request.id,
            reason,
        });
    }

    /// Files a head-of-line skip on every entry of `tail`, the rest of the
    /// round-start queue: under strict FIFO (no backfill) a blocked job
    /// stalls everything behind it.
    fn skip_tail(&mut self, now_secs: f64, tail: &mut [Queued], behind: JobId) {
        for entry in tail {
            self.file(now_secs, entry, SkipVerdict::HeadOfLine { behind }, |_| {
                SkipReason::HeadOfLineBlocked { behind }
            });
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
