//! The read model: everything `tcloud` asks the platform — status
//! snapshots, `why` explanations, artifacts, storage stats, per-job
//! logs — and the one function that answers a serializable
//! [`Query`] from them, [`Platform::answer`]. Nothing here mutates
//! platform state.

use std::fmt;
use std::sync::Arc;

use tacc_cluster::NodeId;
use tacc_workload::{GroupId, JobId, JobState};

use crate::platform::Platform;
use crate::wire::{obj, Json};

/// A snapshot of one job's lifecycle, as reported to clients.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// The job id.
    pub id: JobId,
    /// Lifecycle state.
    pub state: JobState,
    /// Task name: the schema's own, shared.
    pub name: Arc<str>,
    /// Nodes the job currently runs on (empty unless running).
    pub nodes: Vec<NodeId>,
    /// Submission time, seconds.
    pub submit_secs: f64,
    /// Remaining service time, seconds.
    pub remaining_secs: f64,
    /// Times preempted so far.
    pub preemptions: u32,
}

impl JobStatus {
    /// The snapshot's wire value. `state` is the stable lower-case name
    /// [`JobState::from_tag`] reads back.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("job", self.id.value().into()),
            ("state", self.state.to_string().into()),
            ("name", (*self.name).into()),
            (
                "nodes",
                Json::Arr(self.nodes.iter().map(|n| n.index().into()).collect()),
            ),
            ("submit_secs", Json::Num(self.submit_secs)),
            ("remaining_secs", Json::Num(self.remaining_secs)),
            ("preemptions", u64::from(self.preemptions).into()),
        ])
    }
}

/// An array of objects, one per item.
fn rows<T>(
    items: impl IntoIterator<Item = T>,
    fields: impl Fn(T) -> Vec<(&'static str, Json)>,
) -> Json {
    Json::Arr(items.into_iter().map(|item| obj(fields(item))).collect())
}

tacc_json::record! {
    #[json(tag = "kind", content = "job")]
    /// A read-only question about the platform, in serializable form — the
    /// read-side sibling of [`crate::Command`]: `{"kind":"status","job":7}`.
    /// What a `tcloud` verb sends, what the `taccd` socket carries, and what
    /// [`Platform::answer`] takes.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Query {
        /// One job's status snapshot.
        Status(JobId) = "status",
        /// Status snapshots for every job, in id order.
        List = "list",
        /// The event-bus records for one job.
        Events(JobId) = "events",
        /// Cluster overview.
        Info = "info",
        /// Prometheus text exposition.
        Metrics = "metrics",
        /// The transition log as JSONL, read off the event bus (the
        /// replay-equivalence probe).
        Transitions = "transitions",
        /// Journal counters. Answered by what holds a journal — the `taccd`
        /// engine; a bare platform has none.
        JournalStats = "journal",
        /// One job's log, aggregated across its nodes: its event-bus
        /// records, rendered.
        Logs(JobId) = "logs",
        /// One job's span timeline.
        Timeline(JobId) = "timeline",
        /// Why a job is where it is (for a waiting job, the scheduler's most
        /// recent skip reason).
        Why(JobId) = "why",
        /// The output files a job left on its nodes.
        Artifacts(JobId) = "artifacts",
        /// The cluster-wide goodput decomposition.
        Goodput = "goodput",
        /// Per-group quota and current usage.
        Quota = "quota",
        /// Per-node occupancy.
        Top = "top",
    }
}

impl Query {
    /// The job a per-job query asks about.
    pub fn job(&self) -> Option<JobId> {
        match *self {
            Query::Status(job)
            | Query::Events(job)
            | Query::Logs(job)
            | Query::Timeline(job)
            | Query::Why(job)
            | Query::Artifacts(job) => Some(job),
            _ => None,
        }
    }
}

/// Why a query has no answer here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum QueryError {
    /// The job id names no job this platform ever minted.
    UnknownJob(JobId),
    /// [`Query::JournalStats`] was put to a platform with no journal
    /// behind it.
    NoJournal,
}

impl QueryError {
    /// Stable wire tag for this error kind.
    pub fn kind(&self) -> &'static str {
        match self {
            QueryError::UnknownJob(_) => "unknown-job",
            QueryError::NoJournal => "no-journal",
        }
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnknownJob(id) => write!(f, "unknown job {}", id.value()),
            QueryError::NoJournal => f.write_str("this platform is not behind a journal"),
        }
    }
}

impl std::error::Error for QueryError {}

impl Platform {
    /// Answers one query from the typed accessors below: the reply
    /// payload every `tcloud` verb renders, whichever endpoint carried
    /// the question.
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownJob`] for a per-job query about a job never
    /// minted; [`QueryError::NoJournal`] for [`Query::JournalStats`].
    pub fn answer(&self, query: &Query) -> Result<Json, QueryError> {
        if let Some(job) = query.job() {
            self.jobs.get(job).ok_or(QueryError::UnknownJob(job))?;
        }
        Ok(match *query {
            Query::Status(job) => self
                .job_status(job)
                .ok_or(QueryError::UnknownJob(job))?
                .to_json(),
            Query::List => Json::Arr(
                self.job_ids()
                    .into_iter()
                    .filter_map(|id| self.job_status(id))
                    .map(|status| status.to_json())
                    .collect(),
            ),
            Query::Events(job) => obj(vec![
                // The bus is a bounded ring: once it has overflowed the
                // stream is incomplete, and the reader must be told.
                ("dropped", self.bus.dropped().into()),
                (
                    "events",
                    rows(self.job_events(job), |rec| {
                        vec![
                            ("seq", rec.seq.into()),
                            ("at_secs", Json::Num(rec.at_secs)),
                            ("kind", rec.event.kind().into()),
                            ("event", rec.event.to_string().into()),
                        ]
                    }),
                ),
            ]),
            Query::Info => obj(self.cluster_totals()),
            Query::Metrics => self.metrics_text().into(),
            Query::Transitions => self.transition_log_jsonl().into(),
            Query::JournalStats => return Err(QueryError::NoJournal),
            Query::Logs(job) => obj(vec![
                // Read from the same bounded ring as `Events`, with the
                // same warning owed.
                ("dropped", self.bus.dropped().into()),
                (
                    "lines",
                    rows(self.job_log(job), |(at, line)| {
                        vec![("at_secs", Json::Num(at)), ("line", line.into())]
                    }),
                ),
            ]),
            Query::Timeline(job) => rows(self.timeline(job), |span| {
                vec![
                    ("phase", span.phase.to_string().into()),
                    ("start_secs", Json::Num(span.start_secs)),
                    ("end_secs", Json::Num(span.end_secs)),
                    ("cause", span.cause.to_string().into()),
                    ("attribution", span.attribution().into()),
                ]
            }),
            Query::Why(job) => self.why(job).ok_or(QueryError::UnknownJob(job))?.into(),
            Query::Artifacts(job) => rows(self.job_artifacts(job), |(node, file, mb)| {
                vec![
                    ("node", node.index().into()),
                    ("file", file.into()),
                    ("mb", u64::from(mb).into()),
                ]
            }),
            Query::Goodput => self.goodput().to_json(),
            Query::Quota => {
                let table = self.scheduler.quota_table();
                rows(0..table.group_count(), |gi| {
                    let g = GroupId::from_index(gi);
                    vec![
                        ("group", gi.into()),
                        ("quota", u64::from(table.quota(g)).into()),
                        ("guaranteed", u64::from(table.guaranteed_used(g)).into()),
                        ("borrowed", u64::from(table.borrowed(g)).into()),
                    ]
                })
            }
            Query::Top => {
                let per_node = rows(self.cluster.nodes(), |node| {
                    vec![
                        ("node", node.id().index().into()),
                        ("rack", node.rack().index().into()),
                        ("gpu", node.gpu_model().to_string().into()),
                        ("used", u64::from(node.used().gpus).into()),
                        ("total", u64::from(node.capacity().gpus).into()),
                        ("leases", node.lease_count().into()),
                    ]
                });
                let mut top = self.cluster_totals();
                top.push(("per_node", per_node));
                obj(top)
            }
        })
    }

    /// What `info` reports, and `top` under its per-node rows.
    fn cluster_totals(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("now_secs", Json::Num(self.now().as_secs())),
            ("nodes", self.cluster.node_count().into()),
            ("total_gpus", u64::from(self.cluster.total_gpus()).into()),
            ("free_gpus", u64::from(self.cluster.free_gpus()).into()),
            ("queued", self.scheduler.queue_len().into()),
            ("running", self.scheduler.running_len().into()),
            ("jobs", self.job_count().into()),
        ]
    }

    /// Client-facing status snapshot of a job.
    pub fn job_status(&self, id: JobId) -> Option<JobStatus> {
        let slot = self.jobs.get(id)?;
        let job = &slot.job;
        // While a job runs, `last_nodes` is its current run's nodes.
        let nodes = match slot.active {
            Some(_) => slot.last_nodes.clone(),
            None => Vec::new(),
        };
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
    /// lifecycle transition its retained bus records stand for (falling
    /// back to its last record when none does).
    pub fn why(&self, id: JobId) -> Option<String> {
        let job = &self.jobs.get(id)?.job;
        match job.state() {
            JobState::Submitted => {
                Some("provisioning: the compiler layer is preparing the task".to_owned())
            }
            JobState::Queued | JobState::Preempted => match self.scheduler.latest_skip(id) {
                Some((at, reason)) => Some(format!("waiting since t={at:.0}s: {reason}")),
                None => Some("queued: no scheduling round has evaluated it yet".to_owned()),
            },
            JobState::Running | JobState::Completed | JobState::Failed | JobState::Cancelled => {
                match self.transitions(id).last() {
                    Some(r) => Some(format!(
                        "t={:.0}s: {} \u{2192} {} ({})",
                        r.at_secs, r.from, r.to, r.event
                    )),
                    None => match self.bus.for_job(id).last() {
                        Some(rec) => Some(format!("t={:.0}s: {}", rec.at_secs, rec.event)),
                        None => Some(job.state().to_string()),
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

    /// The platform-side log of a job (what `tcloud logs` aggregates):
    /// its retained bus events, rendered through `Display`.
    pub fn job_log(&self, id: JobId) -> Vec<(f64, String)> {
        let events = self.job_events(id).into_iter();
        events.map(|r| (r.at_secs, r.event.to_string())).collect()
    }
}
