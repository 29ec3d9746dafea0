//! The command side of the event-sourced platform: every external
//! mutation of a [`Platform`] — a `tcloud` submission, a cancel, an
//! operator drain, a fault injection, a reservation, a time advance —
//! is a serializable [`Command`] applied through one entry point,
//! [`Platform::apply_command`].
//!
//! The split matters for service mode: the `taccd` daemon validates and
//! timestamps commands into a write-ahead journal *before* applying
//! them, and crash recovery replays the journal through the very same
//! `apply_record` path. Because the platform is deterministic, a replay
//! of the journalled command stream byte-reproduces the lifecycle
//! engine's transition log. Internal DES events
//! ([`crate::platform::Event`]) are what the platform schedules for
//! itself — commands are the *external* ingestion surface layered on top
//! of them, and a trace is a command stream read ahead of time
//! ([`command_stream`]).

use tacc_cluster::NodeId;
use tacc_sched::CapacityWindow;
use tacc_sim::SimTime;
use tacc_workload::{JobId, TaskSchema, Trace, TraceRecord};

use std::fmt;
use std::sync::Arc;

use crate::platform::Platform;
use crate::wire::Json;

tacc_json::record! {
    #[json(tag = "kind")]
    /// An external request to mutate the platform, in serializable form:
    /// `{"kind":"cancel","job":7}`.
    ///
    /// Commands are what clients send and what the `taccd` journal stores;
    /// they are validated (`apply_command` rejects malformed ones with a
    /// typed [`CommandError`]) and deterministic to apply at a given
    /// simulation time.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Command {
        /// Submit a task at the current platform time.
        Submit {
            /// Oracle service requirement in seconds (ideal-execution time).
            service_secs: f64,
            /// The task schema, shared with the job it becomes.
            schema: Arc<TaskSchema>,
        } = "submit",
        /// Cancel a job (no-op if it already reached a terminal state).
        Cancel {
            /// The job to cancel.
            job: JobId,
        } = "cancel",
        /// Reserve GPU capacity in advance: withhold `gpus` from the
        /// scheduler's availability profile over `[from_secs, until_secs)`.
        Reserve {
            /// GPUs to withhold.
            gpus: u32,
            /// Window start, seconds (absolute platform time).
            from_secs: f64,
            /// Window end, seconds (`f64::INFINITY` for open-ended).
            until_secs: f64,
        } = "reserve",
        /// Inject a fault on a node: every run currently placed there takes
        /// a node-failure hit (failover or fail, per policy).
        FaultNode {
            /// Node index.
            node: u32,
        } = "fault-node",
        /// Drain a node for maintenance (running leases finish, nothing new
        /// is placed).
        Drain {
            /// Node index.
            node: u32,
        } = "drain",
        /// Return a drained node to service.
        Undrain {
            /// Node index.
            node: u32,
        } = "undrain",
        /// Advance the platform clock by `secs`, processing due events.
        Advance {
            /// Seconds to advance (non-negative, finite).
            secs: f64,
        } = "advance",
    }
}

tacc_json::record! {
    /// One journalled command: the command plus the daemon-assigned sequence
    /// number and timestamp. Replaying records in sequence order through
    /// [`Platform::apply_record`] reconstructs the exact platform state.
    ///
    /// Its text (`write_json`) is the `taccd` journal's frame payload, and
    /// `from_text` the journal's decoder.
    #[derive(Debug, Clone, PartialEq)]
    pub struct CommandRecord {
        /// Monotone journal sequence number (0-based).
        pub seq: u64,
        /// Platform time the command was applied at, seconds.
        pub at_secs: f64,
        /// The command itself.
        pub command: Command,
    }
}

/// What applying a command did.
#[derive(Debug, Clone, PartialEq)]
pub enum CommandOutcome {
    /// A job was minted for the submission.
    Submitted {
        /// The new job's id.
        job: JobId,
    },
    /// Cancellation was delivered. `applied` is `false` when the job had
    /// already reached a terminal state (cancel is then a no-op).
    Cancelled {
        /// The cancelled job.
        job: JobId,
        /// Whether the job actually left the system because of this.
        applied: bool,
    },
    /// The reservation window was registered with the planner.
    Reserved,
    /// The node fault was delivered; `jobs` are the runs it hit.
    NodeFaulted {
        /// The faulted node.
        node: NodeId,
        /// Jobs whose active run was on the node, in id order.
        jobs: Vec<JobId>,
    },
    /// The node is now draining.
    Drained {
        /// The drained node.
        node: NodeId,
    },
    /// The node is back in service.
    Undrained {
        /// The restored node.
        node: NodeId,
    },
    /// The clock advanced; `now_secs` is the new platform time.
    Advanced {
        /// Platform time after the advance, seconds.
        now_secs: f64,
    },
}

impl CommandOutcome {
    /// The acknowledgement a client receives: the record's sequence
    /// number and stamp, then what applying it did. Its fields go into
    /// one `Vec` sized for the largest outcome, so the ack allocates that
    /// and each key and string it holds, and nothing it throws away.
    pub fn to_json(&self, seq: u64, at_secs: f64) -> Json {
        let mut fields = Vec::with_capacity(5);
        let mut push = |key: &str, value: Json| fields.push((key.to_owned(), value));
        push("seq", seq.into());
        push("at_secs", Json::Num(at_secs));
        let job = |job: &JobId| Json::from(job.value());
        let node = |node: &NodeId| Json::from(node.index());
        match self {
            CommandOutcome::Submitted { job: id } => {
                push("outcome", "submitted".into());
                push("job", job(id));
            }
            CommandOutcome::Cancelled { job: id, applied } => {
                push("outcome", "cancelled".into());
                push("job", job(id));
                push("applied", (*applied).into());
            }
            CommandOutcome::Reserved => push("outcome", "reserved".into()),
            CommandOutcome::NodeFaulted { node: at, jobs } => {
                push("outcome", "node-faulted".into());
                push("node", node(at));
                push("jobs", Json::Arr(jobs.iter().map(job).collect()));
            }
            CommandOutcome::Drained { node: at } => {
                push("outcome", "drained".into());
                push("node", node(at));
            }
            CommandOutcome::Undrained { node: at } => {
                push("outcome", "undrained".into());
                push("node", node(at));
            }
            CommandOutcome::Advanced { now_secs } => {
                push("outcome", "advanced".into());
                push("now_secs", Json::Num(*now_secs));
            }
        }
        Json::Obj(fields)
    }
}

/// Why a command was rejected. Every variant is a client error: the
/// platform state is unchanged and the command must not be journalled.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CommandError {
    /// The task schema failed validation (or the service time is not a
    /// positive finite number, or the group is outside the roster).
    InvalidTask(String),
    /// The job id names no job this platform ever minted.
    UnknownJob(JobId),
    /// The node index is outside the cluster.
    UnknownNode(u32),
    /// The reservation window is malformed (zero/oversized GPU count,
    /// non-finite start, or an end not after the start).
    InvalidReservation(String),
    /// A record's timestamp is earlier than the platform clock — the
    /// journal is corrupt or out of order.
    TimeRegression {
        /// Current platform time, seconds.
        now_secs: f64,
        /// The offending record timestamp, seconds.
        at_secs: f64,
    },
    /// The advance amount is negative, NaN or infinite.
    InvalidAdvance(f64),
}

impl CommandError {
    /// Stable wire tag for this error kind.
    pub fn kind(&self) -> &'static str {
        match self {
            CommandError::InvalidTask(_) => "invalid-task",
            CommandError::UnknownJob(_) => "unknown-job",
            CommandError::UnknownNode(_) => "unknown-node",
            CommandError::InvalidReservation(_) => "invalid-reservation",
            CommandError::TimeRegression { .. } => "time-regression",
            CommandError::InvalidAdvance(_) => "invalid-advance",
        }
    }
}

impl fmt::Display for CommandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommandError::InvalidTask(why) => write!(f, "invalid task: {why}"),
            CommandError::UnknownJob(id) => write!(f, "unknown job {id}"),
            CommandError::UnknownNode(n) => write!(f, "unknown node index {n}"),
            CommandError::InvalidReservation(why) => write!(f, "invalid reservation: {why}"),
            CommandError::TimeRegression { now_secs, at_secs } => write!(
                f,
                "time regression: record stamped t={at_secs}s but the platform is at t={now_secs}s"
            ),
            CommandError::InvalidAdvance(secs) => {
                write!(
                    f,
                    "invalid advance of {secs}s: must be finite and non-negative"
                )
            }
        }
    }
}

impl std::error::Error for CommandError {}

/// `trace` as the command stream that replays it: a `Submit` stamped at
/// each record's `submit_secs` and, for a record the user kills, a
/// `Cancel` stamped `cancel_after_secs` later — in time order, a submit
/// ahead of a cancel stamped the same instant, `seq` dense from 0.
///
/// A `Cancel` names its job by the record's position in the trace, so
/// the stream is valid on a platform that has minted no job and admits
/// every record. There, feeding it through [`Platform::apply_record`]
/// and running to idle is [`Platform::run_trace`]: same rounds, same
/// transition log, same event stream, same report.
pub fn command_stream(trace: &Trace) -> Vec<CommandRecord> {
    let mut stamped: Vec<(f64, Command)> = Vec::with_capacity(trace.len());
    for (position, record) in trace.records().iter().enumerate() {
        stamped.push((
            record.submit_secs,
            Command::Submit {
                schema: Arc::clone(&record.schema),
                service_secs: record.service_secs,
            },
        ));
        if let Some(after) = record.cancel_after_secs {
            let job = JobId::from_value(position as u64);
            stamped.push((record.submit_secs + after, Command::Cancel { job }));
        }
    }
    // Stable, so equal stamps keep trace order within a kind.
    stamped.sort_by(|(a, x), (b, y)| {
        let cancel = |c: &Command| matches!(c, Command::Cancel { .. });
        a.total_cmp(b).then(cancel(x).cmp(&cancel(y)))
    });
    stamped
        .into_iter()
        .zip(0..)
        .map(|((at_secs, command), seq)| CommandRecord {
            seq,
            at_secs,
            command,
        })
        .collect()
}

impl Platform {
    /// Applies one command at the current platform time.
    ///
    /// This is the single external-ingestion entry point: the library
    /// `tcloud` client, the `taccd` daemon and journal replay all funnel
    /// through here, so a client session, live operation and crash
    /// recovery take literally the same code path.
    ///
    /// # Errors
    ///
    /// A typed [`CommandError`] when validation fails; the platform is
    /// unchanged in that case.
    pub fn apply_command(&mut self, command: &Command) -> Result<CommandOutcome, CommandError> {
        match command {
            Command::Submit {
                schema,
                service_secs,
            } => {
                let record = TraceRecord {
                    submit_secs: self.clock.now().as_secs(),
                    schema: Arc::clone(schema),
                    service_secs: *service_secs,
                    cancel_after_secs: None,
                };
                let job = self.admit(record)?;
                Ok(CommandOutcome::Submitted { job })
            }
            Command::Cancel { job } => {
                if self.jobs.get(*job).is_none() {
                    return Err(CommandError::UnknownJob(*job));
                }
                let applied = self.cancel_job(*job);
                Ok(CommandOutcome::Cancelled { job: *job, applied })
            }
            Command::Reserve {
                gpus,
                from_secs,
                until_secs,
            } => {
                let total = self.cluster.total_gpus();
                if *gpus == 0 || *gpus > total {
                    return Err(CommandError::InvalidReservation(format!(
                        "{gpus} GPUs (cluster has {total})"
                    )));
                }
                if !from_secs.is_finite() || *from_secs < 0.0 {
                    return Err(CommandError::InvalidReservation(format!(
                        "start t={from_secs}s must be finite and non-negative"
                    )));
                }
                // NaN ends must land in the error arm too, so compare
                // via partial_cmp rather than a negated `>`.
                if until_secs.partial_cmp(from_secs) != Some(std::cmp::Ordering::Greater) {
                    return Err(CommandError::InvalidReservation(format!(
                        "end t={until_secs}s must be after start t={from_secs}s"
                    )));
                }
                self.scheduler.reserve_capacity(CapacityWindow {
                    gpus: *gpus,
                    from_secs: *from_secs,
                    until_secs: *until_secs,
                });
                // The availability profile changed; backfill shadows may
                // now block (or unblock) differently.
                self.run_round();
                Ok(CommandOutcome::Reserved)
            }
            Command::FaultNode { node } => {
                if (*node as usize) >= self.cluster.node_count() {
                    return Err(CommandError::UnknownNode(*node));
                }
                let node = NodeId::from_index(*node as usize);
                let jobs = self.fault_node(node);
                Ok(CommandOutcome::NodeFaulted { node, jobs })
            }
            Command::Drain { node } => {
                if (*node as usize) >= self.cluster.node_count() {
                    return Err(CommandError::UnknownNode(*node));
                }
                let node = NodeId::from_index(*node as usize);
                self.cluster.drain(node);
                Ok(CommandOutcome::Drained { node })
            }
            Command::Undrain { node } => {
                if (*node as usize) >= self.cluster.node_count() {
                    return Err(CommandError::UnknownNode(*node));
                }
                let node = NodeId::from_index(*node as usize);
                self.cluster.undrain(node);
                self.run_round();
                Ok(CommandOutcome::Undrained { node })
            }
            Command::Advance { secs } => {
                if !(secs.is_finite() && *secs >= 0.0) {
                    return Err(CommandError::InvalidAdvance(*secs));
                }
                let until = self.clock.now() + tacc_sim::SimDuration::from_secs(*secs);
                self.run_until(until);
                Ok(CommandOutcome::Advanced {
                    now_secs: self.clock.now().as_secs(),
                })
            }
        }
    }

    /// Replays one journalled record: advances the clock to the record's
    /// timestamp (processing any due DES events), then applies the
    /// command — exactly what the daemon did when it first accepted it.
    ///
    /// # Errors
    ///
    /// [`CommandError::TimeRegression`] when the record is stamped
    /// before the current platform time (a corrupt or reordered
    /// journal), or any validation error from
    /// [`Platform::apply_command`].
    pub fn apply_record(&mut self, record: &CommandRecord) -> Result<CommandOutcome, CommandError> {
        let now = self.clock.now().as_secs();
        if record.at_secs < now {
            return Err(CommandError::TimeRegression {
                now_secs: now,
                at_secs: record.at_secs,
            });
        }
        self.run_until(SimTime::from_secs(record.at_secs));
        self.apply_command(&record.command)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;
    use crate::PlatformConfig;
    use tacc_json::Cursor;
    use tacc_workload::{GroupId, ModelProfile, QosClass, RuntimeEnv};

    fn schema() -> TaskSchema {
        TaskSchema::builder("cmd-unit", GroupId::from_index(0))
            .workers(2)
            .qos(QosClass::BestEffort)
            .model(ModelProfile::gpt2_like())
            .env(RuntimeEnv {
                image: "pytorch-2.1-cuda12".into(),
                dependencies: Arc::new([("torch".into(), 800)]),
                dataset: Some(("imagenet".into(), 5000)),
                code_mb: 7,
            })
            .build()
            .expect("valid schema")
    }

    /// The journal encoding, pinned by a literal: this text was captured
    /// from the encoder before the schema codec moved into
    /// `tacc-workload`, and a journal any earlier build wrote must keep
    /// decoding to the same record.
    #[test]
    fn submit_record_encoding_is_pinned() {
        const TEXT: &str = r#"{"seq":42,"at_secs":1234.0625,"command":{"kind":"submit","service_secs":0.1,"schema":{"name":"pin \"quoted\" é","group":3,"workers":4,"resources":{"gpus":8,"cpu_cores":64,"mem_gb":512},"qos":"best-effort","task_kind":"training","runtime":"all-reduce","env":{"image":"pytorch-2.1-cuda12","dependencies":[["torch",800]],"dataset":["imagenet",5000],"code_mb":7},"est_duration_secs":5400.5,"model":{"param_mb":1500,"compute_secs_per_iter":1.2},"elastic":true}}}"#;
        let schema = TaskSchema::builder("pin \"quoted\" é", GroupId::from_index(3))
            .workers(4)
            .resources(tacc_cluster::ResourceVec {
                gpus: 8,
                cpu_cores: 64,
                mem_gb: 512,
            })
            .qos(QosClass::BestEffort)
            .runtime(tacc_workload::RuntimePreference::AllReduce)
            .model(ModelProfile::gpt2_like())
            .env(RuntimeEnv {
                image: "pytorch-2.1-cuda12".into(),
                dependencies: Arc::new([("torch".into(), 800)]),
                dataset: Some(("imagenet".into(), 5000)),
                code_mb: 7,
            })
            .est_duration_secs(5400.5)
            .elastic(true)
            .build()
            .expect("valid schema");
        let record = CommandRecord {
            seq: 42,
            at_secs: 1234.0625,
            command: Command::Submit {
                schema: schema.into(),
                service_secs: 0.1,
            },
        };
        assert_eq!(record.to_json().to_string(), TEXT);
        let mut streamed = String::new();
        record.write_json(&mut streamed);
        assert_eq!(streamed, TEXT);
        let back = CommandRecord::from_json(&wire::parse(TEXT).expect("parses"));
        assert_eq!(back, Ok(record));
    }

    /// The journal's streaming encoder and the tree writer spell one
    /// shape: every command kind, under names and numbers chosen to be
    /// awkward for an escaper and a number printer. The journal's decoder
    /// ([`CommandRecord::from_text`]) reads that text — and copies of it
    /// cut short, with a byte dropped or with a byte swapped for one that
    /// means something in JSON — exactly as the tree reader does.
    #[test]
    fn streamed_records_equal_the_tree_writers() {
        const NAMES: &[&str] = &[
            "plain",
            "",
            "qu\"ote",
            "back\\slash",
            "trailing\\",
            "ctl\u{0}\u{1}\n\r\t\u{1f}",
            "é→\u{1f600}",
            "inf",
            "-inf",
            "nan",
        ];
        const FLOATS: &[f64] = &[
            0.0,
            -0.0,
            0.1,
            -1234.0625,
            600.0,
            1e21,
            9_007_199_254_740_992.0,
            9_007_199_254_740_994.0,
            5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        fn draw(rng: &mut tacc_sim::DetRng, n: usize) -> usize {
            (rng.next_u64() % n as u64) as usize
        }
        let rng = &mut tacc_sim::DetRng::seed_from_u64(0x5712_EA4D);
        let mut read_straight = 0;
        for case in 0..2_100 {
            let name = format!(
                "{}{}",
                NAMES[draw(rng, NAMES.len())],
                NAMES[draw(rng, NAMES.len())]
            );
            let pair = (Arc::<str>::from(name.as_str()), draw(rng, 1 << 20) as u32);
            let command = match case % 7 {
                0 => Command::Submit {
                    schema: TaskSchema {
                        name: name.into(),
                        group: GroupId::from_index(draw(rng, 4096)),
                        workers: draw(rng, 512) as u32,
                        resources: tacc_cluster::ResourceVec {
                            gpus: draw(rng, 9) as u32,
                            cpu_cores: draw(rng, 256) as u32,
                            mem_gb: draw(rng, 4096) as u32,
                        },
                        qos: [QosClass::Guaranteed, QosClass::BestEffort][draw(rng, 2)],
                        kind: [
                            tacc_workload::TaskKind::Training,
                            tacc_workload::TaskKind::Interactive,
                            tacc_workload::TaskKind::Inference,
                            tacc_workload::TaskKind::CpuBatch,
                        ][draw(rng, 4)],
                        runtime: [
                            tacc_workload::RuntimePreference::Auto,
                            tacc_workload::RuntimePreference::AllReduce,
                            tacc_workload::RuntimePreference::ParameterServer,
                            tacc_workload::RuntimePreference::InNetworkAggregation,
                            tacc_workload::RuntimePreference::SingleProcess,
                        ][draw(rng, 5)],
                        env: RuntimeEnv {
                            image: NAMES[draw(rng, NAMES.len())].into(),
                            dependencies: vec![pair.clone(); draw(rng, 3)].into(),
                            dataset: (draw(rng, 2) == 0).then_some(pair),
                            code_mb: draw(rng, 64) as u32,
                        },
                        est_duration_secs: FLOATS[draw(rng, FLOATS.len())],
                        model: (draw(rng, 3) > 0).then(|| ModelProfile {
                            param_mb: FLOATS[draw(rng, FLOATS.len())],
                            compute_secs_per_iter: FLOATS[draw(rng, FLOATS.len())],
                        }),
                        elastic: draw(rng, 2) == 0,
                    }
                    .into(),
                    service_secs: FLOATS[draw(rng, FLOATS.len())],
                },
                1 => Command::Cancel {
                    job: JobId::from_value(rng.next_u64() >> (case % 64)),
                },
                2 => Command::Reserve {
                    gpus: draw(rng, 1 << 16) as u32,
                    from_secs: FLOATS[draw(rng, FLOATS.len())],
                    until_secs: FLOATS[draw(rng, FLOATS.len())],
                },
                3 => Command::FaultNode {
                    node: draw(rng, 1 << 16) as u32,
                },
                4 => Command::Drain { node: u32::MAX },
                5 => Command::Undrain { node: 0 },
                _ => Command::Advance {
                    secs: FLOATS[draw(rng, FLOATS.len())],
                },
            };
            let record = CommandRecord {
                seq: rng.next_u64() >> (case % 64),
                at_secs: FLOATS[draw(rng, FLOATS.len())],
                command,
            };
            let mut streamed = String::new();
            record.write_json(&mut streamed);
            assert_eq!(streamed, record.to_json().to_string(), "case {case}");
            let mut framed = Vec::new();
            record.write_json(&mut framed);
            assert_eq!(framed, streamed.as_bytes(), "case {case}: byte sink");

            // Debug text, so that a NaN reads back equal to itself.
            let tree = |text: &str| {
                let value = wire::parse(text).map_err(|e| e.to_string());
                format!("{:?}", value.and_then(|v| CommandRecord::from_json(&v)))
            };
            let read = |text: &str| format!("{:?}", CommandRecord::from_text(text));
            let mut cursor = Cursor::new(&streamed);
            if CommandRecord::read_json(&mut cursor).is_some() && cursor.at_end() {
                read_straight += 1;
            }
            const SWAPS: &[u8] = b"0123456789.-+eE\"\\,:{}[] ntfalsu";
            let at = draw(rng, framed.len());
            let mut swapped = framed.clone();
            swapped[at] = SWAPS[draw(rng, SWAPS.len())];
            let mut dropped = framed.clone();
            dropped.remove(at);
            for damaged in [&framed[..], &framed[..at], &swapped, &dropped] {
                if let Ok(text) = std::str::from_utf8(damaged) {
                    assert_eq!(read(text), tree(text), "case {case}: {text}");
                }
            }
        }
        // Names with escapes, ids past 2^53 and the like go the tree's
        // way; the rest must not.
        assert!(read_straight > 1_000, "{read_straight} read without a tree");
    }

    #[test]
    fn malformed_commands_are_rejected() {
        for text in [
            "{}",
            "{\"kind\":\"warp\"}",
            "{\"kind\":\"cancel\"}",
            "{\"kind\":\"cancel\",\"job\":-1}",
            "{\"kind\":\"submit\",\"service_secs\":10}",
            "{\"kind\":\"reserve\",\"gpus\":8,\"from_secs\":0}",
        ] {
            let v = wire::parse(text).expect("valid JSON");
            assert!(Command::from_json(&v).is_err(), "accepted {text}");
        }
    }

    #[test]
    fn apply_command_submit_cancel_advance() {
        let mut p = Platform::new(PlatformConfig::default());
        let out = p
            .apply_command(&Command::Submit {
                schema: schema().into(),
                service_secs: 600.0,
            })
            .expect("submits");
        let CommandOutcome::Submitted { job } = out else {
            panic!("expected Submitted, got {out:?}");
        };
        p.apply_command(&Command::Advance { secs: 30.0 })
            .expect("advances");
        let out = p.apply_command(&Command::Cancel { job }).expect("cancels");
        assert!(matches!(out, CommandOutcome::Cancelled { .. }));
        // Unknown job is a typed error.
        let err = p
            .apply_command(&Command::Cancel {
                job: JobId::from_value(999),
            })
            .expect_err("unknown job");
        assert_eq!(err.kind(), "unknown-job");
    }

    /// The acknowledgements, as the parent's engine wrote them.
    #[test]
    fn acknowledgements_are_pinned() {
        let (job, node) = (JobId::from_value(4), NodeId::from_index(2));
        let acks = [
            (
                CommandOutcome::Submitted { job },
                r#""outcome":"submitted","job":4}"#,
            ),
            (
                CommandOutcome::Cancelled {
                    job,
                    applied: false,
                },
                r#""outcome":"cancelled","job":4,"applied":false}"#,
            ),
            (CommandOutcome::Reserved, r#""outcome":"reserved"}"#),
            (
                CommandOutcome::NodeFaulted {
                    node,
                    jobs: vec![job],
                },
                r#""outcome":"node-faulted","node":2,"jobs":[4]}"#,
            ),
            (
                CommandOutcome::Drained { node },
                r#""outcome":"drained","node":2}"#,
            ),
            (
                CommandOutcome::Undrained { node },
                r#""outcome":"undrained","node":2}"#,
            ),
            (
                CommandOutcome::Advanced { now_secs: 90.5 },
                r#""outcome":"advanced","now_secs":90.5}"#,
            ),
        ];
        for (outcome, rest) in acks {
            let text = outcome.to_json(9, 1.5).to_string();
            assert_eq!(text, format!(r#"{{"seq":9,"at_secs":1.5,{rest}"#));
        }
    }

    #[test]
    fn apply_command_validates() {
        let mut p = Platform::new(PlatformConfig::default());
        let mut bad = schema();
        bad.workers = 0;
        assert_eq!(
            p.apply_command(&Command::Submit {
                schema: bad.into(),
                service_secs: 10.0
            })
            .expect_err("invalid")
            .kind(),
            "invalid-task"
        );
        let mut foreign = schema();
        foreign.group = GroupId::from_index(4096);
        assert_eq!(
            p.apply_command(&Command::Submit {
                schema: foreign.into(),
                service_secs: 10.0
            })
            .expect_err("bad group")
            .kind(),
            "invalid-task"
        );
        assert_eq!(
            p.apply_command(&Command::Reserve {
                gpus: 0,
                from_secs: 0.0,
                until_secs: 10.0
            })
            .expect_err("zero gpus")
            .kind(),
            "invalid-reservation"
        );
        assert_eq!(
            p.apply_command(&Command::FaultNode { node: 9999 })
                .expect_err("bad node")
                .kind(),
            "unknown-node"
        );
        assert_eq!(
            p.apply_command(&Command::Advance { secs: -1.0 })
                .expect_err("negative advance")
                .kind(),
            "invalid-advance"
        );
    }

    #[test]
    fn replayed_records_byte_reproduce_transitions() {
        let records = vec![
            CommandRecord {
                seq: 0,
                at_secs: 0.0,
                command: Command::Submit {
                    schema: schema().into(),
                    service_secs: 120.0,
                },
            },
            CommandRecord {
                seq: 1,
                at_secs: 5.0,
                command: Command::Submit {
                    schema: schema().into(),
                    service_secs: 240.0,
                },
            },
            CommandRecord {
                seq: 2,
                at_secs: 50.0,
                command: Command::Reserve {
                    gpus: 16,
                    from_secs: 100.0,
                    until_secs: 200.0,
                },
            },
            CommandRecord {
                seq: 3,
                at_secs: 600.0,
                command: Command::Advance { secs: 60.0 },
            },
        ];
        let run = |records: &[CommandRecord]| {
            let mut p = Platform::new(PlatformConfig::default());
            for r in records {
                p.apply_record(r).expect("applies");
            }
            p.transition_log_jsonl()
        };
        assert_eq!(run(&records), run(&records));
    }

    #[test]
    fn apply_record_rejects_time_regression() {
        let mut p = Platform::new(PlatformConfig::default());
        p.apply_command(&Command::Advance { secs: 100.0 })
            .expect("advances");
        let err = p
            .apply_record(&CommandRecord {
                seq: 0,
                at_secs: 50.0,
                command: Command::Advance { secs: 0.0 },
            })
            .expect_err("regression");
        assert_eq!(err.kind(), "time-regression");
    }

    #[test]
    fn fault_node_command_hits_running_jobs() {
        let mut p = Platform::new(PlatformConfig::default());
        let out = p
            .apply_command(&Command::Submit {
                schema: schema().into(),
                service_secs: 3600.0,
            })
            .expect("submits");
        let CommandOutcome::Submitted { job } = out else {
            panic!("expected Submitted");
        };
        // Let compilation finish and the job start.
        p.apply_command(&Command::Advance { secs: 600.0 })
            .expect("advances");
        let nodes = p.job_status(job).expect("status").nodes;
        assert!(!nodes.is_empty(), "job should be running");
        let out = p
            .apply_command(&Command::FaultNode {
                node: u32::try_from(nodes[0].index()).expect("small index"),
            })
            .expect("faults");
        let CommandOutcome::NodeFaulted { jobs, .. } = out else {
            panic!("expected NodeFaulted");
        };
        assert!(jobs.contains(&job));
    }
}
