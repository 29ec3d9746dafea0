//! Trace files: the serializable record of a workload.

use std::sync::Arc;

use tacc_json::{obj, Json};
use tacc_metrics::{Cdf, Summary};

use crate::schema::TaskSchema;

tacc_json::record! {
    /// One submission in a trace: when, what, and how long it would truly run.
    ///
    /// `service_secs` is the oracle service requirement used by the execution
    /// model; schedulers only ever see `schema.est_duration_secs`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct TraceRecord {
        /// Submission time in seconds from trace start.
        pub submit_secs: f64,
        /// The full, self-contained task schema. Immutable once submitted,
        /// therefore shared: the record, the `submit` command that carries it
        /// and the job it becomes all hold this one allocation.
        pub schema: Arc<TaskSchema>,
        /// True service requirement in seconds.
        pub service_secs: f64,
        /// If set, the user kills this job this many seconds after submitting
        /// it (campus traces show a sizeable cancelled fraction).
        pub cancel_after_secs: Option<f64>,
    }
}

impl TraceRecord {
    /// Checks what the platform requires of a submission before it mints
    /// a job for it: a finite submission time, a valid schema, a positive
    /// finite service time and a finite non-negative cancellation delay.
    /// The one definition both ways in share — a trace file read by
    /// [`Trace::from_json`] and a `submit` command.
    ///
    /// # Errors
    ///
    /// A description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if !self.submit_secs.is_finite() {
            return Err(format!("submit time {}s is not finite", self.submit_secs));
        }
        self.schema.validate()?;
        if !(self.service_secs > 0.0 && self.service_secs.is_finite()) {
            return Err(format!(
                "service time {}s must be positive and finite",
                self.service_secs
            ));
        }
        match self.cancel_after_secs {
            Some(after) if !(after >= 0.0 && after.is_finite()) => Err(format!(
                "cancellation delay {after}s must be finite and non-negative"
            )),
            _ => Ok(()),
        }
    }
}

/// A workload trace: submissions ordered by time.
///
/// Serializable to JSON so traces can be saved, shared and replayed — the
/// workload-side counterpart of the paper's reproducible task execution.
///
/// # Example
///
/// ```
/// use tacc_workload::{GenParams, TraceGenerator};
/// let trace = TraceGenerator::new(GenParams::default(), 7).generate_days(0.5);
/// let file = trace.to_json().to_pretty();
/// let back = tacc_workload::Trace::from_json(&tacc_json::parse(&file).expect("is JSON"));
/// assert_eq!(back, Ok(trace));
/// ```
///
/// The records are immutable once sorted and sit behind a shared handle,
/// so a clone is a reference count: the platform keeps one per loaded
/// trace and copies a record out only when it arrives.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    records: Arc<Vec<TraceRecord>>,
}

impl Trace {
    /// Creates a trace from records, sorting them by submission time.
    pub fn new(mut records: Vec<TraceRecord>) -> Self {
        records.sort_by(|a, b| {
            a.submit_secs
                .partial_cmp(&b.submit_secs)
                .expect("finite submit times")
        });
        Trace {
            records: Arc::new(records),
        }
    }

    /// The records in submission order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of submissions.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the trace has no submissions.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Time of the last submission (0 for an empty trace).
    pub fn horizon_secs(&self) -> f64 {
        self.records.last().map(|r| r.submit_secs).unwrap_or(0.0)
    }

    /// The trace as a JSON value: `{"records": [...]}`, each record its
    /// times beside the task's [`TaskSchema::to_json`].
    pub fn to_json(&self) -> Json {
        let records = self.records.iter().map(TraceRecord::to_json).collect();
        obj(vec![("records", Json::Arr(records))])
    }

    /// Reads a trace back from [`Trace::to_json`]'s shape (records are
    /// re-sorted by submission time; `cancel_after_secs` may be absent).
    /// Every record is [`TraceRecord::validate`]d, so a trace that parses
    /// is one the platform can replay.
    ///
    /// # Errors
    ///
    /// A description of the first malformed or invalid record, by index.
    pub fn from_json(value: &Json) -> Result<Trace, String> {
        let records = value
            .get("records")
            .and_then(Json::as_arr)
            .ok_or("trace missing array field 'records'")?;
        let read = |r| {
            let record = TraceRecord::from_json(r)?;
            record.validate().map(|()| record)
        };
        records
            .iter()
            .enumerate()
            .map(|(i, r)| read(r).map_err(|e| format!("record {i}: {e}")))
            .collect::<Result<Vec<_>, _>>()
            .map(Trace::new)
    }

    /// Characterization statistics for experiment F1.
    pub fn stats(&self) -> TraceStats {
        let durations: Vec<f64> = self.records.iter().map(|r| r.service_secs).collect();
        let gpus: Vec<f64> = self
            .records
            .iter()
            .map(|r| f64::from(r.schema.total_gpus()))
            .collect();
        let gpu_hours: f64 = self
            .records
            .iter()
            .map(|r| f64::from(r.schema.total_gpus()) * r.service_secs / 3600.0)
            .sum();
        TraceStats {
            submissions: self.records.len(),
            duration_summary: Summary::from_samples(&durations),
            duration_cdf: Cdf::from_samples(&durations),
            gpu_demand_summary: Summary::from_samples(&gpus),
            total_gpu_hours: gpu_hours,
        }
    }
}

/// Aggregate characterization of a trace (experiment F1's data).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Number of submissions.
    pub submissions: usize,
    /// Summary of true service times (seconds).
    pub duration_summary: Summary,
    /// CDF of true service times (seconds).
    pub duration_cdf: Cdf,
    /// Summary of total GPU demand per job.
    pub gpu_demand_summary: Summary,
    /// Total work in the trace, GPU-hours.
    pub total_gpu_hours: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::GroupId;
    use crate::schema::TaskSchema;

    fn record(t: f64, service: f64) -> TraceRecord {
        TraceRecord {
            submit_secs: t,
            schema: TaskSchema::builder("x", GroupId::from_index(0))
                .build()
                .expect("valid")
                .into(),
            service_secs: service,
            cancel_after_secs: None,
        }
    }

    #[test]
    fn new_sorts_by_time() {
        let t = Trace::new(vec![
            record(5.0, 10.0),
            record(1.0, 10.0),
            record(3.0, 10.0),
        ]);
        let times: Vec<f64> = t.records().iter().map(|r| r.submit_secs).collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
        assert_eq!(t.horizon_secs(), 5.0);
    }

    #[test]
    fn json_round_trip() {
        let mut cancelled = record(2.0, 120.0);
        cancelled.cancel_after_secs = Some(0.1);
        let t = Trace::new(vec![record(1.0, 60.0), cancelled]);
        let text = t.to_json().to_pretty();
        let back = Trace::from_json(&tacc_json::parse(&text).expect("parses"));
        assert_eq!(back, Ok(t));
    }

    #[test]
    fn from_json_names_the_malformed_record() {
        let mut doc = Trace::new(vec![record(1.0, 60.0), record(2.0, 60.0)]).to_json();
        let Json::Obj(fields) = &mut doc else {
            panic!("a trace is an object");
        };
        let Json::Arr(records) = &mut fields[0].1 else {
            panic!("records is an array");
        };
        records[1] = obj(vec![("submit_secs", Json::Num(f64::NAN))]);
        let err = Trace::from_json(&doc).expect_err("NaN submit time");
        assert!(err.starts_with("record 1:"), "{err}");
        assert!(Trace::from_json(&Json::Null).is_err());
    }

    #[test]
    fn from_json_refuses_a_record_the_platform_would_panic_on() {
        // The mutated file of the bug report: `"workers":0` used to parse
        // `Ok` and panic in `Job::new` at replay time.
        let text = Trace::new(vec![record(1.0, 60.0), record(2.0, 60.0)])
            .to_json()
            .to_string();
        let parse = |text: &str| Trace::from_json(&tacc_json::parse(text).expect("is JSON"));
        assert!(parse(&text).is_ok());
        let mutated = text.replacen("\"workers\":1", "\"workers\":0", 1);
        assert_ne!(mutated, text, "the fixture names its workers");
        let err = parse(&mutated).expect_err("zero workers");
        assert_eq!(err, "record 0: task must have at least one worker");
        // The times `Job::new` and the cancel timer would choke on.
        for (field, bad) in [
            ("\"service_secs\":60", "\"service_secs\":0"),
            ("\"service_secs\":60", "\"service_secs\":-5"),
            ("\"cancel_after_secs\":null", "\"cancel_after_secs\":-1"),
        ] {
            let err = parse(&text.replacen(field, bad, 1)).expect_err(bad);
            assert!(err.starts_with("record 0: "), "{bad}: {err}");
        }
    }

    #[test]
    fn stats_aggregate() {
        let t = Trace::new(vec![record(0.0, 3600.0), record(1.0, 7200.0)]);
        let s = t.stats();
        assert_eq!(s.submissions, 2);
        assert_eq!(s.duration_summary.count(), 2);
        // Each job asks 1 GPU: 1h + 2h = 3 GPU-hours.
        assert!((s.total_gpu_hours - 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.horizon_secs(), 0.0);
        assert_eq!(t.stats().submissions, 0);
    }
}
