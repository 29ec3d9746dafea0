//! Property tests for the job lifecycle transition matrix.
//!
//! The matrix is small enough to enumerate exhaustively, so the "random"
//! coverage here is belt-and-braces: a deterministic xorshift generator
//! (no external proptest dependency) drives long event sequences and
//! asserts the machine can never leave the legal state graph, while the
//! exhaustive checks pin the matrix to the doc-comment diagram in
//! `src/job.rs` and to the structural properties the platform relies on.

use tacc_workload::{
    GroupId, Job, JobEvent, JobEventKind, JobId, JobState, TaskSchema, TRANSITION_MATRIX,
};

/// Deterministic xorshift64* PRNG — reproducible without extra crates.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[(self.next() % items.len() as u64) as usize]
    }
}

/// A representative event for each kind (payloads don't affect the matrix).
fn sample_event(kind: JobEventKind) -> JobEvent {
    match kind {
        JobEventKind::Submit => JobEvent::Submit { at_secs: 0.0 },
        JobEventKind::Enqueue => JobEvent::Enqueue,
        JobEventKind::Start => JobEvent::Start { at_secs: 1.0 },
        JobEventKind::Preempt => JobEvent::Preempt {
            at_secs: 2.0,
            progress_secs: 1.0,
            lost_secs: 0.0,
        },
        JobEventKind::Interrupt => JobEvent::Interrupt {
            at_secs: 2.0,
            progress_secs: 1.0,
            lost_secs: 0.5,
        },
        JobEventKind::Reject => JobEvent::Reject { at_secs: 1.0 },
        JobEventKind::Complete => JobEvent::Complete { at_secs: 3.0 },
        JobEventKind::Fail => JobEvent::Fail {
            at_secs: 3.0,
            progress_secs: 1.0,
        },
        JobEventKind::Cancel => JobEvent::Cancel { at_secs: 3.0 },
    }
}

fn matrix_edge(from: JobState, kind: JobEventKind) -> Option<JobState> {
    TRANSITION_MATRIX
        .iter()
        .find(|(f, k, _)| *f == from && *k == kind)
        .map(|(_, _, to)| *to)
}

/// Random event sequences can never reach a state outside the legal
/// graph: every accepted transition is a matrix edge, every rejection
/// leaves the state untouched, and the error names the exact attempt.
#[test]
fn random_sequences_never_leave_the_matrix() {
    let mut rng = XorShift(0x5EED_CAFE_F00D_0001);
    for _ in 0..2_000 {
        let mut state = JobState::Submitted;
        for _ in 0..64 {
            let kind = rng.pick(&JobEventKind::ALL);
            let event = sample_event(kind);
            match state.transition(&event) {
                Ok(next) => {
                    assert_eq!(
                        matrix_edge(state, kind),
                        Some(next),
                        "accepted transition {state} --{kind}--> {next} is not a matrix edge"
                    );
                    state = next;
                }
                Err(err) => {
                    assert_eq!(matrix_edge(state, kind), None);
                    assert_eq!(err.from, state);
                    assert_eq!(err.event, kind);
                }
            }
        }
    }
}

/// Terminal states are absorbing: no event of any kind leaves them.
#[test]
fn terminal_states_are_absorbing() {
    for state in JobState::ALL {
        if !state.is_terminal() {
            continue;
        }
        for kind in JobEventKind::ALL {
            assert!(
                state.transition(&sample_event(kind)).is_err(),
                "terminal {state} must absorb {kind}"
            );
        }
        assert!(
            !TRANSITION_MATRIX.iter().any(|(f, _, _)| *f == state),
            "matrix must have no outgoing edges from terminal {state}"
        );
    }
}

/// `Cancelled` is reachable in one step from every non-terminal state —
/// a user kill must never be refused while the job is live.
#[test]
fn cancelled_reachable_from_every_non_terminal() {
    for state in JobState::ALL {
        if state.is_terminal() {
            continue;
        }
        assert_eq!(
            state.transition(&sample_event(JobEventKind::Cancel)),
            Ok(JobState::Cancelled),
            "cancel must be legal from {state}"
        );
    }
}

/// Every non-terminal state has a path to some terminal state (no live
/// state can trap a job forever).
#[test]
fn no_live_state_is_a_trap() {
    for start in JobState::ALL {
        let mut reachable = vec![start];
        let mut frontier = vec![start];
        while let Some(s) = frontier.pop() {
            for (f, _, to) in TRANSITION_MATRIX {
                if *f == s && !reachable.contains(to) {
                    reachable.push(*to);
                    frontier.push(*to);
                }
            }
        }
        assert!(
            reachable.iter().any(|s| s.is_terminal()),
            "{start} cannot reach any terminal state"
        );
    }
}

/// The doc-comment diagram in `src/job.rs` is parsed and compared
/// edge-for-edge against [`TRANSITION_MATRIX`]: the documentation can
/// not drift from the code.
#[test]
fn matrix_agrees_with_doc_diagram() {
    let source = include_str!("../src/job.rs");
    let mut doc_edges: Vec<(JobState, JobEventKind, JobState)> = Vec::new();
    let mut in_diagram = false;
    for line in source.lines() {
        let line = line.trim_start().trim_start_matches("///").trim();
        if line == "```text" {
            in_diagram = true;
            continue;
        }
        if in_diagram && line == "```" {
            break;
        }
        if !in_diagram || line.is_empty() {
            continue;
        }
        // `Submitted ──enqueue──→ Queued`: strip the arrow glyphs and the
        // tokens fall out as [from, event, to].
        let cleaned: String = line
            .chars()
            .map(|c| if c == '─' || c == '→' { ' ' } else { c })
            .collect();
        let tokens: Vec<&str> = cleaned.split_whitespace().collect();
        assert_eq!(tokens.len(), 3, "unparsable diagram line: {line}");
        let event = parse_event(tokens[1]);
        let to = parse_state(tokens[2]);
        for from in tokens[0].split('|') {
            doc_edges.push((parse_state(from), event, to));
        }
    }
    assert!(in_diagram, "no ```text diagram found in src/job.rs");

    let mut matrix: Vec<_> = TRANSITION_MATRIX.to_vec();
    let key = |e: &(JobState, JobEventKind, JobState)| format!("{}|{}|{}", e.0, e.1, e.2);
    doc_edges.sort_by_key(key);
    matrix.sort_by_key(key);
    assert_eq!(
        doc_edges, matrix,
        "doc diagram and TRANSITION_MATRIX disagree"
    );
}

fn parse_state(name: &str) -> JobState {
    JobState::ALL
        .into_iter()
        .find(|s| format!("{s:?}") == name)
        .unwrap_or_else(|| panic!("unknown state in diagram: {name}"))
}

fn parse_event(name: &str) -> JobEventKind {
    JobEventKind::ALL
        .into_iter()
        .find(|k| k.to_string() == name)
        .unwrap_or_else(|| panic!("unknown event in diagram: {name}"))
}

/// `Job::apply_event` refuses illegal events without touching any field:
/// the state, counters, and timings after a rejection are bit-identical
/// to before.
#[test]
fn rejected_events_leave_the_job_untouched() {
    let schema = TaskSchema::builder("prop", GroupId::from_index(0))
        .resources(tacc_cluster::ResourceVec::gpus_only(1))
        .est_duration_secs(600.0)
        .build()
        .expect("valid");
    let mut rng = XorShift(0xBAD_5EED);
    for _ in 0..200 {
        let mut job = Job::new(JobId::from_value(1), schema.clone(), 0.0, 600.0);
        for _ in 0..48 {
            let kind = rng.pick(&JobEventKind::ALL);
            let before = (
                job.state(),
                job.preemptions(),
                job.restarts(),
                job.remaining_secs(),
                job.wasted_secs(),
                job.finish_secs(),
            );
            match job.apply_event(sample_event(kind)) {
                Ok(next) => assert_eq!(job.state(), next),
                Err(err) => {
                    let after = (
                        job.state(),
                        job.preemptions(),
                        job.restarts(),
                        job.remaining_secs(),
                        job.wasted_secs(),
                        job.finish_secs(),
                    );
                    assert_eq!(before, after, "rejected {err} must not mutate the job");
                }
            }
        }
    }
}
