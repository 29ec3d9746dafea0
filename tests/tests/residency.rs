//! What a job costs to keep, counted exactly.
//!
//! A counting global allocator tallies, per thread, every block the
//! platform requests and returns. A single-threaded deterministic replay
//! requests the same blocks of the same sizes every run, so the gates
//! below are exact counts, not timings: how many bytes and blocks a
//! finished replay still holds per job, how many allocations it made to
//! get there, and how many the report and the transition export make on
//! top. `cargo test --release -p tacc-tests --test residency -- --nocapture`
//! prints the table DESIGN.md ("What a job costs") records.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

use tacc_core::{command_stream, Command, Platform, PlatformConfig};
use tacc_obs::{EventRecord, Span, TransitionEvent};
use tacc_tests::{config_with, small_trace};
use tacc_workload::{JobId, Trace};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BLOCKS: Cell<i64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting requested bytes and blocks into the
/// calling thread's tallies. The test harness runs each test on a thread
/// of its own, so concurrent tests do not see each other.
struct Counting;

fn note(allocations: u64, blocks: i64, bytes: i64) {
    ALLOCATIONS.with(|c| c.set(c.get() + allocations));
    LIVE_BLOCKS.with(|c| c.set(c.get() + blocks));
    LIVE_BYTES.with(|c| c.set(c.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the tallies are plain thread-local `Cell`s
// with constant initialisers and no destructor, so touching them neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, 1, layout.size() as i64);
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -1, -(layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, 0, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`, and
        // the caller guarantees `new_size` is valid for its alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// A reading of the calling thread's tallies, or the change between two.
#[derive(Debug, Clone, Copy)]
struct Tally {
    allocations: u64,
    live_blocks: i64,
    live_bytes: i64,
}

impl Tally {
    fn now() -> Tally {
        Tally {
            allocations: ALLOCATIONS.with(Cell::get),
            live_blocks: LIVE_BLOCKS.with(Cell::get),
            live_bytes: LIVE_BYTES.with(Cell::get),
        }
    }

    fn since(mark: Tally) -> Tally {
        let now = Tally::now();
        Tally {
            allocations: now.allocations - mark.allocations,
            live_blocks: now.live_blocks - mark.live_blocks,
            live_bytes: now.live_bytes - mark.live_bytes,
        }
    }
}

/// The gated replay: nine days at load 1, 5,159 jobs.
fn nine_days() -> Trace {
    small_trace(20_240_601, 9.0, 1.0)
}

/// Replays `trace` to idle; the platform and what the replay itself —
/// `load_trace` to idle, not `Platform::new` — allocated and still holds.
fn replay(config: PlatformConfig, trace: &Trace) -> (Platform, Tally) {
    let mut platform = Platform::new(config);
    let mark = Tally::now();
    platform.load_trace(trace);
    platform.run_until_idle();
    let cost = Tally::since(mark);
    (platform, cost)
}

#[test]
fn a_finished_replay_holds_each_job_once() {
    let trace = nine_days();
    let jobs = trace.len();
    assert_eq!(jobs, 5_159, "the gates below are per job of this trace");
    let per_job = |count: i64| count as f64 / jobs as f64;

    let (platform, full) = replay(PlatformConfig::default(), &trace);
    assert_eq!(platform.job_count(), jobs);
    assert_eq!(platform.events().dropped(), 0);

    let mark = Tally::now();
    let report = platform.report();
    let report_cost = Tally::since(mark);
    assert_eq!(report.submitted, jobs);

    let mark = Tally::now();
    let export = platform.transition_log_jsonl();
    let export_cost = Tally::since(mark);
    assert!(!export.is_empty());

    // The same replay with the bus switched off says what it holds, and
    // what the rest of the platform does.
    let (_, no_bus) = replay(config_with(|c| c.event_buffer_capacity = 1), &trace);

    println!("residency: {jobs} jobs, 9-day load-1 trace, seed 20240601");
    println!("| held after the replay      | bytes/job | blocks/job |");
    println!("|----------------------------|----------:|-----------:|");
    let row = |piece: &str, bytes: i64, blocks: i64| {
        println!(
            "| {piece:<26} | {:>9.0} | {:>10.2} |",
            per_job(bytes),
            per_job(blocks)
        );
    };
    row("everything", full.live_bytes, full.live_blocks);
    row(
        "event bus",
        full.live_bytes - no_bus.live_bytes,
        full.live_blocks - no_bus.live_blocks,
    );
    row(
        "slots, spans, reports, rest",
        no_bus.live_bytes,
        no_bus.live_blocks,
    );
    println!(
        "allocations: replay {:.2}/job, report() {} ({:.3}/job), transition_log_jsonl {}",
        per_job(full.allocations as i64),
        report_cost.allocations,
        per_job(report_cost.allocations as i64),
        export_cost.allocations,
    );
    println!(
        "size_of: EventRecord {}, TransitionEvent {}, Span {}",
        size_of::<EventRecord>(),
        size_of::<TransitionEvent>(),
        size_of::<Span>(),
    );

    // Debug and release builds hold the same blocks — the debug oracles
    // allocate, but keep nothing — so the residency gates run in both.
    assert!(
        per_job(full.live_bytes) <= 1_200.0,
        "{} live bytes per job",
        per_job(full.live_bytes)
    );
    assert!(
        per_job(full.live_blocks) <= 3.75,
        "{} live blocks per job",
        per_job(full.live_blocks)
    );
    assert!(
        per_job(report_cost.allocations as i64) <= 0.2,
        "report() made {} allocations",
        report_cost.allocations
    );
    assert_eq!(export_cost.allocations, 1, "the export reserves once");
    if !cfg!(debug_assertions) {
        assert!(
            per_job(full.allocations as i64) <= 17.5,
            "{} allocations per replayed job",
            per_job(full.allocations as i64)
        );
    }
}

#[test]
fn event_records_are_plain_data_sized() {
    assert!(
        size_of::<EventRecord>() <= 72,
        "{}",
        size_of::<EventRecord>()
    );
}

/// A schema is immutable after admission, therefore shared: the job a
/// trace record becomes holds the record's allocation, and so does the
/// job a `submit` command mints.
#[test]
fn a_job_shares_its_schema_with_the_door_it_came_through() {
    let trace = small_trace(7, 0.5, 1.0);
    let (platform, _) = replay(PlatformConfig::default(), &trace);
    assert_eq!(platform.job_count(), trace.len());
    for (id, record) in platform.job_ids().into_iter().zip(trace.records()) {
        let job = platform.job(id).expect("minted");
        assert!(std::ptr::eq(job.schema(), &*record.schema), "{id}");
    }

    let mut platform = Platform::new(PlatformConfig::default());
    let stream = command_stream(&trace);
    for record in &stream {
        platform.apply_record(record).expect("applies");
    }
    let submits = stream.iter().filter_map(|r| match &r.command {
        Command::Submit { schema, .. } => Some(schema),
        _ => None,
    });
    for (position, (schema, record)) in submits.zip(trace.records()).enumerate() {
        let job = platform
            .job(JobId::from_value(position as u64))
            .expect("minted");
        assert!(std::ptr::eq(job.schema(), &**schema), "job {position}");
        assert!(
            std::ptr::eq(job.schema(), &*record.schema),
            "job {position}"
        );
    }
}
