//! What a job costs to keep, counted exactly.
//!
//! A counting global allocator tallies, per thread, every block the
//! platform requests and returns. A single-threaded deterministic replay
//! requests the same blocks of the same sizes every run, so the gates
//! below are exact counts, not timings: how many bytes and blocks a
//! finished replay still holds per job, how many allocations it made to
//! get there, and how many the report and the transition export make on
//! top; and what the generated trace a replay reads holds per record.
//! `cargo test --release -p tacc-tests --test residency -- --nocapture`
//! prints the table DESIGN.md ("What a job costs") records, and what one
//! submit costs the client–daemon conversation, step by step.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

use std::sync::Arc;

use tacc_core::wire::{self, Json, Reply, Request};
use tacc_core::{command_stream, Command, CommandRecord, Platform, PlatformConfig};
use tacc_obs::{EventRecord, Span, TransitionEvent};
use tacc_sched::QuotaMode;
use tacc_taccd::{ClockMode, Daemon, DaemonConfig, EngineConfig};
use tacc_tcloud::{DaemonClient, RetryPolicy};
use tacc_tests::{config_with, small_trace};
use tacc_workload::{JobId, TaskSchema, Trace};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BLOCKS: Cell<i64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static LIVE_CHUNK_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting requested bytes and blocks into the
/// calling thread's tallies. The test harness runs each test on a thread
/// of its own, so concurrent tests do not see each other.
struct Counting;

/// The bytes a request of `size` takes from glibc's `malloc`: the size
/// word added, rounded up to 16, at least 32.
fn chunk(size: usize) -> i64 {
    ((size + 8 + 15) & !15).max(32) as i64
}

fn note(allocations: u64, blocks: i64, bytes: i64, chunk_bytes: i64) {
    ALLOCATIONS.with(|c| c.set(c.get() + allocations));
    LIVE_BLOCKS.with(|c| c.set(c.get() + blocks));
    LIVE_BYTES.with(|c| c.set(c.get() + bytes));
    LIVE_CHUNK_BYTES.with(|c| c.set(c.get() + chunk_bytes));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the tallies are plain thread-local `Cell`s
// with constant initialisers and no destructor, so touching them neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, 1, layout.size() as i64, chunk(layout.size()));
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -1, -(layout.size() as i64), -chunk(layout.size()));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(
            1,
            0,
            new_size as i64 - layout.size() as i64,
            chunk(new_size) - chunk(layout.size()),
        );
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
    live_chunk_bytes: i64,
}

impl Tally {
    fn now() -> Tally {
        Tally {
            allocations: ALLOCATIONS.with(Cell::get),
            live_blocks: LIVE_BLOCKS.with(Cell::get),
            live_bytes: LIVE_BYTES.with(Cell::get),
            live_chunk_bytes: LIVE_CHUNK_BYTES.with(Cell::get),
        }
    }

    fn since(mark: Tally) -> Tally {
        let now = Tally::now();
        Tally {
            allocations: now.allocations - mark.allocations,
            live_blocks: now.live_blocks - mark.live_blocks,
            live_bytes: now.live_bytes - mark.live_bytes,
            live_chunk_bytes: now.live_chunk_bytes - mark.live_chunk_bytes,
        }
    }
}

/// The gated replay: nine days at load 1, 5,159 jobs.
fn nine_days() -> Trace {
    small_trace(20_240_601, 9.0, 1.0)
}

/// What a generated trace holds per record, and what generating it
/// allocated: the record in the trace's `Vec`, its schema and the
/// schema's name. The images, dependency bundles and datasets are the
/// generator's, built once and shared by every record that names them.
/// Bytes are counted as glibc's `malloc` rounds them, since the trace is
/// many small blocks.
#[test]
fn a_generated_trace_holds_each_record_once() {
    let mark = Tally::now();
    let trace = nine_days();
    let cost = Tally::since(mark);
    let records = trace.len();
    let per_record = |count: i64| count as f64 / records as f64;
    println!(
        "trace: {records} records, {:.0} B ({:.0} requested), {:.2} blocks, {:.2} allocations per record",
        per_record(cost.live_chunk_bytes),
        per_record(cost.live_bytes),
        per_record(cost.live_blocks),
        per_record(cost.allocations as i64),
    );
    assert!(
        per_record(cost.live_chunk_bytes) <= 256.0,
        "{} bytes per record",
        per_record(cost.live_chunk_bytes)
    );
    assert!(
        per_record(cost.live_blocks) <= 2.01,
        "{} blocks per record",
        per_record(cost.live_blocks)
    );
    assert!(
        per_record(cost.allocations as i64) <= 2.01,
        "{} allocations per record",
        per_record(cost.allocations as i64)
    );
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
        "size_of: EventRecord {}, TransitionEvent {}, Span {}, TaskSchema {}",
        size_of::<EventRecord>(),
        size_of::<TransitionEvent>(),
        size_of::<Span>(),
        size_of::<TaskSchema>(),
    );

    // Debug and release builds hold the same blocks — the debug oracles
    // allocate, but keep nothing — so the residency gates run in both.
    assert!(
        per_job(full.live_bytes) <= 845.0,
        "{} live bytes per job",
        per_job(full.live_bytes)
    );
    // Outside the bus a finished job is its slot and its timeline: the
    // completion list holds its id, and the per-job tables are sized
    // once from the loaded trace.
    assert!(
        per_job(no_bus.live_bytes) <= 390.0,
        "{} live bytes per job outside the bus",
        per_job(no_bus.live_bytes)
    );
    assert!(
        per_job(full.live_blocks) <= 2.05,
        "{} live blocks per job",
        per_job(full.live_blocks)
    );
    // An event owns no block: the name it carries is the schema's.
    assert_eq!(
        full.live_blocks, no_bus.live_blocks,
        "blocks the bus holds beyond its ring"
    );
    assert!(
        per_job(report_cost.allocations as i64) <= 0.02,
        "report() made {} allocations",
        report_cost.allocations
    );
    assert_eq!(export_cost.allocations, 1, "the export reserves once");
    if !cfg!(debug_assertions) {
        assert!(
            per_job(full.allocations as i64) <= 3.25,
            "{} allocations per replayed job",
            per_job(full.allocations as i64)
        );
    }
}

/// The contended start path: `replay-contended`'s committed trace, three
/// days at load 5 under quota borrowing, where the round walk reclaims
/// borrowed GPUs and preempts. Everything the replay allocates is counted,
/// the preempted runs' restarts included.
#[test]
fn a_contended_replay_starts_jobs_without_throwaway_allocations() {
    let trace = small_trace(20_240_601, 3.0, 5.0);
    let jobs = trace.len();
    let per_job = |count: i64| count as f64 / jobs as f64;
    let config = config_with(|c| c.scheduler.quota = QuotaMode::Borrowing);
    let (platform, full) = replay(config, &trace);
    assert_eq!(platform.job_count(), jobs);
    let preemptions = platform.scheduler().preemption_count();
    assert!(preemptions > 0, "the replay must reclaim");

    println!(
        "contended: {jobs} jobs, 3-day load-5 borrowing trace, seed 20240601, {preemptions} preemptions"
    );
    println!(
        "| contended replay | {:>9.0} | {:>10.2} | {:.2} allocations/job |",
        per_job(full.live_bytes),
        per_job(full.live_blocks),
        per_job(full.allocations as i64),
    );
    // Held bytes are the same in debug and release, as above.
    assert!(
        per_job(full.live_bytes) <= 920.0,
        "{} live bytes per job",
        per_job(full.live_bytes)
    );
    if !cfg!(debug_assertions) {
        assert!(
            per_job(full.allocations as i64) <= 4.6,
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

/// The submits the conversation gates are counted over: the first 200
/// records of a one-day load-1 trace, as `svc-closed` turns records into
/// commands.
fn submits() -> Vec<Command> {
    let trace = small_trace(20_240_601, 1.0, 1.0);
    let records = trace.records().iter().take(200);
    let submits: Vec<Command> = records
        .map(|record| Command::Submit {
            schema: Arc::clone(&record.schema),
            service_secs: record.service_secs,
        })
        .collect();
    assert_eq!(submits.len(), 200, "the gates below are totals over 200");
    submits
}

/// One submit round trip, each of its five steps counted on the thread
/// it runs on, with the buffers each end keeps: the client's frame
/// buffer, and the connection's. Every step crosses a thread with what it
/// made (a command to the engine, an ack to the connection), so each
/// allocation here is also, on a live daemon, one freed on another
/// thread. The counts are totals over [`submits`], gated exactly, and
/// only ever lowered, and so is what a live `DaemonClient` allocates on
/// its own thread to make the same trips to a live `taccd`.
#[test]
fn a_submit_round_trip_allocates_what_its_messages_carry() {
    let submits = submits();
    let trips = submits.len();
    let mut platform = Platform::new(PlatformConfig::default());
    let (mut client, mut connection) = (Vec::new(), Vec::new());
    let mut steps = [0u64; 5];
    let mut count = |step: usize, mark: Tally| steps[step] += Tally::since(mark).allocations;
    for (seq, submit) in submits.iter().enumerate() {
        let seq = seq as u64;
        let mark = Tally::now();
        client.clear();
        Request::frame_mutate(&mut client, submit);
        count(0, mark);

        let mark = Tally::now();
        let read = wire::read_frame_into(&mut &client[..], &mut connection);
        let request = Request::read(&connection);
        count(1, mark);
        assert_eq!(read.ok(), Some(true));
        let Ok(Request::Mutate(command)) = request else {
            panic!("trip {seq}: {request:?}");
        };

        let at_secs = platform.now().as_secs();
        let record = CommandRecord {
            seq,
            at_secs,
            command,
        };
        let outcome = platform.apply_record(&record).expect("applies");
        let mark = Tally::now();
        let ack = Reply::Ok(outcome.to_json(seq, at_secs));
        count(2, mark);

        let mark = Tally::now();
        connection.clear();
        ack.frame(&mut connection);
        count(3, mark);

        let mark = Tally::now();
        let read = wire::read_frame_into(&mut &connection[..], &mut client);
        let reply = Reply::read(&client);
        count(4, mark);
        assert_eq!(read.ok(), Some(true));
        assert_eq!(reply, Ok(ack), "trip {seq}");
    }

    let live = live_client_allocations(&submits);

    println!("conversation: {trips} submits of a 1-day load-1 trace, seed 20240601");
    println!("| step                      | allocations | per trip |");
    println!("|---------------------------|------------:|---------:|");
    let row = |step: &str, total: u64| {
        println!(
            "| {step:<25} | {total:>11} | {:>8.2} |",
            total as f64 / trips as f64
        );
    };
    let names = [
        "client writes the request",
        "daemon reads it",
        "engine builds the ack",
        "daemon writes the reply",
        "client reads the reply",
    ];
    for (name, total) in names.into_iter().zip(steps) {
        row(name, total);
    }
    row("round trip", steps.iter().sum());
    row("live client (write, read)", live);

    // Exact, and the same in debug and release builds: nothing on these
    // paths allocates for a debug oracle. What is left is what the
    // messages carry: the buffers growing to the largest frame yet, the
    // command's own strings, the ack tree's fields, and the client's tree
    // of the reply.
    assert_eq!(
        steps,
        [7, 1_274, 1_200, 0, 1_600],
        "allocations per step over {trips} submit round trips"
    );
    // The same two steps through the client itself, after the handshake
    // grew its buffer a little.
    assert_eq!(
        live, 1_604,
        "a live client's allocations over {trips} submits"
    );
}

/// What a `DaemonClient` allocates on its own thread to submit each of
/// `submits` to a live daemon and read the acks back.
fn live_client_allocations(submits: &[Command]) -> u64 {
    let temp = |kind: &str| {
        let name = format!("tacc-residency-{kind}-{}", std::process::id());
        let path = std::env::temp_dir().join(name);
        std::fs::remove_file(&path).ok();
        path
    };
    let (socket, journal) = (temp("sock"), temp("journal"));
    let (daemon, _) = Daemon::start(DaemonConfig {
        socket: socket.clone(),
        engine: EngineConfig {
            journal: journal.clone(),
            platform: PlatformConfig::default(),
            clock: ClockMode::Logical,
        },
    })
    .expect("daemon starts");
    let mut client = DaemonClient::connect(&socket, RetryPolicy::default()).expect("connects");
    let mark = Tally::now();
    for (job, submit) in submits.iter().enumerate() {
        let ack = client.mutate(submit).expect("submitted");
        assert_eq!(ack.get("job").and_then(Json::as_u64), Some(job as u64));
    }
    let live = Tally::since(mark).allocations;
    drop(client);
    daemon.stop();
    std::fs::remove_file(&journal).ok();
    live
}
