//! Successor to the retired grep-based `crates/core/tests/state_write_sites.rs`:
//! the single-writer guarantee ("only the lifecycle engine mutates job
//! state") is now enforced by the `single-writer` lint family driven by
//! `lint-owners.toml`. This red-flip harness seeds the exact bug the old
//! grep test hunted — a rogue `job.state = …` assignment and a rogue
//! `job.apply_event(…)` call outside the owning modules, using the
//! repo's real owner rules — and proves `lint --check` flips red with
//! the correct `file:line` for each.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The repo's production rules, verbatim in shape: raw `state` writes
/// belong to the workload transition engine, `apply_event` calls to the
/// core lifecycle module.
const REPO_STYLE_OWNERS: &str = "\
[[owner]]
name = \"job-state-field\"
fields = [\"state\"]
writers = [\"crates/workload/src/job.rs\"]
why = \"raw `state` assignment exists only inside the checked transition engine\"

[[owner]]
name = \"job-state-transition\"
methods = [\"apply_event\"]
writers = [\"crates/core/src/lifecycle.rs\"]
why = \"Platform::apply_lifecycle_event is the single production caller\"
";

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tacc-lint-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn write(path: &Path, content: &str) {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent).expect("mkdir");
    }
    fs::write(path, content).expect("write fixture");
}

fn run_lint(root: &Path, json: &Path) -> std::process::ExitStatus {
    Command::new(env!("CARGO_BIN_EXE_lint"))
        .args(["--root"])
        .arg(root)
        .args(["--check", "--quiet", "--json"])
        .arg(json)
        .status()
        .expect("spawn lint binary")
}

fn seed_workspace(root: &Path) {
    write(&root.join("lint-owners.toml"), REPO_STYLE_OWNERS);
    write(
        &root.join("crates/workload/Cargo.toml"),
        "[package]\nname = \"tacc-workload\"\n",
    );
    // The legitimate owner: the transition engine assigns `state` and is
    // the method's home.
    write(
        &root.join("crates/workload/src/job.rs"),
        "impl Job {\n\
         \x20   pub fn apply_event(&mut self, to: JobState) -> JobState {\n\
         \x20       self.state = to;\n\
         \x20       to\n\
         \x20   }\n\
         }\n",
    );
    write(
        &root.join("crates/core/Cargo.toml"),
        "[package]\nname = \"tacc-core\"\n",
    );
    // The legitimate caller: the lifecycle engine routes events through
    // the checked transition API.
    write(
        &root.join("crates/core/src/lifecycle.rs"),
        "pub fn apply(job: &mut Job, to: JobState) -> JobState {\n\
         \x20   job.apply_event(to)\n\
         }\n",
    );
}

/// A clean tree — both writes inside their owning modules — passes.
#[test]
fn owning_modules_writes_are_green() {
    let root = scratch("sw-green");
    seed_workspace(&root);
    let json_path = root.join("report.json");
    assert!(
        run_lint(&root, &json_path).success(),
        "owner-module writes must pass --check"
    );
    fs::remove_dir_all(&root).expect("cleanup");
}

/// The seeded bug: a scheduler-side module assigns `job.state` directly
/// and replays an event itself. Both rogue sites flip `--check` red,
/// each located at its exact `file:line`.
#[test]
fn rogue_state_write_and_apply_event_call_flip_red() {
    let root = scratch("sw-red");
    seed_workspace(&root);
    write(
        &root.join("crates/core/src/rogue.rs"),
        "pub fn shortcut(job: &mut Job) {\n\
         \x20   job.state = JobState::Running;\n\
         }\n\
         pub fn replay(job: &mut Job) {\n\
         \x20   job.apply_event(JobState::Failed);\n\
         }\n",
    );

    let json_path = root.join("report.json");
    let status = run_lint(&root, &json_path);
    assert!(!status.success(), "rogue writes must fail --check");
    let json = fs::read_to_string(&json_path).expect("JSON report written");
    for line in [2, 5] {
        let needle = format!(
            "{{\"lint\": \"single-writer\", \"file\": \"crates/core/src/rogue.rs\", \"line\": {line},"
        );
        assert!(
            json.contains(&needle),
            "single-writer must locate the rogue site at rogue.rs:{line}\n{json}"
        );
    }
    // The owners' own writes stay unflagged even while the tree is red.
    assert!(!json.contains("\"file\": \"crates/workload/src/job.rs\""));
    assert!(!json.contains("\"file\": \"crates/core/src/lifecycle.rs\""));

    fs::remove_dir_all(&root).expect("cleanup");
}

/// The arena rules added with the million-job scale pass: lease-arena
/// mutators (`insert_lease`, `note_free_change`) belong to the cluster
/// allocator, and job-slot run-state fields (`last_nodes`, `token`)
/// to the lifecycle engine. A rogue call and a rogue field write flip
/// red at their exact lines; the owners' own sites stay green.
#[test]
fn rogue_arena_mutations_flip_red() {
    let root = scratch("sw-arena");
    write(
        &root.join("lint-owners.toml"),
        "[[owner]]\n\
         name = \"lease-arena-mutation\"\n\
         methods = [\"insert_lease\", \"note_free_change\"]\n\
         writers = [\"crates/cluster/src/allocator.rs\"]\n\
         why = \"arena slots and the free-capacity index move together\"\n\
         \n\
         [[owner]]\n\
         name = \"job-arena-run-state\"\n\
         fields = [\"last_nodes\", \"token\"]\n\
         writers = [\"crates/core/src/lifecycle.rs\"]\n\
         why = \"run state is written only by the lifecycle engine\"\n",
    );
    write(
        &root.join("crates/cluster/Cargo.toml"),
        "[package]\nname = \"tacc-cluster\"\n",
    );
    // The owner: grants run through the arena and renotify the index.
    write(
        &root.join("crates/cluster/src/allocator.rs"),
        "impl Cluster {\n\
         \x20   fn grant(&mut self, lease: Lease) -> LeaseId {\n\
         \x20       let id = self.arena.insert_lease(lease);\n\
         \x20       self.note_free_change(0, old, new);\n\
         \x20       id\n\
         \x20   }\n\
         }\n",
    );
    write(
        &root.join("crates/core/Cargo.toml"),
        "[package]\nname = \"tacc-core\"\n",
    );
    write(
        &root.join("crates/core/src/lifecycle.rs"),
        "pub fn started(slot: &mut JobSlot, nodes: Vec<NodeId>) {\n\
         \x20   slot.last_nodes = nodes;\n\
         \x20   slot.token += 1;\n\
         }\n",
    );

    let json_path = root.join("report.json");
    assert!(
        run_lint(&root, &json_path).success(),
        "owner-module arena mutations must pass --check"
    );

    // Rogue sites: a fault handler forging a lease outside the allocator
    // and a status module bumping a liveness token.
    write(
        &root.join("crates/core/src/rogue.rs"),
        "pub fn forge(c: &mut Cluster, lease: Lease) {\n\
         \x20   c.arena.insert_lease(lease);\n\
         }\n\
         pub fn stomp(slot: &mut JobSlot) {\n\
         \x20   slot.token += 1;\n\
         }\n",
    );
    let status = run_lint(&root, &json_path);
    assert!(!status.success(), "rogue arena mutations must fail --check");
    let json = fs::read_to_string(&json_path).expect("JSON report written");
    for line in [2, 5] {
        let needle = format!(
            "{{\"lint\": \"single-writer\", \"file\": \"crates/core/src/rogue.rs\", \"line\": {line},"
        );
        assert!(
            json.contains(&needle),
            "single-writer must locate the rogue arena site at rogue.rs:{line}\n{json}"
        );
    }
    assert!(!json.contains("\"file\": \"crates/cluster/src/allocator.rs\""));
    assert!(!json.contains("\"file\": \"crates/core/src/lifecycle.rs\""));

    fs::remove_dir_all(&root).expect("cleanup");
}

/// The `sched-queue` rule: the pending queue's three editors are called
/// from `scheduler.rs` (and `gang.rs`, whose rotation re-queues between
/// rounds). The walk's own files record edits instead — a placement
/// commit that removes its request from the queue directly, the very
/// call the round used to make mid-walk, flips red at its line.
#[test]
fn queue_edit_from_inside_the_walk_flips_red() {
    let root = scratch("sw-queue");
    write(
        &root.join("lint-owners.toml"),
        "[[owner]]\n\
         name = \"sched-queue\"\n\
         methods = [\"queue_push\", \"queue_remove\", \"queue_remove_request\"]\n\
         writers = [\"crates/sched/src/scheduler.rs\", \"crates/sched/src/scheduler/gang.rs\"]\n\
         why = \"a walk reads the queue it started with and records its edits\"\n",
    );
    write(
        &root.join("crates/sched/Cargo.toml"),
        "[package]\nname = \"tacc-sched\"\n",
    );
    // The owner: defines the editors and replays recorded edits.
    write(
        &root.join("crates/sched/src/scheduler.rs"),
        "impl Scheduler {\n\
         \x20   fn queue_push(&mut self, request: TaskRequest) {}\n\
         \x20   fn queue_remove_request(&mut self, request: &TaskRequest) {}\n\
         \x20   fn apply_queue_edits(&mut self, edits: &[QueueEdit]) {\n\
         \x20       self.queue_remove_request(&edits[0].request);\n\
         \x20       self.queue_push(edits[1].request);\n\
         \x20   }\n\
         }\n",
    );
    write(
        &root.join("crates/sched/src/scheduler/gang.rs"),
        "impl Scheduler {\n\
         \x20   pub fn rotate(&mut self, victim: TaskRequest) {\n\
         \x20       self.queue_push(victim);\n\
         \x20   }\n\
         }\n",
    );
    // The walk's side: records, and asks the owner to apply.
    write(
        &root.join("crates/sched/src/scheduler/elastic.rs"),
        "impl Scheduler {\n\
         \x20   fn commit_placement(&mut self, request: &TaskRequest, edits: &mut Vec<QueueEdit>) {\n\
         \x20       edits.push(QueueEdit::Remove(*request));\n\
         \x20   }\n\
         }\n",
    );
    let json_path = root.join("report.json");
    assert!(
        run_lint(&root, &json_path).success(),
        "recorded edits applied by the owner must pass --check"
    );

    write(
        &root.join("crates/sched/src/scheduler/elastic.rs"),
        "impl Scheduler {\n\
         \x20   fn commit_placement(&mut self, request: &TaskRequest) {\n\
         \x20       self.queue_remove_request(request);\n\
         \x20   }\n\
         }\n",
    );
    assert!(
        !run_lint(&root, &json_path).success(),
        "a queue edit from inside the walk must fail --check"
    );
    let json = fs::read_to_string(&json_path).expect("JSON report written");
    assert!(
        json.contains(
            "{\"lint\": \"single-writer\", \"file\": \"crates/sched/src/scheduler/elastic.rs\", \"line\": 3,"
        ),
        "single-writer must locate the in-walk edit at elastic.rs:3\n{json}"
    );
    assert!(!json.contains("\"file\": \"crates/sched/src/scheduler.rs\""));
    assert!(!json.contains("\"file\": \"crates/sched/src/scheduler/gang.rs\""));

    fs::remove_dir_all(&root).expect("cleanup");
}

/// The `queue-verdicts` rule: an entry's verdict and wake stamp are
/// written where the walk judges it (`rounds.rs`) and nowhere else in the
/// round; a placement path that refreshes a stamp itself flips red at its
/// line.
#[test]
fn a_verdict_written_outside_the_walk_flips_red() {
    let root = scratch("sw-verdicts");
    write(
        &root.join("lint-owners.toml"),
        "[[owner]]\n\
         name = \"queue-verdicts\"\n\
         fields = [\"wake\", \"verdict\"]\n\
         writers = [\"crates/sched/src/scheduler.rs\", \"crates/sched/src/scheduler/rounds.rs\"]\n\
         why = \"verdicts and wake stamps are written where the walk judges an entry\"\n",
    );
    write(
        &root.join("crates/sched/Cargo.toml"),
        "[package]\nname = \"tacc-sched\"\n",
    );
    write(
        &root.join("crates/sched/src/scheduler/rounds.rs"),
        "impl Scheduler {\n\
         \x20   fn judge(&mut self, entry: &mut Queued, reason: SkipReason) {\n\
         \x20       entry.wake = Wake::Release(self.releases);\n\
         \x20       entry.verdict = Some((self.now, reason));\n\
         \x20   }\n\
         }\n",
    );
    write(
        &root.join("crates/sched/src/scheduler/elastic.rs"),
        "impl Scheduler {\n\
         \x20   fn commit_placement(&mut self, entry: &Queued) -> bool {\n\
         \x20       entry.wake == Wake::Now\n\
         \x20   }\n\
         }\n",
    );
    let json_path = root.join("report.json");
    assert!(
        run_lint(&root, &json_path).success(),
        "the walk's writes and a read elsewhere must pass --check"
    );

    write(
        &root.join("crates/sched/src/scheduler/elastic.rs"),
        "impl Scheduler {\n\
         \x20   fn commit_placement(&mut self, entry: &mut Queued) {\n\
         \x20       entry.wake = Wake::Capacity { capacity: self.epoch, charges: 0 };\n\
         \x20   }\n\
         }\n",
    );
    assert!(
        !run_lint(&root, &json_path).success(),
        "a stamp written outside the walk must fail --check"
    );
    let json = fs::read_to_string(&json_path).expect("JSON report written");
    assert!(
        json.contains(
            "{\"lint\": \"single-writer\", \"file\": \"crates/sched/src/scheduler/elastic.rs\", \"line\": 3,"
        ),
        "single-writer must locate the stamp at elastic.rs:3\n{json}"
    );
    assert!(!json.contains("\"file\": \"crates/sched/src/scheduler/rounds.rs\""));

    fs::remove_dir_all(&root).expect("cleanup");
}

/// The `front-door` rule: `Platform::admit` is called by the arrival
/// cursor (`platform.rs`) and by `Command::Submit` (`command.rs`). A third
/// way in — a fault handler resubmitting a job itself — flips red at its
/// line; the definition in `admission.rs` is not a call.
#[test]
fn a_third_admission_path_flips_red() {
    let root = scratch("sw-door");
    write(
        &root.join("lint-owners.toml"),
        "[[owner]]\n\
         name = \"front-door\"\n\
         methods = [\"admit\"]\n\
         writers = [\"crates/core/src/command.rs\", \"crates/core/src/platform.rs\"]\n\
         why = \"a submission enters through Platform::admit from the cursor and Command::Submit only\"\n",
    );
    write(
        &root.join("crates/core/Cargo.toml"),
        "[package]\nname = \"tacc-core\"\n",
    );
    write(
        &root.join("crates/core/src/admission.rs"),
        "impl Platform {\n\
         \x20   pub(crate) fn admit(&mut self, record: TraceRecord) -> Result<JobId, CommandError> {\n\
         \x20       Ok(self.mint(record))\n\
         \x20   }\n\
         }\n",
    );
    write(
        &root.join("crates/core/src/platform.rs"),
        "impl Platform {\n\
         \x20   fn arrive(&mut self, record: TraceRecord) {\n\
         \x20       let _ = self.admit(record);\n\
         \x20   }\n\
         }\n",
    );
    write(
        &root.join("crates/core/src/command.rs"),
        "impl Platform {\n\
         \x20   pub fn apply_command(&mut self, record: TraceRecord) -> Result<JobId, CommandError> {\n\
         \x20       self.admit(record)\n\
         \x20   }\n\
         }\n",
    );
    let json_path = root.join("report.json");
    assert!(
        run_lint(&root, &json_path).success(),
        "the two doors must pass --check"
    );

    write(
        &root.join("crates/core/src/faults.rs"),
        "impl Platform {\n\
         \x20   fn resubmit(&mut self, record: TraceRecord) {\n\
         \x20       let _ = self.admit(record);\n\
         \x20   }\n\
         }\n",
    );
    assert!(
        !run_lint(&root, &json_path).success(),
        "a third caller of admit must fail --check"
    );
    let json = fs::read_to_string(&json_path).expect("JSON report written");
    assert!(
        json.contains(
            "{\"lint\": \"single-writer\", \"file\": \"crates/core/src/faults.rs\", \"line\": 3,"
        ),
        "single-writer must locate the third door at faults.rs:3\n{json}"
    );
    for owner in ["admission", "platform", "command"] {
        assert!(!json.contains(&format!("\"file\": \"crates/core/src/{owner}.rs\"")));
    }

    fs::remove_dir_all(&root).expect("cleanup");
}

/// The `shared-schema` rule: a schema behind an `Arc` is reachable from a
/// trace record, a journalled submit and a job at once, so nobody edits
/// one in place. A lifecycle handler "fixing up" a job's schema through
/// `Arc::make_mut` flips red at its line; cloning the handle does not.
#[test]
fn editing_a_shared_schema_in_place_flips_red() {
    let root = scratch("sw-schema");
    write(
        &root.join("lint-owners.toml"),
        "[[owner]]\n\
         name = \"shared-schema\"\n\
         path_calls = [\"Arc::make_mut\", \"Arc::get_mut\", \"Arc::try_unwrap\"]\n\
         writers = [\"crates/workload/src/trace.rs\"]\n\
         why = \"a schema is immutable after admission, therefore shared\"\n",
    );
    write(
        &root.join("crates/core/Cargo.toml"),
        "[package]\nname = \"tacc-core\"\n",
    );
    write(
        &root.join("crates/core/src/command.rs"),
        "pub fn submit(schema: &Arc<TaskSchema>) -> Command {\n\
         \x20   Command::Submit { schema: Arc::clone(schema) }\n\
         }\n",
    );
    let json_path = root.join("report.json");
    assert!(
        run_lint(&root, &json_path).success(),
        "sharing the handle must pass --check"
    );

    write(
        &root.join("crates/core/src/lifecycle.rs"),
        "pub fn shrink(job: &mut Job) {\n\
         \x20   let schema = Arc::make_mut(&mut job.schema);\n\
         \x20   schema.workers = 1;\n\
         }\n\
         pub fn reclaim(schema: Arc<TaskSchema>) -> Option<TaskSchema> {\n\
         \x20   Arc::try_unwrap(schema).ok()\n\
         }\n",
    );
    assert!(
        !run_lint(&root, &json_path).success(),
        "an in-place edit of a shared schema must fail --check"
    );
    let json = fs::read_to_string(&json_path).expect("JSON report written");
    for line in [2, 6] {
        assert!(
            json.contains(&format!(
                "{{\"lint\": \"single-writer\", \"file\": \"crates/core/src/lifecycle.rs\", \"line\": {line},"
            )),
            "single-writer must locate the edit at lifecycle.rs:{line}\n{json}"
        );
    }
    assert!(!json.contains("\"file\": \"crates/core/src/command.rs\""));

    fs::remove_dir_all(&root).expect("cleanup");
}

/// The `declared-codecs` rule: a record's JSON is spelled once, in its
/// `record!` declaration. A hand-written writer that escapes its own
/// strings, or a reader that opens its own cursor, outside `tacc-json`
/// flips red at its line; the same calls inside `tacc-json` do not.
#[test]
fn a_hand_written_codec_outside_tacc_json_flips_red() {
    let root = scratch("sw-codecs");
    write(
        &root.join("lint-owners.toml"),
        "[[owner]]\n\
         name = \"declared-codecs\"\n\
         methods = [\"write_escaped\"]\n\
         path_calls = [\"Cursor::new\"]\n\
         writers = [\"crates/json/src/lib.rs\", \"crates/json/src/record.rs\"]\n\
         why = \"a record's JSON is spelled once, in its declaration\"\n",
    );
    write(
        &root.join("crates/json/Cargo.toml"),
        "[package]\nname = \"tacc-json\"\n",
    );
    write(
        &root.join("crates/json/src/record.rs"),
        "pub fn from_text(text: &str) -> bool {\n\
         \x20   let mut r = Cursor::new(text);\n\
         \x20   r.at_end()\n\
         }\n\
         pub fn write_str(s: &str, out: &mut String) {\n\
         \x20   write_escaped(s, out);\n\
         }\n",
    );
    write(
        &root.join("crates/obs/Cargo.toml"),
        "[package]\nname = \"tacc-obs\"\n",
    );
    write(
        &root.join("crates/obs/src/events.rs"),
        "pub fn kind(event: &Event) -> &str {\n\
         \x20   event.kind()\n\
         }\n",
    );
    let json_path = root.join("report.json");
    assert!(
        run_lint(&root, &json_path).success(),
        "codecs inside tacc-json must pass --check"
    );

    write(
        &root.join("crates/obs/src/events.rs"),
        "pub fn write_name(name: &str, out: &mut String) {\n\
         \x20   out.push_str(\"{\\\"name\\\":\");\n\
         \x20   write_escaped(name, out);\n\
         }\n\
         pub fn read_seq(text: &str) -> Option<u64> {\n\
         \x20   let mut r = Cursor::new(text);\n\
         \x20   r.u64()\n\
         }\n",
    );
    assert!(
        !run_lint(&root, &json_path).success(),
        "a hand-written codec must fail --check"
    );
    let json = fs::read_to_string(&json_path).expect("JSON report written");
    for line in [3, 6] {
        assert!(
            json.contains(&format!(
                "{{\"lint\": \"single-writer\", \"file\": \"crates/obs/src/events.rs\", \"line\": {line},"
            )),
            "single-writer must locate the codec at events.rs:{line}\n{json}"
        );
    }
    assert!(!json.contains("\"file\": \"crates/json/src/record.rs\""));

    fs::remove_dir_all(&root).expect("cleanup");
}

/// The `journal-frame-encoding` rule: a journal frame is encoded by the
/// commit stage, in `journal.rs`. The engine's apply stage framing a
/// record itself flips red at its line; the journal's own call does not.
#[test]
fn a_frame_encoded_on_the_apply_stage_flips_red() {
    let root = scratch("sw-frames");
    write(
        &root.join("lint-owners.toml"),
        "[[owner]]\n\
         name = \"journal-frame-encoding\"\n\
         methods = [\"frame_into\"]\n\
         writers = [\"crates/core/src/wire.rs\", \"crates/taccd/src/journal.rs\"]\n\
         why = \"a journal frame is encoded on the commit stage\"\n",
    );
    write(
        &root.join("crates/taccd/Cargo.toml"),
        "[package]\nname = \"tacc-taccd\"\n",
    );
    write(
        &root.join("crates/taccd/src/journal.rs"),
        "pub fn commit(out: &mut Vec<u8>, record: &CommandRecord) {\n\
         \x20   wire::frame_into(out, |payload| record.write_json(payload));\n\
         }\n",
    );
    write(
        &root.join("crates/taccd/src/engine.rs"),
        "pub fn apply(pending: &mut Vec<CommandRecord>, record: CommandRecord) {\n\
         \x20   pending.push(record);\n\
         }\n",
    );
    let json_path = root.join("report.json");
    assert!(
        run_lint(&root, &json_path).success(),
        "framing in journal.rs must pass --check"
    );

    write(
        &root.join("crates/taccd/src/engine.rs"),
        "pub fn apply(pending: &mut Vec<u8>, record: &CommandRecord) {\n\
         \x20   wire::frame_into(pending, |payload| record.write_json(payload));\n\
         }\n",
    );
    assert!(
        !run_lint(&root, &json_path).success(),
        "a frame encoded in engine.rs must fail --check"
    );
    let json = fs::read_to_string(&json_path).expect("JSON report written");
    assert!(
        json.contains(
            "{\"lint\": \"single-writer\", \"file\": \"crates/taccd/src/engine.rs\", \"line\": 2,"
        ),
        "single-writer must locate the call at engine.rs:2\n{json}"
    );
    assert!(!json.contains("\"file\": \"crates/taccd/src/journal.rs\""));

    fs::remove_dir_all(&root).expect("cleanup");
}

/// A reasoned inline allow suppresses a single rogue site — visible in
/// the report's suppression list, not fatal.
#[test]
fn reasoned_allow_suppresses_a_rogue_write() {
    let root = scratch("sw-allow");
    seed_workspace(&root);
    write(
        &root.join("crates/core/src/migration.rs"),
        "pub fn backfill(job: &mut Job) {\n\
         \x20   // tacc-lint: allow(single-writer, reason = \"one-shot trace-import backfill\")\n\
         \x20   job.state = JobState::Completed;\n\
         }\n",
    );

    let json_path = root.join("report.json");
    assert!(
        run_lint(&root, &json_path).success(),
        "a reasoned allow must keep --check green"
    );
    let json = fs::read_to_string(&json_path).expect("JSON report written");
    assert!(
        json.contains("\"reason\": \"one-shot trace-import backfill\""),
        "the suppression must be visible in the report\n{json}"
    );
    fs::remove_dir_all(&root).expect("cleanup");
}
