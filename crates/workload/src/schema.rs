//! The self-contained task schema (paper §3.1, Task Schema Layer).

use std::fmt;

use tacc_cluster::ResourceVec;
use tacc_json::{obj, write_escaped, write_num, Cursor, Json, TextSink};

use crate::group::GroupId;

/// Quality-of-service class of a task.
///
/// `Guaranteed` tasks run within their group's quota and are never
/// preempted; `BestEffort` tasks may use idle capacity borrowed from other
/// groups and can be preempted when the owner reclaims it. This is the
/// mechanism behind the quota-borrowing experiments (F2/F5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum QosClass {
    /// Runs within the group quota; not preemptible.
    #[default]
    Guaranteed,
    /// Runs on borrowed/idle capacity; preemptible on reclaim.
    BestEffort,
}

impl QosClass {
    /// Whether the scheduler may preempt tasks of this class.
    pub fn preemptible(self) -> bool {
        matches!(self, QosClass::BestEffort)
    }
}

impl QosClass {
    /// The class's name in a schema file.
    fn tag(self) -> &'static str {
        match self {
            QosClass::Guaranteed => "guaranteed",
            QosClass::BestEffort => "best-effort",
        }
    }

    fn from_tag(tag: &str) -> Option<QosClass> {
        [QosClass::Guaranteed, QosClass::BestEffort]
            .into_iter()
            .find(|q| q.tag() == tag)
    }
}

impl fmt::Display for QosClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// What kind of application a task is; drives duration/demand shape in the
/// generator and runtime selection in the execution layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Batch DNN training (the dominant class).
    Training,
    /// Interactive development session (notebooks, debugging).
    Interactive,
    /// Batch inference / evaluation sweeps.
    Inference,
    /// CPU-only preprocessing or analysis.
    CpuBatch,
}

impl TaskKind {
    /// True for tasks that request no GPUs.
    pub fn is_cpu_only(self) -> bool {
        matches!(self, TaskKind::CpuBatch)
    }
}

impl TaskKind {
    /// The kind's name in a schema file.
    fn tag(self) -> &'static str {
        match self {
            TaskKind::Training => "training",
            TaskKind::Interactive => "interactive",
            TaskKind::Inference => "inference",
            TaskKind::CpuBatch => "cpu-batch",
        }
    }

    fn from_tag(tag: &str) -> Option<TaskKind> {
        [
            TaskKind::Training,
            TaskKind::Interactive,
            TaskKind::Inference,
            TaskKind::CpuBatch,
        ]
        .into_iter()
        .find(|k| k.tag() == tag)
    }
}

impl fmt::Display for TaskKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// Which underlying runtime system the user asks the execution layer for.
///
/// Per the paper, the choice "could be either indicated in the user's task
/// description or dynamically determined by the other layers" — `Auto`
/// defers to the execution layer's selection logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RuntimePreference {
    /// Let the platform choose (the default and common case).
    #[default]
    Auto,
    /// All-reduce based data-parallel training (DDP-style).
    AllReduce,
    /// Parameter-server based training.
    ParameterServer,
    /// In-network aggregation on programmable switches (ATP-style): the
    /// rack switch sums gradients at line rate. Only available to gangs
    /// that fit in one rack; the execution layer falls back to all-reduce
    /// otherwise.
    InNetworkAggregation,
    /// Plain single-process execution.
    SingleProcess,
}

impl RuntimePreference {
    /// Every preference, in declaration order (the closed set the event
    /// stream's read-back accepts).
    pub const ALL: [RuntimePreference; 5] = [
        RuntimePreference::Auto,
        RuntimePreference::AllReduce,
        RuntimePreference::ParameterServer,
        RuntimePreference::InNetworkAggregation,
        RuntimePreference::SingleProcess,
    ];

    /// The preference's name in a schema file.
    fn tag(self) -> &'static str {
        match self {
            RuntimePreference::Auto => "auto",
            RuntimePreference::AllReduce => "all-reduce",
            RuntimePreference::ParameterServer => "parameter-server",
            RuntimePreference::InNetworkAggregation => "in-network-aggregation",
            RuntimePreference::SingleProcess => "single-process",
        }
    }

    fn from_tag(tag: &str) -> Option<RuntimePreference> {
        RuntimePreference::ALL.into_iter().find(|r| r.tag() == tag)
    }
}

/// The runtime environment a task needs: container image, dependencies and
/// dataset. Sizes are carried so the compiler layer can model provisioning
/// cost and delta caching (experiment T3).
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeEnv {
    /// Base image name (e.g. `pytorch-2.1-cuda12`).
    pub image: String,
    /// Third-party dependency bundles, as (name, size in MiB).
    pub dependencies: Vec<(String, u32)>,
    /// Input dataset reference and size in MiB (0 for none).
    pub dataset: Option<(String, u32)>,
    /// User code size in MiB (almost always tiny; kept for cache math).
    pub code_mb: u32,
}

impl RuntimeEnv {
    /// A minimal environment with just an image and small user code.
    pub fn image_only(image: &str) -> Self {
        RuntimeEnv {
            image: image.to_owned(),
            dependencies: Vec::new(),
            dataset: None,
            code_mb: 5,
        }
    }

    /// Total bytes the compiler would have to materialize with no cache, in MiB.
    pub fn total_mb(&self) -> u64 {
        let deps: u64 = self.dependencies.iter().map(|&(_, s)| u64::from(s)).sum();
        let data: u64 = self
            .dataset
            .as_ref()
            .map(|&(_, s)| u64::from(s))
            .unwrap_or(0);
        deps + data + u64::from(self.code_mb)
    }
}

/// Communication-relevant profile of the model a training task runs.
///
/// The execution layer's iteration-time model (experiment F6) needs the
/// parameter size (bytes moved per all-reduce round) and the per-GPU compute
/// time per iteration on the reference GPU (V100).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelProfile {
    /// Model parameters in MiB (gradient volume per synchronization round).
    pub param_mb: f64,
    /// Compute time of one iteration on one reference GPU, in seconds.
    pub compute_secs_per_iter: f64,
}

impl ModelProfile {
    /// A ResNet-50-like profile: ~100 MiB of parameters, short iterations.
    pub fn resnet50_like() -> Self {
        ModelProfile {
            param_mb: 100.0,
            compute_secs_per_iter: 0.3,
        }
    }

    /// A GPT-2-like profile: ~1.5 GiB of parameters, long iterations.
    pub fn gpt2_like() -> Self {
        ModelProfile {
            param_mb: 1500.0,
            compute_secs_per_iter: 1.2,
        }
    }

    /// A small-CNN profile used by interactive/debug sessions.
    pub fn small_cnn() -> Self {
        ModelProfile {
            param_mb: 20.0,
            compute_secs_per_iter: 0.08,
        }
    }

    /// A BERT-large-like profile: ~1.3 GiB of parameters, medium
    /// iterations — the classic NLP fine-tuning workhorse.
    pub fn bert_large_like() -> Self {
        ModelProfile {
            param_mb: 1_300.0,
            compute_secs_per_iter: 0.6,
        }
    }

    /// A ViT-like profile: vision transformer, ~350 MiB of parameters.
    pub fn vit_like() -> Self {
        ModelProfile {
            param_mb: 350.0,
            compute_secs_per_iter: 0.45,
        }
    }

    /// A 7B-LLM-like profile under tensor/data hybrid parallelism:
    /// gradients sharded to ~3.5 GiB per data-parallel rank group, long
    /// iterations. Stress-tests the communication models.
    pub fn llm_7b_like() -> Self {
        ModelProfile {
            param_mb: 3_500.0,
            compute_secs_per_iter: 2.5,
        }
    }
}

/// The self-contained description of a task (paper §3.1).
///
/// "All tasks submitted to TACC should be described with this
/// self-contained, unified task schema, which guarantees consistent and
/// reproducible task execution." Every field group called out by the paper
/// is present: compute/network resources and QoS; application code,
/// dependencies and input dataset; runtime environment and provisioning
/// configuration.
///
/// Construct with [`TaskSchema::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSchema {
    /// Human-readable task name.
    pub name: String,
    /// Submitting research group (tenant).
    pub group: GroupId,
    /// Number of parallel workers (gang size). 1 for single-process tasks.
    pub workers: u32,
    /// Resources **per worker**.
    pub resources: ResourceVec,
    /// QoS class (quota vs. borrowed capacity).
    pub qos: QosClass,
    /// Application kind.
    pub kind: TaskKind,
    /// Requested runtime system.
    pub runtime: RuntimePreference,
    /// Runtime environment (image, deps, dataset).
    pub env: RuntimeEnv,
    /// The user's estimate of run duration in seconds (scheduling hint for
    /// SJF/backfill; real traces show this is noisy, and the generator
    /// models that noise).
    pub est_duration_secs: f64,
    /// Communication profile for distributed training tasks.
    pub model: Option<ModelProfile>,
    /// Whether the scheduler may start this task with fewer workers than
    /// requested (Pollux-style elastic admission): a shrunken gang runs
    /// proportionally longer. Only meaningful for data-parallel training.
    pub elastic: bool,
}

impl TaskSchema {
    /// Starts building a schema for a named task owned by `group`.
    pub fn builder(name: &str, group: GroupId) -> TaskSchemaBuilder {
        TaskSchemaBuilder {
            schema: TaskSchema {
                name: name.to_owned(),
                group,
                workers: 1,
                resources: ResourceVec::gpus_only(1),
                qos: QosClass::Guaranteed,
                kind: TaskKind::Training,
                runtime: RuntimePreference::Auto,
                env: RuntimeEnv::image_only("pytorch-2.1-cuda12"),
                est_duration_secs: 3600.0,
                model: Some(ModelProfile::resnet50_like()),
                elastic: false,
            },
        }
    }

    /// Total resources across all workers.
    pub fn total_resources(&self) -> ResourceVec {
        let mut total = ResourceVec::ZERO;
        for _ in 0..self.workers {
            total += self.resources;
        }
        total
    }

    /// Total GPUs across all workers.
    pub fn total_gpus(&self) -> u32 {
        self.resources.gpus * self.workers
    }

    /// Whether this is a multi-worker (gang-scheduled) task.
    pub fn is_distributed(&self) -> bool {
        self.workers > 1
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found:
    /// zero workers, zero resources for a non-CPU task, or a non-positive
    /// duration estimate.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("task must have at least one worker".to_owned());
        }
        if self.resources.is_zero() {
            return Err("task requests no resources".to_owned());
        }
        if self.kind.is_cpu_only() && self.resources.gpus > 0 {
            return Err("cpu-batch task must not request GPUs".to_owned());
        }
        if !self.kind.is_cpu_only() && self.resources.gpus == 0 {
            return Err(format!("{} task must request at least one GPU", self.kind));
        }
        if !(self.est_duration_secs > 0.0 && self.est_duration_secs.is_finite()) {
            return Err("estimated duration must be positive".to_owned());
        }
        if self.is_distributed() && self.model.is_none() && self.kind == TaskKind::Training {
            return Err("distributed training task needs a model profile".to_owned());
        }
        Ok(())
    }

    /// The schema as its one JSON shape — what `tcloud submit` reads, the
    /// `taccd` journal stores and a trace file carries.
    pub fn to_json(&self) -> Json {
        let pair = |(name, mb): &(String, u32)| {
            Json::Arr(vec![Json::Str(name.clone()), Json::Num(f64::from(*mb))])
        };
        let model = match &self.model {
            Some(m) => obj(vec![
                ("param_mb", Json::Num(m.param_mb)),
                ("compute_secs_per_iter", Json::Num(m.compute_secs_per_iter)),
            ]),
            None => Json::Null,
        };
        obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("group", Json::Num(self.group.index() as f64)),
            ("workers", Json::Num(f64::from(self.workers))),
            (
                "resources",
                obj(vec![
                    ("gpus", Json::Num(f64::from(self.resources.gpus))),
                    ("cpu_cores", Json::Num(f64::from(self.resources.cpu_cores))),
                    ("mem_gb", Json::Num(f64::from(self.resources.mem_gb))),
                ]),
            ),
            ("qos", Json::Str(self.qos.tag().to_owned())),
            ("task_kind", Json::Str(self.kind.tag().to_owned())),
            ("runtime", Json::Str(self.runtime.tag().to_owned())),
            (
                "env",
                obj(vec![
                    ("image", Json::Str(self.env.image.clone())),
                    (
                        "dependencies",
                        Json::Arr(self.env.dependencies.iter().map(pair).collect()),
                    ),
                    (
                        "dataset",
                        self.env.dataset.as_ref().map_or(Json::Null, pair),
                    ),
                    ("code_mb", Json::Num(f64::from(self.env.code_mb))),
                ]),
            ),
            ("est_duration_secs", Json::Num(self.est_duration_secs)),
            ("model", model),
            ("elastic", Json::Bool(self.elastic)),
        ])
    }

    /// Streams the text [`TaskSchema::to_json`] prints, with no tree in
    /// between: the `taccd` journal encodes every submission through
    /// this. The two writers spell one shape; `core`'s
    /// `streamed_records_equal_the_tree_writers` holds them together.
    pub fn write_json<W: TextSink + ?Sized>(&self, out: &mut W) {
        fn pair<W: TextSink + ?Sized>((name, mb): &(String, u32), out: &mut W) {
            out.push_str("[");
            write_escaped(name, out);
            out.push_str(",");
            write_num(f64::from(*mb), out);
            out.push_str("]");
        }
        out.push_str("{\"name\":");
        write_escaped(&self.name, out);
        out.push_str(",\"group\":");
        write_num(self.group.index() as f64, out);
        out.push_str(",\"workers\":");
        write_num(f64::from(self.workers), out);
        out.push_str(",\"resources\":{\"gpus\":");
        write_num(f64::from(self.resources.gpus), out);
        out.push_str(",\"cpu_cores\":");
        write_num(f64::from(self.resources.cpu_cores), out);
        out.push_str(",\"mem_gb\":");
        write_num(f64::from(self.resources.mem_gb), out);
        out.push_str("},\"qos\":");
        write_escaped(self.qos.tag(), out);
        out.push_str(",\"task_kind\":");
        write_escaped(self.kind.tag(), out);
        out.push_str(",\"runtime\":");
        write_escaped(self.runtime.tag(), out);
        out.push_str(",\"env\":{\"image\":");
        write_escaped(&self.env.image, out);
        out.push_str(",\"dependencies\":[");
        for (i, dep) in self.env.dependencies.iter().enumerate() {
            if i > 0 {
                out.push_str(",");
            }
            pair(dep, out);
        }
        out.push_str("],\"dataset\":");
        match &self.env.dataset {
            Some(dataset) => pair(dataset, out),
            None => out.push_str("null"),
        }
        out.push_str(",\"code_mb\":");
        write_num(f64::from(self.env.code_mb), out);
        out.push_str("},\"est_duration_secs\":");
        write_num(self.est_duration_secs, out);
        out.push_str(",\"model\":");
        match &self.model {
            Some(m) => {
                out.push_str("{\"param_mb\":");
                write_num(m.param_mb, out);
                out.push_str(",\"compute_secs_per_iter\":");
                write_num(m.compute_secs_per_iter, out);
                out.push_str("}");
            }
            None => out.push_str("null"),
        }
        out.push_str(if self.elastic {
            ",\"elastic\":true}"
        } else {
            ",\"elastic\":false}"
        });
    }

    /// Reads back the text [`TaskSchema::write_json`] prints, with no
    /// tree in between: the same schema [`TaskSchema::from_json`] reads
    /// from it. `None` for any other spelling, which `from_json` may
    /// still read.
    pub fn read_json(r: &mut Cursor<'_>) -> Option<TaskSchema> {
        fn pair(r: &mut Cursor<'_>) -> Option<(String, u32)> {
            r.lit("[")?;
            let name = r.str()?.to_owned();
            r.lit(",")?;
            let mb = r.u32()?;
            r.lit("]")?;
            Some((name, mb))
        }
        r.lit("{\"name\":")?;
        let name = r.str()?.to_owned();
        r.lit(",\"group\":")?;
        let group = GroupId::from_index(usize::try_from(r.u64()?).ok()?);
        r.lit(",\"workers\":")?;
        let workers = r.u32()?;
        r.lit(",\"resources\":{\"gpus\":")?;
        let gpus = r.u32()?;
        r.lit(",\"cpu_cores\":")?;
        let cpu_cores = r.u32()?;
        r.lit(",\"mem_gb\":")?;
        let mem_gb = r.u32()?;
        r.lit("},\"qos\":")?;
        let qos = QosClass::from_tag(r.str()?)?;
        r.lit(",\"task_kind\":")?;
        let kind = TaskKind::from_tag(r.str()?)?;
        r.lit(",\"runtime\":")?;
        let runtime = RuntimePreference::from_tag(r.str()?)?;
        r.lit(",\"env\":{\"image\":")?;
        let image = r.str()?.to_owned();
        r.lit(",\"dependencies\":[")?;
        let mut dependencies = Vec::new();
        if !r.eat("]") {
            loop {
                dependencies.push(pair(r)?);
                if r.eat("]") {
                    break;
                }
                r.lit(",")?;
            }
        }
        r.lit(",\"dataset\":")?;
        let dataset = if r.eat("null") { None } else { Some(pair(r)?) };
        r.lit(",\"code_mb\":")?;
        let code_mb = r.u32()?;
        r.lit("},\"est_duration_secs\":")?;
        let est_duration_secs = r.num()?;
        r.lit(",\"model\":")?;
        let model = if r.eat("null") {
            None
        } else {
            r.lit("{\"param_mb\":")?;
            let param_mb = r.num()?;
            r.lit(",\"compute_secs_per_iter\":")?;
            let compute_secs_per_iter = r.num()?;
            r.lit("}")?;
            Some(ModelProfile {
                param_mb,
                compute_secs_per_iter,
            })
        };
        let elastic = r.eat(",\"elastic\":true}");
        if !elastic {
            r.lit(",\"elastic\":false}")?;
        }
        Some(TaskSchema {
            name,
            group,
            workers,
            resources: ResourceVec {
                gpus,
                cpu_cores,
                mem_gb,
            },
            qos,
            kind,
            runtime,
            env: RuntimeEnv {
                image,
                dependencies,
                dataset,
                code_mb,
            },
            est_duration_secs,
            model,
            elastic,
        })
    }

    /// Reads a schema back from [`TaskSchema::to_json`]'s shape. `model`,
    /// `dataset` and `elastic` may be absent; the result is not yet
    /// [validated](TaskSchema::validate).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed field.
    pub fn from_json(value: &Json) -> Result<TaskSchema, String> {
        let qos = value.req_str("qos")?;
        let qos = QosClass::from_tag(qos).ok_or_else(|| format!("unknown qos '{qos}'"))?;
        let kind = value.req_str("task_kind")?;
        let kind = TaskKind::from_tag(kind).ok_or_else(|| format!("unknown task kind '{kind}'"))?;
        let runtime = value.req_str("runtime")?;
        let runtime = RuntimePreference::from_tag(runtime)
            .ok_or_else(|| format!("unknown runtime '{runtime}'"))?;
        let res = value
            .get("resources")
            .ok_or("schema missing field 'resources'")?;
        let resources = ResourceVec {
            gpus: res.req_u32("gpus")?,
            cpu_cores: res.req_u32("cpu_cores")?,
            mem_gb: res.req_u32("mem_gb")?,
        };
        let env_v = value.get("env").ok_or("schema missing field 'env'")?;
        let mut dependencies = Vec::new();
        for dep in env_v
            .get("dependencies")
            .and_then(Json::as_arr)
            .ok_or("env missing array field 'dependencies'")?
        {
            dependencies.push(pair_from_json(dep).ok_or("malformed dependency entry")?);
        }
        let dataset = match env_v.get("dataset") {
            Some(Json::Null) | None => None,
            Some(v) => Some(pair_from_json(v).ok_or("malformed dataset entry")?),
        };
        let env = RuntimeEnv {
            image: env_v.req_str("image")?.to_owned(),
            dependencies,
            dataset,
            code_mb: env_v.req_u32("code_mb")?,
        };
        let model = match value.get("model") {
            Some(Json::Null) | None => None,
            Some(m) => Some(ModelProfile {
                param_mb: m.req_f64("param_mb")?,
                compute_secs_per_iter: m.req_f64("compute_secs_per_iter")?,
            }),
        };
        Ok(TaskSchema {
            name: value.req_str("name")?.to_owned(),
            group: GroupId::from_index(
                usize::try_from(value.req_u64("group")?).map_err(|_| "group index overflow")?,
            ),
            workers: value.req_u32("workers")?,
            resources,
            qos,
            kind,
            runtime,
            env,
            est_duration_secs: value.req_f64("est_duration_secs")?,
            model,
            elastic: value
                .get("elastic")
                .and_then(Json::as_bool)
                .unwrap_or(false),
        })
    }
}

fn pair_from_json(value: &Json) -> Option<(String, u32)> {
    let arr = value.as_arr()?;
    if arr.len() != 2 {
        return None;
    }
    let name = arr[0].as_str()?.to_owned();
    let mb = u32::try_from(arr[1].as_u64()?).ok()?;
    Some((name, mb))
}

/// Builder for [`TaskSchema`] (see [C-BUILDER]).
///
/// [C-BUILDER]: https://rust-lang.github.io/api-guidelines/type-safety.html#builders-enable-construction-of-complex-values-c-builder
#[derive(Debug, Clone)]
pub struct TaskSchemaBuilder {
    schema: TaskSchema,
}

impl TaskSchemaBuilder {
    /// Sets the gang size (number of parallel workers).
    pub fn workers(mut self, workers: u32) -> Self {
        self.schema.workers = workers;
        self
    }

    /// Sets per-worker resources.
    pub fn resources(mut self, resources: ResourceVec) -> Self {
        self.schema.resources = resources;
        self
    }

    /// Sets the QoS class.
    pub fn qos(mut self, qos: QosClass) -> Self {
        self.schema.qos = qos;
        self
    }

    /// Sets the task kind.
    pub fn kind(mut self, kind: TaskKind) -> Self {
        self.schema.kind = kind;
        if kind.is_cpu_only() {
            self.schema.resources = ResourceVec::cpu_only(
                self.schema.resources.cpu_cores.max(1),
                self.schema.resources.mem_gb.max(1),
            );
            self.schema.model = None;
        }
        self
    }

    /// Sets the runtime preference.
    pub fn runtime(mut self, runtime: RuntimePreference) -> Self {
        self.schema.runtime = runtime;
        self
    }

    /// Sets the runtime environment.
    pub fn env(mut self, env: RuntimeEnv) -> Self {
        self.schema.env = env;
        self
    }

    /// Sets the user's duration estimate in seconds.
    pub fn est_duration_secs(mut self, secs: f64) -> Self {
        self.schema.est_duration_secs = secs;
        self
    }

    /// Sets the model communication profile.
    pub fn model(mut self, model: ModelProfile) -> Self {
        self.schema.model = Some(model);
        self
    }

    /// Marks the task elastic: the scheduler may admit it with a smaller
    /// gang (halving workers down to 1) when the full gang does not fit.
    pub fn elastic(mut self, elastic: bool) -> Self {
        self.schema.elastic = elastic;
        self
    }

    /// Finishes and validates the schema.
    ///
    /// # Errors
    ///
    /// Propagates [`TaskSchema::validate`] failures.
    pub fn build(self) -> Result<TaskSchema, String> {
        self.schema.validate()?;
        Ok(self.schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> TaskSchemaBuilder {
        TaskSchema::builder("unit", GroupId::from_index(0))
    }

    #[test]
    fn builder_defaults_are_valid() {
        let s = base().build().expect("defaults valid");
        assert_eq!(s.workers, 1);
        assert_eq!(s.total_gpus(), 1);
        assert!(!s.is_distributed());
        assert_eq!(s.qos, QosClass::Guaranteed);
    }

    #[test]
    fn total_resources_scale_with_workers() {
        let s = base()
            .workers(4)
            .resources(ResourceVec::gpus_only(2))
            .build()
            .expect("valid");
        assert_eq!(s.total_gpus(), 8);
        assert_eq!(s.total_resources().cpu_cores, 4 * 16);
        assert!(s.is_distributed());
    }

    #[test]
    fn validation_rejects_bad_schemas() {
        assert!(base().workers(0).build().is_err());
        assert!(base().resources(ResourceVec::ZERO).build().is_err());
        assert!(base().est_duration_secs(0.0).build().is_err());
        assert!(base().est_duration_secs(f64::NAN).build().is_err());
    }

    #[test]
    fn cpu_kind_strips_gpus() {
        let s = base().kind(TaskKind::CpuBatch).build().expect("valid");
        assert_eq!(s.resources.gpus, 0);
        assert!(s.model.is_none());
        assert!(s.kind.is_cpu_only());
    }

    #[test]
    fn qos_preemptibility() {
        assert!(!QosClass::Guaranteed.preemptible());
        assert!(QosClass::BestEffort.preemptible());
    }

    #[test]
    fn env_total_size() {
        let env = RuntimeEnv {
            image: "img".to_owned(),
            dependencies: vec![("torch".to_owned(), 800), ("cuda".to_owned(), 2000)],
            dataset: Some(("imagenet-subset".to_owned(), 5000)),
            code_mb: 5,
        };
        assert_eq!(env.total_mb(), 7805);
        assert_eq!(RuntimeEnv::image_only("x").total_mb(), 5);
    }

    #[test]
    fn schema_json_round_trip() {
        let s = base()
            .workers(2)
            .qos(QosClass::BestEffort)
            .model(ModelProfile::gpt2_like())
            .build()
            .expect("valid");
        let json = s.to_json().to_string();
        let back = TaskSchema::from_json(&tacc_json::parse(&json).expect("parses"));
        assert_eq!(back, Ok(s));
    }

    #[test]
    fn schema_json_covers_every_enum_value_and_optional_field() {
        let kinds = [
            TaskKind::Training,
            TaskKind::Interactive,
            TaskKind::Inference,
            TaskKind::CpuBatch,
        ];
        let runtimes = [
            RuntimePreference::Auto,
            RuntimePreference::AllReduce,
            RuntimePreference::ParameterServer,
            RuntimePreference::InNetworkAggregation,
            RuntimePreference::SingleProcess,
        ];
        for (i, runtime) in runtimes.into_iter().enumerate() {
            let mut s = base()
                .kind(kinds[i % kinds.len()])
                .runtime(runtime)
                .elastic(i % 2 == 0)
                .build()
                .expect("valid");
            if i % 2 == 1 {
                s.env.dataset = Some(("inf".to_owned(), 5000));
                s.env.dependencies = vec![("nan".to_owned(), 1), ("torch".to_owned(), 800)];
            }
            let back = TaskSchema::from_json(&tacc_json::parse(&s.to_json().to_string()).unwrap());
            assert_eq!(back, Ok(s));
        }
        // `model`, `dataset` and `elastic` may be left out of a hand-written file.
        let Json::Obj(mut fields) = base().build().expect("valid").to_json() else {
            panic!("a schema is an object");
        };
        fields.retain(|(k, _)| k != "model" && k != "elastic");
        let sparse = TaskSchema::from_json(&Json::Obj(fields)).expect("reads");
        assert_eq!((sparse.model, sparse.elastic), (None, false));
        assert!(TaskSchema::from_json(&obj(vec![("name", "x".into())])).is_err());
    }
}
