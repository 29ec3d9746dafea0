//! The self-contained task schema (paper §3.1, Task Schema Layer).

use std::fmt;
use std::sync::{Arc, OnceLock};

use tacc_cluster::ResourceVec;
use tacc_json::OrDefault;

use crate::group::GroupId;

tacc_json::record! {
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
        Guaranteed = "guaranteed",
        /// Runs on borrowed/idle capacity; preemptible on reclaim.
        BestEffort = "best-effort",
    }
}

impl QosClass {
    /// Whether the scheduler may preempt tasks of this class.
    pub fn preemptible(self) -> bool {
        matches!(self, QosClass::BestEffort)
    }
}

impl fmt::Display for QosClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

tacc_json::record! {
    /// What kind of application a task is; drives duration/demand shape in the
    /// generator and runtime selection in the execution layer.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum TaskKind {
        /// Batch DNN training (the dominant class).
        Training = "training",
        /// Interactive development session (notebooks, debugging).
        Interactive = "interactive",
        /// Batch inference / evaluation sweeps.
        Inference = "inference",
        /// CPU-only preprocessing or analysis.
        CpuBatch = "cpu-batch",
    }
}

impl TaskKind {
    /// True for tasks that request no GPUs.
    pub fn is_cpu_only(self) -> bool {
        matches!(self, TaskKind::CpuBatch)
    }
}

impl fmt::Display for TaskKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

tacc_json::record! {
    /// Which underlying runtime system the user asks the execution layer for.
    ///
    /// Per the paper, the choice "could be either indicated in the user's task
    /// description or dynamically determined by the other layers" — `Auto`
    /// defers to the execution layer's selection logic.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
    pub enum RuntimePreference {
        /// Let the platform choose (the default and common case).
        #[default]
        Auto = "auto",
        /// All-reduce based data-parallel training (DDP-style).
        AllReduce = "all-reduce",
        /// Parameter-server based training.
        ParameterServer = "parameter-server",
        /// In-network aggregation on programmable switches (ATP-style): the
        /// rack switch sums gradients at line rate. Only available to gangs
        /// that fit in one rack; the execution layer falls back to all-reduce
        /// otherwise.
        InNetworkAggregation = "in-network-aggregation",
        /// Plain single-process execution.
        SingleProcess = "single-process",
    }
}

/// Third-party dependency bundles, as (name, size in MiB): one slice
/// every environment that needs the same set shares.
pub type Dependencies = Arc<[(Arc<str>, u32)]>;

tacc_json::record! {
    /// The runtime environment a task needs: container image, dependencies and
    /// dataset. Sizes are carried so the compiler layer can model provisioning
    /// cost and delta caching (experiment T3).
    ///
    /// Campus tasks share a few images, bundles and datasets, so each is
    /// a shared handle: the trace generator builds them once and every
    /// schema it makes clones a pointer.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RuntimeEnv {
        /// Base image name (e.g. `pytorch-2.1-cuda12`).
        pub image: Arc<str>,
        /// Third-party dependency bundles.
        pub dependencies: Dependencies,
        /// Input dataset reference and size in MiB (0 for none).
        pub dataset: Option<(Arc<str>, u32)>,
        /// User code size in MiB (almost always tiny; kept for cache math).
        pub code_mb: u32,
    }
}

impl RuntimeEnv {
    /// A minimal environment with just an image and small user code.
    pub fn image_only(image: impl Into<Arc<str>>) -> Self {
        RuntimeEnv {
            image: image.into(),
            dependencies: Arc::default(),
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

tacc_json::record! {
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

tacc_json::record! {
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
        /// Human-readable task name, shared with the events and status
        /// answers that name the job.
        pub name: Arc<str>,
        /// Submitting research group (tenant).
        pub group: GroupId,
        /// Number of parallel workers (gang size). 1 for single-process tasks.
        pub workers: u32,
        /// Resources **per worker**.
        pub resources: ResourceVec,
        /// QoS class (quota vs. borrowed capacity).
        pub qos: QosClass,
        /// Application kind.
        #[json(rename = "task_kind")]
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
        /// A hand-written schema may leave it out.
        #[json(with = OrDefault)]
        pub elastic: bool,
    }
}

impl TaskSchema {
    /// Starts building a schema for a named task owned by `group`.
    pub fn builder(name: &str, group: GroupId) -> TaskSchemaBuilder {
        TaskSchemaBuilder {
            schema: TaskSchema {
                name: name.into(),
                group,
                workers: 1,
                resources: ResourceVec::gpus_only(1),
                qos: QosClass::Guaranteed,
                kind: TaskKind::Training,
                runtime: RuntimePreference::Auto,
                env: RuntimeEnv::image_only(default_image()),
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
}

/// The image a builder's schema runs until [`TaskSchemaBuilder::env`]
/// says otherwise: one string every such schema shares, so a builder
/// allocates none for it.
fn default_image() -> Arc<str> {
    static IMAGE: OnceLock<Arc<str>> = OnceLock::new();
    Arc::clone(IMAGE.get_or_init(|| Arc::from("pytorch-2.1-cuda12")))
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
    use tacc_json::{obj, Json};

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
            image: "img".into(),
            dependencies: Arc::new([("torch".into(), 800), ("cuda".into(), 2000)]),
            dataset: Some(("imagenet-subset".into(), 5000)),
            code_mb: 5,
        };
        assert_eq!(env.total_mb(), 7805);
        assert_eq!(RuntimeEnv::image_only("x").total_mb(), 5);
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
                s.env.dataset = Some(("inf".into(), 5000));
                s.env.dependencies = Arc::new([("nan".into(), 1), ("torch".into(), 800)]);
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

    /// `elastic` may be left out, but when present it is a boolean: a
    /// quoted `"true"` is refused, not read as a non-elastic task.
    #[test]
    fn a_non_boolean_elastic_is_refused() {
        let text = base().elastic(true).build().expect("valid").to_json();
        let text = text.to_string();
        let quoted = text.replace("\"elastic\":true", "\"elastic\":\"true\"");
        assert_ne!(quoted, text);
        let read = TaskSchema::from_json(&tacc_json::parse(&quoted).expect("parses"));
        assert_eq!(
            read,
            Err("missing or non-boolean field 'elastic'".to_owned())
        );
    }

    /// A group id no `GroupId` can hold is refused on both readers, not a
    /// panic in `GroupId::from_index`.
    #[test]
    fn a_group_past_u32_is_refused() {
        let text = base().build().expect("valid").to_json().to_string();
        let wide = text.replace("\"group\":0", "\"group\":4294967296");
        assert_ne!(wide, text);
        let refused = Err("field 'group' exceeds u32".to_owned());
        assert_eq!(TaskSchema::from_text(&wide), refused);
        let tree = TaskSchema::from_json(&tacc_json::parse(&wide).expect("parses"));
        assert_eq!(tree, refused);
    }
}
