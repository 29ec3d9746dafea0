//! The compiler: schema in, execution instruction out.

use std::fmt;

use tacc_obs::{Histogram, MetricsRegistry};
use tacc_workload::{RuntimePreference, TaskSchema};

use crate::cache::{ChunkCache, ChunkId, ChunkName};
use crate::instruction::{CompiledTask, ExecutionInstruction, InstructionKind, Provisioning};

/// Errors from the compiler layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CompileError {
    /// The schema failed validation; the message explains why.
    InvalidSchema(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::InvalidSchema(msg) => write!(f, "invalid task schema: {msg}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Configuration of the compiler layer's cost model and cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompilerConfig {
    /// Shared chunk-cache capacity in MiB (registry + NFS cache tier).
    pub cache_capacity_mb: u64,
    /// Transfer bandwidth for cache misses, MiB/s (registry/NFS over the
    /// datacenter fabric).
    pub fetch_bandwidth_mbps: f64,
    /// Fixed setup latency per compilation, seconds (container start,
    /// directory setup, interconnect wiring).
    pub base_latency_secs: f64,
    /// Dataset shard size in MiB (datasets are chunked at this granularity
    /// so partial overlap still deduplicates).
    pub dataset_shard_mb: u32,
}

impl Default for CompilerConfig {
    fn default() -> Self {
        CompilerConfig {
            cache_capacity_mb: 200_000, // 200 GB cache tier
            fetch_bandwidth_mbps: 1_000.0,
            base_latency_secs: 5.0,
            dataset_shard_mb: 512,
        }
    }
}

/// The compiler layer: parses schemas, resolves the runtime, and emits
/// execution instructions while maintaining the delta cache.
///
/// One `Compiler` instance models one cluster's provisioning tier; the
/// cache persists across compilations, which is precisely the mechanism
/// the paper describes for repeated submissions.
#[derive(Debug)]
pub struct Compiler {
    config: CompilerConfig,
    cache: ChunkCache,
    compilations: u64,
    /// MiB transferred, each compilation's amount rounded to a whole MiB.
    transferred_mb: u64,
    /// `tacc_compiler_provisioning_latency_seconds` in an attached
    /// registry: the one series recorded as compilations run.
    provisioning_latency: Option<Histogram>,
}

/// Base image sizes in MiB; looked up by name, defaulting for unknown images.
fn image_size_mb(image: &str) -> u32 {
    match image {
        "pytorch-2.1-cuda12" => 9_500,
        "pytorch-1.13-cuda11" => 8_200,
        "tensorflow-2.14" => 7_800,
        "jax-0.4-cuda12" => 6_900,
        _ => 5_000,
    }
}

impl Compiler {
    /// Creates a compiler with the given configuration.
    pub fn new(config: CompilerConfig) -> Self {
        Compiler {
            cache: ChunkCache::new(config.cache_capacity_mb),
            config,
            compilations: 0,
            transferred_mb: 0,
            provisioning_latency: None,
        }
    }

    /// Attaches operational metrics: subsequent compilations observe
    /// their provisioning latency (simulated seconds) into `registry`'s
    /// `tacc_compiler_provisioning_latency_seconds` histogram.
    pub fn attach_registry(&mut self, registry: &MetricsRegistry) {
        self.provisioning_latency =
            Some(registry.histogram("tacc_compiler_provisioning_latency_seconds", &[]));
    }

    /// Publishes the compiler's counts into `registry` as they stand:
    /// compilations, chunk-cache hits and misses, MiB transferred and the
    /// byte hit rate. Called at scrape time.
    pub fn publish_metrics(&self, registry: &MetricsRegistry) {
        let stats = self.cache.stats();
        let counter = |series, total| registry.counter(series, &[]).catch_up(total);
        counter("tacc_compiler_compilations_total", self.compilations);
        counter("tacc_compiler_cache_hits_total", stats.hits);
        counter("tacc_compiler_cache_misses_total", stats.misses);
        counter("tacc_compiler_transferred_mb_total", self.transferred_mb);
        registry
            .gauge("tacc_compiler_cache_byte_hit_rate", &[])
            .set(stats.byte_hit_rate());
    }

    /// The configuration in use.
    pub fn config(&self) -> CompilerConfig {
        self.config
    }

    /// Read access to the chunk cache (for experiment reporting).
    pub fn cache(&self) -> &ChunkCache {
        &self.cache
    }

    /// Number of compilations performed.
    pub fn compilations(&self) -> u64 {
        self.compilations
    }

    /// Compiles a schema into an execution instruction, charging the delta
    /// cache for provisioning.
    ///
    /// # Errors
    ///
    /// [`CompileError::InvalidSchema`] if the schema fails validation.
    pub fn compile(&mut self, schema: &TaskSchema) -> Result<CompiledTask, CompileError> {
        schema.validate().map_err(CompileError::InvalidSchema)?;
        self.compilations += 1;

        let kind = Self::instruction_kind(schema);
        let runtime = Self::resolve_runtime(schema);

        // Decompose the environment into content-addressed chunks and pull
        // each through the cache.
        let mut hits: u32 = 0;
        let mut misses: u32 = 0;
        let mut transferred_mb: f64 = 0.0;
        let mut total_mb: f64 = 0.0;
        let mut pull = |cache: &mut ChunkCache, chunk: ChunkId, size_mb: u32| {
            total_mb += f64::from(size_mb);
            if cache.fetch(chunk, size_mb) {
                hits += 1;
            } else {
                misses += 1;
                transferred_mb += f64::from(size_mb);
            }
        };

        // Chunk names ("image:<image>", "dep:<dep>", "dataset:<name>:<i>")
        // are streamed into the address, never built.
        if kind == InstructionKind::ContainerImage {
            let image = &schema.env.image;
            let img_mb = image_size_mb(image);
            let chunk = ChunkName::new().str("image:").str(image).id(img_mb);
            pull(&mut self.cache, chunk, img_mb);
        }
        for (dep, size) in &schema.env.dependencies {
            let chunk = ChunkName::new().str("dep:").str(dep).id(*size);
            pull(&mut self.cache, chunk, *size);
        }
        if let Some((dataset, size)) = &schema.env.dataset {
            // Shard the dataset so partial overlap across jobs still hits.
            let shard = self.config.dataset_shard_mb;
            let shards = ChunkName::new().str("dataset:").str(dataset).str(":");
            for i in 0..size / shard {
                pull(&mut self.cache, shards.index(i).id(shard), shard);
            }
            let tail = size % shard;
            if tail > 0 {
                pull(&mut self.cache, shards.str("tail").id(tail), tail);
            }
        }
        // User code is unique per submission: always transferred, never cached.
        total_mb += f64::from(schema.env.code_mb);
        transferred_mb += f64::from(schema.env.code_mb);

        let latency_secs =
            self.config.base_latency_secs + transferred_mb / self.config.fetch_bandwidth_mbps;

        self.transferred_mb += transferred_mb.round() as u64;
        if let Some(provisioning_latency) = &self.provisioning_latency {
            provisioning_latency.observe(latency_secs);
        }

        Ok(CompiledTask {
            instruction: ExecutionInstruction {
                kind,
                runtime,
                workers: schema.workers,
                payload_mb: total_mb,
            },
            provisioning: Provisioning {
                transferred_mb,
                total_mb,
                chunk_hits: hits,
                chunk_misses: misses,
                latency_secs,
            },
        })
    }

    /// Static instruction-form choice (paper Table 1: "static
    /// characteristic: language, task size").
    fn instruction_kind(schema: &TaskSchema) -> InstructionKind {
        if schema.kind.is_cpu_only() && schema.env.total_mb() < 100 {
            InstructionKind::ShellCommands
        } else {
            InstructionKind::ContainerImage
        }
    }

    /// Resolves `Auto` runtime preferences from static task characteristics:
    /// large gangs with big models synchronize via parameter servers only if
    /// asked; the default for distributed training is all-reduce, single
    /// workers run as plain processes.
    fn resolve_runtime(schema: &TaskSchema) -> RuntimePreference {
        match schema.runtime {
            RuntimePreference::Auto => {
                if schema.workers > 1 || schema.resources.gpus > 1 {
                    RuntimePreference::AllReduce
                } else {
                    RuntimePreference::SingleProcess
                }
            }
            explicit => explicit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacc_cluster::ResourceVec;
    use tacc_workload::{GroupId, RuntimeEnv, TaskKind};

    fn schema() -> TaskSchema {
        TaskSchema::builder("t", GroupId::from_index(0))
            .env(RuntimeEnv {
                image: "pytorch-2.1-cuda12".to_owned(),
                dependencies: vec![("common-ml-stack".to_owned(), 1800)],
                dataset: Some(("wikitext".to_owned(), 600)),
                code_mb: 5,
            })
            .build()
            .expect("valid")
    }

    #[test]
    fn cold_then_warm_compilation() {
        let mut c = Compiler::new(CompilerConfig::default());
        let first = c.compile(&schema()).expect("compiles");
        // Cold: everything transfers.
        assert_eq!(first.provisioning.chunk_hits, 0);
        assert!(first.provisioning.transferred_mb >= first.provisioning.total_mb - 1e-9);
        let second = c.compile(&schema()).expect("compiles");
        // Warm: only the per-job code moves.
        assert_eq!(second.provisioning.chunk_misses, 0);
        assert!((second.provisioning.transferred_mb - 5.0).abs() < 1e-9);
        assert!(second.provisioning.latency_secs < first.provisioning.latency_secs);
        assert!(second.provisioning.delta_savings() > 0.99);
        assert_eq!(c.compilations(), 2);
    }

    #[test]
    fn dataset_sharding_dedupes_partial_overlap() {
        let mut c = Compiler::new(CompilerConfig::default());
        c.compile(&schema()).expect("compiles");
        // Same dataset, different deps: dataset shards still hit.
        let mut other = schema();
        other.env.dependencies = vec![("transformers".to_owned(), 450)];
        let out = c.compile(&other).expect("compiles");
        // Misses are exactly the new dep bundle.
        assert_eq!(out.provisioning.chunk_misses, 1);
        assert!(out.provisioning.chunk_hits >= 2); // image + dataset shards
    }

    #[test]
    fn shell_instruction_for_tiny_cpu_tasks() {
        let mut c = Compiler::new(CompilerConfig::default());
        let s = TaskSchema::builder("prep", GroupId::from_index(1))
            .kind(TaskKind::CpuBatch)
            .resources(ResourceVec::cpu_only(4, 8))
            .env(RuntimeEnv::image_only("busybox"))
            .build()
            .expect("valid");
        let out = c.compile(&s).expect("compiles");
        assert_eq!(out.instruction.kind, InstructionKind::ShellCommands);
        // Shell tasks don't pull the image.
        assert_eq!(out.provisioning.chunk_misses, 0);
    }

    #[test]
    fn runtime_resolution() {
        let mut c = Compiler::new(CompilerConfig::default());
        let distributed = TaskSchema::builder("ddp", GroupId::from_index(0))
            .workers(4)
            .resources(ResourceVec::gpus_only(8))
            .build()
            .expect("valid");
        let out = c.compile(&distributed).expect("compiles");
        assert_eq!(out.instruction.runtime, RuntimePreference::AllReduce);
        assert_eq!(out.instruction.workers, 4);

        let explicit = TaskSchema::builder("ps", GroupId::from_index(0))
            .workers(4)
            .resources(ResourceVec::gpus_only(8))
            .runtime(RuntimePreference::ParameterServer)
            .build()
            .expect("valid");
        let out = c.compile(&explicit).expect("compiles");
        assert_eq!(out.instruction.runtime, RuntimePreference::ParameterServer);
    }

    #[test]
    fn invalid_schema_is_rejected() {
        let mut c = Compiler::new(CompilerConfig::default());
        let mut bad = schema();
        bad.workers = 0;
        match c.compile(&bad) {
            Err(CompileError::InvalidSchema(msg)) => assert!(msg.contains("worker")),
            other => panic!("expected InvalidSchema, got {other:?}"),
        }
    }

    #[test]
    fn instruction_payload_matches_provisioning_total() {
        let mut c = Compiler::new(CompilerConfig::default());
        let out = c.compile(&schema()).expect("compiles");
        assert!((out.instruction.payload_mb - out.provisioning.total_mb).abs() < 1e-9);
        assert_eq!(out.instruction.kind, InstructionKind::ContainerImage);
    }

    #[test]
    fn distinct_images_do_not_share_chunks() {
        let mut c = Compiler::new(CompilerConfig::default());
        c.compile(&schema()).expect("compiles");
        let mut other = schema();
        other.env.image = "tensorflow-2.14".to_owned();
        let out = c.compile(&other).expect("compiles");
        // Dataset and deps hit; the new image misses.
        assert_eq!(out.provisioning.chunk_misses, 1);
        assert!(out.provisioning.transferred_mb > 5_000.0);
    }

    #[test]
    fn capacity_pressure_degrades_hit_rate() {
        let trace_schemas: Vec<TaskSchema> = (0..40)
            .map(|i| {
                let mut s = schema();
                s.env.dataset = Some((format!("dataset-{}", i % 8), 10_000));
                s
            })
            .collect();
        let run = |capacity: u64| {
            let mut c = Compiler::new(CompilerConfig {
                cache_capacity_mb: capacity,
                ..CompilerConfig::default()
            });
            for s in &trace_schemas {
                c.compile(s).expect("compiles");
            }
            c.cache().stats().byte_hit_rate()
        };
        let tight = run(30_000);
        let roomy = run(300_000);
        assert!(roomy > tight, "roomy {roomy:.3} <= tight {tight:.3}");
    }

    #[test]
    fn compilation_is_deterministic() {
        let run = || {
            let mut c = Compiler::new(CompilerConfig::default());
            let a = c.compile(&schema()).expect("compiles");
            let b = c.compile(&schema()).expect("compiles");
            (a, b)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn attached_registry_sees_cache_traffic() {
        let registry = MetricsRegistry::new();
        let mut c = Compiler::new(CompilerConfig::default());
        c.attach_registry(&registry);
        c.compile(&schema()).expect("compiles");
        c.compile(&schema()).expect("compiles");
        c.publish_metrics(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("tacc_compiler_compilations_total"), Some(2));
        // Cold run misses everything, warm run hits everything.
        let hits = snap
            .counter("tacc_compiler_cache_hits_total")
            .expect("hits");
        let misses = snap
            .counter("tacc_compiler_cache_misses_total")
            .expect("misses");
        assert!(hits > 0 && misses > 0 && hits == misses);
        assert!(
            snap.gauge("tacc_compiler_cache_byte_hit_rate")
                .expect("rate")
                > 0.0
        );
        assert_eq!(
            snap.histogram("tacc_compiler_provisioning_latency_seconds")
                .map(|h| h.count),
            Some(2)
        );
    }

    #[test]
    fn latency_scales_with_transfer() {
        let cfg = CompilerConfig {
            fetch_bandwidth_mbps: 100.0,
            base_latency_secs: 2.0,
            ..CompilerConfig::default()
        };
        let mut c = Compiler::new(cfg);
        let out = c.compile(&schema()).expect("compiles");
        let expected = 2.0 + out.provisioning.transferred_mb / 100.0;
        assert!((out.provisioning.latency_secs - expected).abs() < 1e-9);
    }
}
