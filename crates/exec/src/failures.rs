//! Failure injection and fail-safe runtime switching (experiment F7).

use tacc_cluster::NodeId;
use tacc_sim::dist;
use tacc_sim::SeedStream;
use tacc_workload::RuntimePreference;

use crate::model::is_node_set;

/// A fault in the underlying runtime system during execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeFault {
    /// Seconds into the run at which the fault strikes.
    pub at_secs: f64,
    /// The node whose hardware/agent faulted.
    pub node: NodeId,
}

/// What the execution layer does when the runtime faults mid-run.
///
/// The paper's Table 1 lists "fail-safe switching" as the execution-layer
/// factor: with more than one runtime system live, a fault in one can be
/// absorbed by restarting the task on another instead of failing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FailoverPolicy {
    /// The fault kills the job (no switching).
    FailJob,
    /// Switch to a fallback runtime and restart from checkpoint.
    #[default]
    SwitchRuntime,
}

impl FailoverPolicy {
    /// The runtime a faulted task switches to, if this policy switches.
    ///
    /// All-reduce tasks fall back to the parameter-server runtime (which
    /// tolerates worker loss); everything else restarts on itself.
    pub fn fallback_for(self, runtime: RuntimePreference) -> Option<RuntimePreference> {
        match self {
            FailoverPolicy::FailJob => None,
            FailoverPolicy::SwitchRuntime => Some(match runtime {
                RuntimePreference::AllReduce => RuntimePreference::ParameterServer,
                other => other,
            }),
        }
    }
}

/// Deterministic per-node failure sampler.
///
/// Node failures are modelled as independent Poisson processes with a
/// common MTBF; each node draws from its own seeded stream, so the failure
/// pattern is stable across runs and independent of everything else.
#[derive(Debug)]
pub struct FailureInjector {
    mtbf_secs: f64,
    seeds: SeedStream,
}

impl FailureInjector {
    /// Creates an injector with the given per-node mean time between
    /// failures.
    ///
    /// # Panics
    ///
    /// Panics if `mtbf_secs` is not positive.
    pub fn new(mtbf_secs: f64, seed: u64) -> Self {
        assert!(mtbf_secs > 0.0, "MTBF must be positive");
        FailureInjector {
            mtbf_secs,
            seeds: SeedStream::new(seed),
        }
    }

    /// Samples the time (seconds from `epoch_secs`) until `node` next
    /// fails. The `epoch` parameter makes successive draws for the same
    /// node independent (pass the current simulation time).
    fn next_failure_after(&self, node: NodeId, epoch_secs: f64) -> f64 {
        let mut rng = self.node_rng(node, epoch_secs);
        dist::exponential(&mut rng, 1.0 / self.mtbf_secs)
    }

    /// Samples the first fault across a placement within `horizon_secs` of
    /// run time, or `None` if every node survives the window.
    ///
    /// `nodes` is the placement's distinct node set, ascending — each node
    /// once however many workers it holds (debug builds assert it).
    pub fn first_fault(
        &self,
        nodes: &[NodeId],
        epoch_secs: f64,
        horizon_secs: f64,
    ) -> Option<RuntimeFault> {
        debug_assert!(
            is_node_set(nodes),
            "not a distinct ascending node set: {nodes:?}"
        );
        nodes
            .iter()
            .map(|&node| RuntimeFault {
                at_secs: self.next_failure_after(node, epoch_secs),
                node,
            })
            .filter(|f| f.at_secs <= horizon_secs)
            .min_by(|a, b| a.at_secs.total_cmp(&b.at_secs))
    }

    fn node_rng(&self, node: NodeId, epoch_secs: f64) -> tacc_sim::DetRng {
        // Quantize the epoch so the stream label is stable for a given call
        // site but distinct across resumption points.
        let epoch_ms = (epoch_secs * 1000.0).round() as u64;
        self.seeds.indexed_stream(
            "node-failure",
            (node.index() as u64) << 32 | (epoch_ms & 0xFFFF_FFFF),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_node_and_epoch() {
        let inj = FailureInjector::new(86_400.0, 5);
        let n = NodeId::from_index(3);
        assert_eq!(
            inj.next_failure_after(n, 100.0),
            inj.next_failure_after(n, 100.0)
        );
        assert_ne!(
            inj.next_failure_after(n, 100.0),
            inj.next_failure_after(n, 200.0)
        );
        assert_ne!(
            inj.next_failure_after(NodeId::from_index(4), 100.0),
            inj.next_failure_after(n, 100.0)
        );
    }

    #[test]
    fn mean_matches_mtbf() {
        let inj = FailureInjector::new(1000.0, 6);
        let n = 4000;
        let mean: f64 = (0..n)
            .map(|i| inj.next_failure_after(NodeId::from_index(i), 0.0))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 1000.0).abs() < 60.0, "mean {mean}");
    }

    #[test]
    fn first_fault_within_horizon() {
        let inj = FailureInjector::new(1000.0, 7);
        let nodes: Vec<NodeId> = (0..16).map(NodeId::from_index).collect();
        // With 16 nodes and MTBF 1000 s, a fault within 10_000 s is near-certain.
        let fault = inj
            .first_fault(&nodes, 0.0, 10_000.0)
            .expect("fault expected");
        assert!(fault.at_secs <= 10_000.0);
        assert!(nodes.contains(&fault.node));
        // Tiny horizon: almost surely no fault.
        assert!(inj.first_fault(&nodes, 0.0, 1e-6).is_none());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not a distinct ascending node set")]
    fn first_fault_refuses_repeated_nodes() {
        let node = NodeId::from_index(3);
        FailureInjector::new(1000.0, 7).first_fault(&[node, node], 0.0, 10_000.0);
    }

    #[test]
    fn more_nodes_fail_sooner_on_average() {
        let inj = FailureInjector::new(10_000.0, 8);
        let small: Vec<NodeId> = (0..2).map(NodeId::from_index).collect();
        let large: Vec<NodeId> = (0..32).map(NodeId::from_index).collect();
        let avg = |nodes: &[NodeId]| -> f64 {
            (0..200)
                .map(|i| {
                    inj.first_fault(nodes, i as f64 * 7.0, f64::MAX)
                        .expect("unbounded horizon")
                        .at_secs
                })
                .sum::<f64>()
                / 200.0
        };
        assert!(avg(&large) < avg(&small));
    }

    #[test]
    fn failover_fallbacks() {
        assert_eq!(
            FailoverPolicy::SwitchRuntime.fallback_for(RuntimePreference::AllReduce),
            Some(RuntimePreference::ParameterServer)
        );
        assert_eq!(
            FailoverPolicy::SwitchRuntime.fallback_for(RuntimePreference::SingleProcess),
            Some(RuntimePreference::SingleProcess)
        );
        assert_eq!(
            FailoverPolicy::FailJob.fallback_for(RuntimePreference::AllReduce),
            None
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mtbf_rejected() {
        let _ = FailureInjector::new(0.0, 1);
    }
}
