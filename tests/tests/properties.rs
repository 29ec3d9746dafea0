//! Seeded property sweeps over the workspace's core invariants.

use std::collections::BTreeMap;

use tacc_cluster::{Cluster, ClusterError, ClusterSpec, GpuModel, NodeId, ResourceVec};
use tacc_core::wire;
use tacc_metrics::{jain_index, percentile, Summary, UtilizationTracker};
use tacc_sim::{dist, DetRng, EventQueue, SeedStream, SimTime};
use tacc_tests::below;
use tacc_workload::{GenParams, Trace, TraceGenerator};

/// `len` draws from `lo..hi`.
fn floats(rng: &mut DetRng, len: u64, lo: f64, hi: f64) -> Vec<f64> {
    (0..len).map(|_| dist::uniform(rng, lo, hi)).collect()
}

// ---------------------------------------------------------------------
// Cluster allocator
// ---------------------------------------------------------------------

fn small_cluster() -> Cluster {
    Cluster::new(ClusterSpec::uniform(2, 4, GpuModel::A100, 8))
}

/// A share of 1..=8 GPUs on one of the 8 nodes.
fn random_share(rng: &mut DetRng) -> [(NodeId, ResourceVec); 1] {
    let node = NodeId::from_index(below(rng, 8) as usize);
    [(node, ResourceVec::gpus_only(1 + below(rng, 8) as u32))]
}

/// Under any interleaving of allocations and releases, per-node
/// accounting balances and free never exceeds capacity.
#[test]
fn allocator_invariants_hold() {
    for case in 0..256 {
        let rng = &mut DetRng::seed_from_u64(case);
        let mut cluster = small_cluster();
        let mut live: Vec<tacc_cluster::LeaseId> = Vec::new();
        for _ in 0..1 + below(rng, 199) {
            if below(rng, 2) == 0 {
                if let Ok(lease) = cluster.allocate(random_share(rng)) {
                    live.push(lease);
                }
            } else if !live.is_empty() {
                let id = live.swap_remove(below(rng, live.len() as u64) as usize);
                cluster.release(id).expect("live lease releases");
            }
            assert!(cluster.check_invariants(), "case {case}");
            assert!(cluster.free_gpus() <= cluster.total_gpus(), "case {case}");
        }
        // Releasing everything restores the empty cluster.
        for id in live {
            cluster.release(id).expect("live lease releases");
        }
        assert_eq!(cluster.free_gpus(), cluster.total_gpus(), "case {case}");
        assert_eq!(cluster.lease_count(), 0, "case {case}");
    }
}

/// What `Cluster::allocate` is defined to do with a share list: sum the
/// shares per node in an ordered map — an unknown node is refused first,
/// in list order — then test each node's total in ascending node order.
fn allocate_by_definition(
    cluster: &Cluster,
    shares: &[(NodeId, ResourceVec)],
) -> Result<Vec<(NodeId, ResourceVec)>, ClusterError> {
    if shares.is_empty() {
        return Err(ClusterError::EmptyRequest);
    }
    let mut needed: BTreeMap<NodeId, ResourceVec> = BTreeMap::new();
    for &(node, demand) in shares {
        if cluster.node(node).is_none() {
            return Err(ClusterError::UnknownNode(node));
        }
        *needed.entry(node).or_insert(ResourceVec::ZERO) += demand;
    }
    for (&node, total) in &needed {
        if !cluster.node(node).is_some_and(|n| n.can_fit(total)) {
            return Err(ClusterError::InsufficientResources { node });
        }
    }
    Ok(needed.into_iter().collect())
}

/// The known nodes of `shares` whose summed demand does not fit, in the
/// order the list first names them.
fn offending_in_list_order(cluster: &Cluster, shares: &[(NodeId, ResourceVec)]) -> Vec<NodeId> {
    let mut seen: Vec<NodeId> = Vec::new();
    for &(node, _) in shares {
        if !seen.contains(&node) {
            seen.push(node);
        }
    }
    seen.retain(|&node| {
        let total: ResourceVec = shares.iter().filter(|s| s.0 == node).map(|s| s.1).sum();
        cluster.node(node).is_some_and(|n| !n.can_fit(&total))
    });
    seen
}

/// Seeded share lists — nodes repeated, now and then one past the end,
/// on a cluster with held leases and a drained node — allocate exactly
/// as the ordered-map definition says: equal per-node totals on success,
/// the same error on refusal, and a refused call touches nothing.
#[test]
fn allocate_matches_its_ordered_map_definition() {
    let (mut granted, mut unknown_over_capacity, mut lowest_not_first) = (0, 0, 0);
    for case in 0..256 {
        let rng = &mut DetRng::seed_from_u64(case);
        let mut cluster = small_cluster();
        let mut live = Vec::new();
        if below(rng, 4) == 0 {
            cluster.drain(NodeId::from_index(below(rng, 8) as usize));
        }
        for _ in 0..1 + below(rng, 39) {
            if !live.is_empty() && below(rng, 4) == 0 {
                let id = live.swap_remove(below(rng, live.len() as u64) as usize);
                cluster.release(id).expect("live lease releases");
                continue;
            }
            // Few distinct nodes, so lists repeat them.
            let nodes = 1 + below(rng, 3) as usize;
            let first = below(rng, 8) as usize;
            let shares: Vec<(NodeId, ResourceVec)> = (0..below(rng, 7))
                .map(|_| {
                    let node = if below(rng, 16) == 0 {
                        NodeId::from_index(8 + below(rng, 2) as usize)
                    } else {
                        NodeId::from_index((first + below(rng, nodes as u64) as usize) % 8)
                    };
                    (
                        node,
                        ResourceVec::new(below(rng, 5) as u32, below(rng, 20) as u32, 8),
                    )
                })
                .collect();
            let expected = allocate_by_definition(&cluster, &shares);
            let offending = offending_in_list_order(&cluster, &shares);
            match expected {
                Err(ClusterError::UnknownNode(_)) if !offending.is_empty() => {
                    unknown_over_capacity += 1;
                }
                Err(ClusterError::InsufficientResources { node }) if offending[0] != node => {
                    lowest_not_first += 1;
                }
                _ => {}
            }
            let version = cluster.version();
            let frees: Vec<ResourceVec> = cluster.nodes().map(|n| n.free()).collect();
            let arena = (cluster.lease_count(), cluster.lease_arena_stats());
            let failures = cluster.alloc_failures();
            match (cluster.allocate(&shares), expected) {
                (Ok(lease), Ok(totals)) => {
                    granted += 1;
                    let held = cluster.lease(lease).expect("granted").shares();
                    assert_eq!(held, &totals[..], "case {case}");
                    for (node, total) in &totals {
                        let before = frees[node.index()];
                        let after = cluster.node(*node).expect("known").free();
                        assert_eq!(after + *total, before, "case {case}");
                    }
                    live.push(lease);
                }
                (Err(err), Err(expected)) => {
                    assert_eq!(err, expected, "case {case}: {shares:?}");
                    assert_eq!(cluster.version(), version, "case {case}");
                    let after: Vec<ResourceVec> = cluster.nodes().map(|n| n.free()).collect();
                    assert_eq!(after, frees, "case {case}");
                    assert_eq!(
                        (cluster.lease_count(), cluster.lease_arena_stats()),
                        arena,
                        "case {case}"
                    );
                    assert_eq!(cluster.alloc_failures(), failures + 1, "case {case}");
                }
                (got, expected) => panic!("case {case}: {shares:?}: {got:?} vs {expected:?}"),
            }
            assert!(cluster.check_invariants(), "case {case}");
        }
    }
    // The sweep reaches each property the definition pins.
    assert!(granted > 1_000, "{granted} granted");
    assert!(unknown_over_capacity > 10, "{unknown_over_capacity}");
    assert!(lowest_not_first > 10, "{lowest_not_first}");
}

/// Fragmentation is a fraction below one, and zero exactly when the
/// largest free block holds every free GPU (or none is free).
#[test]
fn fragmentation_bounds() {
    for case in 0..256 {
        let rng = &mut DetRng::seed_from_u64(case);
        let mut cluster = small_cluster();
        for _ in 0..below(rng, 8) {
            let _ = cluster.allocate(random_share(rng));
        }
        let f = cluster.fragmentation();
        assert!((0.0..1.0).contains(&f), "case {case}: {f}");
        let one_block = cluster.largest_free_block() == cluster.free_gpus();
        assert_eq!(f == 0.0, one_block, "case {case}: {f}");
    }
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/// Percentiles are monotone in p and bounded by min/max.
#[test]
fn percentile_monotone() {
    for case in 0..256 {
        let rng = &mut DetRng::seed_from_u64(case);
        let len = 1 + below(rng, 99);
        let mut xs = floats(rng, len, -1e6, 1e6);
        xs.iter_mut().for_each(|x| *x = x.trunc()); // avoid float-compare noise
        let (p1, p2) = (
            dist::uniform(rng, 0.0, 100.0),
            dist::uniform(rng, 0.0, 100.0),
        );
        let a = percentile(&xs, p1.min(p2));
        let b = percentile(&xs, p1.max(p2));
        assert!(a <= b, "case {case}: {a} > {b}");
        let s = Summary::from_samples(&xs);
        assert!(s.min() <= a && b <= s.max(), "case {case}");
    }
}

/// A pool's mean utilization lies between zero and its busiest level,
/// whatever the acquires and releases (same-instant ones included).
#[test]
fn utilization_mean_is_bounded_by_the_busiest_level() {
    for case in 0..256 {
        let rng = &mut DetRng::seed_from_u64(case);
        let mut util = UtilizationTracker::new(100.0);
        let (mut now, mut busy, mut busiest) = (0.0, 0.0f64, 0.0f64);
        for _ in 0..1 + below(rng, 49) {
            now += below(rng, 3) as f64;
            let amount = dist::uniform(rng, 0.0, 1.0) * (100.0 - busy).max(0.0);
            if below(rng, 2) == 0 {
                util.acquire(now, amount);
                busy += amount;
            } else {
                let amount = amount.min(busy);
                util.release(now, amount);
                busy -= amount;
            }
            busiest = busiest.max(busy);
        }
        let mean = util.mean_utilization(now + 1.0);
        assert!(
            (0.0..=busiest / 100.0 + 1e-9).contains(&mean),
            "case {case}: {mean}"
        );
    }
}

/// Jain's index is scale-invariant and within (0, 1].
#[test]
fn jain_bounds_and_scale() {
    for case in 0..256 {
        let rng = &mut DetRng::seed_from_u64(case);
        let len = 1 + below(rng, 39);
        let xs = floats(rng, len, 0.0, 1e6);
        let k = dist::uniform(rng, 0.001, 1000.0);
        let j = jain_index(&xs);
        assert!(j > 0.0 && j <= 1.0 + 1e-12, "case {case}: {j}");
        let scaled: Vec<f64> = xs.iter().map(|x| x * k).collect();
        assert!((jain_index(&scaled) - j).abs() < 1e-9, "case {case}");
    }
}

// ---------------------------------------------------------------------
// Simulation engine
// ---------------------------------------------------------------------

/// The event queue pops in nondecreasing time order with FIFO ties,
/// regardless of insertion order.
#[test]
fn event_queue_is_a_stable_priority_queue() {
    for case in 0..256 {
        let rng = &mut DetRng::seed_from_u64(case);
        let mut q = EventQueue::new();
        for i in 0..1 + below(rng, 299) {
            q.schedule(SimTime::from_secs(below(rng, 1000) as f64), i);
        }
        let mut last: Option<(SimTime, u64)> = None;
        while let Some((at, i)) = q.pop() {
            if let Some((prev_at, prev_i)) = last {
                assert!(at >= prev_at, "case {case}");
                if at == prev_at {
                    assert!(i > prev_i, "case {case}: same-time events must pop FIFO");
                }
            }
            last = Some((at, i));
        }
    }
}

/// Distribution samplers respect their supports for any seed.
#[test]
fn samplers_respect_supports() {
    for case in 0..256 {
        let seed = DetRng::seed_from_u64(case).next_u64();
        let mut rng = SeedStream::new(seed).stream("prop");
        for _ in 0..50 {
            assert!(dist::exponential(&mut rng, 2.0) >= 0.0, "case {case}");
            assert!(dist::log_normal(&mut rng, 1.0, 1.0) > 0.0, "case {case}");
            let u = dist::uniform(&mut rng, -3.0, 9.0);
            assert!((-3.0..9.0).contains(&u), "case {case}: {u}");
            let w = dist::weighted_index(&mut rng, &[0.2, 0.0, 0.8]);
            assert!(w == 0 || w == 2, "case {case}: {w}");
        }
    }
}

// ---------------------------------------------------------------------
// Workload generator
// ---------------------------------------------------------------------

/// For any seed and moderate load, every generated schema validates,
/// submissions are time-ordered, gangs are node-shaped, and the trace
/// survives its JSON file form exactly.
#[test]
fn generator_produces_valid_traces() {
    // A case proptest once shrank a failure to, kept as an explicit input.
    let recorded = (0, 1.1970153135613135);
    let drawn = (0..16).map(|case| {
        let rng = &mut DetRng::seed_from_u64(case);
        (rng.next_u64(), dist::uniform(rng, 0.2, 3.0))
    });
    for (seed, load) in std::iter::once(recorded).chain(drawn) {
        let params = GenParams::default().with_load_factor(load);
        let trace = TraceGenerator::new(params, seed).generate_days(0.3);
        let mut last = 0.0;
        for r in trace.records() {
            assert!(r.submit_secs >= last, "seed {seed}, load {load}");
            last = r.submit_secs;
            assert_eq!(r.schema.validate(), Ok(()), "seed {seed}, load {load}");
            assert!(r.service_secs > 0.0, "seed {seed}, load {load}");
            if r.schema.workers > 1 {
                assert_eq!(r.schema.resources.gpus, 8, "seed {seed}, load {load}");
            }
        }
        let file = trace.to_json().to_pretty();
        let back = Trace::from_json(&wire::parse(&file).expect("is JSON"));
        assert_eq!(back, Ok(trace), "seed {seed}, load {load}");
    }
}
