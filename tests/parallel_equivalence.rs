//! Differential harness for Phase-1 parallelism: partitions of a merge level
//! fan out across threads — rayon threads in process, engine workers under
//! BSP — and each runs the sequential kernel. The thread count may change
//! wall-clock and the order in which partitions append to the fragment
//! store, never what is computed: on random Eulerian graphs every run must
//! produce valid circuits over the same edges, the same per-level
//! `RunReport` records, the same transfer accounting and the same fragment
//! Longs as the sequential oracle.
//!
//! The oracle is a `.sequential()` in-process run. A single engine worker
//! pins the partition execution order exactly as the oracle does, so there
//! the circuits must also be bit-identical.

use euler_circuit::algo::verify::verify_result;
use euler_circuit::bsp::BspConfig;
use euler_circuit::prelude::*;
use proptest::prelude::*;

/// BSP engine worker counts the differential grid exercises.
const WORKERS: [usize; 3] = [1, 2, 4];

/// The measurement-free projection of one per-level record (timings vary
/// run to run; everything else must be stable across thread counts).
#[derive(Debug, PartialEq)]
struct RecordFacts {
    level: u32,
    partition: PartitionId,
    counts: euler_circuit::algo::VertexTypeCounts,
    complexity: u64,
    memory_longs: u64,
    remote_needed_now: u64,
    transfer_in_longs: u64,
    paths: u64,
    cycles: u64,
    merged: u64,
}

fn facts(run: &PipelineRun) -> Vec<RecordFacts> {
    run.merge
        .per_partition
        .iter()
        .map(|r| RecordFacts {
            level: r.level,
            partition: r.partition,
            counts: r.counts,
            complexity: r.complexity,
            memory_longs: r.memory_longs,
            remote_needed_now: r.remote_needed_now,
            transfer_in_longs: r.transfer_in_longs,
            paths: r.paths_found,
            cycles: r.cycles_found,
            merged: r.internal_cycles_merged,
        })
        .collect()
}

fn run(g: &Graph, assignment: &PartitionAssignment, backend: impl ExecutionBackend + 'static) -> PipelineRun {
    EulerPipeline::builder()
        .graph(g)
        .assignment(assignment.clone())
        .backend(backend)
        .build()
        .unwrap()
        .run()
        .unwrap()
}

/// Runs the sequential oracle, then the parallel in-process fan-out and the
/// BSP engine at every worker count, asserting each agrees with the oracle.
fn assert_grid_matches_sequential(g: &Graph, assignment: &PartitionAssignment) {
    let sequential = EulerPipeline::builder()
        .graph(g)
        .assignment(assignment.clone())
        .config(EulerConfig::default().sequential())
        .build()
        .unwrap()
        .run()
        .unwrap();
    verify_result(g, &sequential.circuit.result).unwrap();
    let oracle_facts = facts(&sequential);

    let mut grid = vec![("in-process fan-out".to_string(), run(g, assignment, InProcessBackend::new()))];
    for workers in WORKERS {
        let bsp = run(g, assignment, BspBackend::with_engine(BspConfig::with_workers(workers)));
        if workers == 1 {
            assert_eq!(
                bsp.circuit.result.circuits, sequential.circuit.result.circuits,
                "a 1-worker engine must reproduce the sequential circuits bit for bit"
            );
        }
        grid.push((format!("bsp with {workers} workers"), bsp));
    }

    for (name, run) in &grid {
        verify_result(g, &run.circuit.result).unwrap();
        let (result, oracle) = (&run.circuit.result, &sequential.circuit.result);
        assert_eq!(result.num_circuits(), oracle.num_circuits(), "{name}");
        assert_eq!(result.total_edges(), oracle.total_edges(), "{name}");
        assert_eq!(
            run.merge.total_transfer_longs, sequential.merge.total_transfer_longs,
            "{name} transfer longs diverged"
        );
        assert_eq!(run.merge.supersteps, sequential.merge.supersteps, "{name}");
        assert_eq!(facts(run), oracle_facts, "{name} per-level records diverged");
        assert_eq!(
            run.circuit.fragment_disk_longs, sequential.circuit.fragment_disk_longs,
            "{name} fragment accounting diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random Eulerized multigraphs (parallel edges and self-loops from the
    /// eulerizer) through the whole grid.
    #[test]
    fn eulerized_multigraphs_are_thread_count_invariant(
        edges in prop::collection::vec((0u64..36, 0u64..36), 1..140),
        parts in 1u32..6,
        use_hash in any::<bool>(),
    ) {
        let mut b = GraphBuilder::with_vertices(36);
        b.extend_edges(edges.iter().copied());
        let (g, _) = eulerize(&b.build().unwrap());
        let assignment = if use_hash {
            HashPartitioner::new(parts).partition(&g)
        } else {
            LdgPartitioner::new(parts).partition(&g)
        };
        assert_grid_matches_sequential(&g, &assignment);
    }

    /// Connected random Eulerian graphs — denser walks, more merge levels.
    #[test]
    fn connected_eulerian_graphs_are_thread_count_invariant(
        seed in 0u64..1000,
        n in 10u64..110,
        extra in 0usize..12,
        parts in 1u32..7,
    ) {
        let g = synthetic::random_eulerian_connected(n.max(4), extra, 5, seed);
        let assignment = LdgPartitioner::new(parts).partition(&g);
        assert_grid_matches_sequential(&g, &assignment);
    }
}
