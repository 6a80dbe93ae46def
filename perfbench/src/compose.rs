//! The traced composition: one pipeline run rebuilt from the same public
//! calls `EulerPipeline::run` makes on an mmap source with a streaming
//! partitioner, each wrapped in a span.
//!
//! 1. `partition_stream` over the source's edge stream, then
//!    `CsrFile::partitioned` (dense path) or `stream_phase1` (W-streaming);
//! 2. `MetaGraph::from_partitioned` and `MergeTree::build`;
//! 3. the `FragmentStore` and its merge-tree read schedule;
//! 4. one decorated `run_level` per level;
//! 5. `unroll`.
//!
//! The benchmark's tests check that this composition returns the same
//! circuit and counters as `EulerPipeline::run()`.

use crate::decor::TracedBackend;
use crate::trace::{SpanId, Tracer};
use euler_core::fragment::ReadSchedule;
use euler_core::phase2::apply_remote_edge_dedup;
use euler_core::phase3::unroll;
use euler_core::{
    stream_phase1, CircuitResult, EulerConfig, EulerError, ExecutionBackend, FragmentStore,
    LevelWork, MergeTree, RunReport, SpillConfig, WStreamOutcome, WStreamStats, WorkingPartition,
};
use euler_graph::{
    GraphError, GraphSource, MetaGraph, MmapCsrSource, PartitionAssignment, PartitionId, VertexId,
};
use euler_partition::{LdgPartitioner, StreamingPartitioner};
use std::sync::Arc;

/// The outcome of one traced run.
#[derive(Debug)]
pub struct TracedRun {
    /// The circuits.
    pub result: CircuitResult,
    /// Number of circuits (kept when `result` is dropped).
    pub circuits: usize,
    /// The run's report, assembled from the backend's level outcomes and
    /// the store's statistics as the pipeline assembles it.
    pub report: RunReport,
    /// The streamed partition assignment.
    pub assignment: PartitionAssignment,
    /// Cut edges over all edges, from the partition meta-graph.
    pub cut_frac: f64,
    /// The run's root span.
    pub root: SpanId,
}

/// Runs the pipeline of `config` over `source` with `parts` streaming-LDG
/// parts on the decorated `backend`, recording spans under one `run` span.
pub fn traced_pipeline_run<B: ExecutionBackend>(
    tracer: &Tracer,
    run: u64,
    source: &MmapCsrSource,
    parts: u32,
    config: &EulerConfig,
    backend: &TracedBackend<B>,
) -> Result<TracedRun, EulerError> {
    let root = tracer.begin("run", run, None);
    let out = compose(&Ctx { tracer, run, root }, source, parts, config, backend);
    tracer.end(root);
    let (result, report, assignment, cut_frac) = out?;
    let circuits = result.num_circuits();
    Ok(TracedRun {
        result,
        circuits,
        report,
        assignment,
        cut_frac,
        root,
    })
}

struct Ctx<'a> {
    tracer: &'a Tracer,
    run: u64,
    root: SpanId,
}

impl Ctx<'_> {
    fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        self.tracer.span(name, self.run, Some(self.root), |_| f())
    }
}

type Composed = (CircuitResult, RunReport, PartitionAssignment, f64);

fn compose<B: ExecutionBackend>(
    cx: &Ctx<'_>,
    source: &MmapCsrSource,
    parts: u32,
    config: &EulerConfig,
    backend: &TracedBackend<B>,
) -> Result<Composed, EulerError> {
    let csr = source.csr_file();
    let assignment = cx.span("partition.stream", || -> Result<_, EulerError> {
        let partitioner = LdgPartitioner::new(parts);
        let mut stream = source.edge_stream().ok_or_else(no_stream)?;
        if !partitioner.supports(stream.order()) {
            return Err(EulerError::InvalidConfig(
                "LDG cannot read this stream order".into(),
            ));
        }
        Ok(partitioner.partition_stream(stream.as_mut())?)
    })?;
    let num_edges = csr.num_edges();

    if config.streaming_phase1 {
        let store = cx.span("store.setup", || fragment_store_for(config));
        let outcome = cx.span("wstream.pass", || -> Result<WStreamOutcome, EulerError> {
            let mut stream = source.edge_stream().ok_or_else(no_stream)?;
            stream_phase1(
                stream.as_mut(),
                &assignment,
                &store,
                config.wstream_chunk_edges,
            )
        })?;
        let WStreamOutcome {
            states,
            meta,
            stats,
            first_odd,
        } = outcome;
        cx.span("load.degree_check", || require_even(config, first_odd))?;
        let cut_frac = cut_fraction(&meta, num_edges);
        let (result, report) = walk(cx, &meta, states, store, config, backend, Some(stats))?;
        cx.span("teardown", || drop(meta));
        return Ok((result, report, assignment, cut_frac));
    }

    cx.span("load.degree_check", || {
        require_even(config, csr.first_odd_vertex())
    })?;
    let pg = cx.span("view.build", || csr.partitioned(&assignment))?;
    let meta = cx.span("plan.meta", || MetaGraph::from_partitioned(&pg));
    let store = cx.span("store.setup", || fragment_store_for(config));
    let states: Vec<WorkingPartition> = cx.span("view.states", || {
        pg.partitions()
            .iter()
            .map(WorkingPartition::from_partition)
            .collect()
    });
    let cut_frac = cut_fraction(&meta, num_edges);
    let (result, report) = walk(cx, &meta, states, store, config, backend, None)?;
    cx.span("teardown", || drop((meta, pg)));
    Ok((result, report, assignment, cut_frac))
}

fn no_stream() -> EulerError {
    EulerError::InvalidConfig("the source exposes no edge stream".into())
}

fn cut_fraction(meta: &MetaGraph, num_edges: u64) -> f64 {
    if num_edges == 0 {
        0.0
    } else {
        meta.total_weight() as f64 / num_edges as f64
    }
}

fn require_even(
    config: &EulerConfig,
    first_odd: Option<(VertexId, u64)>,
) -> Result<(), EulerError> {
    match first_odd {
        Some((vertex, degree)) if config.require_eulerian => {
            Err(EulerError::Graph(GraphError::NotEulerian {
                vertex,
                degree,
            }))
        }
        _ => Ok(()),
    }
}

/// The store the pipeline builds for `config`: spill-backed under a
/// fragment budget, in memory otherwise.
fn fragment_store_for(config: &EulerConfig) -> FragmentStore {
    match config.fragment_memory_budget {
        Some(budget) => {
            let mut spill = SpillConfig::with_budget(budget);
            if let Some(dir) = &config.fragment_spill_directory {
                spill = spill.in_directory(dir.clone());
            }
            FragmentStore::spilling(spill)
        }
        None => FragmentStore::new(),
    }
}

/// The read schedule the pipeline installs: steps `0..S` are supersteps,
/// step `S` starts Phase 3, which reads fragments top level first and in
/// partition order within a level, so a fragment pushed at
/// `(level, partition)` is read at `S + (S - level) * P + rank`.
pub fn phase3_read_schedule(tree: &MergeTree, num_partitions: u32) -> ReadSchedule {
    let s = u64::from(tree.num_supersteps());
    let p = u64::from(num_partitions);
    let mut schedule = ReadSchedule::new(s + (s + 2) * p);
    for level in 0..=tree.num_supersteps() {
        let mut reps: Vec<u32> = if level == 0 {
            (0..num_partitions).collect()
        } else {
            (0..num_partitions)
                .map(|l| tree.representative_after(PartitionId(l), level - 1).0)
                .collect()
        };
        reps.sort_unstable();
        reps.dedup();
        for (rank, &rep) in reps.iter().enumerate() {
            let step = s + (s - u64::from(level)) * p + rank as u64;
            schedule.set(level, PartitionId(rep), step);
        }
    }
    schedule
}

/// Plan, walk and unroll over prebuilt level-0 states.
fn walk<B: ExecutionBackend>(
    cx: &Ctx<'_>,
    meta: &MetaGraph,
    mut states: Vec<WorkingPartition>,
    store: FragmentStore,
    config: &EulerConfig,
    backend: &TracedBackend<B>,
    wstream: Option<WStreamStats>,
) -> Result<(CircuitResult, RunReport), EulerError> {
    let num_partitions = meta.num_vertices() as u32;
    let tree = Arc::new(cx.span("plan.tree", || MergeTree::build(meta)));
    let mut report = cx.span("plan.schedule", || {
        if config.merge_strategy.deduplicates() {
            apply_remote_edge_dedup(&mut states);
        }
        states.sort_by_key(|s| s.id);
        store.set_read_schedule(phase3_read_schedule(&tree, num_partitions));
        RunReport {
            num_partitions,
            supersteps: tree.num_supersteps(),
            strategy: config.merge_strategy,
            merge_tree: tree.as_ref().clone(),
            backend: backend.name().to_string(),
            wstream,
            ..Default::default()
        }
    });

    let walk_span = cx.tracer.begin("walk", cx.run, Some(cx.root));
    backend.set_context(cx.run, Some(walk_span));
    let mut seed = Some(states);
    for level in 0..tree.num_supersteps() {
        store.begin_read_step(u64::from(level));
        let outcome = backend.run_level(LevelWork {
            level,
            pairs: tree.pairs_at(level),
            tree: &tree,
            store: &store,
            config,
            seed: seed.take(),
        })?;
        report.per_partition.extend(outcome.reports);
        report.total_transfer_longs += outcome.transfer_longs;
    }
    report.engine = backend.engine_stats();
    report.warnings = backend.warnings();
    cx.tracer.end(walk_span);

    let result = cx.span("phase3.unroll", || {
        store.begin_read_step(u64::from(tree.num_supersteps()));
        unroll(&store)
    });
    cx.span("teardown", || {
        report.fragment_disk_longs = store.disk_longs();
        report.fragment_stats = store.stats();
        drop(store);
    });
    Ok((result, report))
}

/// The traced composition and the decorators change nothing: under
/// `EulerConfig::sequential()` they return the circuit and counters that
/// `EulerPipeline::run()` returns on the same input.
#[cfg(test)]
mod tests {
    use super::traced_pipeline_run;
    use crate::decor::{CountingTransport, TracedBackend};
    use crate::pipeline::Counters;
    use crate::trace::{children, Tracer};
    use euler_bsp::{BspConfig, MemTransport};
    use euler_core::{BspBackend, EulerConfig, EulerPipeline, InProcessBackend, RunReport};
    use euler_gen::eulerize::eulerize;
    use euler_gen::rmat::RmatGenerator;
    use euler_graph::{write_csr_file, MmapCsrSource};
    use euler_partition::LdgPartitioner;
    use std::sync::Arc;

    const PARTS: u32 = 4;

    fn packed_input(name: &str) -> std::path::PathBuf {
        let g = eulerize(
            &RmatGenerator::new(10)
                .with_avg_degree(8.0)
                .with_seed(5)
                .generate(),
        )
        .0;
        let path = std::env::temp_dir().join(format!("perfbench-{}-{name}", std::process::id()));
        write_csr_file(&g, &path).unwrap();
        path
    }

    fn level_counters(r: &RunReport) -> Vec<(u32, u32, u64, u64, u64, u64, u64)> {
        r.per_partition
            .iter()
            .map(|p| {
                (
                    p.level,
                    p.partition.0,
                    p.complexity,
                    p.paths_found,
                    p.cycles_found,
                    p.memory_longs,
                    p.transfer_in_longs,
                )
            })
            .collect()
    }

    #[test]
    fn traced_dense_run_equals_the_pipeline() {
        let path = packed_input("transparency-dense.ecsr");
        let config = EulerConfig::default().sequential();
        let run = EulerPipeline::builder()
            .source(MmapCsrSource::open(&path).unwrap())
            .partitioner(LdgPartitioner::new(PARTS))
            .config(config.clone())
            .build()
            .unwrap()
            .run()
            .unwrap();
        let expected = run.report();

        let tracer = Arc::new(Tracer::new());
        let backend = TracedBackend::new(InProcessBackend::new(), Arc::clone(&tracer));
        let source = MmapCsrSource::open(&path).unwrap();
        let traced = traced_pipeline_run(&tracer, 7, &source, PARTS, &config, &backend).unwrap();

        assert_eq!(traced.result.circuits, run.result().circuits);
        assert_eq!(
            Counters::of(&traced.report, &traced.result),
            Counters::of(&expected, run.result())
        );
        assert_eq!(level_counters(&traced.report), level_counters(&expected));
        assert_eq!(traced.report.fragment_stats, expected.fragment_stats);
        assert_eq!(traced.assignment.num_partitions(), PARTS);

        // One level span per superstep, nested run ⊃ walk ⊃ walk.l<k>.
        let spans = tracer.spans();
        let kids = children(&spans);
        let walk = kids[traced.root]
            .iter()
            .copied()
            .find(|&i| spans[i].name == "walk")
            .unwrap();
        let levels: Vec<&str> = kids[walk].iter().map(|&i| spans[i].name.as_str()).collect();
        let want: Vec<String> = (0..expected.supersteps)
            .map(|k| format!("walk.l{k}"))
            .collect();
        assert_eq!(levels, want.iter().map(String::as_str).collect::<Vec<_>>());
        assert!(spans.iter().all(|s| s.run == 7 && s.end.is_some()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn traced_wstream_run_under_a_budget_equals_the_pipeline() {
        let path = packed_input("transparency-wstream.ecsr");
        let budget = 64;
        let run = EulerPipeline::builder()
            .source(MmapCsrSource::open(&path).unwrap())
            .partitioner(LdgPartitioner::new(PARTS))
            .config(EulerConfig::default().sequential())
            .streaming_phase1(true)
            .memory_budget(budget)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let expected = run.report();
        assert!(
            expected.fragment_stats.spill_write_longs > 0,
            "the budget must make the store spill"
        );

        let config = EulerConfig::default()
            .sequential()
            .with_streaming_phase1(true)
            .with_fragment_memory_budget(budget);
        let tracer = Arc::new(Tracer::new());
        let backend = TracedBackend::new(InProcessBackend::new(), Arc::clone(&tracer));
        let source = MmapCsrSource::open(&path).unwrap();
        let traced = traced_pipeline_run(&tracer, 0, &source, PARTS, &config, &backend).unwrap();

        assert_eq!(traced.result.circuits, run.result().circuits);
        assert_eq!(
            Counters::of(&traced.report, &traced.result),
            Counters::of(&expected, run.result())
        );
        assert_eq!(traced.report.fragment_stats, expected.fragment_stats);
        assert_eq!(traced.report.wstream, expected.wstream);
        assert!(tracer.spans().iter().any(|s| s.name == "wstream.pass"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn counting_transport_is_transparent_and_counts_frames() {
        let path = packed_input("transparency-wire.ecsr");
        let config = EulerConfig::default().sequential();
        let backend = || BspBackend::with_engine(BspConfig::with_workers(1));
        let run = EulerPipeline::builder()
            .source(MmapCsrSource::open(&path).unwrap())
            .partitioner(LdgPartitioner::new(PARTS))
            .config(config.clone())
            .backend(backend().with_transport(Arc::new(MemTransport)))
            .build()
            .unwrap()
            .run()
            .unwrap();

        let transport = CountingTransport::new(Arc::new(MemTransport));
        let counters = transport.counters();
        let tracer = Arc::new(Tracer::new());
        let traced_backend = TracedBackend::new(
            backend().with_transport(Arc::new(transport)),
            Arc::clone(&tracer),
        );
        let source = MmapCsrSource::open(&path).unwrap();
        let traced =
            traced_pipeline_run(&tracer, 0, &source, PARTS, &config, &traced_backend).unwrap();

        assert_eq!(traced.result.circuits, run.result().circuits);
        assert_eq!(
            Counters::of(&traced.report, &traced.result),
            Counters::of(&run.report(), run.result())
        );
        let wire = counters.totals();
        assert!(wire.frames > 0 && wire.bytes > 0);
        assert!(wire.frames_received > 0 && wire.frames_received <= wire.recv_calls);
        std::fs::remove_file(&path).ok();
    }
}
