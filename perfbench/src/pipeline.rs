//! The measuring process of a pipeline workload.
//!
//! It opens the packed input and runs the workload's pipeline until its time
//! is up; the first run warms up and is not timed. In phase one the process
//! holds no `Graph`, and each run's peak RSS is read as it returns. Phase two
//! builds the Hierholzer baseline's graph and alternates baseline and
//! pipeline runs, so both are timed in the same spells of a shared host.
//! Circuits go to files that the parent process checks against
//! `CsrFile::to_graph()`. With tracing on, each untraced run is followed by
//! one traced composition of the same run (see [`crate::compose`]).

use crate::circuit::{check_result, fingerprint, timed_hierholzer, write_circuit};
use crate::compose::{traced_pipeline_run, TracedRun};
use crate::decor::{CountingTransport, TracedBackend, WireTotals};
use crate::record::{reset_peak_rss, vm_hwm_bytes, Results};
use crate::stats::median;
use crate::trace::{children, chrome_trace_json, coverage, layer_of, self_times_of_run, Tracer};
use crate::workload::PathKind;
use euler_bsp::{BspConfig, MemTransport};
use euler_core::{
    BspBackend, CircuitResult, EulerConfig, EulerError, EulerPipeline, InProcessBackend, RunReport,
};
use euler_graph::{CsrFile, Graph, MmapCsrSource};
use euler_partition::LdgPartitioner;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Merge levels reported one by one as `walk.l<k>_s`.
pub const REPORTED_LEVELS: u32 = 4;

/// Share of the run's time spent before the baseline graph is built.
const PHASE_ONE_SHARE: f64 = 0.4;

/// Hierholzer runs timed in phase two, at least.
const MIN_BASELINE_RUNS: usize = 6;

/// Hierholzer runs before each phase-two pipeline run.
pub const BASELINE_RUNS_PER_STEP: usize = 2;

const MIB: f64 = 1024.0 * 1024.0;

/// Counters of a run that repeat exactly from run to run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counters {
    /// Merge-tree supersteps.
    pub supersteps: u32,
    /// Longs shipped between partitions.
    pub transfer_longs: u64,
    /// Longs written to the fragment store.
    pub disk_longs: u64,
    /// Phase-1 paths over all levels.
    pub paths: u64,
    /// Phase-1 cycles over all levels.
    pub cycles: u64,
    /// Phase-1 complexity over all levels.
    pub complexity: u64,
    /// Circuits returned.
    pub circuits: usize,
    /// Steps over all circuits.
    pub edges: u64,
}

impl Counters {
    /// The counters of one run.
    pub fn of(report: &RunReport, result: &CircuitResult) -> Self {
        let sum = |f: fn(&euler_core::LevelPartitionReport) -> u64| {
            report.per_partition.iter().map(f).sum::<u64>()
        };
        Counters {
            supersteps: report.supersteps,
            transfer_longs: report.total_transfer_longs,
            disk_longs: report.fragment_disk_longs,
            paths: sum(|r| r.paths_found),
            cycles: sum(|r| r.cycles_found),
            complexity: sum(|r| r.complexity),
            circuits: result.num_circuits(),
            edges: result.total_edges(),
        }
    }

    /// The counters a wire run must share with the in-process run of the
    /// same input: supersteps, transferred Longs and fragment Longs.
    pub fn backend_invariant(&self) -> (u32, u64, u64) {
        (self.supersteps, self.transfer_longs, self.disk_longs)
    }
}

/// The algorithm configuration the builder produces for `path`.
pub fn config_for(path: PathKind, budget: Option<u64>) -> EulerConfig {
    let mut config = EulerConfig::default();
    if path == PathKind::WStream {
        config.streaming_phase1 = true;
        config.fragment_memory_budget = budget;
    }
    config
}

fn wire_backend(transport: Arc<dyn euler_bsp::Transport>) -> BspBackend {
    BspBackend::with_engine(BspConfig::with_workers(2)).with_transport(transport)
}

/// Opens `ecsr` and builds the workload's pipeline, as a user would.
pub fn build_pipeline(
    ecsr: &Path,
    parts: u32,
    path: PathKind,
    budget: Option<u64>,
) -> Result<EulerPipeline, EulerError> {
    let builder = EulerPipeline::builder()
        .source(MmapCsrSource::open(ecsr)?)
        .partitioner(LdgPartitioner::new(parts));
    let builder = match (path, budget) {
        (PathKind::InProcess, _) => builder,
        (PathKind::WStream, None) => builder.streaming_phase1(true),
        (PathKind::WStream, Some(b)) => builder.streaming_phase1(true).memory_budget(b),
        (PathKind::Wire, _) => builder.backend(wire_backend(Arc::new(MemTransport))),
    };
    builder.build()
}

/// Writes each distinct circuit once and counts the runs that produced it.
struct CircuitSink {
    dir: PathBuf,
    prefix: String,
    seen: HashMap<u64, usize>,
}

impl CircuitSink {
    fn add(&mut self, res: &mut Results, result: &CircuitResult) {
        let fp = fingerprint(result);
        if let Some(&i) = self.seen.get(&fp) {
            res.circuits[i].1 += 1;
            return;
        }
        let path = self.dir.join(format!("{}-{fp:016x}.circ", self.prefix));
        match write_circuit(&path, result) {
            Ok(()) => {
                self.seen.insert(fp, res.circuits.len());
                res.circuits.push((path, 1));
            }
            Err(e) => res.fail(format!("cannot write circuit file {}: {e}", path.display())),
        }
    }
}

/// One traced run and what the decorators saw (the circuit itself is
/// handed to the circuit files and not kept).
struct TracedSample {
    run: u64,
    traced: TracedRun,
    wire: Option<WireTotals>,
}

/// A pipeline workload's measuring process.
pub struct PipelineChild {
    /// Workload name.
    pub name: String,
    /// Streaming-LDG parts.
    pub parts: u32,
    /// Execution path.
    pub path: PathKind,
    /// The packed input.
    pub ecsr: PathBuf,
    /// Directory for circuit and trace files.
    pub work: PathBuf,
    /// Seconds to measure.
    pub seconds: f64,
}

impl PipelineChild {
    fn seconds_total(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// The graph the Hierholzer baseline runs on: `CsrFile::to_graph()` of
    /// the workload's input.
    fn baseline_graph(&self) -> Result<Graph, String> {
        let csr = CsrFile::open(&self.ecsr)
            .map_err(|e| format!("cannot open {}: {e}", self.ecsr.display()))?;
        Ok(csr.to_graph())
    }

    fn untimed_run(
        &self,
        path: PathKind,
        budget: Option<u64>,
    ) -> Result<(RunReport, CircuitResult), EulerError> {
        let run = build_pipeline(&self.ecsr, self.parts, path, budget)?.run()?;
        Ok((run.report(), run.into_result()))
    }

    fn traced_run(
        &self,
        tracer: &Arc<Tracer>,
        run: u64,
        budget: Option<u64>,
    ) -> Result<TracedSample, EulerError> {
        let source = tracer.span("load.open", run, None, |_| MmapCsrSource::open(&self.ecsr))?;
        let config = config_for(self.path, budget);
        let sample = if self.path == PathKind::Wire {
            let transport = CountingTransport::new(Arc::new(MemTransport));
            let counters = transport.counters();
            let backend = TracedBackend::new(wire_backend(Arc::new(transport)), Arc::clone(tracer));
            let traced = traced_pipeline_run(tracer, run, &source, self.parts, &config, &backend)?;
            TracedSample {
                run,
                traced,
                wire: Some(counters.totals()),
            }
        } else {
            let backend = TracedBackend::new(InProcessBackend::new(), Arc::clone(tracer));
            let traced = traced_pipeline_run(tracer, run, &source, self.parts, &config, &backend)?;
            TracedSample {
                run,
                traced,
                wire: None,
            }
        };
        Ok(sample)
    }

    /// Measures until the time is up; `trace` adds one traced run after
    /// every untraced one.
    pub fn measure(&self, trace: bool) -> Results {
        let mut res = Results::default();
        let mut sink = CircuitSink {
            dir: self.work.clone(),
            prefix: self.name.clone(),
            seen: HashMap::new(),
        };
        let start = Instant::now();

        // The W-streaming budget is one eighth of the unbounded run's
        // fragment Longs; the wire run must match the in-process counters.
        let mut budget = None;
        let mut reference = None;
        let reference_path = match self.path {
            PathKind::WStream => Some(PathKind::WStream),
            PathKind::Wire => Some(PathKind::InProcess),
            PathKind::InProcess => None,
        };
        if let Some(path) = reference_path {
            res.attempted += 1;
            match self.untimed_run(path, None) {
                Ok((report, result)) => {
                    if self.path == PathKind::WStream {
                        budget = Some((report.fragment_disk_longs / 8).max(1));
                    } else {
                        reference = Some(Counters::of(&report, &result).backend_invariant());
                    }
                    sink.add(&mut res, &result);
                }
                Err(e) => res.fail(format!("{} reference run: {e}", self.name)),
            }
        }
        if let Some(b) = budget {
            println!(
                "# {}: fragment memory budget {b} Longs, one eighth of the unbounded run's",
                self.name
            );
        }
        res.count("load.file_bytes", file_bytes(&self.ecsr));

        let tracer = Arc::new(Tracer::new());
        let mut expected: Option<Counters> = None;
        let mut untraced_walls = Vec::new();
        let mut samples = Vec::new();
        let mut graph: Option<Graph> = None;
        let mut rep: u64 = 0;
        loop {
            // Phase two: Hierholzer runs before each pipeline run, so the
            // baseline is timed in the same spells of the host.
            if let Some(g) = &graph {
                for _ in 0..BASELINE_RUNS_PER_STEP {
                    res.attempted += 1;
                    match timed_hierholzer(g) {
                        Ok((h, _)) => res.sample("baseline.hierholzer_s", h),
                        Err(e) => res.fail(e),
                    }
                }
                if res.samples_of("baseline.hierholzer_s").len() >= MIN_BASELINE_RUNS
                    && start.elapsed() >= self.seconds_total()
                {
                    break;
                }
            }

            let warm = rep == 0;
            res.attempted += 1;
            // In phase one every run's own peak RSS is read: the peak is
            // reset before the run and read as soon as it returns.
            let rss_reset = graph.is_none() && reset_peak_rss();
            let t0 = Instant::now();
            let outcome = build_pipeline(&self.ecsr, self.parts, self.path, budget).and_then(|p| {
                let setup = t0.elapsed().as_secs_f64();
                let t1 = Instant::now();
                let run = p.run()?;
                Ok((setup, t1.elapsed().as_secs_f64(), run))
            });
            if rss_reset {
                match vm_hwm_bytes(None) {
                    Some(b) => res.sample("peak_rss_mb", b as f64 / MIB),
                    None => res.fail("cannot read VmHWM"),
                }
            }
            match outcome {
                Ok((setup, wall, run)) => {
                    if !warm {
                        res.sample("setup_s", setup);
                        res.sample("wall_s", wall);
                        untraced_walls.push(wall);
                    }
                    let report = run.report();
                    self.check_counters(
                        &mut res,
                        &mut expected,
                        reference,
                        &report,
                        run.result(),
                        "run",
                    );
                    sink.add(&mut res, run.result());
                }
                Err(e) => res.fail(format!("{} run {rep}: {e}", self.name)),
            }
            if trace {
                res.attempted += 1;
                match self.traced_run(&tracer, rep, budget) {
                    Ok(mut sample) => {
                        let t = &sample.traced;
                        self.check_counters(
                            &mut res,
                            &mut expected,
                            reference,
                            &t.report,
                            &t.result,
                            "traced run",
                        );
                        sink.add(&mut res, &t.result);
                        sample.traced.result = CircuitResult::default();
                        if !warm {
                            samples.push(sample);
                        }
                    }
                    Err(e) => res.fail(format!("{} traced run {rep}: {e}", self.name)),
                }
            }
            rep += 1;

            // Phase one ends after the warm-up, one timed run and its share
            // of the time; the peak RSS is read before any graph exists.
            if graph.is_none()
                && rep >= 2
                && start.elapsed() >= self.seconds_total().mul_f64(PHASE_ONE_SHARE)
            {
                if res.samples_of("peak_rss_mb").is_empty() {
                    // Without a resettable peak, the peak of phase one.
                    match vm_hwm_bytes(None) {
                        Some(b) => res.sample("peak_rss_mb", b as f64 / MIB),
                        None => res.fail("cannot read VmHWM"),
                    }
                }
                match self.baseline_graph() {
                    Ok(g) => {
                        res.attempted += 1;
                        match timed_hierholzer(&g).and_then(|(_, c)| check_result(&g, &c)) {
                            Ok(()) => graph = Some(g),
                            Err(e) => {
                                res.fail(e);
                                break;
                            }
                        }
                    }
                    Err(e) => {
                        res.fail(e);
                        break;
                    }
                }
            }
        }
        if trace {
            self.layer_metrics(&tracer, &samples, median(&untraced_walls), &mut res);
        }
        res
    }

    fn check_counters(
        &self,
        res: &mut Results,
        expected: &mut Option<Counters>,
        reference: Option<(u32, u64, u64)>,
        report: &RunReport,
        result: &CircuitResult,
        what: &str,
    ) {
        let c = Counters::of(report, result);
        if let Some(r) = reference {
            if c.backend_invariant() != r {
                res.fail(format!(
                    "{} {what}: (supersteps, transfer, disk Longs) {:?} differ from in-process {r:?}",
                    self.name,
                    c.backend_invariant()
                ));
            }
        }
        match expected {
            Some(e) if *e != c => res.fail(format!(
                "{} {what}: counters {c:?} differ from {e:?}",
                self.name
            )),
            Some(_) => {}
            None => *expected = Some(c),
        }
        // What each path must do: only the W-streaming run spills, and a
        // single part merges nothing.
        let spilled = report.fragment_stats.spill_write_longs > 0;
        if spilled != (self.path == PathKind::WStream) || report.wstream.is_some() != spilled {
            res.fail(format!(
                "{} {what}: spilled {} Longs, W-streaming stats {}",
                self.name,
                report.fragment_stats.spill_write_longs,
                if report.wstream.is_some() {
                    "present"
                } else {
                    "absent"
                }
            ));
        }
        if self.parts == 1 && report.total_transfer_longs != 0 {
            res.fail(format!(
                "{} {what}: one part shipped {} Longs",
                self.name, report.total_transfer_longs
            ));
        }
        if !report.warnings.is_empty() {
            res.fail(format!(
                "{} {what}: warnings {:?}",
                self.name, report.warnings
            ));
        }
    }

    /// Per-layer samples from the traced runs, the flat self-time table
    /// (printed) and the Chrome trace file.
    fn layer_metrics(
        &self,
        tracer: &Tracer,
        samples: &[TracedSample],
        untraced_wall: f64,
        res: &mut Results,
    ) {
        let spans = tracer.spans();
        let kids = children(&spans);
        let mut table: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut traced_walls = Vec::new();
        for s in samples {
            let selfs = self_times_of_run(&spans, &kids, s.run);
            for (name, v) in &selfs {
                table.entry(name.clone()).or_default().push(*v);
            }
            let t = &s.traced;
            let r = &t.report;
            let wall = spans[t.root].duration().as_secs_f64();
            traced_walls.push(wall);
            for (metric, span) in [
                ("load.open_s", "load.open"),
                ("partition.stream_s", "partition.stream"),
                ("view.build_s", "view.build"),
                ("view.states_s", "view.states"),
                ("plan.meta_s", "plan.meta"),
                ("plan.tree_s", "plan.tree"),
                ("wstream.pass_s", "wstream.pass"),
                ("phase3.unroll_s", "phase3.unroll"),
            ] {
                if let Some(&v) = selfs.get(span) {
                    res.sample(metric, v);
                }
            }
            for k in 0..REPORTED_LEVELS {
                if let Some(&v) = selfs.get(&format!("walk.l{k}")) {
                    res.sample(&format!("walk.l{k}_s"), v);
                }
            }
            let walk: f64 = spans
                .iter()
                .filter(|sp| sp.run == s.run && sp.name == "walk")
                .map(|sp| sp.duration().as_secs_f64())
                .sum();
            res.sample("walk.s", walk);
            res.sample("trace.coverage", coverage(&spans, &kids, t.root));
            res.sample("trace.traced_wall_s", wall);

            let sum = |f: fn(&euler_core::LevelPartitionReport) -> u64| {
                r.per_partition.iter().map(f).sum::<u64>() as f64
            };
            let secs = |f: fn(&euler_core::LevelPartitionReport) -> std::time::Duration| {
                r.per_partition
                    .iter()
                    .map(|p| f(p).as_secs_f64())
                    .sum::<f64>()
            };
            res.sample("partition.cut_frac", t.cut_frac);
            res.sample("partition.imbalance", t.assignment.imbalance());
            res.sample("plan.supersteps", f64::from(r.supersteps));
            res.sample("phase1.complexity", sum(|p| p.complexity));
            res.sample("phase1.paths", sum(|p| p.paths_found));
            res.sample("phase1.cycles", sum(|p| p.cycles_found));
            res.sample("phase1.splice_lookups", sum(|p| p.splice_pivot_lookups));
            res.sample("phase1.splice_linked", sum(|p| p.splice_linked_splices));
            res.sample(
                "phase1.materialized_longs",
                sum(|p| p.splice_materialization_longs),
            );
            res.sample("phase1.cpu_s", secs(|p| p.phase1_time));
            res.sample("phase2.transfer_longs", r.total_transfer_longs as f64);
            res.sample("phase2.cpu_s", secs(|p| p.merge_time));
            let fs = &r.fragment_stats;
            res.sample("store.disk_longs", r.fragment_disk_longs as f64);
            res.sample("store.peak_resident_longs", fs.peak_resident_longs as f64);
            res.sample("store.spilled_fragments", fs.spilled_fragments as f64);
            res.sample("store.spill_write_longs", fs.spill_write_longs as f64);
            res.sample("store.spill_read_longs", fs.spill_read_longs as f64);
            let reread = if fs.spill_write_longs == 0 {
                0.0
            } else {
                fs.spill_read_longs as f64 / fs.spill_write_longs as f64
            };
            res.sample("store.reread_ratio", reread);
            res.sample("store.spill_errors", fs.spill_errors as f64);
            if let Some(w) = &r.wstream {
                res.sample("wstream.peak_resident_longs", w.peak_resident_longs as f64);
                res.sample("wstream.open_chain_flushes", w.open_chain_flushes as f64);
                let residual = (w.residual_local_edges + w.residual_remote_edges) as f64;
                res.sample(
                    "wstream.residual_frac",
                    residual / w.edges_ingested.max(1) as f64,
                );
            }
            res.sample("phase3.circuits", t.circuits as f64);
            let model = r
                .cumulative_memory_by_level()
                .into_iter()
                .max()
                .unwrap_or(0);
            res.sample("mem.model_peak_longs", model as f64);
            if let Some(w) = s.wire {
                res.sample("wire.frames", w.frames as f64);
                res.sample("wire.bytes", w.bytes as f64);
                res.sample("wire.send_s", w.send_s);
                res.sample("wire.recv_wait_s", w.recv_wait_s);
                res.sample("wire.recv_timeouts", w.recv_timeouts as f64);
                res.sample(
                    "wire.useful_recv_frac",
                    w.frames_received as f64 / w.recv_calls.max(1) as f64,
                );
            }
        }
        res.sample(
            "trace.overhead",
            median(&traced_walls) / untraced_wall - 1.0,
        );

        println!(
            "# {}: self time per span, median over {} traced runs",
            self.name,
            samples.len()
        );
        println!(
            "#   {:<10} {:<20} {:>12} {:>4}",
            "layer", "span", "self_s", "n"
        );
        for (name, v) in &table {
            println!(
                "#   {:<10} {:<20} {:>12.6} {:>4}",
                layer_of(name),
                name,
                median(v),
                v.len()
            );
        }
        let path = self.work.join(format!("{}.trace.json", self.name));
        match std::fs::write(&path, chrome_trace_json(&spans)) {
            Ok(()) => println!(
                "# {}: Chrome trace written to {}",
                self.name,
                path.display()
            ),
            Err(e) => res.fail(format!("cannot write {}: {e}", path.display())),
        }
    }
}

fn file_bytes(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}
