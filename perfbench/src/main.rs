//! The benchmark's command line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --serve-bin <euler-serve> [--work-dir <dir>]
//! ```
//!
//! Makes the workload's inputs from the seed, measures in a separate process
//! (a measuring child for a pipeline workload, `euler-serve` for the
//! service) so that peak RSS holds no copy of the graph made by the
//! benchmark, checks every circuit against `CsrFile::to_graph()` of its
//! input, and prints every metric with unit and sample count, then one JSON
//! line. Exits non-zero if any operation or check failed.
//!
//! Layers are timed from outside the program, around its public calls:
//! [`compose`] rebuilds a pipeline run from those calls, [`decor`] wraps the
//! execution backend and the wire transport, and [`trace`] keeps the spans.

mod circuit;
mod compose;
mod decor;
mod pipeline;
mod record;
mod report;
mod service;
mod stats;
mod trace;
mod workload;

use crate::circuit::{check_circuit_files, check_result, timed_hierholzer};
use crate::pipeline::{PipelineChild, BASELINE_RUNS_PER_STEP};
use crate::record::{vm_hwm_bytes, Results};
use crate::report::{render, Reported, END_TO_END, PER_LAYER};
use crate::service::{client_keys, drive_client, plan_round, RequestRecord, CLIENTS};
use crate::stats::{median, tail_percentile};
use crate::trace::{children, chrome_trace_json, coverage, layer_of, self_times_of_run, Tracer};
use crate::workload::{Input, PathKind, Workload, SERVICE_INPUTS};
use euler_core::{CircuitResult, ServiceClient};
use euler_graph::{write_csr_file, CsrFile, Graph};
use std::collections::{BTreeMap, HashMap};
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

const MIB: f64 = 1024.0 * 1024.0;
/// Rounds the service workload always runs, whatever `--seconds` says. The
/// first one warms up and is not timed.
const MIN_SERVICE_ROUNDS: u64 = 3;

type BenchResult<T> = Result<T, String>;

fn flags(args: &[String]) -> BenchResult<HashMap<String, String>> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.insert(key.to_string(), value.clone());
    }
    Ok(out)
}

fn required<'a>(f: &'a HashMap<String, String>, key: &str) -> BenchResult<&'a str> {
    f.get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{key}"))
}

fn number<T: std::str::FromStr>(f: &HashMap<String, String>, key: &str) -> BenchResult<T> {
    required(f, key)?
        .parse()
        .map_err(|_| format!("--{key} is not a number"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("child") => child_main(&args[1..]),
        _ => parent_main(&args),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::from(2)
    })
}

/// The measuring process of a pipeline workload.
fn child_main(args: &[String]) -> BenchResult<ExitCode> {
    let f = flags(args)?;
    let name = required(&f, "workload")?;
    let Some(Workload::Pipeline { parts, path, .. }) = Workload::parse(name) else {
        return Err(format!("{name} is not a pipeline workload"));
    };
    let child = PipelineChild {
        name: name.to_string(),
        parts,
        path,
        ecsr: PathBuf::from(required(&f, "ecsr")?),
        work: PathBuf::from(required(&f, "work-dir")?),
        seconds: number(&f, "seconds")?,
    };
    let res = child.measure(number::<u8>(&f, "trace")? == 1);
    let out = required(&f, "out")?;
    std::fs::write(out, res.to_text()).map_err(|e| format!("cannot write {out}: {e}"))?;
    Ok(ExitCode::SUCCESS)
}

fn parent_main(args: &[String]) -> BenchResult<ExitCode> {
    let f = flags(args)?;
    let name = required(&f, "workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = number(&f, "seed")?;
    let seconds: f64 = number(&f, "seconds")?;
    let trace = number::<u8>(&f, "trace")? == 1;
    let work = PathBuf::from(f.get("work-dir").map_or("perfbench/work", String::as_str));
    std::fs::create_dir_all(work.join("tmp"))
        .map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("# perfbench {name}, seed {seed}, {seconds} s, trace {}, host_available_parallelism {parallelism}", u8::from(trace));

    let mut res = match workload {
        Workload::Pipeline {
            name,
            input,
            parts,
            path,
        } => pipeline_workload(name, input, parts, path, seed, seconds, trace, &work)?,
        Workload::Service => {
            let serve_bin = PathBuf::from(required(&f, "serve-bin")?);
            service_workload(seed, seconds, trace, &work, &serve_bin)?
        }
    };
    let metrics = collect_metrics(&mut res, trace);
    for failure in &res.failures {
        eprintln!("perfbench: FAILED: {failure}");
    }
    let failed = res.failures.len() as u64;
    let attempted = res.attempted.max(1);
    print!("{}", render(&metrics, failed == 0, attempted, failed));
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Median of the samples of `name`, else its single value, else absent.
fn lookup(res: &Results, name: &str) -> (f64, usize) {
    let samples = res.samples_of(name);
    if !samples.is_empty() {
        return (median(samples), samples.len());
    }
    res.counts.get(name).map_or((0.0, 0), |&v| (v, 1))
}

fn collect_metrics(res: &mut Results, trace: bool) -> Vec<Reported> {
    let failed_frac = res.failures.len() as f64 / res.attempted.max(1) as f64;
    res.count("failed_frac", failed_frac);
    let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut out = Vec::new();
    let mut missing = Vec::new();
    for &(name, unit) in catalogue {
        let (value, mut n) = lookup(res, name);
        if name == "vs_hierholzer" && n == 1 {
            // The median wall time over a median baseline time.
            n = res.samples_of("wall_s").len();
        }
        if !trace && (n == 0 || !value.is_finite() || value <= 0.0) {
            missing.push(name);
        }
        out.push(Reported {
            name: name.into(),
            unit: unit.into(),
            value,
            n,
        });
    }
    for name in missing {
        res.fail(format!("end-to-end metric {name} was not measured"));
    }
    out
}

/// Times [`BASELINE_RUNS_PER_STEP`] Hierholzer runs on each graph, after
/// one untimed run: the first run after a service round runs cold.
fn hierholzer_round(graphs: &[Graph], times: &mut [Vec<f64>], res: &mut Results) {
    for (g, times) in graphs.iter().zip(times) {
        for rep in 0..=BASELINE_RUNS_PER_STEP {
            res.attempted += 1;
            match timed_hierholzer(g) {
                Ok((h, _)) if rep > 0 => times.push(h),
                Ok(_) => {}
                Err(e) => res.fail(e),
            }
        }
    }
}

fn make_input(input: Input, seed: u64, work: &Path) -> BenchResult<(PathBuf, u64, u64)> {
    let path = work.join(format!("{}-s{seed}.ecsr", input.stem()));
    let g = input.generate(seed);
    write_csr_file(&g, &path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok((path, g.num_vertices(), g.num_edges()))
}

fn graph_of(path: &Path) -> BenchResult<Graph> {
    Ok(CsrFile::open(path)
        .map_err(|e| format!("cannot open {}: {e}", path.display()))?
        .to_graph())
}

#[allow(clippy::too_many_arguments)]
fn pipeline_workload(
    name: &str,
    input: Input,
    parts: u32,
    path: PathKind,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: &Path,
) -> BenchResult<Results> {
    let t = Instant::now();
    let (ecsr, n, m) = make_input(input, seed, work)?;
    println!(
        "# {name}: {} with {n} vertices and {m} edges, {parts} parts, {path:?}; input made in {:.2} s (not timed)",
        input.stem(),
        t.elapsed().as_secs_f64()
    );
    let out = work.join(format!("{name}.results"));
    let _ = std::fs::remove_file(&out);
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let status = Command::new(exe)
        .arg("child")
        .args(["--workload", name, "--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--ecsr")
        .arg(&ecsr)
        .arg("--work-dir")
        .arg(work)
        .arg("--out")
        .arg(&out)
        .env("TMPDIR", work.join("tmp"))
        .status()
        .map_err(|e| format!("cannot start the measuring process: {e}"))?;
    let mut res = match std::fs::read_to_string(&out) {
        Ok(text) if status.success() => Results::parse(&text)?,
        _ => {
            let mut r = Results {
                attempted: 1,
                ..Default::default()
            };
            r.fail(format!("measuring process ended with {status}"));
            r
        }
    };

    check_circuit_files(&graph_of(&ecsr)?, &mut res);
    let (wall, _) = lookup(&res, "wall_s");
    let (hier, _) = lookup(&res, "baseline.hierholzer_s");
    res.count("vs_hierholzer", wall / hier);
    for v in res.samples_of("peak_rss_mb").to_vec() {
        res.sample("mem.peak_rss_mb", v);
    }
    let (rss_mb, n) = lookup(&res, "peak_rss_mb");
    let (model, m) = lookup(&res, "mem.model_peak_longs");
    if n > 0 && m > 0 && model > 0.0 {
        res.count("mem.rss_per_model_long", rss_mb * MIB / model);
    }
    let _ = std::fs::remove_file(&ecsr);
    let _ = std::fs::remove_file(&out);
    Ok(res)
}

/// A running `euler-serve`; dropping it kills the process if it still runs
/// and waits for it.
struct Server {
    child: Child,
}

impl Server {
    /// Starts the server and reads the endpoint it prints.
    fn start(bin: &Path, work: &Path) -> BenchResult<(Server, String)> {
        let child = Command::new(bin)
            .args(["--workers", "2"])
            .env("TMPDIR", work.join("tmp"))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut server = Server { child };
        let stdout = server
            .child
            .stdout
            .take()
            .ok_or("euler-serve has no stdout")?;
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("cannot read the endpoint: {e}"))?;
        let endpoint = line.trim().to_string();
        if endpoint.is_empty() {
            return Err("euler-serve printed no endpoint".into());
        }
        Ok((server, endpoint))
    }

    /// Closes the server's stdin, which asks it to stop, and waits.
    fn stop(mut self) -> BenchResult<()> {
        drop(self.child.stdin.take());
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("euler-serve ended with {status}"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Everything one service round observed. Every round computes the same
/// circuits: each key once as a miss, plus as many seeded repeats (hits).
struct Round {
    records: Vec<RequestRecord>,
    misses: Vec<(usize, CircuitResult)>,
    loop_s: f64,
    rss_bytes: Option<u64>,
}

#[allow(clippy::too_many_arguments)]
fn service_round(
    seed: u64,
    round: u64,
    warm: bool,
    serve_bin: &Path,
    inputs: &[PathBuf],
    work: &Path,
    res: &mut Results,
    tracer: Option<&Tracer>,
) -> BenchResult<Round> {
    let t0 = Instant::now();
    let (server, endpoint) = Server::start(serve_bin, work)?;
    let admin = ServiceClient::connect(&endpoint).map_err(|e| e.to_string())?;
    let t_register = Instant::now();
    let mut checksums = Vec::new();
    for path in inputs {
        let info = admin
            .register(&path.to_string_lossy())
            .map_err(|e| format!("register: {e}"))?;
        checksums.push(info.checksum);
    }
    let register_s = t_register.elapsed().as_secs_f64() / inputs.len() as f64;
    if !warm {
        res.sample("setup_s", t0.elapsed().as_secs_f64());
        res.sample("load.open_s", register_s);
    }
    if let Some(tr) = tracer {
        tr.record("svc.setup", round << 32, None, t0, Instant::now());
    }

    // The registering connection becomes client 0; each client holds one
    // connection, which occupies one of the server's two workers.
    let mut conns = vec![admin];
    for _ in 1..CLIENTS {
        conns.push(ServiceClient::connect(&endpoint).map_err(|e| e.to_string())?);
    }
    let loop_start = Instant::now();
    let outs: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, conn)| {
                let checksums = &checksums;
                s.spawn(move || {
                    let (records, misses) = drive_client(
                        &conn,
                        checksums,
                        &client_keys(c),
                        &plan_round(seed, round, c),
                    );
                    (conn, records, misses)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let loop_s = loop_start.elapsed().as_secs_f64();

    let planned_hits: u64 = outs
        .iter()
        .flat_map(|o| &o.1)
        .filter(|r| r.predicted_hit)
        .count() as u64;
    let planned = outs.iter().map(|o| o.1.len() as u64).sum::<u64>();
    match outs[0].0.stats() {
        Ok(stats) => {
            if !warm {
                res.sample("svc.peak_admitted_longs", stats.peak_admitted_longs as f64);
            }
            if stats.runs_cached != planned_hits || stats.runs_executed != planned - planned_hits {
                res.fail(format!(
                    "round {round}: server ran {} and served {} from cache; the plan has {} misses and {planned_hits} hits",
                    stats.runs_executed,
                    stats.runs_cached,
                    planned - planned_hits
                ));
            }
        }
        Err(e) => res.fail(format!("round {round}: stats: {e}")),
    }
    let rss_bytes = vm_hwm_bytes(Some(server.child.id()));
    let mut records = Vec::new();
    let mut misses = Vec::new();
    for (c, (conn, recs, first_miss)) in outs.into_iter().enumerate() {
        drop(conn);
        let keys = client_keys(c);
        misses.extend(
            first_miss
                .into_iter()
                .map(|(key, result)| (keys[key].0, result)),
        );
        records.extend(recs);
    }
    server.stop()?;
    Ok(Round {
        records,
        misses,
        loop_s,
        rss_bytes,
    })
}

fn service_workload(
    seed: u64,
    seconds: f64,
    trace: bool,
    work: &Path,
    serve_bin: &Path,
) -> BenchResult<Results> {
    let mut res = Results::default();
    let mut inputs = Vec::new();
    for input in SERVICE_INPUTS {
        let (path, n, m) = make_input(input, seed, work)?;
        println!(
            "# {}: {} with {n} vertices and {m} edges (not timed)",
            workload::SERVICE,
            input.stem()
        );
        inputs.push(path);
    }
    let file_bytes: u64 = inputs
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum();
    res.count("load.file_bytes", file_bytes as f64);
    let graphs: Vec<Graph> = inputs
        .iter()
        .map(|p| graph_of(p))
        .collect::<BenchResult<_>>()?;

    // One Hierholzer run on each graph warms up, then a few follow every
    // round, so the baseline is timed in the same spells of the host.
    for g in &graphs {
        res.attempted += 1;
        if let Err(e) = timed_hierholzer(g).and_then(|(_, c)| check_result(g, &c)) {
            res.fail(e);
        }
    }
    let mut hier: Vec<Vec<f64>> = vec![Vec::new(); graphs.len()];

    let tracer = trace.then(Tracer::new);
    let start = Instant::now();
    let (mut loop_s, mut completed, mut hits, mut chunks, mut bytes) =
        (0.0, 0u64, 0u64, 0u64, 0u64);
    let mut latencies = Vec::new();
    let mut req_spans = Vec::new();
    let mut round = 0u64;
    while round < MIN_SERVICE_ROUNDS || start.elapsed() < Duration::from_secs_f64(seconds) {
        let warm = round == 0;
        let outcome = service_round(
            seed,
            round,
            warm,
            serve_bin,
            &inputs,
            work,
            &mut res,
            tracer.as_ref(),
        );
        hierholzer_round(&graphs, &mut hier, &mut res);
        round += 1;
        let r = match outcome {
            Ok(r) => r,
            Err(e) => {
                res.attempted += 1;
                res.fail(format!("round {}: {e}", round - 1));
                continue;
            }
        };
        match r.rss_bytes {
            Some(b) if !warm => res.sample("peak_rss_mb", b as f64 / MIB),
            Some(_) => {}
            None => res.fail("cannot read the server's VmHWM"),
        }
        if !warm {
            loop_s += r.loop_s;
            res.sample("wall_s", r.loop_s);
        }
        for (graph, result) in &r.misses {
            if let Err(e) = check_result(&graphs[*graph], result) {
                res.fail(format!("round {}: circuit of a miss: {e}", round - 1));
            }
        }
        for (i, rec) in r.records.iter().enumerate() {
            res.attempted += 1;
            if let Some(e) = &rec.error {
                res.fail(format!("round {} request {i}: {e}", round - 1));
                continue;
            }
            if rec.cached != Some(rec.predicted_hit) {
                res.fail(format!(
                    "round {} request {i}: predicted hit {} but cached flag {:?}",
                    round - 1,
                    rec.predicted_hit,
                    rec.cached
                ));
            }
            let (Some(acc), Some(first), Some(done), Some(lat)) =
                (rec.accepted, rec.first_chunk, rec.done, rec.latency_s())
            else {
                res.fail(format!(
                    "round {} request {i}: incomplete event sequence",
                    round - 1
                ));
                continue;
            };
            if warm {
                continue;
            }
            completed += 1;
            chunks += rec.chunks;
            bytes += rec.bytes;
            latencies.push(lat);
            res.sample("svc.queue_s", acc.duration_since(rec.start).as_secs_f64());
            res.sample("svc.stream_s", done.duration_since(first).as_secs_f64());
            if rec.cached == Some(true) {
                hits += 1;
                res.sample("req_hit_p50_s", lat);
            } else {
                res.sample("req_miss_p50_s", lat);
                res.sample("svc.compute_s", first.duration_since(acc).as_secs_f64());
                match &rec.summary {
                    Some(summary) => {
                        res.sample("plan.supersteps", f64::from(summary.supersteps));
                        res.sample("phase2.transfer_longs", summary.transfer_longs as f64);
                        res.sample(
                            "store.peak_resident_longs",
                            summary.peak_resident_longs as f64,
                        );
                    }
                    None => res.fail(format!(
                        "round {} request {i}: a miss without its report",
                        round - 1
                    )),
                }
            }
            if let Some(tr) = &tracer {
                let run = ((round - 1) << 32) | (i as u64 + 1);
                let root = tr.record("req", run, None, rec.start, done);
                tr.record("svc.queue", run, Some(root), rec.start, acc);
                let middle = if rec.cached == Some(true) {
                    "svc.lookup"
                } else {
                    "svc.compute"
                };
                tr.record(middle, run, Some(root), acc, first);
                tr.record("svc.stream", run, Some(root), first, done);
                req_spans.push(root);
            }
        }
    }

    // A round against Hierholzer run once for each circuit a round computes.
    let hier: Vec<f64> = hier.iter().map(|h| median(h)).collect();
    res.count("baseline.hierholzer_s", hier.iter().sum());
    let sequential: f64 = (0..CLIENTS)
        .flat_map(client_keys)
        .map(|(graph, _)| hier[graph])
        .sum();
    let (wall, _) = lookup(&res, "wall_s");
    res.count("vs_hierholzer", wall / sequential);
    res.count(
        "req_per_s",
        completed as f64 / loop_s.max(f64::MIN_POSITIVE),
    );
    res.count("svc.cache_hit_frac", hits as f64 / completed.max(1) as f64);
    res.count("svc.chunks", chunks as f64 / completed.max(1) as f64);
    res.count("svc.bytes", bytes as f64 / completed.max(1) as f64);
    if let Some((pct, value)) = tail_percentile(&latencies) {
        res.count("svc.req_tail_s", value);
        res.count("svc.req_tail_pct", pct);
    }
    for v in res.samples_of("peak_rss_mb").to_vec() {
        res.sample("mem.peak_rss_mb", v);
    }
    for path in &inputs {
        let _ = std::fs::remove_file(path);
    }
    println!(
        "# {}: {round} rounds (the first one warms up), {completed} timed requests, {hits} cache hits",
        workload::SERVICE
    );
    if let Some(tr) = &tracer {
        write_service_trace(tr, &req_spans, work, &mut res);
    }
    Ok(res)
}

fn write_service_trace(tracer: &Tracer, roots: &[usize], work: &Path, res: &mut Results) {
    let spans = tracer.spans();
    let kids = children(&spans);
    for &root in roots {
        res.sample("trace.coverage", coverage(&spans, &kids, root));
    }
    // Request phases are read from the client's own timestamps, so tracing
    // adds nothing to the measured latency.
    res.count("trace.overhead", 0.0);
    let mut table: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for &root in roots {
        for (name, v) in self_times_of_run(&spans, &kids, spans[root].run) {
            table.entry(name).or_default().push(v);
        }
    }
    println!(
        "# {}: self time per span, median over requests",
        workload::SERVICE
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
    let path = work.join(format!("{}.trace.json", workload::SERVICE));
    match std::fs::write(&path, chrome_trace_json(&spans)) {
        Ok(()) => println!("# Chrome trace written to {}", path.display()),
        Err(e) => res.fail(format!("cannot write {}: {e}", path.display())),
    }
}
