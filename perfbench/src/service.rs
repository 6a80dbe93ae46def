//! The service workload's request plan and closed-loop client.
//!
//! Each client owns a disjoint set of (graph, `RunOptions`) keys. A round
//! starts a fresh server, so its cache is empty; each client then walks a
//! seeded sequence in which every key is requested once for the first time
//! (a predicted miss) and as often again as a repeat of a key it already
//! requested (a predicted hit). Clients send the next request only after
//! `Done` of the previous one.

use crate::stats::Rng;
use euler_core::{
    CircuitResult, MergeStrategy, PartitionerKind, RunEvent, RunOptions, RunSummary, ServiceClient,
};
use std::collections::HashMap;
use std::time::Instant;

/// Closed-loop clients, one connection each.
pub const CLIENTS: usize = 2;

/// Frame header bytes of the service protocol (the transport frame codec).
const FRAME_HEADER_BYTES: u64 = euler_bsp::transport::FRAME_HEADER_BYTES as u64;

/// The keys of `client`: indices into the service graphs and run options.
/// Keys of different clients never coincide.
pub fn client_keys(client: usize) -> Vec<(usize, RunOptions)> {
    let key = |graph, partitions, strategy, partitioner| {
        (
            graph,
            RunOptions {
                partitions,
                strategy,
                partitioner,
            },
        )
    };
    let (hash, ldg) = (PartitionerKind::Hash, PartitionerKind::Ldg);
    match client {
        0 => vec![
            key(0, 4, MergeStrategy::Duplicated, hash),
            key(0, 8, MergeStrategy::Deferred, ldg),
            key(1, 4, MergeStrategy::Duplicated, ldg),
            key(1, 2, MergeStrategy::Deduplicated, hash),
        ],
        _ => vec![
            key(0, 4, MergeStrategy::Duplicated, ldg),
            key(0, 2, MergeStrategy::Deferred, hash),
            key(1, 4, MergeStrategy::Duplicated, hash),
            key(1, 8, MergeStrategy::Deduplicated, ldg),
        ],
    }
}

/// One planned request: the index into the client's keys, and whether the
/// key was already requested on this connection in this round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Planned {
    /// Index into [`client_keys`].
    pub key: usize,
    /// Predicted cache hit.
    pub hit: bool,
}

/// The request sequence of `client` in `round`: each of its `K` keys once
/// as a miss and `K` repeats, in an order fixed by `seed`.
pub fn plan_round(seed: u64, round: u64, client: usize) -> Vec<Planned> {
    let keys = client_keys(client).len();
    let mut rng = Rng::new(seed, (round << 8) | client as u64);
    let mut order: Vec<usize> = (0..keys).collect();
    rng.shuffle(&mut order);
    let (mut introduced, mut repeats_left) = (0usize, keys);
    let mut plan = Vec::with_capacity(2 * keys);
    for _ in 0..2 * keys {
        let new_left = keys - introduced;
        let take_new = introduced == 0
            || repeats_left == 0
            || (new_left > 0 && rng.below((new_left + repeats_left) as u64) < new_left as u64);
        if take_new {
            plan.push(Planned {
                key: order[introduced],
                hit: false,
            });
            introduced += 1;
        } else {
            plan.push(Planned {
                key: order[rng.below(introduced as u64) as usize],
                hit: true,
            });
            repeats_left -= 1;
        }
    }
    plan
}

/// What a client observed for one request.
#[derive(Clone, Debug)]
pub struct RequestRecord {
    /// Predicted cache hit.
    pub predicted_hit: bool,
    /// The `cached` flag of `Accepted` (`None` if it never arrived).
    pub cached: Option<bool>,
    /// `start_run` sent.
    pub start: Instant,
    /// `Accepted` received.
    pub accepted: Option<Instant>,
    /// First `Chunk` received.
    pub first_chunk: Option<Instant>,
    /// `Done` received.
    pub done: Option<Instant>,
    /// `Chunk` frames received.
    pub chunks: u64,
    /// Bytes of those frames, headers included.
    pub bytes: u64,
    /// The run's accounting, sent before the chunks of a miss.
    pub summary: Option<RunSummary>,
    /// Why the request failed, if it did.
    pub error: Option<String>,
}

impl RequestRecord {
    /// Seconds from `start_run` to `Done`.
    pub fn latency_s(&self) -> Option<f64> {
        self.done
            .map(|d| d.duration_since(self.start).as_secs_f64())
    }
}

/// Sends `plan` over `client` closed-loop. Returns one record per request
/// and the circuits of the first miss of each key; a hit is compared with
/// that circuit here and fails if it differs.
pub fn drive_client(
    client: &ServiceClient,
    checksums: &[u64],
    keys: &[(usize, RunOptions)],
    plan: &[Planned],
) -> (Vec<RequestRecord>, HashMap<usize, CircuitResult>) {
    let mut first_miss: HashMap<usize, CircuitResult> = HashMap::new();
    let mut records = Vec::with_capacity(plan.len());
    let mut broken = false;
    for p in plan {
        let (graph, opts) = keys[p.key];
        let mut rec = RequestRecord {
            predicted_hit: p.hit,
            cached: None,
            start: Instant::now(),
            accepted: None,
            first_chunk: None,
            done: None,
            chunks: 0,
            bytes: 0,
            summary: None,
            error: None,
        };
        if broken {
            rec.error = Some("connection lost earlier".into());
            records.push(rec);
            continue;
        }
        let mut result = CircuitResult::default();
        let outcome = request(client, checksums[graph], opts, &mut rec, &mut result);
        match outcome {
            Err(e) => {
                broken = true;
                rec.error = Some(e);
            }
            Ok(()) if rec.cached == Some(true) => match first_miss.get(&p.key) {
                Some(miss) if miss.circuits == result.circuits => {}
                Some(_) => rec.error = Some("cache hit differs from the key's first miss".into()),
                None => rec.error = Some("cache hit for a key not yet computed".into()),
            },
            Ok(()) => {
                first_miss.entry(p.key).or_insert(result);
            }
        }
        records.push(rec);
    }
    (records, first_miss)
}

fn request(
    client: &ServiceClient,
    checksum: u64,
    opts: RunOptions,
    rec: &mut RequestRecord,
    result: &mut CircuitResult,
) -> Result<(), String> {
    rec.start = Instant::now();
    client
        .start_run(checksum, opts)
        .map_err(|e| e.to_string())?;
    loop {
        match client.next_event().map_err(|e| e.to_string())? {
            RunEvent::Accepted { cached, .. } => {
                rec.accepted = Some(Instant::now());
                rec.cached = Some(cached);
            }
            RunEvent::Progress { .. } => {}
            RunEvent::Report(summary) => rec.summary = Some(summary),
            RunEvent::Chunk {
                circuit,
                base,
                steps,
            } => {
                rec.first_chunk.get_or_insert_with(Instant::now);
                rec.chunks += 1;
                rec.bytes += FRAME_HEADER_BYTES + 8 * (3 + 3 * steps.len() as u64);
                if result.circuits.len() <= circuit {
                    result.circuits.resize_with(circuit + 1, Vec::new);
                }
                let target = &mut result.circuits[circuit];
                if base != target.len() as u64 {
                    return Err(format!(
                        "chunk at step {base} arrived after {} steps",
                        target.len()
                    ));
                }
                target.extend(steps);
            }
            RunEvent::Done {
                num_circuits,
                total_edges,
            } => {
                rec.done = Some(Instant::now());
                if num_circuits != result.circuits.len() as u64
                    || total_edges != result.total_edges()
                {
                    return Err(format!(
                        "Done announced {num_circuits} circuits / {total_edges} steps, chunks held {} / {}",
                        result.circuits.len(),
                        result.total_edges()
                    ));
                }
                return Ok(());
            }
            RunEvent::Cancelled => return Err("run cancelled".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::check_result;
    use crate::workload::Input;
    use euler_core::{EulerService, ServiceConfig};
    use euler_graph::{write_csr_file, CsrFile, Graph};

    #[test]
    fn plans_hold_each_key_once_as_a_miss_and_half_repeats() {
        for seed in 0..50 {
            for client in 0..CLIENTS {
                let plan = plan_round(seed, 3, client);
                let keys = client_keys(client).len();
                assert_eq!(plan.len(), 2 * keys);
                let mut seen = vec![false; keys];
                for p in &plan {
                    assert_eq!(p.hit, seen[p.key], "a hit is exactly a key seen before");
                    seen[p.key] = true;
                }
                assert!(seen.iter().all(|&s| s));
                assert_eq!(plan.iter().filter(|p| p.hit).count(), keys);
            }
        }
        assert_ne!(plan_round(1, 0, 0), plan_round(2, 0, 0));
        assert_eq!(plan_round(5, 2, 1), plan_round(5, 2, 1));
    }

    #[test]
    fn client_key_sets_are_disjoint() {
        let a = client_keys(0);
        assert!(client_keys(1).iter().all(|k| !a.contains(k)));
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("perfbench-{}-{name}", std::process::id()))
    }

    #[test]
    fn predicted_hits_match_the_cached_flags() {
        let inputs = [Input::Rmat { scale: 9 }, Input::Torus { side: 12 }];
        let mut paths = Vec::new();
        let mut graphs: Vec<Graph> = Vec::new();
        for (i, input) in inputs.iter().enumerate() {
            let path = tmp(&format!("checks-service-{i}.ecsr"));
            write_csr_file(&input.generate(3), &path).unwrap();
            graphs.push(CsrFile::open(&path).unwrap().to_graph());
            paths.push(path);
        }
        let service = EulerService::bind(ServiceConfig {
            workers: CLIENTS,
            ..ServiceConfig::default()
        })
        .unwrap();
        let endpoint = service.endpoint().to_string();
        let admin = ServiceClient::connect(&endpoint).unwrap();
        let checksums: Vec<u64> = paths
            .iter()
            .map(|p| admin.register(&p.to_string_lossy()).unwrap().checksum)
            .collect();
        drop(admin);

        let seed = 42;
        std::thread::scope(|s| {
            for c in 0..CLIENTS {
                let (endpoint, checksums, graphs) = (&endpoint, &checksums, &graphs);
                s.spawn(move || {
                    let client = ServiceClient::connect(endpoint).unwrap();
                    let keys = client_keys(c);
                    let plan = plan_round(seed, 0, c);
                    let (records, misses) = drive_client(&client, checksums, &keys, &plan);
                    assert_eq!(records.len(), plan.len());
                    for (r, p) in records.iter().zip(&plan) {
                        assert_eq!(r.error, None);
                        assert_eq!(r.cached, Some(p.hit), "client {c} key {}", p.key);
                        assert!(r.latency_s().is_some() && r.chunks > 0);
                    }
                    assert_eq!(misses.len(), keys.len());
                    for (key, result) in &misses {
                        check_result(&graphs[keys[*key].0], result).unwrap();
                    }
                });
            }
        });
        let stats = service.stats();
        assert_eq!(stats.runs_executed, (CLIENTS * client_keys(0).len()) as u64);
        assert_eq!(stats.runs_cached, stats.runs_executed);
        service.shutdown();
        for p in paths {
            std::fs::remove_file(p).ok();
        }
    }
}
