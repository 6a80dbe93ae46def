//! Circuit checking, fingerprints and the circuit files a measuring process
//! hands to the checking process.

use crate::record::Results;
use euler_baseline::hierholzer_circuit;
use euler_core::verify::verify_result;
use euler_core::{CircuitResult, CircuitStep};
use euler_graph::{EdgeId, Graph, VertexId};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Checks that `result` is an Euler circuit set of `g`: every step names an
/// edge of `g` with matching endpoints, then [`verify_result`] (each edge
/// exactly once, chained, closed).
pub fn check_result(g: &Graph, result: &CircuitResult) -> Result<(), String> {
    for (c, circuit) in result.circuits.iter().enumerate() {
        for (i, step) in circuit.iter().enumerate() {
            if step.edge.0 >= g.num_edges() {
                return Err(format!(
                    "circuit {c} step {i}: edge {} out of range",
                    step.edge.0
                ));
            }
            let (a, b) = g.endpoints(step.edge);
            if !((a == step.from && b == step.to) || (a == step.to && b == step.from)) {
                return Err(format!(
                    "circuit {c} step {i}: endpoints do not match edge {}",
                    step.edge.0
                ));
            }
        }
    }
    verify_result(g, result).map_err(|e| e.to_string())
}

/// Runs the sequential Hierholzer baseline on `g`, returning its wall time
/// in seconds and its circuit.
pub fn timed_hierholzer(g: &Graph) -> Result<(f64, CircuitResult), String> {
    let t = std::time::Instant::now();
    let result = hierholzer_circuit(g).map_err(|e| format!("Hierholzer: {e}"))?;
    Ok((t.elapsed().as_secs_f64(), result))
}

/// A 64-bit fingerprint of the circuit's exact steps; equal circuits share
/// it, so one check of a circuit file covers every run that produced it.
pub fn fingerprint(result: &CircuitResult) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |w: u64| h = (h ^ w).wrapping_mul(PRIME).rotate_left(29);
    mix(result.circuits.len() as u64);
    for circuit in &result.circuits {
        mix(circuit.len() as u64);
        for s in circuit {
            mix(s.edge.0);
            mix(s.from.0);
            mix(s.to.0);
        }
    }
    h
}

/// Writes `result` as little-endian words:
/// `[circuits, (len, (edge, from, to) × len) × circuits]`.
pub fn write_circuit(path: &Path, result: &CircuitResult) -> std::io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    w.write_all(&(result.circuits.len() as u64).to_le_bytes())?;
    for circuit in &result.circuits {
        w.write_all(&(circuit.len() as u64).to_le_bytes())?;
        for s in circuit {
            for word in [s.edge.0, s.from.0, s.to.0] {
                w.write_all(&word.to_le_bytes())?;
            }
        }
    }
    w.flush()
}

/// Reads a file written by [`write_circuit`]. Lengths are bounded by the
/// file size before anything is allocated.
pub fn read_circuit(path: &Path) -> std::io::Result<CircuitResult> {
    let file = std::fs::File::open(path)?;
    let mut words_left = file.metadata()?.len() / 8;
    let mut r = BufReader::new(file);
    let mut next = || -> std::io::Result<u64> {
        let mut b = [0u8; 8];
        r.read_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    };
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let count = next()?;
    words_left = words_left.saturating_sub(1);
    if count > words_left {
        return Err(bad("circuit count exceeds the file"));
    }
    let mut circuits = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let len = next()?;
        words_left = words_left.saturating_sub(1);
        if len.saturating_mul(3) > words_left {
            return Err(bad("circuit length exceeds the file"));
        }
        words_left -= 3 * len;
        let mut steps = Vec::with_capacity(len as usize);
        for _ in 0..len {
            let (edge, from, to) = (next()?, next()?, next()?);
            steps.push(CircuitStep {
                edge: EdgeId(edge),
                from: VertexId(from),
                to: VertexId(to),
            });
        }
        circuits.push(steps);
    }
    Ok(CircuitResult { circuits })
}

/// Checks every circuit file listed in `res` against `g`. A bad file counts
/// one failure for every run that produced it. Files are removed once
/// checked.
pub fn check_circuit_files(g: &Graph, res: &mut Results) {
    for (path, runs) in std::mem::take(&mut res.circuits) {
        let verdict = read_circuit(&path)
            .map_err(|e| e.to_string())
            .and_then(|r| check_result(g, &r));
        if let Err(e) = verdict {
            for _ in 0..runs {
                res.fail(format!("circuit {}: {e}", path.display()));
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use euler_core::EulerPipeline;
    use euler_gen::synthetic;
    use euler_partition::LdgPartitioner;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("perfbench-{}-{name}", std::process::id()))
    }

    #[test]
    fn a_corrupted_circuit_counts_as_failed() {
        let g = synthetic::torus_grid(6, 6);
        let run = EulerPipeline::builder()
            .graph(&g)
            .partitioner(LdgPartitioner::new(3))
            .build()
            .unwrap()
            .run()
            .unwrap();
        let good = run.result().clone();
        check_result(&g, &good).unwrap();

        let mut swapped = good.clone();
        let c = &mut swapped.circuits[0];
        c[3].edge = c[4].edge; // one edge twice, one missing
        let mut reversed = good.clone();
        let step = &mut reversed.circuits[0][5];
        std::mem::swap(&mut step.from, &mut step.to); // breaks the chain
        let mut foreign = good.clone();
        foreign.circuits[0][0].edge = EdgeId(g.num_edges() + 7); // no such edge
        for bad in [&swapped, &reversed, &foreign] {
            assert!(check_result(&g, bad).is_err());
        }

        let mut res = Results::default();
        for (name, circuit, runs) in [
            ("good", &good, 2),
            ("swapped", &swapped, 3),
            ("foreign", &foreign, 1),
        ] {
            let path = tmp(&format!("checks-{name}.circ"));
            write_circuit(&path, circuit).unwrap();
            res.circuits.push((path, runs));
        }
        check_circuit_files(&g, &mut res);
        assert_eq!(res.failures.len(), 4, "{:?}", res.failures);
        assert!(res.circuits.is_empty());
    }
}
