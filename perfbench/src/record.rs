//! The measurements one process hands to another: samples, counts, circuit
//! files and failures, as tab-separated lines.

use std::collections::BTreeMap;
use std::path::PathBuf;

/// Peak resident set (`VmHWM`) of process `pid` (`None`: this process), in
/// bytes, read from `/proc/<pid>/status`.
pub fn vm_hwm_bytes(pid: Option<u32>) -> Option<u64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// Resets this process's `VmHWM` to its current resident set (writes `5`
/// to `/proc/self/clear_refs`), so the next reading is the peak since now.
/// Returns false where the kernel does not allow it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Measurements of one workload run.
#[derive(Clone, Debug, Default)]
pub struct Results {
    /// Timing samples by metric name.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Single values by metric name.
    pub counts: BTreeMap<String, f64>,
    /// Circuit files to check, with the number of runs that produced each.
    pub circuits: Vec<(PathBuf, u64)>,
    /// One line per failed operation or check.
    pub failures: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
}

fn clean(s: &str) -> String {
    s.replace(['\t', '\n', '\r'], " ")
}

impl Results {
    /// Adds a sample of `name`.
    pub fn sample(&mut self, name: &str, value: f64) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    /// Sets the single value `name`.
    pub fn count(&mut self, name: &str, value: f64) {
        self.counts.insert(name.to_string(), value);
    }

    /// Records a failure.
    pub fn fail(&mut self, message: impl AsRef<str>) {
        self.failures.push(clean(message.as_ref()));
    }

    /// The samples of `name` (empty if none).
    pub fn samples_of(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// The line encoding read by [`Results::parse`].
    pub fn to_text(&self) -> String {
        let mut out = format!("attempted\t{}\n", self.attempted);
        for (k, vs) in &self.samples {
            for v in vs {
                out.push_str(&format!("sample\t{k}\t{v:e}\n"));
            }
        }
        for (k, v) in &self.counts {
            out.push_str(&format!("count\t{k}\t{v:e}\n"));
        }
        for (p, n) in &self.circuits {
            out.push_str(&format!("circuit\t{}\t{n}\n", clean(&p.to_string_lossy())));
        }
        for f in &self.failures {
            out.push_str(&format!("failure\t{f}\n"));
        }
        out
    }

    /// Parses [`Results::to_text`] output.
    pub fn parse(text: &str) -> Result<Results, String> {
        let mut r = Results::default();
        for line in text.lines().filter(|l| !l.is_empty()) {
            let f: Vec<&str> = line.split('\t').collect();
            let num = |s: &str| s.parse::<f64>().map_err(|e| format!("{line:?}: {e}"));
            match f.as_slice() {
                ["attempted", n] => r.attempted = num(n)? as u64,
                ["sample", k, v] => r.sample(k, num(v)?),
                ["count", k, v] => r.count(k, num(v)?),
                ["circuit", p, n] => r.circuits.push((PathBuf::from(p), num(n)? as u64)),
                ["failure", m] => r.failures.push((*m).to_string()),
                _ => return Err(format!("unreadable result line {line:?}")),
            }
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_round_trip() {
        let mut r = Results {
            attempted: 3,
            ..Default::default()
        };
        r.sample("wall_s", 0.125);
        r.sample("wall_s", 1.0 / 3.0);
        r.count("plan.supersteps", 4.0);
        r.circuits.push((PathBuf::from("work/a.circ"), 2));
        r.fail("bad\tthing");
        let back = Results::parse(&r.to_text()).unwrap();
        assert_eq!(back.samples_of("wall_s"), r.samples_of("wall_s"));
        assert_eq!(back.counts, r.counts);
        assert_eq!(back.circuits, r.circuits);
        assert_eq!(back.failures, vec!["bad thing".to_string()]);
        assert_eq!(back.attempted, 3);
    }

    #[test]
    fn own_peak_rss_is_readable_and_resettable() {
        let block: Vec<u8> = vec![1; 64 << 20];
        let before = vm_hwm_bytes(None).unwrap();
        assert!(before >= 64 << 20);
        drop(std::hint::black_box(block));
        if reset_peak_rss() {
            assert!(vm_hwm_bytes(None).unwrap() < before);
        }
    }
}
