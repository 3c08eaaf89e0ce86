//! What one benchmark run reports: tagged metrics, the host block, the
//! pass/fail tally and the two output lines (the tagged record and the
//! final result object).

use std::fmt::Write as _;

/// Which clock a metric is on. Host metrics time the simulator on this
/// machine; sim metrics are the modelled hardware's own numbers and counts,
/// deterministic for a given configuration and seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Host,
    Sim,
}

impl Clock {
    fn name(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub clock: Clock,
}

/// Metrics plus the operation tally of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable reasons for every failed check.
    pub problems: Vec<String>,
    /// Median raw host speed relative to the calibration's nominal speed.
    pub speed: f64,
}

impl Outcome {
    pub fn host(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.push(name, value, unit, Clock::Host);
    }

    pub fn sim(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.push(name, value, unit, Clock::Sim);
    }

    fn push(&mut self, name: &'static str, value: f64, unit: &'static str, clock: Clock) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            clock,
        });
    }

    /// Counts one checked operation, failing it with `problem` when `ok` is
    /// false.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(problem());
        }
    }

    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }
}

/// The host a result was measured on.
pub struct HostBlock {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub seconds: f64,
    pub workers: usize,
    pub shards: usize,
}

/// Prints the human-readable table, the tagged JSON record and, as the
/// last line, the result object the benchmark contract asks for.
pub fn print(host: &HostBlock, outcome: &Outcome) {
    println!(
        "hostbench {} seed={} trace={} seconds={}",
        host.workload,
        host.seed,
        u8::from(host.trace),
        host.seconds
    );
    for m in &outcome.metrics {
        println!(
            "  {:<28} {:>16} {:<8} [{}]",
            m.name,
            format!("{:.6}", m.value),
            m.unit,
            m.clock.name()
        );
    }
    for problem in &outcome.problems {
        println!("  FAILED: {problem}");
    }

    let mut record = String::from("{\"host\": {");
    let _ = write!(
        record,
        "\"available_parallelism\": {}, \"workers\": {}, \"shards\": {}, \
         \"build_profile\": \"{}\", \"commit\": \"{}\", \"workload\": \"{}\", \
         \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"speed_vs_nominal\": {}",
        std::thread::available_parallelism().map_or(0, usize::from),
        host.workers,
        host.shards,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        commit(),
        host.workload,
        host.seed,
        host.trace,
        number(host.seconds),
        number(outcome.speed)
    );
    record.push_str("}, \"metrics\": [");
    for (i, m) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            record.push_str(", ");
        }
        let _ = write!(
            record,
            "{{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"clock\": \"{}\"}}",
            m.name,
            number(m.value),
            m.unit,
            m.clock.name()
        );
    }
    record.push_str("]}");
    println!("{record}");

    let mut result = String::new();
    let _ = write!(
        result,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            result.push_str(", ");
        }
        let _ = write!(
            result,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            number(m.value),
            m.unit
        );
    }
    result.push_str("}}");
    println!("{result}");
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; non-finite values (never expected) become 0.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

/// The checked-out commit, read from the repository's `.git` without
/// running git; `unknown` outside a git checkout.
fn commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |path: &str| std::fs::read_to_string(git.join(path)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(reference) {
        return id.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|line| line.ends_with(reference))
                .and_then(|line| line.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|err| format!("cannot read /proc/self/status: {err}"))?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples; 0 for no
/// samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}
