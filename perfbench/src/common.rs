//! Shared pieces of the three workloads: the metric tables, the run
//! configuration and outcome, latency statistics, the university site and
//! its seven-query workload as SQL text.

use adm::{Relation, Url, Value};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use websim::sitegen::{University, UniversityConfig};

/// One reported metric: its name, unit, which direction is better, and —
/// for per-layer metrics — the end-to-end metric and workload it should
/// move. `BENCHMARK.json` lists the same names, units and directions; the
/// self-test checks the two agree.
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const fn spec(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Spec {
    Spec {
        name,
        unit,
        better,
        moves,
    }
}

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[Spec] = &[
    spec(
        "query_p50_ms",
        "ms",
        "lower",
        "median read latency, SQL text to answer",
    ),
    spec(
        "query_p99_ms",
        "ms",
        "lower",
        "99th-percentile read latency",
    ),
    spec("query_rps", "1/s", "higher", "completed reads per second"),
    spec(
        "setup_s",
        "s",
        "lower",
        "site, statistics, oracle and warm-up (trimmed mean of reps)",
    ),
    spec(
        "peak_rss_mb",
        "MB",
        "lower",
        "peak resident memory of the run",
    ),
];

/// Per-layer metrics, reported by every workload with tracing on; a layer
/// a workload does not exercise reads 0. Counts are per operation: a read
/// on `hot_zipf` and `paper_cold`, a write round on `fresh_churn`.
pub const PER_LAYER: &[Spec] = &[
    spec(
        "wvquery.parse_us",
        "us",
        "lower",
        "query_p50_ms on paper_cold (<1% of a read)",
    ),
    spec(
        "core.plan_ms",
        "ms",
        "lower",
        "query_p50_ms, query_p99_ms, query_rps on paper_cold",
    ),
    spec(
        "core.candidates_per_miss",
        "count",
        "lower",
        "query_p50_ms, query_p99_ms, query_rps on paper_cold",
    ),
    spec("core.eval_ms", "ms", "lower", "query_p50_ms on paper_cold"),
    spec(
        "serve.plan_hit_rate",
        "ratio",
        "higher",
        "sanity: >=0.95 on hot_zipf, <=0.05 on paper_cold",
    ),
    spec(
        "serve.shed",
        "count",
        "lower",
        "failed (error_rate) on every workload",
    ),
    spec(
        "serve.brown_outs",
        "count",
        "lower",
        "failed (error_rate) on every workload",
    ),
    spec(
        "serve.gets_per_query",
        "count",
        "lower",
        "remote load; query_p50_ms on hot_zipf",
    ),
    spec("nalg.fetch_ms", "ms", "lower", "query_p50_ms on hot_zipf"),
    spec(
        "nalg.source_calls",
        "count",
        "lower",
        "serve.gets_per_query and query_p50_ms on hot_zipf",
    ),
    spec(
        "nalg.cache_hit_rate",
        "ratio",
        "higher",
        "serve.gets_per_query and query_p50_ms on hot_zipf",
    ),
    spec(
        "nalg.cache_evictions",
        "count",
        "lower",
        "serve.gets_per_query and query_p50_ms on hot_zipf",
    ),
    spec(
        "nalg.coalesce_saved_ratio",
        "ratio",
        "higher",
        "serve.gets_per_query and query_p50_ms on hot_zipf",
    ),
    spec(
        "nalg.page_accesses",
        "count",
        "lower",
        "invariant: the paper's counter, must not move",
    ),
    spec("websim.get_ms", "ms", "lower", "query_p50_ms on hot_zipf"),
    spec(
        "websim.gets",
        "count",
        "lower",
        "serve.gets_per_query on hot_zipf; ~0 on paper_cold",
    ),
    spec(
        "websim.heads",
        "count",
        "lower",
        "fresh.pages_per_round on fresh_churn",
    ),
    spec(
        "websim.bytes_per_get",
        "B",
        "lower",
        "websim.get_ms on hot_zipf",
    ),
    spec("wrapper.wrap_us", "us", "lower", "query_p50_ms on hot_zipf"),
    spec(
        "wrapper.pages",
        "count",
        "lower",
        "query_p50_ms on hot_zipf",
    ),
    spec(
        "adm.interned_bytes_growth",
        "B/1000ops",
        "lower",
        "peak_rss_mb on fresh_churn",
    ),
    spec(
        "dataflow.sync_ms",
        "ms",
        "lower",
        "fresh.p50_ms on fresh_churn",
    ),
    spec(
        "dataflow.pages_per_sync",
        "count",
        "lower",
        "fresh.pages_per_round on fresh_churn",
    ),
    spec(
        "dataflow.upqueries",
        "count",
        "lower",
        "fresh.p50_ms and fresh.pages_per_round on fresh_churn",
    ),
    spec(
        "dataflow.rebuilds",
        "count",
        "lower",
        "fresh.p50_ms and fresh.pages_per_round on fresh_churn",
    ),
    spec(
        "matview.run_ms",
        "ms",
        "lower",
        "fresh.p50_ms on fresh_churn",
    ),
    spec(
        "matview.heads_per_run",
        "count",
        "lower",
        "fresh.pages_per_round on fresh_churn",
    ),
    spec(
        "matview.gets_per_run",
        "count",
        "lower",
        "fresh.pages_per_round on fresh_churn",
    ),
    spec(
        "fresh.p50_ms",
        "ms",
        "lower",
        "write landed to views and matview fresh, median",
    ),
    spec(
        "fresh.p99_ms",
        "ms",
        "lower",
        "write landed to views and matview fresh, p99",
    ),
    spec(
        "fresh.pages_per_round",
        "count",
        "lower",
        "GETs plus HEADs sent by maintenance per round",
    ),
    spec(
        "trace.unattributed_pct",
        "%",
        "lower",
        "request wall time no layer span covers",
    ),
    spec(
        "obs.trace_overhead_pct",
        "%",
        "lower",
        "traced against untraced query_p50_ms",
    ),
];

/// How one invocation runs.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed of every generated input (schedule, queries, mutations).
    pub seed: u64,
    /// Length of the measured region.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Set-ups timed for `setup_s`: at least this many, and more until
    /// they add up to `setup_floor`, so a cheap set-up is timed often
    /// enough for a steady mean.
    pub setup_reps: usize,
    pub setup_floor: Duration,
    /// Stop after this many operations (reads, or write rounds on
    /// `fresh_churn`) even if time is left, so a short run does the same
    /// work on any host.
    pub max_ops: Option<u64>,
    /// Where the traced run writes its spans (`None`: keep in memory).
    pub trace_dir: Option<std::path::PathBuf>,
}

impl RunConfig {
    /// The measured region's length.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.max(0.0))
    }
}

/// The measured region is cut into this many slices of equal timed work;
/// set-ups for `setup_s` are timed in the gaps between them.
pub const SLICES: u32 = 40;

/// Times set-ups for `setup_s` in the gaps between the slices of the
/// measured region, so that they meet the same host conditions as the
/// measured work rather than one second of them: at least `setup_reps`
/// set-ups, adding up to at least `setup_floor`, spread evenly over the
/// gaps. A traced run reports no `setup_s` and times none.
pub struct SetupTimer<'a> {
    setup: Box<dyn FnMut() + 'a>,
    reps: usize,
    floor: Duration,
    times: Vec<Duration>,
}

impl<'a> SetupTimer<'a> {
    pub fn new(cfg: &RunConfig, setup: impl FnMut() + 'a) -> SetupTimer<'a> {
        let (reps, floor) = if cfg.trace {
            (0, Duration::ZERO)
        } else {
            (cfg.setup_reps.max(1), cfg.setup_floor)
        };
        SetupTimer {
            setup: Box::new(setup),
            reps,
            floor,
            times: Vec::new(),
        }
    }

    /// The gap after `done` of the [`SLICES`] slices: times set-ups until
    /// that share of the reps and of the floor is met.
    pub fn gap(&mut self, done: u32) {
        let share = f64::from(done.min(SLICES)) / f64::from(SLICES);
        let reps = (self.reps as f64 * share).ceil() as usize;
        let floor = self.floor.mul_f64(share);
        while self.times.len() < reps || self.times.iter().sum::<Duration>() < floor {
            let t = Instant::now();
            (self.setup)();
            self.times.push(t.elapsed());
        }
    }

    /// Every set-up time, after the last gap.
    pub fn finish(mut self) -> Vec<Duration> {
        self.gap(SLICES);
        self.times
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (reads, and write rounds on `fresh_churn`).
    pub attempted: u64,
    /// Operations that errored, were shed, browned out or mismatched.
    pub failed: u64,
    /// Operations whose answer disagreed with the oracle.
    pub mismatches: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable report lines, printed before the JSON result.
    pub report: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn line(&mut self, s: impl Into<String>) {
        self.report.push(s.into());
    }
}

/// Latency samples in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The Harrell–Davis estimate of quantile `q` (in `[0, 1]`): the mean
    /// of all order statistics weighted by a Beta((n+1)q, (n+1)(1-q))
    /// density. It uses every sample, so a tail quantile varies far less
    /// from run to run than any single order statistic. 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n < 2 {
            return v.first().copied().unwrap_or(0.0);
        }
        let (a, b) = ((n + 1) as f64 * q, (n + 1) as f64 * (1.0 - q));
        let ln_pdf = |x: f64| {
            if x <= 0.0 || x >= 1.0 {
                f64::NEG_INFINITY
            } else {
                (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln()
            }
        };
        // Simpson's rule over each order statistic's interval; the density
        // is scaled by its largest sampled value to stay finite.
        let points: Vec<f64> = (0..=2 * n)
            .map(|k| ln_pdf(k as f64 / (2 * n) as f64))
            .collect();
        let top = points.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let pdf = |k: usize| (points[k] - top).exp();
        let weights: Vec<f64> = (0..n)
            .map(|i| pdf(2 * i) + 4.0 * pdf(2 * i + 1) + pdf(2 * i + 2))
            .collect();
        let total: f64 = weights.iter().sum();
        weights.iter().zip(&v).map(|(w, x)| w * x).sum::<f64>() / total
    }
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Mean set-up time in seconds, leaving out the fastest and the slowest
/// tenth. A shared host can alternate between two speeds for seconds at
/// a time (1.6 times apart on a 2-vCPU cloud VM), so a run's set-up
/// times are bimodal: their median jumps from one mode to the other with
/// the share of time the run spent in each, while the trimmed mean moves
/// in proportion to that share and ignores a rare stall.
pub fn trimmed_mean_secs(times: &[Duration]) -> f64 {
    let mut v: Vec<f64> = times.iter().map(Duration::as_secs_f64).collect();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 10;
    mean(&v[cut..v.len() - cut])
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The default university site (3 departments, 20 professors, 50
/// courses): the same site for every workload and seed.
pub fn university() -> University {
    University::generate(UniversityConfig::default()).expect("the default site generates")
}

/// Every page of the site as `(url, page-scheme)`, in a fixed order.
pub fn all_pages(u: &University) -> Vec<(Url, String)> {
    let mut pages = Vec::new();
    for ps in u.site.scheme.schemes() {
        for (url, _) in u.site.instance(&ps.name) {
            pages.push((url, ps.name.clone()));
        }
    }
    pages.sort();
    pages
}

/// The university workload of the paper's experiments, as SQL text.
pub const UNIVERSITY_SQL: [&str; 7] = [
    "SELECT PName FROM Professor WHERE Rank = 'Full'",
    "SELECT p.PName, p.Email FROM Professor p, ProfDept d \
     WHERE p.PName = d.PName AND d.DName = 'Computer Science'",
    "SELECT c.CName, c.Description FROM Professor p, CourseInstructor i, Course c \
     WHERE p.PName = i.PName AND i.CName = c.CName AND p.Rank = 'Full' AND c.Session = 'Fall'",
    "SELECT p.PName, p.Email FROM Course c, CourseInstructor i, Professor p, ProfDept d \
     WHERE c.CName = i.CName AND i.PName = p.PName AND p.PName = d.PName \
     AND d.DName = 'Computer Science' AND c.Type = 'Graduate'",
    "SELECT CName, Description FROM Course WHERE Session = 'Fall' AND Type = 'Graduate'",
    "SELECT PName, CName FROM CourseInstructor",
    "SELECT DName, Address FROM Dept",
];

/// Rows of a relation in a total order (for oracle comparisons that do
/// not depend on column names).
pub fn sorted_rows(rel: &Relation) -> Vec<Vec<Value>> {
    let mut rows = rel.rows().to_vec();
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or_else(|| a.len().cmp(&b.len()))
    });
    rows
}

/// A seeded request schedule with a fixed mix: blocks of `block` indices
/// in which index `i` appears in proportion to `weights[i]` (largest
/// remainder rounding), each block shuffled from the seed. The seed moves
/// the order of requests, never their mix, so the mix cannot make one
/// seed's run cheaper than another's.
pub struct Schedule {
    block: Vec<usize>,
    pos: usize,
    rng: StdRng,
}

impl Schedule {
    pub fn new(seed: u64, weights: &[f64], block: usize) -> Schedule {
        let total: f64 = weights.iter().sum();
        let exact: Vec<f64> = weights.iter().map(|w| w / total * block as f64).collect();
        let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
        let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
        by_remainder.sort_by(|&a, &b| {
            (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor()))
        });
        let short = block - counts.iter().sum::<usize>();
        for &i in by_remainder.iter().take(short) {
            counts[i] += 1;
        }
        let block = counts
            .iter()
            .enumerate()
            .flat_map(|(i, &n)| std::iter::repeat_n(i, n))
            .collect::<Vec<_>>();
        Schedule {
            pos: block.len(),
            block,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The next request index.
    pub fn next_index(&mut self) -> usize {
        if self.pos == self.block.len() {
            self.block.shuffle(&mut self.rng);
            self.pos = 0;
        }
        self.pos += 1;
        self.block[self.pos - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_a_uniform_sample() {
        let s = Samples((1..=1000).map(f64::from).collect());
        assert!((s.quantile(0.5) - 500.5).abs() < 1.0, "{}", s.quantile(0.5));
        assert!(
            (s.quantile(0.99) - 990.0).abs() < 2.0,
            "{}",
            s.quantile(0.99)
        );
        assert_eq!(Samples(vec![3.0]).quantile(0.99), 3.0);
        assert_eq!(Samples::default().quantile(0.5), 0.0);
        let tiny = Samples(vec![1.0, 2.0, 3.0]).quantile(0.99);
        assert!((1.0..=3.0).contains(&tiny), "{tiny}");
    }

    #[test]
    fn trimmed_mean_drops_the_outer_tenths() {
        let ms = |v: &[u64]| {
            v.iter()
                .map(|&m| Duration::from_millis(m))
                .collect::<Vec<_>>()
        };
        let mut times = ms(&[10; 18]);
        times.extend(ms(&[1, 1000]));
        assert!((trimmed_mean_secs(&times) - 0.010).abs() < 1e-9);
        assert!((trimmed_mean_secs(&ms(&[8, 12])) - 0.010).abs() < 1e-9);
    }

    #[test]
    fn schedule_keeps_the_mix_and_shuffles_by_seed() {
        let weights: Vec<f64> = (1..=7).map(|r| 1.0 / (r as f64).powf(1.1)).collect();
        let mut a = Schedule::new(1, &weights, 100);
        let mut b = Schedule::new(2, &weights, 100);
        let (xa, xb): (Vec<usize>, Vec<usize>) =
            (0..100).map(|_| (a.next_index(), b.next_index())).unzip();
        assert_ne!(xa, xb, "seeds reorder");
        let count = |x: &[usize], i| x.iter().filter(|&&v| v == i).count();
        for i in 0..7 {
            assert_eq!(count(&xa, i), count(&xb, i), "same mix for index {i}");
        }
        let total: f64 = weights.iter().sum();
        for (i, w) in weights.iter().enumerate() {
            let exact = w / total * 100.0;
            assert!((count(&xa, i) as f64 - exact).abs() < 1.0, "index {i}");
        }
    }
}
