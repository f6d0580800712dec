//! The read path shared by every workload: one read is SQL text parsed by
//! `wvquery` and served by `serve::QueryServer`, timed from the text to
//! the answer. A closed-loop load generator runs the reads on a few client
//! threads and checks each answer outside the timed region.

use crate::common::{self, mean, ratio, trimmed_mean_secs, Outcome, Samples, SetupTimer, SLICES};
use crate::layers::{self, Layer, Recorder, Span};
use adm::Relation;
use nalg::{CoalesceStats, CoalescingSource, PageSource, SharedPageCache};
use parking_lot::Mutex;
use serve::{QueryServer, ServeOutcome};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use websim::VirtualServer;
use wvcore::{ConjunctiveQuery, ViewCatalog};

/// The timings and counters of one read.
#[derive(Debug, Clone, Default)]
pub struct Read {
    /// The server's request id (0 when untraced).
    pub rid: u64,
    pub parse_ns: u64,
    pub serve_ns: u64,
    pub total_ns: u64,
    /// Planning phase as the server reports it under tracing (plan-cache
    /// lookup plus Algorithm 1 on a miss).
    pub plan_us: u64,
    /// Time spent reading a maintained view.
    pub view_us: u64,
    /// The evaluation phase as the server reports it: fetch time (summed
    /// over fetch workers) plus operator time.
    pub eval_window_us: u64,
    pub miss: bool,
    pub candidates: usize,
    /// The paper's page accesses of the plan: downloads plus pages the
    /// cross-query cache served in their place.
    pub accesses: u64,
}

/// The oracle's judgement of one served read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Errored, shed or browned out.
    Failed,
    /// Answered, but not what the oracle answers.
    Mismatch,
}

/// Parses and serves one read, timing both steps. With a traced server
/// the spans go to `rec`.
pub fn serve_sql<S: PageSource + Sync>(
    server: &QueryServer<'_, S>,
    catalog: &ViewCatalog,
    sql: &str,
    rec: &Recorder,
) -> (Result<(ConjunctiveQuery, ServeOutcome), String>, Read) {
    let t0 = rec.now();
    let parsed = wvquery::parse_query(sql, catalog);
    let t1 = rec.now();
    let served = parsed
        .map_err(|e| e.to_string())
        .and_then(|q| server.serve(&q).map(|o| (q, o)).map_err(|e| e.to_string()));
    let t2 = rec.now();
    let mut read = Read {
        parse_ns: t1 - t0,
        serve_ns: t2 - t1,
        total_ns: t2 - t0,
        ..Read::default()
    };
    if let Ok((_, out)) = &served {
        read.rid = out.request_id.unwrap_or(0);
        if let Some(p) = out.phases {
            read.plan_us = p.plan_us;
            read.view_us = p.view_us;
            read.eval_window_us = p.fetch_us + p.eval_us;
        }
        if let Some(o) = &out.outcome {
            read.miss = !out.cached_plan;
            read.candidates = o.explain.candidates.len();
            read.accesses = o.report.page_accesses + o.report.shared_cache_hits;
        }
        if read.rid != 0 {
            rec.record(read.rid, Layer::Request, t0, t2);
            rec.record(read.rid, Layer::Parse, t0, t1);
            rec.record(read.rid, Layer::Serve, t1, t2);
        }
    }
    (served, read)
}

/// Output of a closed-loop drive.
#[derive(Debug, Default)]
pub struct Drive {
    pub reads: Vec<Read>,
    pub latency: Samples,
    pub failed: u64,
    pub mismatches: u64,
    /// Mean per-client time spent inside timed reads.
    pub busy: Duration,
}

impl Drive {
    /// Completed reads per second of client busy time.
    pub fn rps(&self) -> f64 {
        ratio(self.latency.len() as f64, self.busy.as_secs_f64())
    }
}

/// What the oracle needs of one served read: a digest of its sorted rows
/// (so a run keeps a few bytes per read, not every answer) and its page
/// accesses.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    pub digest: u64,
    /// The paper's page accesses of the plan (see [`Read::accesses`]);
    /// 0 for an answer read from a maintained view.
    pub accesses: u64,
}

/// Digest of a relation's rows in sorted order.
pub fn digest(rel: &Relation) -> u64 {
    let mut h = DefaultHasher::new();
    common::sorted_rows(rel).hash(&mut h);
    h.finish()
}

/// How a closed loop runs.
pub struct Closed<'a> {
    /// Client threads, each sending its next read the moment its
    /// previous one is answered.
    pub clients: usize,
    /// Time each client spends in timed reads, in total over the slices.
    pub budget: Duration,
    /// Reads after which every client stops, time left or not.
    pub max_ops: Option<u64>,
    /// Each slice is followed by a gap of this many times its wall time
    /// (the oracle and set-ups run in it, the rest is idle), so a run's
    /// reads sample the host over a longer stretch: a CPU-bound read
    /// slows by a third or more during bursts of host contention that
    /// last seconds, and spaced slices weigh such a burst less.
    pub spacing: u32,
    pub rec: &'a Recorder,
}

/// Runs a closed loop in [`SLICES`] slices: in each, every client draws
/// reads from `next` until its own timed reads add up to its share of the
/// budget (or `next` runs dry, or `max_ops` reads have been sent). After
/// each slice, when all clients have stopped, every answer is checked
/// with `check`, so the oracle's work never competes with a timed read,
/// and `setups` times its share of set-ups.
pub fn drive<S, N, C>(
    server: &QueryServer<'_, S>,
    catalog: &ViewCatalog,
    lp: &Closed<'_>,
    next: N,
    check: C,
    setups: &mut SetupTimer<'_>,
) -> Drive
where
    S: PageSource + Sync,
    N: Fn() -> Option<String> + Sync,
    C: Fn(&str, &Answer) -> Verdict,
{
    let sent = AtomicU64::new(0);
    let cap = lp.max_ops.unwrap_or(u64::MAX);
    let budget = lp.budget / SLICES;
    // The clients live for the whole drive and meet the coordinator at
    // the start and the end of every slice.
    let barrier = Barrier::new(lp.clients + 1);
    let slice_out = Mutex::new((Drive::default(), Vec::new()));
    let mut d = Drive::default();
    std::thread::scope(|scope| {
        for _ in 0..lp.clients {
            scope.spawn(|| {
                for _ in 0..SLICES {
                    barrier.wait();
                    let mut mine = Drive::default();
                    let mut answers = Vec::new();
                    while mine.busy < budget && sent.fetch_add(1, Ordering::Relaxed) < cap {
                        let Some(sql) = next() else { break };
                        let (served, read) = serve_sql(server, catalog, &sql, lp.rec);
                        mine.busy += Duration::from_nanos(read.total_ns);
                        let answer = match served {
                            Ok((_, o)) if o.is_complete() => o.relation().map(|rel| Answer {
                                digest: digest(rel),
                                accesses: read.accesses,
                            }),
                            _ => None,
                        };
                        answers.push((sql, answer));
                        mine.latency.push(Duration::from_nanos(read.total_ns));
                        mine.reads.push(read);
                    }
                    let mut all = slice_out.lock();
                    all.0.reads.append(&mut mine.reads);
                    all.0.latency.0.append(&mut mine.latency.0);
                    all.0.busy += mine.busy / lp.clients as u32;
                    all.1.append(&mut answers);
                    drop(all);
                    barrier.wait();
                }
            });
        }
        for done in 1..=SLICES {
            barrier.wait();
            let started = Instant::now();
            barrier.wait();
            let slice = started.elapsed();
            let (mut part, pending) = std::mem::take(&mut *slice_out.lock());
            for (sql, answer) in pending {
                let verdict = match &answer {
                    Some(a) => check(&sql, a),
                    None => Verdict::Failed,
                };
                match verdict {
                    Verdict::Ok => {}
                    Verdict::Failed => d.failed += 1,
                    Verdict::Mismatch => {
                        d.failed += 1;
                        d.mismatches += 1;
                        eprintln!("oracle mismatch: {sql}");
                    }
                }
            }
            d.reads.append(&mut part.reads);
            d.latency.0.append(&mut part.latency.0);
            d.busy += part.busy;
            setups.gap(done);
            let gap = slice * lp.spacing;
            std::thread::sleep(gap.saturating_sub(started.elapsed() - slice));
        }
    });
    d
}

/// Adds every end-to-end metric and its report line: read latency and
/// throughput from `d`, the set-up time, and peak memory.
pub fn end_to_end(out: &mut Outcome, d: &Drive, setups: &[Duration]) {
    let (p50, p99) = (d.latency.quantile(0.5), d.latency.quantile(0.99));
    let n = d.latency.len();
    let (setup, rss) = (trimmed_mean_secs(setups), common::peak_rss_mb());
    out.set("query_p50_ms", p50);
    out.set("query_p99_ms", p99);
    out.set("query_rps", d.rps());
    out.set("setup_s", setup);
    out.set("peak_rss_mb", rss);
    out.line(format!("query_p50_ms {p50:.4} ms (n={n})"));
    out.line(format!(
        "query_p99_ms {p99:.4} ms (n={n}{})",
        if n < 1000 {
            ", fewer than 1000 samples"
        } else {
            ""
        }
    ));
    out.line(format!(
        "query_rps {:.2} 1/s ({n} reads in {:.2} s of client time)",
        d.rps(),
        d.busy.as_secs_f64()
    ));
    out.line(format!(
        "setup_s {setup:.4} s (trimmed mean of {} across the run)",
        setups.len()
    ));
    out.line(format!("peak_rss_mb {rss:.2} MB"));
}

/// Counters of the serving stack, taken around a measured phase.
pub struct Snapshot {
    serve: serve::ServerStats,
    web: websim::AccessSnapshot,
    cache: nalg::CacheStats,
    coalesce: CoalesceStats,
    interned: usize,
}

impl Snapshot {
    pub fn take<S: PageSource + Sync, C: PageSource + Sync>(
        server: &QueryServer<'_, S>,
        site: &VirtualServer,
        cache: &SharedPageCache,
        coalesced: &CoalescingSource<'_, C>,
    ) -> Snapshot {
        Snapshot {
            serve: server.stats(),
            web: site.stats(),
            cache: cache.stats(),
            coalesce: coalesced.stats(),
            interned: adm::intern::interned_bytes(),
        }
    }
}

/// One measured phase of reads: the drive and the counters around it.
pub struct Phase {
    pub drive: Drive,
    pub before: Snapshot,
    pub after: Snapshot,
    /// GETs the oracle sent during the phase; they are not read load.
    pub oracle_gets: u64,
}

impl Phase {
    fn gets(&self) -> u64 {
        self.after.web.since(&self.before.web).gets - self.oracle_gets
    }

    /// Books the phase's operations into `out` and reports the remote
    /// load and error rate.
    pub fn account(&self, out: &mut Outcome) {
        let (n, d) = (self.drive.latency.len(), &self.drive);
        out.attempted += n as u64;
        out.failed += d.failed;
        out.mismatches += d.mismatches;
        out.line(format!(
            "gets_per_query {:.4} (GETs {} over {n} reads)",
            ratio(self.gets() as f64, n as f64),
            self.gets()
        ));
        out.line(format!(
            "error_rate {:.4} ({} of {n} reads)",
            ratio(d.failed as f64, n as f64),
            d.failed
        ));
    }

    /// Counter-derived per-layer metrics; counts are per read.
    pub fn layers(&self, out: &mut Outcome) {
        let (a, b) = (&self.before, &self.after);
        let n = self.drive.latency.len().max(1) as f64;
        let web = b.web.since(&a.web);
        let gets = self.gets() as f64;
        let hits = (b.serve.plan_cache.hits - a.serve.plan_cache.hits) as f64;
        let misses = (b.serve.plan_cache.misses - a.serve.plan_cache.misses) as f64;
        let cache_hits = (b.cache.hits - a.cache.hits) as f64;
        let cache_misses = (b.cache.misses - a.cache.misses) as f64;
        let calls = (b.coalesce.leaders + b.coalesce.followers)
            - (a.coalesce.leaders + a.coalesce.followers);
        let saved = b.coalesce.saved_gets() - a.coalesce.saved_gets();
        out.set("serve.plan_hit_rate", ratio(hits, hits + misses));
        out.set("serve.shed", (b.serve.shed - a.serve.shed) as f64);
        out.set(
            "serve.brown_outs",
            (b.serve.brown_outs - a.serve.brown_outs) as f64,
        );
        out.set("serve.gets_per_query", gets / n);
        out.set(
            "nalg.cache_hit_rate",
            ratio(cache_hits, cache_hits + cache_misses),
        );
        out.set(
            "nalg.cache_evictions",
            (b.cache.evictions - a.cache.evictions) as f64 / n,
        );
        out.set(
            "nalg.coalesce_saved_ratio",
            ratio(saved as f64, calls as f64),
        );
        out.set("websim.gets", gets / n);
        out.set("websim.heads", web.heads as f64 / n);
        out.set(
            "websim.bytes_per_get",
            ratio(web.bytes as f64, web.gets as f64),
        );
        out.set(
            "adm.interned_bytes_growth",
            1000.0 * b.interned.saturating_sub(a.interned) as f64 / n,
        );
    }
}

/// Per-layer metrics of the read path, from the reads of a traced drive
/// and the recorded spans. Counts are per read.
pub fn read_layers(out: &mut Outcome, reads: &[Read], spans: &[Span]) {
    let n = reads.len().max(1) as f64;
    let mut fetch_by_rid: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.layer == Layer::Source) {
        fetch_by_rid
            .entry(s.rid)
            .or_default()
            .push((s.start, s.end));
    }
    let fetch_ns = |r: &Read| {
        fetch_by_rid
            .get(&r.rid)
            .map_or(0, |ivs| layers::union_ns(ivs.clone()))
    };
    let misses: Vec<&Read> = reads.iter().filter(|r| r.miss).collect();
    let ms = |ns: u64| ns as f64 / 1e6;
    let parse: Vec<f64> = reads.iter().map(|r| r.parse_ns as f64 / 1e3).collect();
    let plan: Vec<f64> = misses.iter().map(|r| r.plan_us as f64 / 1e3).collect();
    let cands: Vec<f64> = misses.iter().map(|r| r.candidates as f64).collect();
    let fetch: Vec<f64> = reads.iter().map(|r| ms(fetch_ns(r))).collect();
    // The evaluation window as the server times it (page waits plus
    // operators), capped by the serve time left after planning: with
    // concurrent fetch the server sums fetch time over its workers.
    let window_ns = |r: &Read| {
        (r.eval_window_us * 1000).min(r.serve_ns.saturating_sub((r.plan_us + r.view_us) * 1000))
    };
    // Operators: the window minus the time the evaluator blocked on pages.
    let eval: Vec<f64> = reads
        .iter()
        .map(|r| ms(window_ns(r).saturating_sub(fetch_ns(r))))
        .collect();
    // What no layer covers: admission, plan-cache and session set-up,
    // settling the answer, and the benchmark's own glue.
    let total: u64 = reads.iter().map(|r| r.total_ns).sum();
    let covered: u64 = reads
        .iter()
        .map(|r| r.parse_ns + (r.plan_us + r.view_us) * 1000 + window_ns(r))
        .sum();
    out.set("wvquery.parse_us", mean(&parse));
    out.set("core.plan_ms", mean(&plan));
    out.set("core.candidates_per_miss", mean(&cands));
    out.set("core.eval_ms", mean(&eval));
    out.set("nalg.fetch_ms", mean(&fetch));
    out.set(
        "nalg.source_calls",
        layers::count(spans, Layer::Source) as f64 / n,
    );
    out.set(
        "nalg.page_accesses",
        reads.iter().map(|r| r.accesses).sum::<u64>() as f64 / n,
    );
    out.set("websim.get_ms", layers::mean_ms(spans, Layer::Get));
    out.set("wrapper.wrap_us", layers::mean_ms(spans, Layer::Wrap) * 1e3);
    out.set(
        "wrapper.pages",
        layers::count(spans, Layer::Wrap) as f64 / n,
    );
    out.set(
        "trace.unattributed_pct",
        100.0 * ratio(total.saturating_sub(covered) as f64, total as f64),
    );
}

/// Adds `obs.trace_overhead_pct` from the untraced and traced medians.
pub fn trace_overhead(out: &mut Outcome, untraced: &Drive, traced: &Drive) {
    let (a, b) = (untraced.latency.quantile(0.5), traced.latency.quantile(0.5));
    out.set("obs.trace_overhead_pct", 100.0 * ratio(b - a, a));
    out.line(format!(
        "untraced query_p50_ms {a:.4} (n={}), traced {b:.4} (n={})",
        untraced.latency.len(),
        traced.latency.len()
    ));
}
