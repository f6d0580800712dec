//! `hot_zipf`: repeated queries against a slow remote site.
//!
//! Two closed-loop clients send the seven university-workload queries as
//! SQL text with Zipf(s = 1.1) popularity, in an order shuffled from the
//! seed (the mix is fixed per block of 100 requests). The server is a
//! `QueryServer` over a `CoalescingSource` with two fetch workers and a
//! plan cache warmed in set-up; its shared page cache holds about a third
//! of the site's wrapped bytes, so the working set does not fit. Every GET
//! waits 1 ms. Nearly every plan is a cache hit: the time goes to the
//! fetch layer, the wire and the wrapper.
//!
//! Oracle: each query's sorted rows and page accesses from a sequential,
//! uncached `QuerySession`, computed once in set-up (the site never
//! changes here).

use crate::common::{self, Outcome, RunConfig, Schedule, SetupTimer, UNIVERSITY_SQL};
use crate::layers::{MirrorSource, OuterSource, Recorder};
use crate::reads::{self, Answer, Closed, Snapshot, Verdict};
use nalg::{CoalescingSource, PageSource, SharedPageCache};
use parking_lot::Mutex;
use serve::QueryServer;
use std::time::Duration;
use websim::sitegen::University;
use wvcore::views::university_catalog;
use wvcore::{LiveSource, QuerySession, SiteStatistics, ViewCatalog};

/// Simulated wire latency of every GET.
pub const GET_LATENCY: Duration = Duration::from_millis(1);
const CLIENTS: usize = 2;
const FETCH_WORKERS: usize = 2;
const ZIPF_S: f64 = 1.1;
/// Requests per shuffled block of the Zipf mix.
const ZIPF_BLOCK: usize = 100;

/// Everything a phase needs that the server borrows.
struct Env {
    u: University,
    stats: SiteStatistics,
    catalog: ViewCatalog,
    cache: SharedPageCache,
    /// Per query: answer digest and page accesses of the uncached run.
    oracle: Vec<(u64, u64)>,
}

impl Env {
    fn new() -> Env {
        let u = common::university();
        let stats = SiteStatistics::from_site(&u.site);
        let catalog = university_catalog();
        let live = LiveSource::for_site(&u.site);
        let oracle = UNIVERSITY_SQL
            .iter()
            .map(|sql| {
                let q = wvquery::parse_query(sql, &catalog).expect("workload SQL parses");
                let out = QuerySession::new(&u.site.scheme, &catalog, &stats, &live)
                    .run(&q)
                    .expect("oracle run");
                (
                    reads::digest(&out.report.relation),
                    out.report.page_accesses,
                )
            })
            .collect();
        let cache = SharedPageCache::with_byte_budget(site_bytes(&u) / 3);
        u.site.server.set_latency(GET_LATENCY);
        Env {
            u,
            stats,
            catalog,
            cache,
            oracle,
        }
    }

    fn server<'a, S: PageSource + Sync>(&'a self, source: &'a S) -> QueryServer<'a, S> {
        QueryServer::new(&self.u.site.scheme, &self.catalog, &self.stats, source)
            .with_shared_cache(&self.cache)
            .with_concurrent_fetch(FETCH_WORKERS)
    }

    /// Serves each query once: the plan cache is then warm.
    fn warm<S: PageSource + Sync>(&self, server: &QueryServer<'_, S>) {
        for sql in UNIVERSITY_SQL {
            let q = wvquery::parse_query(sql, &self.catalog).expect("workload SQL parses");
            server.serve(&q).expect("warm-up read");
        }
    }

    fn check(&self, qi: usize, answer: &Answer) -> Verdict {
        if answer.digest == self.oracle[qi].0 && answer.accesses == self.oracle[qi].1 {
            Verdict::Ok
        } else {
            Verdict::Mismatch
        }
    }
}

/// Estimated wrapped bytes of every page, as the shared cache counts them.
fn site_bytes(u: &University) -> usize {
    let mut total = 0;
    for ps in u.site.scheme.schemes() {
        for (url, t) in u.site.instance(&ps.name) {
            total += url.as_str().len() + t.approx_bytes();
        }
    }
    total
}

/// Zipf weights of the workload's queries: rank `r` weighs `1/r^s`.
fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect()
}

/// One measured phase: the Zipf closed loop over `server`.
fn phase<S: PageSource + Sync, C: PageSource + Sync>(
    env: &Env,
    server: &QueryServer<'_, S>,
    coalesced: &CoalescingSource<'_, C>,
    cfg: &RunConfig,
    lp: &Closed<'_>,
    setups: &mut SetupTimer<'_>,
) -> reads::Phase {
    let schedule = Mutex::new(Schedule::new(
        cfg.seed,
        &zipf_weights(UNIVERSITY_SQL.len(), ZIPF_S),
        ZIPF_BLOCK,
    ));
    let index_of = |sql: &str| UNIVERSITY_SQL.iter().position(|s| *s == sql);
    let snapshot = || Snapshot::take(server, &env.u.site.server, &env.cache, coalesced);
    let before = snapshot();
    let drive = reads::drive(
        server,
        &env.catalog,
        lp,
        || Some(UNIVERSITY_SQL[schedule.lock().next_index()].to_string()),
        |sql, answer| env.check(index_of(sql).expect("workload query"), answer),
        setups,
    );
    reads::Phase {
        drive,
        before,
        after: snapshot(),
        oracle_gets: 0,
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut setups = SetupTimer::new(cfg, || {
        let env = Env::new();
        let live = LiveSource::for_site(&env.u.site);
        let coalesced = CoalescingSource::new(&live);
        env.warm(&env.server(&coalesced));
    });
    let env = Env::new();
    let live = LiveSource::for_site(&env.u.site);
    let coalesced = CoalescingSource::new(&live);
    let server = env.server(&coalesced);
    env.warm(&server);

    let mut out = Outcome::default();
    let rec = Recorder::default();
    let lp = Closed {
        clients: CLIENTS,
        budget: if cfg.trace {
            cfg.duration() / 2
        } else {
            cfg.duration()
        },
        max_ops: cfg.max_ops,
        spacing: 0,
        rec: &rec,
    };
    let plain = phase(&env, &server, &coalesced, cfg, &lp, &mut setups);
    plain.account(&mut out);
    if !cfg.trace {
        reads::end_to_end(&mut out, &plain.drive, &setups.finish());
        return out;
    }

    // Traced phase: a fresh, equally warmed server over the decorators.
    let env = Env::new();
    let mirror = MirrorSource::new(&env.u.site.scheme, &env.u.site.server, &rec);
    let coalesced = CoalescingSource::new(&mirror);
    let outer = OuterSource::new(&coalesced, &rec);
    let server = env.server(&outer).with_trace(cfg.seed);
    env.warm(&server);
    let start = rec.now();
    let traced = phase(&env, &server, &coalesced, cfg, &lp, &mut setups);
    traced.account(&mut out);
    traced.layers(&mut out);
    reads::read_layers(&mut out, &traced.drive.reads, &rec.spans_since(start));
    reads::trace_overhead(&mut out, &plain.drive, &traced.drive);
    rec.write_out(cfg.trace_dir.as_deref(), "hot_zipf");
    out
}
