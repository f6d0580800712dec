//! `adhoc_cold` and `paper_cold`: every read plans from scratch.
//!
//! One closed-loop client; the server is configured as in `hot_zipf`
//! except that its shared page cache holds the whole site and is
//! pre-filled by touching every page, so the wire and coalescing are
//! bypassed: Algorithm 1 planning and the NALG operators dominate.
//!
//! * `adhoc_cold` sends queries from the seeded generator
//!   ([`crate::gen`]); a query whose plan-cache key was already served is
//!   redrawn, so the server has never seen any of them.
//! * `paper_cold` sends the seven university-workload queries, each once
//!   per block of seven in an order shuffled from the seed, and drops
//!   every cached plan (a statistics recollection, outside the timed
//!   region) before each read.
//!
//! The reads are CPU-bound, so their slices are spaced out in wall time
//! (see [`SPACING`]).
//!
//! Oracle: the answer of the query's default navigation
//! (`RuleMask::none()`), evaluated over a second pre-filled cache — the
//! paper's claim that a rewritten plan equals default navigation; on
//! `adhoc_cold`, on queries nobody hand-picked.

use crate::common::{self, Outcome, RunConfig, Schedule, SetupTimer, UNIVERSITY_SQL};
use crate::gen::{QueryGen, Vocab};
use crate::hot_zipf::GET_LATENCY;
use crate::layers::{MirrorSource, OuterSource, Recorder};
use crate::reads::{self, Answer, Closed, Snapshot, Verdict};
use nalg::{CoalescingSource, PageSource, SharedPageCache};
use parking_lot::Mutex;
use serve::QueryServer;
use std::collections::HashSet;
use websim::sitegen::University;
use wvcore::views::university_catalog;
use wvcore::{CachedSource, LiveSource, QuerySession, RuleMask, SiteStatistics, ViewCatalog};

const FETCH_WORKERS: usize = 2;
/// Gap after each slice of reads, in slice lengths: the reads are
/// CPU-bound, so they are spread over three times their length in wall
/// time (see [`Closed::spacing`]).
const SPACING: u32 = 2;

/// Where the reads come from.
#[derive(Debug, Clone, Copy)]
enum Queries {
    /// The seeded ad-hoc generator, never repeating a plan-cache key.
    Adhoc,
    /// The seven university-workload queries, plan cache dropped per read.
    Paper,
}

impl Queries {
    fn workload(self) -> &'static str {
        match self {
            Queries::Adhoc => "adhoc_cold",
            Queries::Paper => "paper_cold",
        }
    }
}

struct Env {
    u: University,
    stats: SiteStatistics,
    catalog: ViewCatalog,
    /// The server's cache: the whole site, pre-filled.
    cache: SharedPageCache,
    /// The oracle's own pre-filled cache.
    oracle_cache: SharedPageCache,
    vocab: Vocab,
}

/// Fills `cache` by fetching every page of the site through it.
fn prefill(u: &University, cache: &SharedPageCache) {
    let live = LiveSource::for_site(&u.site);
    let src = CachedSource::new(&live, cache);
    for (url, scheme) in common::all_pages(u) {
        src.fetch(&url, &scheme).expect("every page fetches");
    }
}

impl Env {
    fn new() -> Env {
        let u = common::university();
        let stats = SiteStatistics::from_site(&u.site);
        let catalog = university_catalog();
        let vocab = Vocab::from_site(&u);
        let oracle_cache = SharedPageCache::default();
        prefill(&u, &oracle_cache);
        u.site.server.set_latency(GET_LATENCY);
        let cache = SharedPageCache::default();
        prefill(&u, &cache);
        Env {
            u,
            stats,
            catalog,
            cache,
            oracle_cache,
            vocab,
        }
    }

    fn server<'a, S: PageSource + Sync>(&'a self, source: &'a S) -> QueryServer<'a, S> {
        QueryServer::new(&self.u.site.scheme, &self.catalog, &self.stats, source)
            .with_shared_cache(&self.cache)
            .with_concurrent_fetch(FETCH_WORKERS)
    }

    /// Default navigation of `q`, over the oracle's cache. Its GETs (none
    /// while the cache holds the site) are excluded from the counters by
    /// the caller's snapshots.
    fn check(&self, sql: &str, answer: &Answer) -> Verdict {
        let live = LiveSource::for_site(&self.u.site);
        let naive = wvquery::parse_query(sql, &self.catalog)
            .map_err(|e| e.to_string())
            .and_then(|q| {
                QuerySession::new(&self.u.site.scheme, &self.catalog, &self.stats, &live)
                    .with_mask(RuleMask::none())
                    .with_shared_cache(&self.oracle_cache)
                    .run(&q)
                    .map_err(|e| e.to_string())
            });
        // Rows only: the two plans name their output columns after
        // different page-schemes, and access counts differ by design.
        match naive {
            Ok(n) if reads::digest(&n.report.relation) == answer.digest => Verdict::Ok,
            _ => Verdict::Mismatch,
        }
    }
}

/// One measured phase. Oracle GETs, if any, are subtracted from the
/// server counters so they never count as load.
fn phase<'e, S: PageSource + Sync, C: PageSource + Sync>(
    env: &'e Env,
    server: &QueryServer<'e, S>,
    coalesced: &CoalescingSource<'_, C>,
    cfg: &RunConfig,
    lp: &Closed<'_>,
    queries: Queries,
    setups: &mut SetupTimer<'_>,
) -> reads::Phase {
    let gen = Mutex::new((QueryGen::new(cfg.seed, env.vocab.clone()), HashSet::new()));
    let paper = Mutex::new(Schedule::new(
        cfg.seed,
        &[1.0; UNIVERSITY_SQL.len()],
        UNIVERSITY_SQL.len(),
    ));
    let oracle_gets = std::cell::Cell::new(0u64);
    let snapshot = || Snapshot::take(server, &env.u.site.server, &env.cache, coalesced);
    let before = snapshot();
    let drive = reads::drive(
        server,
        &env.catalog,
        lp,
        || {
            if let Queries::Paper = queries {
                server.recollect_statistics(&env.stats);
                return Some(UNIVERSITY_SQL[paper.lock().next_index()].to_string());
            }
            let (g, seen) = &mut *gen.lock();
            // Redraw until the plan-cache key is new to this server.
            for _ in 0..1000 {
                let (sql, _) = g.next_sql();
                let q = wvquery::parse_query(&sql, &env.catalog).ok()?;
                if seen.insert(q.cache_key()) {
                    return Some(sql);
                }
            }
            None
        },
        |sql, answer| {
            let g0 = env.u.site.server.stats().gets;
            let v = env.check(sql, answer);
            oracle_gets.set(oracle_gets.get() + env.u.site.server.stats().gets - g0);
            v
        },
        setups,
    );
    reads::Phase {
        drive,
        before,
        after: snapshot(),
        oracle_gets: oracle_gets.get(),
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    run_with(cfg, Queries::Adhoc)
}

pub fn run_paper(cfg: &RunConfig) -> Outcome {
    run_with(cfg, Queries::Paper)
}

fn run_with(cfg: &RunConfig, queries: Queries) -> Outcome {
    let mut setups = SetupTimer::new(cfg, || drop(Env::new()));
    let env = Env::new();
    let live = LiveSource::for_site(&env.u.site);
    let coalesced = CoalescingSource::new(&live);
    let server = env.server(&coalesced);

    let mut out = Outcome::default();
    let rec = Recorder::default();
    let lp = Closed {
        clients: 1,
        budget: if cfg.trace {
            cfg.duration() / 2
        } else {
            cfg.duration()
        },
        max_ops: cfg.max_ops,
        spacing: SPACING,
        rec: &rec,
    };
    let plain = phase(&env, &server, &coalesced, cfg, &lp, queries, &mut setups);
    plain.account(&mut out);
    if !cfg.trace {
        reads::end_to_end(&mut out, &plain.drive, &setups.finish());
        return out;
    }

    let env = Env::new();
    let mirror = MirrorSource::new(&env.u.site.scheme, &env.u.site.server, &rec);
    let coalesced = CoalescingSource::new(&mirror);
    let outer = OuterSource::new(&coalesced, &rec);
    let server = env.server(&outer).with_trace(cfg.seed);
    let start = rec.now();
    let traced = phase(&env, &server, &coalesced, cfg, &lp, queries, &mut setups);
    traced.account(&mut out);
    traced.layers(&mut out);
    reads::read_layers(&mut out, &traced.drive.reads, &rec.spans_since(start));
    reads::trace_overhead(&mut out, &plain.drive, &traced.drive);
    rec.write_out(cfg.trace_dir.as_deref(), queries.workload());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A generated query that the default site answers differently under
    /// the rewritten plan and under default navigation: the professor
    /// teaches no course, so `CourseInstructor` has no row for her, but
    /// the chosen plan reads `PName` from the professor list without
    /// unnesting the empty course list. This is the `adhoc_cold` oracle
    /// failure; it fails until the optimizer keeps that unnest.
    #[test]
    fn rewritten_plan_equals_default_navigation_for_a_course_free_professor() {
        let env = Env::new();
        env.u.site.server.set_latency(std::time::Duration::ZERO);
        let live = LiveSource::for_site(&env.u.site);
        let sql = "SELECT i.PName FROM CourseInstructor i WHERE i.PName = 'Irene Santoro'";
        let q = wvquery::parse_query(sql, &env.catalog).expect("parses");
        let session = || QuerySession::new(&env.u.site.scheme, &env.catalog, &env.stats, &live);
        let rewritten = session().run(&q).expect("optimized run");
        let default = session()
            .with_mask(RuleMask::none())
            .run(&q)
            .expect("default run");
        assert_eq!(
            common::sorted_rows(&rewritten.report.relation),
            common::sorted_rows(&default.report.relation),
            "plan {}",
            rewritten.explain.best().expr
        );
    }
}
