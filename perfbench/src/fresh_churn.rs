//! `fresh_churn`: writes land beside reads, one round at a time.
//!
//! Each round:
//! 1. one seeded `MutationPlan` round applies edits only, so the site
//!    keeps its size however long the run;
//! 2. `IncrementalView::sync` maintains the registered views;
//! 3. one Algorithm-3 `MatSession` query of one atom runs, so its
//!    planning is cheap and URL checks dominate;
//! 4. the registered queries are served as SQL text through a
//!    `QueryServer::with_views`.
//!
//! Steps 2 and 3 are the freshness latency: from the write landing to
//! views and matview being fresh. GETs wait 0 ms, so the maintenance CPU
//! shows in time and the wire cost is counted exactly in pages per round.
//!
//! Oracle, every round and outside the timed region: each view answer and
//! each served read against a live `Evaluator` over the current site, and
//! the matview answer against a live `QuerySession`.

use crate::common::{self, ratio, sorted_rows, Outcome, RunConfig, Samples, SetupTimer, SLICES};
use crate::layers::{Layer, Recorder, TimedServer};
use crate::reads::{self, Read};
use adm::{Tuple, Url, WebScheme};
use dataflow::IncrementalView;
use matview::{MatSession, MatStore};
use nalg::{Evaluator, NalgExpr, PageSource, SharedPageCache, SourceError};
use parking_lot::RwLock;
use serve::QueryServer;
use std::time::{Duration, Instant};
use websim::sitegen::University;
use websim::{MutationPlan, MutationRule, PageServer};
use wvcore::views::university_catalog;
use wvcore::{ConjunctiveQuery, LiveSource, QuerySession, SiteStatistics, ViewCatalog};

/// The queries kept fresh by incremental views and served from them.
pub const REGISTERED_SQL: [&str; 4] = [
    "SELECT DName, Address FROM Dept",
    "SELECT PName FROM Professor WHERE Rank = 'Full'",
    "SELECT PName, CName FROM CourseInstructor",
    "SELECT p.PName, p.Email FROM Professor p, ProfDept d \
     WHERE p.PName = d.PName AND d.DName = 'Computer Science'",
];

/// The one-atom query answered by Algorithm 3 every round.
pub const MATVIEW_SQL: &str = "SELECT PName, Rank, Email FROM Professor";

/// The seeded edit-only mutation plan.
fn mutation_plan(seed: u64) -> MutationPlan {
    MutationPlan::new(seed)
        .with_rule(MutationRule::edit_attr("DeptPage", "Address", 0.05))
        .with_rule(MutationRule::edit_attr("ProfPage", "Rank", 0.05))
        .with_rule(MutationRule::edit_attr("CoursePage", "Description", 0.03))
}

/// The live site behind a lock, so the server can borrow it while the
/// benchmark applies writes between reads. Fetches are `LiveSource`'s;
/// the server only reaches them if a view degrades.
struct LockedSource<'a> {
    ws: &'a WebScheme,
    uni: &'a RwLock<University>,
}

impl PageSource for LockedSource<'_> {
    fn fetch(&self, url: &Url, scheme: &str) -> Result<Tuple, SourceError> {
        self.fetch_stamped(url, scheme).map(|(t, _)| t)
    }

    fn fetch_stamped(&self, url: &Url, scheme: &str) -> Result<(Tuple, Option<u64>), SourceError> {
        let g = self.uni.read();
        LiveSource::new(self.ws, &g.site.server).fetch_stamped(url, scheme)
    }
}

struct Registered {
    sql: &'static str,
    key: String,
    expr: NalgExpr,
}

struct Env {
    uni: RwLock<University>,
    ws: WebScheme,
    stats: SiteStatistics,
    catalog: ViewCatalog,
    registered: Vec<Registered>,
    matq: ConjunctiveQuery,
}

impl Env {
    fn new() -> Env {
        let u = common::university();
        let ws = u.site.scheme.clone();
        let stats = SiteStatistics::from_site(&u.site);
        let catalog = university_catalog();
        let live = LiveSource::for_site(&u.site);
        let registered = REGISTERED_SQL
            .iter()
            .map(|sql| {
                let q = wvquery::parse_query(sql, &catalog).expect("registered SQL parses");
                let explain = QuerySession::new(&ws, &catalog, &stats, &live)
                    .explain(&q)
                    .expect("registered query plans");
                Registered {
                    sql,
                    key: q.cache_key(),
                    expr: explain.best().expr.clone(),
                }
            })
            .collect();
        let matq = wvquery::parse_query(MATVIEW_SQL, &catalog).expect("matview SQL parses");
        Env {
            uni: RwLock::new(u),
            ws,
            stats,
            catalog,
            registered,
            matq,
        }
    }

    /// Materializes the incremental views and the Algorithm-3 store.
    fn views(&self) -> (IncrementalView<'_>, MatStore) {
        let g = self.uni.read();
        let mut iv = IncrementalView::new(&self.ws);
        iv.materialize(&g.site.server).expect("materialize views");
        iv.set_cursor(g.site.change_cursor());
        for r in &self.registered {
            iv.register(r.sql, r.key.clone(), &r.expr, &g.site.server)
                .expect("register view");
        }
        let mut store = MatStore::new();
        store
            .materialize(&self.ws, &g.site.server)
            .expect("materialize store");
        (iv, store)
    }
}

/// What one phase measured.
#[derive(Default)]
struct Phase {
    /// Spans and read records are kept on traced phases only.
    traced: bool,
    rounds: u64,
    failed_rounds: u64,
    mismatches: u64,
    fresh: Samples,
    /// Every read's record, kept on traced phases only.
    reads: Vec<Read>,
    read_count: u64,
    read_latency: Samples,
    /// Time spent in reads alone.
    read_busy: Duration,
    failed_reads: u64,
    busy: Duration,
    maint_pages: u64,
    maint_gets: u64,
    maint_heads: u64,
    maint_bytes: u64,
    sync_ms: Vec<f64>,
    sync_pages: u64,
    upqueries: u64,
    rebuilds: u64,
    mat_ms: Vec<f64>,
    mat_heads: u64,
    mat_gets: u64,
    interned: usize,
}

/// Maintenance of one round through `server`: sync, then Algorithm 3.
/// Returns the matview answer.
#[allow(clippy::too_many_arguments)]
fn maintain<P: PageServer>(
    env: &Env,
    u: &University,
    views: &RwLock<IncrementalView<'_>>,
    store: &mut MatStore,
    server: &P,
    rec: &Recorder,
    round: u64,
    p: &mut Phase,
) -> Result<adm::Relation, String> {
    let t0 = rec.now();
    let w0 = u.site.server.stats();
    let rep = views
        .write()
        .sync_with(&u.site, server)
        .map_err(|e| e.to_string())?;
    let t1 = rec.now();
    let w1 = u.site.server.stats();
    let mat = MatSession::new(&env.ws, &env.catalog, &env.stats, server)
        .run(store, &env.matq)
        .map_err(|e| e.to_string())?;
    let t2 = rec.now();
    let w2 = u.site.server.stats();
    if p.traced {
        rec.record(round, Layer::Sync, t0, t1);
        rec.record(round, Layer::MatRun, t1, t2);
    }
    p.fresh.push(Duration::from_nanos(t2 - t0));
    p.busy += Duration::from_nanos(t2 - t0);
    let all = w2.since(&w0);
    let sync = w1.since(&w0);
    p.maint_pages += all.gets + all.heads;
    p.maint_gets += all.gets;
    p.maint_heads += all.heads;
    p.maint_bytes += all.bytes;
    p.sync_ms.push((t1 - t0) as f64 / 1e6);
    p.sync_pages += sync.gets + sync.heads;
    p.upqueries += rep.upqueries;
    p.rebuilds += rep.view_rebuilds;
    p.mat_ms.push((t2 - t1) as f64 / 1e6);
    p.mat_heads += mat.counters.light_connections;
    p.mat_gets += mat.counters.downloads;
    Ok(mat.relation)
}

/// One measured phase of rounds, until the timed work reaches `budget`.
/// Set-ups for `setup_s` are timed in the gaps between slices of the
/// timed work.
fn phase(
    env: &Env,
    cfg: &RunConfig,
    budget: Duration,
    rec: &Recorder,
    traced: bool,
    setups: &mut SetupTimer<'_>,
) -> Phase {
    let (iv, mut store) = env.views();
    let views = RwLock::new(iv);
    let locked = LockedSource {
        ws: &env.ws,
        uni: &env.uni,
    };
    let mut server =
        QueryServer::new(&env.ws, &env.catalog, &env.stats, &locked).with_views(&views);
    if traced {
        server = server.with_trace(cfg.seed);
    }
    let plan = mutation_plan(cfg.seed);
    let mut p = Phase {
        traced,
        interned: adm::intern::interned_bytes(),
        ..Phase::default()
    };
    let wall_cap = Instant::now() + budget * 6 + Duration::from_secs(5);
    let mut round = 0u64;
    let mut gaps = 0;
    while p.busy < budget && Instant::now() < wall_cap && cfg.max_ops.is_none_or(|m| p.rounds < m) {
        round += 1;
        plan.apply_round(&mut env.uni.write().site, round)
            .expect("edit round applies");
        p.rounds += 1;
        let g = env.uni.read();
        let mat = if traced {
            let timed = TimedServer::new(&g.site.server, rec);
            timed.set_op(round);
            maintain(env, &g, &views, &mut store, &timed, rec, round, &mut p)
        } else {
            maintain(
                env,
                &g,
                &views,
                &mut store,
                &g.site.server,
                rec,
                round,
                &mut p,
            )
        };
        drop(g);

        let mut served = Vec::new();
        for r in &env.registered {
            let (out, read) = reads::serve_sql(&server, &env.catalog, r.sql, rec);
            p.busy += Duration::from_nanos(read.total_ns);
            p.read_busy += Duration::from_nanos(read.total_ns);
            p.read_latency.push(Duration::from_nanos(read.total_ns));
            p.read_count += 1;
            if traced {
                p.reads.push(read);
            }
            served.push(out.ok().and_then(|(_, o)| {
                o.is_complete()
                    .then(|| o.relation().map(sorted_rows))
                    .flatten()
            }));
        }

        // Oracle, untimed: live evaluation over the current site.
        // One cache per round, filled from the live site this round, so
        // each page is fetched and wrapped once for all the checks.
        let g = env.uni.read();
        let live = LiveSource::new(&env.ws, &g.site.server);
        let round_cache = SharedPageCache::default();
        let ev = Evaluator::new(&env.ws, &live).with_shared_cache(&round_cache);
        let mut mismatch = false;
        let mut errored = mat.is_err();
        for (r, got) in env.registered.iter().zip(&served) {
            let want = ev.eval(&r.expr).map(|rep| sorted_rows(&rep.relation)).ok();
            let view = views.read().answer(&r.key).map(|rel| sorted_rows(&rel));
            match (&want, &view) {
                (Some(w), Some(v)) if w != v => {
                    mismatch = true;
                    eprintln!("oracle mismatch: view {} in round {round}", r.sql);
                }
                (Some(_), Some(_)) => {}
                _ => errored = true,
            }
            match got {
                None => p.failed_reads += 1,
                Some(rows) if Some(rows) != want.as_ref() => {
                    p.failed_reads += 1;
                    p.mismatches += 1;
                    eprintln!("oracle mismatch: served read {} in round {round}", r.sql);
                }
                Some(_) => {}
            }
        }
        let want = QuerySession::new(&env.ws, &env.catalog, &env.stats, &live)
            .with_shared_cache(&round_cache)
            .run(&env.matq)
            .map(|o| sorted_rows(&o.report.relation));
        match (&mat, &want) {
            (Ok(m), Ok(w)) if sorted_rows(m) != *w => {
                mismatch = true;
                eprintln!("oracle mismatch: matview answer in round {round}");
            }
            (_, Err(_)) => errored = true,
            _ => {}
        }
        if mismatch || errored {
            p.failed_rounds += 1;
        }
        p.mismatches += u64::from(mismatch);
        while gaps < SLICES && p.busy >= budget / SLICES * (gaps + 1) {
            gaps += 1;
            setups.gap(gaps);
        }
    }
    p.interned = adm::intern::interned_bytes().saturating_sub(p.interned);
    p
}

fn fresh_lines(out: &mut Outcome, p: &Phase) {
    let rounds = p.rounds.max(1) as f64;
    out.line(format!(
        "fresh_p50_ms {:.4} ms (n={})",
        p.fresh.quantile(0.5),
        p.fresh.len()
    ));
    out.line(format!(
        "fresh_p99_ms {:.4} ms (n={}{})",
        p.fresh.quantile(0.99),
        p.fresh.len(),
        if p.fresh.len() < 1000 {
            ", fewer than 1000 samples"
        } else {
            ""
        }
    ));
    out.line(format!(
        "pages_per_round {:.4} ({} GETs + HEADs over {} rounds)",
        p.maint_pages as f64 / rounds,
        p.maint_pages,
        p.rounds
    ));
    let ops = p.rounds + p.read_count;
    out.line(format!(
        "error_rate {:.4} ({} of {} rounds and reads)",
        ratio((p.failed_rounds + p.failed_reads) as f64, ops as f64),
        p.failed_rounds + p.failed_reads,
        ops
    ));
}

fn account(out: &mut Outcome, p: &Phase) {
    out.attempted += p.rounds + p.read_count;
    out.failed += p.failed_rounds + p.failed_reads;
    out.mismatches += p.mismatches;
}

fn as_drive(p: &Phase) -> reads::Drive {
    reads::Drive {
        reads: p.reads.clone(),
        latency: p.read_latency.clone(),
        failed: p.failed_reads,
        mismatches: p.mismatches,
        busy: p.read_busy,
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = SetupTimer::new(cfg, || {
        let env = Env::new();
        drop(env.views());
    });
    let rec = Recorder::default();
    let budget = if cfg.trace {
        cfg.duration() / 2
    } else {
        cfg.duration()
    };
    let env = Env::new();
    let plain = phase(&env, cfg, budget, &rec, false, &mut setups);
    account(&mut out, &plain);
    fresh_lines(&mut out, &plain);
    let plain_drive = as_drive(&plain);

    if !cfg.trace {
        reads::end_to_end(&mut out, &plain_drive, &setups.finish());
        return out;
    }

    let env = Env::new();
    let start = rec.now();
    let traced = phase(&env, cfg, budget, &rec, true, &mut setups);
    account(&mut out, &traced);
    let spans = rec.spans_since(start);
    let rounds = traced.rounds.max(1) as f64;
    reads::read_layers(&mut out, &traced.reads, &spans);
    reads::trace_overhead(&mut out, &plain_drive, &as_drive(&traced));
    out.set("serve.plan_hit_rate", 0.0);
    out.set("fresh.p50_ms", traced.fresh.quantile(0.5));
    out.set("fresh.p99_ms", traced.fresh.quantile(0.99));
    out.set("fresh.pages_per_round", traced.maint_pages as f64 / rounds);
    out.set("dataflow.sync_ms", common::mean(&traced.sync_ms));
    out.set("dataflow.pages_per_sync", traced.sync_pages as f64 / rounds);
    out.set("dataflow.upqueries", traced.upqueries as f64 / rounds);
    out.set("dataflow.rebuilds", traced.rebuilds as f64 / rounds);
    out.set("matview.run_ms", common::mean(&traced.mat_ms));
    out.set("matview.heads_per_run", traced.mat_heads as f64 / rounds);
    out.set("matview.gets_per_run", traced.mat_gets as f64 / rounds);
    out.set("websim.gets", traced.maint_gets as f64 / rounds);
    out.set("websim.heads", traced.maint_heads as f64 / rounds);
    out.set(
        "websim.bytes_per_get",
        ratio(traced.maint_bytes as f64, traced.maint_gets as f64),
    );
    out.set(
        "adm.interned_bytes_growth",
        1000.0 * traced.interned as f64 / rounds,
    );
    rec.write_out(cfg.trace_dir.as_deref(), "fresh_churn");
    out
}
