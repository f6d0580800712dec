//! Evaluation of NALG expressions over a page source.
//!
//! The evaluator realizes the paper's execution model: entry points are
//! fetched by their known URL; `follow link` downloads the page behind each
//! *distinct* outgoing link (the quantity the cost function charges);
//! everything else is local and free. A per-query page cache ensures a page
//! fetched by two operators is downloaded once — the report exposes both
//! the per-operator distinct-link counts (the paper's 𝒞) and the actual
//! number of downloads.
//!
//! Two engine features sit on top of the paper's model, both strictly
//! accounted so the paper numbers stay reproducible:
//!
//! * **Pipelined concurrent fetch** ([`ExecOptions::workers`]):
//!   a persistent worker pool is spawned once per evaluation and serves
//!   every `follow` in the plan; distinct links stream into the pool and
//!   wrapped tuples are consumed as they arrive, overlapping network
//!   latency with wrapping and row assembly. Results and all access
//!   counts are identical to sequential evaluation.
//! * **Shared cross-query cache** ([`Evaluator::with_shared_cache`]): hits
//!   against a [`SharedPageCache`] avoid the network entirely and are
//!   reported separately (`shared_cache_hits`), never as `page_accesses`,
//!   so cost-model comparisons are unaffected.

use crate::cache::SharedPageCache;
use crate::error::EvalError;
use crate::expr::{field_of_column, NalgExpr, Pred};
use crate::fetch::{FetchOutcome, FetchPool};
use crate::Result;
use adm::{
    ColumnData, ColumnRel, ColumnRelBuilder, InclusionConstraint, LinkConstraint, Relation, Symbol,
    Tuple, Url, Value, WebScheme,
};
use obs::trace::{EventKind, TraceSink};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// Errors a [`PageSource`] may return, split into the taxonomy the
/// resilience layer acts on: **transient** failures (a retry may succeed)
/// versus **permanent** ones (retrying is pointless).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceError {
    /// The page does not exist (dangling link / deleted page). Permanent.
    NotFound(Url),
    /// The server failed transiently (5xx analogue). Transient.
    Unavailable {
        /// The URL that failed.
        url: Url,
        /// Human-readable failure detail.
        reason: String,
    },
    /// The request timed out. Transient.
    Timeout(Url),
    /// The page was delivered but could not be wrapped (truncated or
    /// corrupt body). Permanent for a given page version.
    Malformed {
        /// The URL whose body failed to parse.
        url: Url,
        /// Human-readable parse-failure detail.
        reason: String,
    },
    /// The fetch was cancelled cooperatively — the request's deadline
    /// expired, a relevance monitor proved the page cannot contribute
    /// an answer tuple, or the fetch layer shut down mid-wait.
    /// Permanent for this evaluation; retrying it would defeat the
    /// cancellation.
    Cancelled(Url),
    /// Anything else (infrastructure failure, …). Permanent.
    Other(String),
}

impl SourceError {
    /// True for failures a retry may fix (unavailable, timeout); false for
    /// permanent conditions (404, malformed body, everything else).
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            SourceError::Unavailable { .. } | SourceError::Timeout(_)
        )
    }

    /// The URL the error is about, when the error carries one.
    pub fn url(&self) -> Option<&Url> {
        match self {
            SourceError::NotFound(u) | SourceError::Timeout(u) | SourceError::Cancelled(u) => {
                Some(u)
            }
            SourceError::Unavailable { url, .. } | SourceError::Malformed { url, .. } => Some(url),
            SourceError::Other(_) => None,
        }
    }
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::NotFound(u) => write!(f, "not found: {u}"),
            SourceError::Unavailable { url, reason } => {
                write!(f, "unavailable: {url} ({reason})")
            }
            SourceError::Timeout(u) => write!(f, "timeout: {u}"),
            SourceError::Cancelled(u) => write!(f, "cancelled: {u}"),
            SourceError::Malformed { url, reason } => {
                write!(f, "malformed page: {url} ({reason})")
            }
            SourceError::Other(m) => write!(f, "{m}"),
        }
    }
}

/// What evaluation does when a fetch ultimately fails (after whatever
/// retrying the page source performs internally).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradationMode {
    /// Abort the query on the first non-404 fetch failure (the paper's
    /// implicit model: every navigation succeeds). The default.
    #[default]
    FailFast,
    /// Complete the plan over the reachable pages, skipping failed fetches
    /// and reporting the exact unreachable-URL set in
    /// [`EvalReport::unreachable`].
    Partial,
}

/// Anything that can deliver the wrapped tuple of a page: the live virtual
/// web (`wv-core`'s adapter), a materialized store (`matview`), or a test
/// fixture. Sources are shared with fetch-pool workers, hence `Sync`.
pub trait PageSource: Sync {
    /// Fetches and wraps the page at `url`, expected to be an instance of
    /// page-scheme `scheme`.
    fn fetch(&self, url: &Url, scheme: &str) -> std::result::Result<Tuple, SourceError>;

    /// Like [`PageSource::fetch`], additionally reporting the server's
    /// Last-Modified stamp when the source knows it (used to stamp shared
    /// cache entries so URL-check protocols can invalidate stale copies).
    /// The default reports no stamp.
    fn fetch_stamped(
        &self,
        url: &Url,
        scheme: &str,
    ) -> std::result::Result<(Tuple, Option<u64>), SourceError> {
        self.fetch(url, scheme).map(|t| (t, None))
    }
}

/// Configuration for runtime constraint auditing: sample a fraction of
/// the pages a query fetches anyway and check the optimizer's assumed
/// link/inclusion constraints against them with the partial-knowledge
/// verifiers of [`adm::constraints`].
///
/// Auditing is **pure observation**: it never fetches a page, so the
/// answer relation and every access counter are byte-identical with
/// auditing on or off — only [`EvalReport::audit`] differs.
#[derive(Debug, Clone, Default)]
pub struct AuditConfig {
    /// Fraction of fetched pages sampled into the audit instance. Zero
    /// (or less) disables auditing; 1 (or more) samples every page.
    pub rate: f64,
    /// Seed for the deterministic per-URL sampling decision.
    pub seed: u64,
    /// Link constraints to check over the sampled pages.
    pub link: Vec<LinkConstraint>,
    /// Inclusion constraints to check over the sampled pages.
    pub inclusion: Vec<InclusionConstraint>,
}

impl AuditConfig {
    /// Sampling at `rate` with `seed`, over no constraints yet: sessions
    /// fill in the constraints their chosen plan assumed.
    pub fn new(rate: f64, seed: u64) -> Self {
        AuditConfig {
            rate,
            seed,
            ..AuditConfig::default()
        }
    }

    /// True when auditing will record pages and run checks: a positive
    /// rate and at least one constraint to audit.
    pub fn is_active(&self) -> bool {
        self.rate > 0.0 && (!self.link.is_empty() || !self.inclusion.is_empty())
    }
}

/// How an evaluation runs, as opposed to what it computes: one plain
/// value that the serving layer, query sessions and materialized-view
/// sessions hand down unchanged to [`Evaluator::with_options`]. No field
/// moves the answer relation or the paper's access counts under an
/// infinite deadline; the default is the paper's own model (sequential,
/// fail-fast, untraced).
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// What a failed fetch does: abort the query (the default) or skip
    /// the page and report it in [`EvalReport::unreachable`].
    pub degradation: DegradationMode,
    /// Fetch workers: 0 fetches sequentially; n ≥ 1 spawns a pool of n
    /// threads once per evaluation, shared by every navigation. Results
    /// and access counts match sequential evaluation.
    pub workers: usize,
    /// Wall-clock budget. Once it fires, not-yet-fetched URLs go to
    /// [`EvalReport::unreachable`], [`EvalReport::deadline_exceeded`] is
    /// set and the partial answer is returned, even under
    /// [`DegradationMode::FailFast`]. Infinite by default.
    pub deadline: obs::Deadline,
    /// Cooperative cancellation shared with pool workers and coalescing
    /// followers. Created per evaluation when `hedge` or `relevance`
    /// needs one and none is given.
    pub cancel: Option<obs::CancelToken>,
    /// Hedged GETs in the pooled drain (needs `workers` ≥ 1): after the
    /// delay one backup fetch races each laggard, first response wins.
    /// Hedge completions are never charged to `page_accesses`.
    pub hedge: Option<crate::fetch::HedgeConfig>,
    /// Relevance cancellation: σ/⋈ residuals above a Follow cancel
    /// pending URLs that provably cannot reach the answer
    /// ([`EvalReport::cancelled`]). Rows and `accesses_by_operator` are
    /// unchanged; only downloads shrink.
    pub relevance: bool,
    /// Constraint auditing over a deterministic sample of fetched pages
    /// ([`EvalReport::audit`]); never fetches a page. Sessions set the
    /// rate and seed and fill in the chosen plan's constraints.
    pub audit: Option<AuditConfig>,
    /// Trace sink: one [`EventKind::Operator`] span per operator, plus
    /// fetch-worker and audit events. Counters are identical with or
    /// without it.
    pub trace: Option<TraceSink>,
    /// Span id the evaluation's top-level spans and events nest under.
    pub trace_parent: Option<u64>,
}

/// The audit row of one constraint: how many sampled checks ran and what
/// each detected violation looked like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstraintAudit {
    /// The constraint's canonical display form (its health-registry key).
    pub key: String,
    /// Checks performed over the sampled instance.
    pub checks: u64,
    /// Human-readable violation details, one per violation.
    pub violations: Vec<String>,
}

/// What constraint auditing observed during one evaluation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Distinct pages sampled into the audit instance.
    pub sampled_pages: u64,
    /// One row per configured constraint, in configuration order (link
    /// constraints first, then inclusions).
    pub constraints: Vec<ConstraintAudit>,
}

impl AuditReport {
    /// Total checks across all audited constraints.
    pub fn checks(&self) -> u64 {
        self.constraints.iter().map(|c| c.checks).sum()
    }

    /// Total violations across all audited constraints.
    pub fn violation_count(&self) -> u64 {
        self.constraints
            .iter()
            .map(|c| c.violations.len() as u64)
            .sum()
    }

    /// True when no audited check failed.
    pub fn is_clean(&self) -> bool {
        self.constraints.iter().all(|c| c.violations.is_empty())
    }
}

/// Deterministic per-URL sample decision in `[0, 1)`: FNV-1a over the URL
/// bytes mixed with the seed through a splitmix64 finisher. Independent of
/// fetch order, shared-cache state, and worker count.
fn sample_fraction(seed: u64, url: &Url) -> f64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in url.as_str().bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z = (seed ^ h).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// The result of evaluating an expression.
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// The answer relation.
    pub relation: Relation,
    /// Actual downloads performed (cache misses).
    pub page_accesses: u64,
    /// Fetches answered by the per-query cache.
    pub cache_hits: u64,
    /// Fetches answered by the shared cross-query cache (zero unless the
    /// evaluator was built [`Evaluator::with_shared_cache`]). These are
    /// *not* page accesses: no connection was opened.
    pub shared_cache_hits: u64,
    /// Links that pointed to missing pages (skipped).
    pub broken_links: u64,
    /// Per-operator distinct-link counts — the quantity the paper's cost
    /// function 𝒞 estimates, one entry per entry-point/navigation operator
    /// in evaluation order.
    pub accesses_by_operator: Vec<(String, u64)>,
    /// The exact set of URLs whose fetch ultimately failed (sorted,
    /// deduplicated): broken links in every mode, plus — under
    /// [`DegradationMode::Partial`] — pages skipped because of non-404
    /// failures. Empty iff the answer is complete.
    pub unreachable: Vec<Url>,
    /// What constraint auditing observed, when an active [`AuditConfig`]
    /// was set in [`ExecOptions::audit`]; `None` otherwise.
    pub audit: Option<AuditReport>,
    /// True iff a finite deadline expired during evaluation: the answer
    /// is the partial result over pages fetched in budget, and every
    /// skipped URL is in [`EvalReport::unreachable`].
    pub deadline_exceeded: bool,
    /// URLs whose fetches the relevance monitor cancelled (sorted,
    /// deduplicated). Unlike `unreachable`, these never affect answer
    /// completeness: the monitor proved no output tuple could involve
    /// them. Their cost-model charge in `accesses_by_operator` is still
    /// counted, so cancellation is invisible to the paper's 𝒞 numbers.
    pub cancelled: Vec<Url>,
}

impl EvalReport {
    /// The paper's cost measure: sum of per-operator distinct accesses
    /// (counts a page once per operator that requests it).
    pub fn cost_model_accesses(&self) -> u64 {
        self.accesses_by_operator.iter().map(|(_, n)| n).sum()
    }

    /// True when every page the plan asked for was fetched — the answer
    /// relation is the complete answer, not a partial one.
    pub fn is_complete(&self) -> bool {
        self.unreachable.is_empty()
    }
}

/// The expression evaluator.
pub struct Evaluator<'a, S: PageSource> {
    ws: &'a WebScheme,
    source: &'a S,
    shared: Option<&'a SharedPageCache>,
    opts: ExecOptions,
}

#[derive(Default)]
struct Ctx {
    /// Per-query page cache, keyed by interned URL id: a hit hands out a
    /// refcount bump, never a `Url`/`Tuple` clone.
    cache: HashMap<Symbol, Arc<Tuple>>,
    /// Pre-order index of the next operator node (tracing only); matches
    /// the node numbering of `cost::Estimate::nodes` for the same plan.
    node_seq: usize,
    page_accesses: u64,
    cache_hits: u64,
    shared_hits: u64,
    broken_links: u64,
    per_op: Vec<(String, u64)>,
    unreachable: BTreeSet<Url>,
    /// Audit bookkeeping (populated only when an audit is attached):
    /// every acquired page by scheme, the dedup set (interned ids), and
    /// the sampled URLs.
    audit_pages: BTreeMap<String, Vec<(Url, Tuple)>>,
    audit_seen: HashSet<Symbol>,
    audit_sampled: BTreeSet<Url>,
    /// URLs the relevance monitor cancelled (answer-complete skips).
    cancelled: BTreeSet<Url>,
    /// Set when a finite deadline fired at any blocking point.
    deadline_exceeded: bool,
    /// Monotonic tag for pooled drains: a deadline-aborted drain leaves
    /// stale completions in the channel; later drains skip them by epoch.
    fetch_epoch: u64,
    /// σ/⋈ residuals on the path from the root to the node being
    /// evaluated (innermost last); only maintained in relevance mode.
    residual: Vec<ResidualFilter>,
}

/// A filter known (from the operators above the current node) to discard
/// rows: a σ predicate, or the join-key value set of an already-computed
/// ⋈ side. A Follow output row that provably fails one can never reach
/// the query's answer — the Benedikt/Gottlob/Senellart relevance
/// criterion specialized to rules 6–9 plan shapes (σ/⋈ over
/// Follow/Unnest chains; π and µ never filter on page content).
enum ResidualFilter {
    /// A selection predicate above the Follow.
    Pred(Pred),
    /// `col` must take one of `allowed` (the other join side's keys).
    InSet {
        col: String,
        allowed: HashSet<Value>,
    },
}

/// One residual atom resolved against a Follow's *input* columns; checks
/// that would bind to the fetched page's own columns (or ambiguously)
/// are dropped as inapplicable — conservative, never unsound.
enum ResolvedCheck<'f> {
    EqConst(usize, &'f Value),
    EqAttrs(usize, usize),
    InSet(usize, &'f HashSet<Value>),
}

/// Resolves `attr` against the Follow's combined output header (input
/// columns ++ page columns), mirroring `adm`'s resolution order: exact
/// name first, then unique dotted suffix. Returns the index only when
/// the unique hit lies on the *input* side — a page-side or ambiguous
/// binding makes the check inapplicable before the page is fetched.
fn resolve_input_side(input_cols: &[&str], page_cols: &[String], attr: &str) -> Option<usize> {
    let all = || {
        input_cols
            .iter()
            .copied()
            .chain(page_cols.iter().map(String::as_str))
    };
    let exact: Vec<usize> = all()
        .enumerate()
        .filter(|(_, c)| *c == attr)
        .map(|(i, _)| i)
        .collect();
    let hits = if exact.is_empty() {
        let suffix = format!(".{attr}");
        all()
            .enumerate()
            .filter(|(_, c)| c.ends_with(&suffix))
            .map(|(i, _)| i)
            .collect()
    } else {
        exact
    };
    match hits.as_slice() {
        [i] if *i < input_cols.len() => Some(*i),
        _ => None,
    }
}

/// Flattens the residual stack into the checks applicable to a Follow's
/// input rows (conjunctions flatten; `Pred` has no disjunction, so each
/// atom is independently necessary and any applicable subset is sound).
fn applicable_checks<'f>(
    filters: &'f [ResidualFilter],
    input_cols: &[&str],
    page_cols: &[String],
) -> Vec<ResolvedCheck<'f>> {
    fn add_pred<'f>(
        p: &'f Pred,
        input_cols: &[&str],
        page_cols: &[String],
        out: &mut Vec<ResolvedCheck<'f>>,
    ) {
        match p {
            Pred::Eq(attr, v) => {
                if let Some(i) = resolve_input_side(input_cols, page_cols, attr) {
                    out.push(ResolvedCheck::EqConst(i, v));
                }
            }
            Pred::EqAttr(a, b) => {
                let (ra, rb) = (
                    resolve_input_side(input_cols, page_cols, a),
                    resolve_input_side(input_cols, page_cols, b),
                );
                if let (Some(i), Some(j)) = (ra, rb) {
                    out.push(ResolvedCheck::EqAttrs(i, j));
                }
            }
            Pred::And(ps) => {
                for p in ps {
                    add_pred(p, input_cols, page_cols, out);
                }
            }
        }
    }
    let mut out = Vec::new();
    for f in filters {
        match f {
            ResidualFilter::Pred(p) => add_pred(p, input_cols, page_cols, &mut out),
            ResidualFilter::InSet { col, allowed } => {
                if let Some(i) = resolve_input_side(input_cols, page_cols, col) {
                    out.push(ResolvedCheck::InSet(i, allowed));
                }
            }
        }
    }
    out
}

/// True iff `row` provably cannot survive the filters above the Follow.
/// Semantics mirror [`apply_pred`] exactly: constant equality treats
/// `Null = Null` as true, attribute equality never matches nulls, and a
/// join key outside the other side's value set can never join.
fn row_is_dead(row: &[Value], checks: &[ResolvedCheck<'_>]) -> bool {
    checks.iter().any(|c| match c {
        ResolvedCheck::EqConst(i, v) => &row[*i] != *v,
        ResolvedCheck::EqAttrs(i, j) => row[*i].is_null() || row[*i] != row[*j],
        ResolvedCheck::InSet(i, set) => !set.contains(&row[*i]),
    })
}

/// The distinct values of the already-computed join side's column
/// `attr` (nulls included, so the bound is sound whatever the engine's
/// null-join semantics), or `None` when the column does not resolve —
/// the residual is then simply not pushed, which is conservative.
fn join_key_values(rel: &ColumnRel, attr: &str) -> Option<HashSet<Value>> {
    let i = rel.resolve(attr).ok()?;
    let probe = rel.project_cols(&[i]).to_relation();
    Some(probe.rows().iter().map(|r| r[0].clone()).collect())
}

impl<'a, S: PageSource> Evaluator<'a, S> {
    /// An evaluator with the per-query page cache enabled (the realistic
    /// engine configuration) and default [`ExecOptions`].
    pub fn new(ws: &'a WebScheme, source: &'a S) -> Self {
        Evaluator {
            ws,
            source,
            shared: None,
            opts: ExecOptions::default(),
        }
    }

    /// Sets how evaluation runs (see [`ExecOptions`]). An inactive audit
    /// (zero rate or no constraints) is dropped, and hedging or relevance
    /// cancellation without a token gets a fresh one.
    pub fn with_options(mut self, mut opts: ExecOptions) -> Self {
        opts.audit = opts.audit.filter(AuditConfig::is_active);
        if opts.cancel.is_none() && (opts.hedge.is_some() || opts.relevance) {
            opts.cancel = Some(obs::CancelToken::new());
        }
        self.opts = opts;
        self
    }

    /// Consults (and feeds) a shared cross-query page cache. Hits count as
    /// `shared_cache_hits`, never as `page_accesses`, so every paper
    /// experiment still reproduces its numbers by simply not attaching a
    /// shared cache.
    pub fn with_shared_cache(mut self, cache: &'a SharedPageCache) -> Self {
        self.shared = Some(cache);
        self
    }

    /// Evaluates a computable expression.
    pub fn eval(&self, expr: &NalgExpr) -> Result<EvalReport> {
        if !expr.is_computable() {
            return Err(EvalError::NotComputable(format!(
                "leaves must be entry points: {expr}"
            )));
        }
        match self.opts.workers {
            0 => self.eval_with(expr, None),
            _ => crate::fetch::with_pool(self.source, &self.opts, |pool| {
                self.eval_with(expr, Some(pool))
            }),
        }
    }

    fn eval_with(&self, expr: &NalgExpr, pool: Option<&FetchPool>) -> Result<EvalReport> {
        let mut ctx = Ctx::default();
        let relation = self
            .eval_expr(expr, &mut ctx, pool, self.opts.trace_parent)?
            .to_relation();
        let audit = self.run_audit(&mut ctx);
        Ok(EvalReport {
            relation,
            page_accesses: ctx.page_accesses,
            cache_hits: ctx.cache_hits,
            shared_cache_hits: ctx.shared_hits,
            broken_links: ctx.broken_links,
            accesses_by_operator: ctx.per_op,
            unreachable: ctx.unreachable.into_iter().collect(),
            audit,
            deadline_exceeded: ctx.deadline_exceeded,
            cancelled: ctx.cancelled.into_iter().collect(),
        })
    }

    /// Records a page acquisition for auditing. A no-op unless an audit is
    /// attached; never fetches or counts anything. Dedup is by interned id
    /// so repeat sightings of a page cost no allocation at all.
    fn audit_record(&self, ctx: &mut Ctx, sym: Symbol, scheme: &str, tuple: &Tuple) {
        let Some(cfg) = &self.opts.audit else { return };
        if !ctx.audit_seen.insert(sym) {
            return;
        }
        let url = sym.to_url();
        if sample_fraction(cfg.seed, &url) < cfg.rate {
            ctx.audit_sampled.insert(url.clone());
        }
        ctx.audit_pages
            .entry(scheme.to_string())
            .or_default()
            .push((url, tuple.clone()));
    }

    /// Checks the configured constraints against the recorded pages with
    /// the partial-knowledge verifiers: sampled pages form the source/sub
    /// instance, every acquired page of the target/sup scheme resolves
    /// references. Pages are sorted by URL first so pooled completion
    /// order cannot affect the report.
    fn run_audit(&self, ctx: &mut Ctx) -> Option<AuditReport> {
        let cfg = self.opts.audit.as_ref()?;
        for pages in ctx.audit_pages.values_mut() {
            pages.sort_by(|a, b| a.0.cmp(&b.0));
        }
        let empty: Vec<(Url, Tuple)> = Vec::new();
        let sampled = |scheme: &str| -> Vec<(Url, Tuple)> {
            ctx.audit_pages
                .get(scheme)
                .map(|pages| {
                    pages
                        .iter()
                        .filter(|(u, _)| ctx.audit_sampled.contains(u))
                        .cloned()
                        .collect()
                })
                .unwrap_or_default()
        };
        let mut constraints = Vec::new();
        for c in &cfg.link {
            let source = sampled(&c.source_attr.scheme);
            let target = ctx.audit_pages.get(&c.target_attr.scheme).unwrap_or(&empty);
            let (checks, violations) =
                adm::constraints::verify_link_constraint_partial(c, &source, target);
            constraints.push(ConstraintAudit {
                key: c.to_string(),
                checks,
                violations: violations.into_iter().map(|v| v.detail).collect(),
            });
        }
        for c in &cfg.inclusion {
            let sub = sampled(&c.sub.scheme);
            let sup = ctx.audit_pages.get(&c.sup.scheme).unwrap_or(&empty);
            let (checks, violations) =
                adm::constraints::verify_inclusion_constraint_partial(c, &sub, sup);
            constraints.push(ConstraintAudit {
                key: c.to_string(),
                checks,
                violations: violations.into_iter().map(|v| v.detail).collect(),
            });
        }
        let report = AuditReport {
            sampled_pages: ctx.audit_sampled.len() as u64,
            constraints,
        };
        if let Some(sink) = &self.opts.trace {
            for row in &report.constraints {
                if row.checks == 0 && row.violations.is_empty() {
                    continue;
                }
                sink.event(
                    EventKind::Constraint,
                    "audit",
                    self.opts.trace_parent,
                    vec![
                        ("constraint".to_string(), row.key.as_str().into()),
                        ("checks".to_string(), row.checks.into()),
                        (
                            "violations".to_string(),
                            (row.violations.len() as u64).into(),
                        ),
                    ],
                );
                for detail in &row.violations {
                    sink.event(
                        EventKind::Constraint,
                        "violation",
                        self.opts.trace_parent,
                        vec![
                            ("constraint".to_string(), row.key.as_str().into()),
                            ("detail".to_string(), detail.as_str().into()),
                        ],
                    );
                }
            }
        }
        Some(report)
    }

    /// The cache side of page acquisition: a per-query cache hit, else a
    /// shared cross-query cache hit (copied into the per-query cache and
    /// the audit), else `None` — a miss the caller must fetch.
    fn lookup(&self, ctx: &mut Ctx, sym: Symbol, scheme: &str) -> Option<Arc<Tuple>> {
        if let Some(t) = ctx.cache.get(&sym) {
            ctx.cache_hits += 1;
            return Some(Arc::clone(t));
        }
        let t = Arc::new(self.shared?.get(&sym.to_url())?);
        ctx.shared_hits += 1;
        self.keep(ctx, sym, scheme, &t);
        Some(t)
    }

    /// Enters an acquired page into the per-query cache and the audit.
    fn keep(&self, ctx: &mut Ctx, sym: Symbol, scheme: &str, t: &Arc<Tuple>) {
        ctx.cache.insert(sym, Arc::clone(t));
        self.audit_record(ctx, sym, scheme, t);
    }

    /// The completion side of page acquisition, shared by every drain:
    /// books one fetch outcome into the counters and returns the page, or
    /// `None` when the URL is unreachable. A download is charged to
    /// `page_accesses` and fed to both caches; a 404 is a broken link; a
    /// cancellation under a finite deadline or [`DegradationMode::Partial`]
    /// is a skip (a brown-out when the budget is gone); any other failure
    /// is a skip under `Partial` and aborts the query under `FailFast`.
    fn complete(
        &self,
        ctx: &mut Ctx,
        sym: Symbol,
        url: Url,
        scheme: &str,
        outcome: FetchOutcome,
    ) -> Result<Option<Arc<Tuple>>> {
        match outcome {
            Ok((t, lm)) => {
                ctx.page_accesses += 1;
                if let Some(shared) = self.shared {
                    shared.insert(&url, &t, lm);
                }
                let t = Arc::new(t);
                self.keep(ctx, sym, scheme, &t);
                Ok(Some(t))
            }
            Err(SourceError::NotFound(_)) => {
                ctx.broken_links += 1;
                ctx.unreachable.insert(url);
                Ok(None)
            }
            // A cancelled fetch under a finite deadline is the budget
            // machinery working as designed, not a query failure.
            Err(SourceError::Cancelled(_))
                if self.opts.deadline.is_finite()
                    || self.opts.degradation == DegradationMode::Partial =>
            {
                if self.opts.deadline.expired() {
                    ctx.deadline_exceeded = true;
                }
                ctx.unreachable.insert(url);
                Ok(None)
            }
            Err(_) if self.opts.degradation == DegradationMode::Partial => {
                ctx.unreachable.insert(url);
                Ok(None)
            }
            Err(e) => Err(EvalError::Source(e.to_string())),
        }
    }

    /// Fetches cache misses — through the pool when one is given, else one
    /// at a time — books each outcome with [`Evaluator::complete`], and
    /// hands every delivered page to `on_page`.
    fn fetch_misses(
        &self,
        ctx: &mut Ctx,
        pool: Option<&FetchPool>,
        urls: &[Url],
        scheme: &str,
        mut on_page: impl FnMut(Symbol, &Arc<Tuple>) -> Result<()>,
    ) -> Result<()> {
        let mut settle = |ctx: &mut Ctx, url: Url, outcome: FetchOutcome| -> Result<()> {
            let sym = Symbol::from_url(&url);
            match self.complete(ctx, sym, url, scheme, outcome)? {
                Some(t) => on_page(sym, &t),
                None => Ok(()),
            }
        };
        match pool {
            Some(pool) => self.drain_pooled(ctx, pool, urls, scheme, &mut settle),
            None => self.drain_sequential(ctx, urls, scheme, &mut settle),
        }
    }

    /// The value row of one page: its URL, then its fields in scheme order.
    fn expand_page(&self, scheme: &str, url: &Url, tuple: &Tuple) -> Result<Vec<Value>> {
        let ps = self.ws.scheme(scheme)?;
        let mut vals = vec![Value::Link(url.clone())];
        for f in &ps.fields {
            vals.push(tuple.get(&f.name).cloned().unwrap_or(Value::Null));
        }
        Ok(vals)
    }

    /// Traced entry to operator evaluation. Without a sink this is a
    /// plain passthrough to [`Evaluator::eval_node`]; with one it opens
    /// a span (pre-order id assignment), evaluates the node, and closes
    /// the span with the node's observations. The `links` field is the
    /// cost-model measure of *this* operator (distinct links charged),
    /// while `downloads`/`*_hits`/`broken_links` are subtree-cumulative
    /// deltas — per-operator exclusive numbers fall out by subtracting
    /// the children's spans.
    fn eval_expr(
        &self,
        expr: &NalgExpr,
        ctx: &mut Ctx,
        pool: Option<&FetchPool>,
        parent: Option<u64>,
    ) -> Result<ColumnRel> {
        let Some(sink) = &self.opts.trace else {
            return self.eval_node(expr, ctx, pool, parent);
        };
        let node = ctx.node_seq;
        ctx.node_seq += 1;
        let mut span = sink.begin(EventKind::Operator, op_label(expr), parent);
        let before = (
            ctx.page_accesses,
            ctx.cache_hits,
            ctx.shared_hits,
            ctx.broken_links,
            ctx.per_op.len(),
        );
        let result = self.eval_node(expr, ctx, pool, Some(span.id()));
        span.set("node", node);
        match &result {
            Ok(rel) => span.set("rows_out", rel.len() as u64),
            Err(e) => span.set("error", e.to_string()),
        }
        span.set("downloads", ctx.page_accesses - before.0);
        span.set("cache_hits", ctx.cache_hits - before.1);
        span.set("shared_cache_hits", ctx.shared_hits - before.2);
        span.set("broken_links", ctx.broken_links - before.3);
        if matches!(expr, NalgExpr::Entry { .. } | NalgExpr::Follow { .. })
            && ctx.per_op.len() > before.4
        {
            // The cost-model charge this operator pushed — always the
            // last entry, since it is recorded after the input subtree.
            span.set("links", ctx.per_op[ctx.per_op.len() - 1].1);
        }
        sink.finish(span);
        result
    }

    fn eval_node(
        &self,
        expr: &NalgExpr,
        ctx: &mut Ctx,
        pool: Option<&FetchPool>,
        parent: Option<u64>,
    ) -> Result<ColumnRel> {
        match expr {
            NalgExpr::External { name } => Err(EvalError::NotComputable(format!(
                "external relation {name}"
            ))),
            NalgExpr::Entry { scheme, alias } => {
                let ep = self.ws.entry_point(scheme).ok_or_else(|| {
                    EvalError::NotComputable(format!("{scheme} is not an entry point"))
                })?;
                let url = &ep.url;
                let mut page = self.lookup(ctx, Symbol::from_url(url), scheme);
                if page.is_none() {
                    // With a budget or hedging active, even the single
                    // entry GET goes through the pooled drain — a tail
                    // response there is hedged or abandoned at the
                    // deadline rather than blocking the whole session.
                    let pool = pool
                        .filter(|_| self.opts.deadline.is_finite() || self.opts.hedge.is_some());
                    self.fetch_misses(ctx, pool, std::slice::from_ref(url), scheme, |_, t| {
                        page = Some(Arc::clone(t));
                        Ok(())
                    })?;
                }
                let header = crate::expr::page_columns(self.ws, scheme, alias)?;
                let rel = match page {
                    Some(tuple) => {
                        let mut b = ColumnRelBuilder::new(&header);
                        b.push_row(&self.expand_page(scheme, url, &tuple)?)?;
                        b.finish()
                    }
                    // The URL is already recorded as unreachable; in Partial
                    // mode (or past the deadline) an unreachable entry point
                    // degrades to an empty relation with the right header
                    // instead of aborting the query.
                    None if self.opts.degradation == DegradationMode::Partial
                        || ctx.deadline_exceeded =>
                    {
                        ColumnRel::empty(&header)
                    }
                    None => return Err(EvalError::Source(format!("entry point {url} missing"))),
                };
                ctx.per_op.push((format!("entry {scheme}"), 1));
                Ok(rel)
            }
            NalgExpr::Select { input, pred } => {
                // Relevance: this predicate filters everything the input
                // subtree produces; Follows inside it can use it to prove
                // pending URLs irrelevant before fetching them.
                if self.opts.relevance {
                    ctx.residual.push(ResidualFilter::Pred(pred.clone()));
                }
                let rel = self.eval_expr(input, ctx, pool, parent);
                if self.opts.relevance {
                    ctx.residual.pop();
                }
                apply_pred(&rel?, pred)
            }
            NalgExpr::Project { input, cols } => {
                let rel = self.eval_expr(input, ctx, pool, parent)?;
                let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
                Ok(rel.project(&refs)?)
            }
            NalgExpr::Join { left, right, on } => {
                let l = self.eval_expr(left, ctx, pool, parent)?;
                // Relevance: the left side is computed, so its join-key
                // value sets bound what the right side can contribute —
                // a right-side Follow row whose key is outside the set
                // can never join into an output tuple.
                let mut pushed = 0usize;
                if self.opts.relevance {
                    for (a, b) in on {
                        if let Some(allowed) = join_key_values(&l, a) {
                            ctx.residual.push(ResidualFilter::InSet {
                                col: b.clone(),
                                allowed,
                            });
                            pushed += 1;
                        }
                    }
                }
                let r = self.eval_expr(right, ctx, pool, parent);
                for _ in 0..pushed {
                    ctx.residual.pop();
                }
                let pairs: Vec<(&str, &str)> =
                    on.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
                Ok(l.join(&r?, &pairs)?)
            }
            NalgExpr::Unnest { input, attr } => {
                let rel = self.eval_expr(input, ctx, pool, parent)?;
                let qualified = rel.names()[rel.resolve(attr)?].as_str().to_string();
                let aliases = expr.alias_map()?;
                let field = field_of_column(self.ws, &aliases, &qualified)?;
                let inner: Vec<String> = field
                    .ty
                    .list_fields()
                    .ok_or_else(|| {
                        EvalError::Adm(adm::AdmError::TypeMismatch {
                            attr: qualified.clone(),
                            expected: "list",
                            found: field.ty.kind().to_string(),
                        })
                    })?
                    .iter()
                    .map(|f| f.name.clone())
                    .collect();
                Ok(rel.unnest(attr, &inner)?)
            }
            NalgExpr::Follow {
                input,
                link,
                target,
                alias,
            } => {
                let rel = self.eval_expr(input, ctx, pool, parent)?;
                self.follow(&rel, link, target, alias, ctx, pool)
            }
        }
    }

    /// Sequentially fetches `misses`, gating each dispatch on the
    /// remaining budget: once the deadline fires, every remaining URL
    /// goes to `unreachable` (the exact not-yet-fetched set) instead of
    /// being fetched past the SLO.
    fn drain_sequential(
        &self,
        ctx: &mut Ctx,
        misses: &[Url],
        scheme: &str,
        settle: &mut dyn FnMut(&mut Ctx, Url, FetchOutcome) -> Result<()>,
    ) -> Result<()> {
        for u in misses {
            if self.opts.deadline.expired() {
                ctx.deadline_exceeded = true;
                ctx.unreachable.insert(u.clone());
                continue;
            }
            settle(ctx, u.clone(), timed_fetch_stamped(self.source, u, scheme))?;
        }
        Ok(())
    }

    /// The pooled drain: streams `misses` into the pool, then consumes
    /// completions. The loop waits in bounded quanta so it can (a) abort
    /// the drain the moment a finite budget is gone — cancelling
    /// still-queued jobs through the token and reporting the exact
    /// pending set as unreachable — and (b) launch one backup fetch per
    /// laggard after the hedge delay, first response winning. With an
    /// infinite deadline and no hedging neither fires and each wait
    /// blocks until the next completion. Completions are tagged with a per-drain
    /// epoch so a later drain never consumes a stale completion from an
    /// aborted one.
    fn drain_pooled(
        &self,
        ctx: &mut Ctx,
        pool: &FetchPool,
        misses: &[Url],
        scheme: &str,
        settle: &mut dyn FnMut(&mut Ctx, Url, FetchOutcome) -> Result<()>,
    ) -> Result<()> {
        use std::time::{Duration, Instant};
        let shutdown = || EvalError::Source("fetch worker pool shut down".to_string());
        ctx.fetch_epoch += 1;
        let epoch = ctx.fetch_epoch;
        struct Pending {
            since: Instant,
            hedged: bool,
        }
        let mut pending: HashMap<Url, Pending> = HashMap::with_capacity(misses.len());
        for u in misses {
            if self.opts.deadline.expired() {
                ctx.deadline_exceeded = true;
                ctx.unreachable.insert(u.clone());
                continue;
            }
            // A URL cancelled for an earlier navigation may be needed
            // now; clear its mark before the workers can see the job.
            if let Some(t) = &self.opts.cancel {
                t.uncancel_url(u.as_str());
            }
            if !pool.submit_tagged(u.clone(), scheme.to_string(), epoch, false) {
                return Err(shutdown());
            }
            pending.insert(
                u.clone(),
                Pending {
                    since: Instant::now(),
                    hedged: false,
                },
            );
        }
        while !pending.is_empty() {
            if self.opts.deadline.expired() {
                // Budget gone: the pending set IS the exact not-yet-
                // fetched URL set. Cancel the queued jobs cooperatively
                // (workers skip them pre-dispatch) and brown out.
                ctx.deadline_exceeded = true;
                for (u, _) in pending.drain() {
                    if let Some(t) = &self.opts.cancel {
                        t.cancel_url(u.as_str());
                    }
                    ctx.unreachable.insert(u);
                }
                break;
            }
            if let Some(h) = &self.opts.hedge {
                let delay = Duration::from_micros(h.delay_us);
                let due: Vec<Url> = pending
                    .iter()
                    .filter(|(_, p)| !p.hedged && p.since.elapsed() >= delay)
                    .map(|(u, _)| u.clone())
                    .collect();
                for u in due {
                    if !pool.submit_tagged(u.clone(), scheme.to_string(), epoch, true) {
                        return Err(shutdown());
                    }
                    h.hedges.inc();
                    pending.get_mut(&u).expect("hedged url is pending").hedged = true;
                }
            }
            // Sleep until the next actionable instant: budget expiry or
            // the earliest hedge coming due.
            let mut wait = self
                .opts
                .deadline
                .remaining()
                .unwrap_or(Duration::from_secs(60));
            if let Some(h) = &self.opts.hedge {
                let delay = Duration::from_micros(h.delay_us);
                if let Some(next) = pending
                    .values()
                    .filter(|p| !p.hedged)
                    .map(|p| delay.saturating_sub(p.since.elapsed()))
                    .min()
                {
                    wait = wait.min(next);
                }
            }
            let wait = wait.clamp(Duration::from_micros(50), Duration::from_secs(60));
            let done = match pool.recv_timeout(wait) {
                Ok(d) => d,
                Err(true) => continue, // quantum elapsed: re-check budget/hedges
                Err(false) => return Err(shutdown()),
            };
            if done.epoch != epoch {
                continue; // stale completion from an aborted earlier drain
            }
            if self.opts.deadline.expired() {
                // Received past the budget: the URL is still pending, so
                // the brown-out at the top of the loop reports it.
                continue;
            }
            match pending.remove(&done.url) {
                Some(p) => {
                    if p.hedged {
                        // First response wins; cancel the losing twin
                        // before a worker dispatches it.
                        if let Some(t) = &self.opts.cancel {
                            t.cancel_url(done.url.as_str());
                        }
                        if done.hedge {
                            if let Some(h) = &self.opts.hedge {
                                h.hedge_wins.inc();
                            }
                        }
                    }
                    settle(ctx, done.url, done.outcome)?;
                }
                None => {
                    // The losing twin of an already-settled URL. A
                    // cancelled loser cost the server nothing; a
                    // completed one is dropped here — the server counted
                    // its GET, but `page_accesses` charged only the
                    // first completion, keeping the paper's counters
                    // hedge-invisible.
                    if matches!(done.outcome, Err(SourceError::Cancelled(_))) {
                        if let Some(h) = &self.opts.hedge {
                            h.hedge_cancelled.inc();
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// `follow`: the fetch edge is row-driven — distinct interned link ids
    /// are collected in first-appearance order, served from the caches,
    /// pruned by relevance, and the rest fetched (sequentially or pooled)
    /// — while the local side is batch: pages land in one
    /// [`ColumnRelBuilder`] batch, and the output is a gather
    /// (`take` + `hstack`) over input-row and page-row index vectors.
    fn follow(
        &self,
        rel: &ColumnRel,
        link: &str,
        target: &str,
        alias: &str,
        ctx: &mut Ctx,
        pool: Option<&FetchPool>,
    ) -> Result<ColumnRel> {
        let li = rel.resolve(link)?;
        // Distinct non-null link ids, first-appearance order; non-link
        // cells are skipped.
        let link_of = |row: usize| -> Option<Symbol> {
            let col = &rel.columns()[li];
            match &col.data {
                ColumnData::Link(ids) => col.validity.get(row).then(|| ids[row]),
                ColumnData::Values(vs) => vs[row].as_link().map(Symbol::from_url),
                _ => None,
            }
        };
        let mut page_row: HashMap<Symbol, Option<u32>> = HashMap::new();
        let mut order: Vec<Symbol> = Vec::new();
        for row in 0..rel.len() {
            if let Some(s) = link_of(row) {
                if let std::collections::hash_map::Entry::Vacant(e) = page_row.entry(s) {
                    e.insert(None);
                    order.push(s);
                }
            }
        }
        ctx.per_op
            .push((format!("–{link}→ {target}"), order.len() as u64));
        // The page header is static (alias.URL + alias.fields), so the
        // batch builder exists before any page arrives. A page lands in
        // `page_row` keyed by interned id, so pooled completion order
        // cannot affect the result.
        let header = crate::expr::page_columns(self.ws, target, alias)?;
        let mut pages = ColumnRelBuilder::new(&header);
        let mut add_page = |s: Symbol, t: &Arc<Tuple>| -> Result<()> {
            pages.push_row(&self.expand_page(target, &s.to_url(), t)?)?;
            page_row.insert(s, Some(pages.len() as u32 - 1));
            Ok(())
        };
        let mut misses: Vec<Symbol> = Vec::new();
        for &s in &order {
            match self.lookup(ctx, s, target) {
                Some(t) => add_page(s, &t)?,
                None => misses.push(s),
            }
        }
        if self.opts.relevance && !ctx.residual.is_empty() && !misses.is_empty() {
            self.prune_irrelevant(ctx, rel, &link_of, &header, &mut misses);
        }
        let miss_urls: Vec<Url> = misses.iter().map(|s| s.to_url()).collect();
        self.fetch_misses(ctx, pool, &miss_urls, target, add_page)?;
        // Output assembly: one gather per side, input-row order.
        let mut li_idx: Vec<u32> = Vec::new();
        let mut ri_idx: Vec<u32> = Vec::new();
        for row in 0..rel.len() {
            if let Some(s) = link_of(row) {
                if let Some(Some(pr)) = page_row.get(&s) {
                    li_idx.push(row as u32);
                    ri_idx.push(*pr);
                }
            }
        }
        Ok(rel.take(&li_idx).hstack(pages.finish().take(&ri_idx)))
    }

    /// Relevance: a missed URL whose every carrying input row is rejected
    /// by some residual σ/⋈ check bound entirely to input-side columns can
    /// never join into an output tuple — drop it from `misses` and cancel
    /// it through the token. The Follow already charged the full distinct
    /// set to `per_op`, so the cost-model numbers stay exact.
    fn prune_irrelevant(
        &self,
        ctx: &mut Ctx,
        rel: &ColumnRel,
        link_of: &dyn Fn(usize) -> Option<Symbol>,
        page_cols: &[String],
        misses: &mut Vec<Symbol>,
    ) {
        let names: Vec<String> = rel.names().iter().map(|s| s.as_str().to_string()).collect();
        let input_cols: Vec<&str> = names.iter().map(String::as_str).collect();
        let checks = applicable_checks(&ctx.residual, &input_cols, page_cols);
        if checks.is_empty() {
            return;
        }
        // Materialize the input only when some check binds to it.
        let probe = rel.to_relation();
        let mut live: HashSet<Symbol> = HashSet::new();
        for (row_idx, row) in probe.rows().iter().enumerate() {
            if let Some(s) = link_of(row_idx) {
                if !row_is_dead(row, &checks) {
                    live.insert(s);
                }
            }
        }
        misses.retain(|s| {
            if live.contains(s) {
                return true;
            }
            let url = s.to_url();
            if let Some(t) = &self.opts.cancel {
                t.cancel_url(url.as_str());
            }
            ctx.cancelled.insert(url);
            false
        });
    }
}

/// Fetches through the source, charging wall-clock time to the ambient
/// request's fetch clock when one is installed (see [`obs::reqctx`]).
/// Without a context this is a plain passthrough — timing never touches
/// results or counters.
pub(crate) fn timed_fetch_stamped<S: PageSource + ?Sized>(
    source: &S,
    url: &Url,
    scheme: &str,
) -> std::result::Result<(Tuple, Option<u64>), SourceError> {
    match obs::reqctx::current() {
        Some(ctx) => {
            let t0 = std::time::Instant::now();
            let out = source.fetch_stamped(url, scheme);
            ctx.clock.add_us(t0.elapsed().as_micros() as u64);
            out
        }
        None => source.fetch_stamped(url, scheme),
    }
}

/// Display label of one operator node, shared (by convention) with the
/// per-node labels of `cost::Estimate` so EXPLAIN ANALYZE rows read the
/// same on both sides of the predicted/observed join.
fn op_label(expr: &NalgExpr) -> String {
    match expr {
        NalgExpr::External { name } => format!("external {name}"),
        NalgExpr::Entry { scheme, .. } => format!("entry {scheme}"),
        NalgExpr::Select { .. } => "σ".to_string(),
        NalgExpr::Project { .. } => "π".to_string(),
        NalgExpr::Join { .. } => "⋈".to_string(),
        NalgExpr::Unnest { attr, .. } => format!("µ {attr}"),
        NalgExpr::Follow { link, target, .. } => format!("–{link}→ {target}"),
    }
}

/// Applies a predicate to a columnar relation: each atom produces an index
/// vector over the current batch, gathered with one `take` per conjunct.
/// Constant equality treats `Null = Null` as true; attribute equality
/// never matches a null.
fn apply_pred(rel: &ColumnRel, pred: &Pred) -> Result<ColumnRel> {
    match pred {
        Pred::Eq(attr, value) => {
            let i = rel.resolve(attr)?;
            Ok(rel.take(&rel.select_eq_const(i, value)))
        }
        Pred::EqAttr(a, b) => {
            let i = rel.resolve(a)?;
            let j = rel.resolve(b)?;
            Ok(rel.take(&rel.select_eq_cols(i, j)))
        }
        Pred::And(ps) => {
            let mut cur = rel.clone();
            for p in ps {
                cur = apply_pred(&cur, p)?;
            }
            Ok(cur)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Pred;
    use adm::{Field, PageScheme};

    /// An in-memory page source over explicit tuples.
    struct MapSource {
        pages: HashMap<Url, Tuple>,
    }

    impl PageSource for MapSource {
        fn fetch(&self, url: &Url, _scheme: &str) -> std::result::Result<Tuple, SourceError> {
            self.pages
                .get(url)
                .cloned()
                .ok_or_else(|| SourceError::NotFound(url.clone()))
        }
    }

    fn scheme() -> WebScheme {
        let list = PageScheme::new(
            "ListPage",
            vec![Field::list(
                "Items",
                vec![Field::text("Name"), Field::link("ToItem", "ItemPage")],
            )],
        )
        .unwrap();
        let item =
            PageScheme::new("ItemPage", vec![Field::text("Name"), Field::text("Kind")]).unwrap();
        WebScheme::builder()
            .scheme(list)
            .scheme(item)
            .entry_point("ListPage", "/list.html")
            .build()
            .unwrap()
    }

    fn source() -> MapSource {
        let mut pages = HashMap::new();
        pages.insert(
            Url::new("/list.html"),
            Tuple::new().with_list(
                "Items",
                vec![
                    Tuple::new()
                        .with("Name", "a")
                        .with("ToItem", Value::link("/i/a")),
                    Tuple::new()
                        .with("Name", "b")
                        .with("ToItem", Value::link("/i/b")),
                    Tuple::new()
                        .with("Name", "c")
                        .with("ToItem", Value::link("/i/c")),
                ],
            ),
        );
        for (n, k) in [("a", "x"), ("b", "y"), ("c", "x")] {
            pages.insert(
                Url::new(format!("/i/{n}")),
                Tuple::new().with("Name", n).with("Kind", k),
            );
        }
        MapSource { pages }
    }

    fn nav() -> NalgExpr {
        NalgExpr::entry("ListPage")
            .unnest("Items")
            .follow("ToItem", "ItemPage")
    }

    #[test]
    fn full_navigation() {
        let ws = scheme();
        let src = source();
        let report = Evaluator::new(&ws, &src).eval(&nav()).unwrap();
        assert_eq!(report.relation.len(), 3);
        assert_eq!(report.page_accesses, 4); // entry + 3 items
        assert_eq!(report.cost_model_accesses(), 4);
        assert_eq!(report.broken_links, 0);
    }

    #[test]
    fn selection_and_projection() {
        let ws = scheme();
        let src = source();
        let e = nav()
            .select(Pred::eq("Kind", "x"))
            .project(vec!["ItemPage.Name"]);
        let report = Evaluator::new(&ws, &src).eval(&e).unwrap();
        assert_eq!(report.relation.len(), 2);
        let names: Vec<String> = report
            .relation
            .rows()
            .iter()
            .map(|r| r[0].as_text().unwrap().to_string())
            .collect();
        assert!(names.contains(&"a".to_string()));
        assert!(names.contains(&"c".to_string()));
    }

    #[test]
    fn selection_before_follow_reduces_accesses() {
        let ws = scheme();
        let src = source();
        let e = NalgExpr::entry("ListPage")
            .unnest("Items")
            .select(Pred::eq("Name", "b"))
            .follow("ToItem", "ItemPage");
        let report = Evaluator::new(&ws, &src).eval(&e).unwrap();
        assert_eq!(report.relation.len(), 1);
        assert_eq!(report.page_accesses, 2); // entry + 1 item
    }

    #[test]
    fn join_on_pointer_sets() {
        let ws = scheme();
        let src = source();
        // Join the unnested list with itself through two aliases via a
        // second entry alias, on the link column.
        let left = NalgExpr::entry("ListPage").unnest("Items");
        let right = NalgExpr::entry_as("ListPage", "L2").unnest("Items");
        let e = left
            .join(right, vec![("ListPage.Items.ToItem", "L2.Items.ToItem")])
            .follow("ListPage.Items.ToItem", "ItemPage");
        let report = Evaluator::new(&ws, &src).eval(&e).unwrap();
        assert_eq!(report.relation.len(), 3);
        // entry fetched once thanks to the cache (two aliases, same URL)
        assert_eq!(report.page_accesses, 4);
        assert_eq!(report.cache_hits, 1);
        // the cost model counts both entry accesses
        assert_eq!(report.cost_model_accesses(), 5);
    }

    #[test]
    fn broken_links_are_skipped_and_counted() {
        let ws = scheme();
        let mut src = source();
        src.pages.remove(&Url::new("/i/b"));
        let report = Evaluator::new(&ws, &src).eval(&nav()).unwrap();
        assert_eq!(report.relation.len(), 2);
        assert_eq!(report.broken_links, 1);
    }

    #[test]
    fn external_leaf_not_computable() {
        let ws = scheme();
        let src = source();
        let e = NalgExpr::external("R");
        assert!(matches!(
            Evaluator::new(&ws, &src).eval(&e),
            Err(EvalError::NotComputable(_))
        ));
    }

    #[test]
    fn entry_must_be_declared() {
        let ws = scheme();
        let src = source();
        let e = NalgExpr::entry("ItemPage"); // not an entry point
        assert!(matches!(
            Evaluator::new(&ws, &src).eval(&e),
            Err(EvalError::NotComputable(_))
        ));
    }

    #[test]
    fn eq_attr_predicate() {
        let ws = scheme();
        let src = source();
        // Items whose anchor equals the item page's name (all of them).
        let e = nav().select(Pred::EqAttr(
            "ListPage.Items.Name".into(),
            "ItemPage.Name".into(),
        ));
        let report = Evaluator::new(&ws, &src).eval(&e).unwrap();
        assert_eq!(report.relation.len(), 3);
    }

    #[test]
    fn per_operator_accounting() {
        let ws = scheme();
        let src = source();
        let report = Evaluator::new(&ws, &src).eval(&nav()).unwrap();
        assert_eq!(
            report.accesses_by_operator,
            vec![
                ("entry ListPage".to_string(), 1),
                ("–ToItem→ ItemPage".to_string(), 3),
            ]
        );
    }

    #[test]
    fn concurrent_fetch_equals_sequential() {
        let ws = scheme();
        let src = source();
        let seq = Evaluator::new(&ws, &src).eval(&nav()).unwrap();
        for workers in [1, 2, 8] {
            let par = Evaluator::new(&ws, &src)
                .with_options(ExecOptions {
                    workers,
                    ..ExecOptions::default()
                })
                .eval(&nav())
                .unwrap();
            assert_eq!(par.relation.sorted(), seq.relation.sorted());
            assert_eq!(par.page_accesses, seq.page_accesses);
            assert_eq!(par.accesses_by_operator, seq.accesses_by_operator);
        }
    }

    #[test]
    fn concurrent_fetch_skips_broken_links() {
        let ws = scheme();
        let mut src = source();
        src.pages.remove(&Url::new("/i/b"));
        let report = Evaluator::new(&ws, &src)
            .with_options(ExecOptions {
                workers: 4,
                ..ExecOptions::default()
            })
            .eval(&nav())
            .unwrap();
        assert_eq!(report.relation.len(), 2);
        assert_eq!(report.broken_links, 1);
    }

    #[test]
    fn shared_cache_serves_second_query_without_accesses() {
        let ws = scheme();
        let src = source();
        let shared = crate::cache::SharedPageCache::default();
        let cold = Evaluator::new(&ws, &src)
            .with_shared_cache(&shared)
            .eval(&nav())
            .unwrap();
        assert_eq!(cold.page_accesses, 4);
        assert_eq!(cold.shared_cache_hits, 0);
        let warm = Evaluator::new(&ws, &src)
            .with_shared_cache(&shared)
            .eval(&nav())
            .unwrap();
        assert_eq!(warm.page_accesses, 0);
        assert_eq!(warm.shared_cache_hits, 4);
        assert_eq!(warm.relation.sorted(), cold.relation.sorted());
        // The paper's cost measure is unaffected by the shared cache.
        assert_eq!(warm.cost_model_accesses(), cold.cost_model_accesses());
    }

    #[test]
    fn shared_cache_with_concurrent_fetch_equals_sequential() {
        let ws = scheme();
        let src = source();
        let baseline = Evaluator::new(&ws, &src).eval(&nav()).unwrap();
        let shared = crate::cache::SharedPageCache::default();
        let cold = Evaluator::new(&ws, &src)
            .with_shared_cache(&shared)
            .with_options(ExecOptions {
                workers: 8,
                ..ExecOptions::default()
            })
            .eval(&nav())
            .unwrap();
        assert_eq!(cold.relation.sorted(), baseline.relation.sorted());
        assert_eq!(cold.page_accesses, baseline.page_accesses);
        let warm = Evaluator::new(&ws, &src)
            .with_shared_cache(&shared)
            .with_options(ExecOptions {
                workers: 8,
                ..ExecOptions::default()
            })
            .eval(&nav())
            .unwrap();
        assert_eq!(warm.relation.sorted(), baseline.relation.sorted());
        assert_eq!(warm.page_accesses, 0);
        assert_eq!(warm.shared_cache_hits, 4);
        assert_eq!(warm.accesses_by_operator, baseline.accesses_by_operator);
    }

    #[test]
    fn follow_with_no_links_yields_empty_relation_with_header() {
        let ws = scheme();
        let mut pages = HashMap::new();
        pages.insert(
            Url::new("/list.html"),
            Tuple::new().with_list("Items", vec![]),
        );
        let src = MapSource { pages };
        let report = Evaluator::new(&ws, &src).eval(&nav()).unwrap();
        assert!(report.relation.is_empty());
        assert!(report
            .relation
            .columns()
            .contains(&"ItemPage.Kind".to_string()));
    }

    /// A source where named URLs fail with a given error.
    struct FailingSource {
        inner: MapSource,
        fail: HashMap<Url, SourceError>,
    }

    impl PageSource for FailingSource {
        fn fetch(&self, url: &Url, scheme: &str) -> std::result::Result<Tuple, SourceError> {
            if let Some(e) = self.fail.get(url) {
                return Err(e.clone());
            }
            self.inner.fetch(url, scheme)
        }
    }

    fn failing(urls: &[(&str, SourceError)]) -> FailingSource {
        FailingSource {
            inner: source(),
            fail: urls
                .iter()
                .map(|(u, e)| (Url::new(*u), e.clone()))
                .collect(),
        }
    }

    #[test]
    fn fail_fast_aborts_on_transient_error() {
        let ws = scheme();
        let src = failing(&[("/i/b", SourceError::Timeout(Url::new("/i/b")))]);
        let err = Evaluator::new(&ws, &src).eval(&nav()).unwrap_err();
        assert!(matches!(err, EvalError::Source(_)));
    }

    #[test]
    fn partial_mode_skips_failed_pages_and_reports_them() {
        let ws = scheme();
        let src = failing(&[
            ("/i/b", SourceError::Timeout(Url::new("/i/b"))),
            (
                "/i/c",
                SourceError::Unavailable {
                    url: Url::new("/i/c"),
                    reason: "503".into(),
                },
            ),
        ]);
        let report = Evaluator::new(&ws, &src)
            .with_options(ExecOptions {
                degradation: DegradationMode::Partial,
                ..ExecOptions::default()
            })
            .eval(&nav())
            .unwrap();
        assert_eq!(report.relation.len(), 1);
        assert!(!report.is_complete());
        assert_eq!(report.unreachable, vec![Url::new("/i/b"), Url::new("/i/c")]);
        // Failed fetches are not downloads.
        assert_eq!(report.page_accesses, 2); // entry + /i/a
                                             // The cost model still charges the *attempted* distinct links.
        assert_eq!(report.cost_model_accesses(), 4);
    }

    #[test]
    fn partial_mode_records_broken_links_as_unreachable() {
        let ws = scheme();
        let mut src = source();
        src.pages.remove(&Url::new("/i/b"));
        let report = Evaluator::new(&ws, &src)
            .with_options(ExecOptions {
                degradation: DegradationMode::Partial,
                ..ExecOptions::default()
            })
            .eval(&nav())
            .unwrap();
        assert_eq!(report.relation.len(), 2);
        assert_eq!(report.broken_links, 1);
        assert_eq!(report.unreachable, vec![Url::new("/i/b")]);
    }

    #[test]
    fn partial_mode_degrades_missing_entry_point_to_empty_relation() {
        let ws = scheme();
        let src = failing(&[(
            "/list.html",
            SourceError::Unavailable {
                url: Url::new("/list.html"),
                reason: "503".into(),
            },
        )]);
        let report = Evaluator::new(&ws, &src)
            .with_options(ExecOptions {
                degradation: DegradationMode::Partial,
                ..ExecOptions::default()
            })
            .eval(&nav())
            .unwrap();
        assert!(report.relation.is_empty());
        assert!(!report.is_complete());
        assert_eq!(report.unreachable, vec![Url::new("/list.html")]);
        assert_eq!(report.page_accesses, 0);
    }

    #[test]
    fn complete_run_reports_no_unreachable() {
        let ws = scheme();
        let src = source();
        for mode in [DegradationMode::FailFast, DegradationMode::Partial] {
            let report = Evaluator::new(&ws, &src)
                .with_options(ExecOptions {
                    degradation: mode,
                    ..ExecOptions::default()
                })
                .eval(&nav())
                .unwrap();
            assert!(report.is_complete());
            assert!(report.unreachable.is_empty());
        }
    }

    #[test]
    fn partial_mode_with_pool_matches_sequential() {
        let ws = scheme();
        let src = failing(&[("/i/b", SourceError::Timeout(Url::new("/i/b")))]);
        let seq = Evaluator::new(&ws, &src)
            .with_options(ExecOptions {
                degradation: DegradationMode::Partial,
                ..ExecOptions::default()
            })
            .eval(&nav())
            .unwrap();
        let par = Evaluator::new(&ws, &src)
            .with_options(ExecOptions {
                degradation: DegradationMode::Partial,
                workers: 4,
                ..ExecOptions::default()
            })
            .eval(&nav())
            .unwrap();
        assert_eq!(par.relation.sorted(), seq.relation.sorted());
        assert_eq!(par.unreachable, seq.unreachable);
        assert_eq!(par.page_accesses, seq.page_accesses);
    }

    fn audit_cfg(rate: f64) -> AuditConfig {
        use adm::AttrRef;
        AuditConfig {
            rate,
            seed: 7,
            link: vec![LinkConstraint::new(
                AttrRef::new("ListPage", vec!["Items", "ToItem"]),
                AttrRef::new("ListPage", vec!["Items", "Name"]),
                AttrRef::new("ItemPage", vec!["Name"]),
            )],
            inclusion: vec![],
        }
    }

    #[test]
    fn audit_is_pure_observation() {
        let ws = scheme();
        let src = source();
        let plain = Evaluator::new(&ws, &src).eval(&nav()).unwrap();
        let audited = Evaluator::new(&ws, &src)
            .with_options(ExecOptions {
                audit: Some(audit_cfg(1.0)),
                ..ExecOptions::default()
            })
            .eval(&nav())
            .unwrap();
        // Everything the paper measures is byte-identical; only the audit
        // field differs.
        assert_eq!(audited.relation, plain.relation);
        assert_eq!(audited.page_accesses, plain.page_accesses);
        assert_eq!(audited.cache_hits, plain.cache_hits);
        assert_eq!(audited.accesses_by_operator, plain.accesses_by_operator);
        let audit = audited.audit.unwrap();
        assert_eq!(audit.checks(), 3, "all three anchors checked at rate 1");
        assert!(audit.is_clean());
        assert_eq!(audit.sampled_pages, 4);
    }

    #[test]
    fn audit_detects_replica_drift_without_fetching() {
        let ws = scheme();
        let mut src = source();
        // The item page's Name drifts away from the anchors pointing at it.
        src.pages.insert(
            Url::new("/i/b"),
            Tuple::new().with("Name", "b [drift]").with("Kind", "y"),
        );
        let report = Evaluator::new(&ws, &src)
            .with_options(ExecOptions {
                audit: Some(audit_cfg(1.0)),
                ..ExecOptions::default()
            })
            .eval(&nav())
            .unwrap();
        assert_eq!(report.page_accesses, 4, "auditing never fetches");
        let audit = report.audit.unwrap();
        assert_eq!(audit.violation_count(), 1);
        assert!(audit.constraints[0].violations[0].contains("/i/b"));
    }

    #[test]
    fn zero_rate_audit_is_disabled() {
        let ws = scheme();
        let src = source();
        let report = Evaluator::new(&ws, &src)
            .with_options(ExecOptions {
                audit: Some(audit_cfg(0.0)),
                ..ExecOptions::default()
            })
            .eval(&nav())
            .unwrap();
        assert!(report.audit.is_none());
    }

    #[test]
    fn pooled_audit_matches_sequential() {
        let ws = scheme();
        let src = source();
        let seq = Evaluator::new(&ws, &src)
            .with_options(ExecOptions {
                audit: Some(audit_cfg(0.6)),
                ..ExecOptions::default()
            })
            .eval(&nav())
            .unwrap();
        for workers in [2, 8] {
            let par = Evaluator::new(&ws, &src)
                .with_options(ExecOptions {
                    audit: Some(audit_cfg(0.6)),
                    workers,
                    ..ExecOptions::default()
                })
                .eval(&nav())
                .unwrap();
            assert_eq!(par.audit, seq.audit, "sampling is order-independent");
        }
    }

    /// A source that panics on one URL.
    struct PanickingSource {
        inner: MapSource,
    }

    impl PageSource for PanickingSource {
        fn fetch(&self, url: &Url, scheme: &str) -> std::result::Result<Tuple, SourceError> {
            if url.as_str() == "/i/b" {
                panic!("source blew up");
            }
            self.inner.fetch(url, scheme)
        }
    }

    #[test]
    fn pooled_eval_survives_panicking_source() {
        let ws = scheme();
        let src = PanickingSource { inner: source() };
        // FailFast: the panic surfaces as a source error, not a process
        // abort (the scope join would otherwise re-raise it).
        let err = Evaluator::new(&ws, &src)
            .with_options(ExecOptions {
                workers: 3,
                ..ExecOptions::default()
            })
            .eval(&nav())
            .unwrap_err();
        match err {
            EvalError::Source(m) => assert!(m.contains("fetch worker panicked"), "got: {m}"),
            other => panic!("unexpected error: {other:?}"),
        }
        // Partial: the poisoned page is skipped like any other failure.
        let report = Evaluator::new(&ws, &src)
            .with_options(ExecOptions {
                workers: 3,
                degradation: DegradationMode::Partial,
                ..ExecOptions::default()
            })
            .eval(&nav())
            .unwrap();
        assert_eq!(report.relation.len(), 2);
        assert_eq!(report.unreachable, vec![Url::new("/i/b")]);
    }

    /// A source that sleeps before serving named URLs. With `slow_once`
    /// only the first attempt per URL sleeps, so a hedged backup fetch
    /// can win deterministically.
    struct SlowSource {
        inner: MapSource,
        slow: HashMap<Url, std::time::Duration>,
        slow_once: bool,
        attempts: std::sync::Mutex<HashMap<Url, u32>>,
    }

    fn slow(urls: &[&str], ms: u64, slow_once: bool) -> SlowSource {
        SlowSource {
            inner: source(),
            slow: urls
                .iter()
                .map(|u| (Url::new(*u), std::time::Duration::from_millis(ms)))
                .collect(),
            slow_once,
            attempts: std::sync::Mutex::new(HashMap::new()),
        }
    }

    impl PageSource for SlowSource {
        fn fetch(&self, url: &Url, scheme: &str) -> std::result::Result<Tuple, SourceError> {
            if let Some(d) = self.slow.get(url) {
                let n = {
                    let mut a = self.attempts.lock().unwrap();
                    let e = a.entry(url.clone()).or_insert(0);
                    *e += 1;
                    *e
                };
                if !self.slow_once || n == 1 {
                    // Quantized, abandonable sleep — mirrors websim's
                    // simulated waits: a requester whose ambient deadline
                    // fired stops waiting out the tail.
                    let t0 = std::time::Instant::now();
                    while t0.elapsed() < *d {
                        if obs::reqctx::current().is_some_and(|c| c.deadline.expired()) {
                            break;
                        }
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                }
            }
            self.inner.fetch(url, scheme)
        }
    }

    #[test]
    fn expired_deadline_fails_over_to_partial_even_under_fail_fast() {
        let ws = scheme();
        let src = source();
        let report = Evaluator::new(&ws, &src)
            .with_options(ExecOptions {
                deadline: obs::Deadline::after_us(0),
                ..ExecOptions::default()
            })
            .eval(&nav())
            .unwrap();
        assert!(report.deadline_exceeded);
        assert!(report.relation.is_empty());
        assert_eq!(report.unreachable, vec![Url::new("/list.html")]);
        assert_eq!(report.page_accesses, 0, "nothing fetched past the budget");
    }

    /// A source that answers `url` with `Cancelled` only after `delay` —
    /// how a websim wait severed by an expired ambient deadline looks to
    /// the evaluator.
    struct CancellingSource {
        inner: MapSource,
        url: Url,
        delay: std::time::Duration,
    }

    impl PageSource for CancellingSource {
        fn fetch(&self, url: &Url, scheme: &str) -> std::result::Result<Tuple, SourceError> {
            if *url == self.url {
                std::thread::sleep(self.delay);
                return Err(SourceError::Cancelled(url.clone()));
            }
            self.inner.fetch(url, scheme)
        }
    }

    #[test]
    fn cancelled_fetch_past_the_deadline_is_a_brown_out_in_every_mode() {
        let ws = scheme();
        for url in ["/list.html", "/i/b"] {
            for mode in [DegradationMode::FailFast, DegradationMode::Partial] {
                let src = CancellingSource {
                    inner: source(),
                    url: Url::new(url),
                    delay: std::time::Duration::from_millis(40),
                };
                let report = Evaluator::new(&ws, &src)
                    .with_options(ExecOptions {
                        degradation: mode,
                        deadline: obs::Deadline::after_us(20_000),
                        ..ExecOptions::default()
                    })
                    .eval(&nav())
                    .unwrap();
                assert!(report.deadline_exceeded, "{url} under {mode:?}");
                assert!(report.unreachable.contains(&Url::new(url)));
            }
        }
    }

    #[test]
    fn deadline_mid_query_browns_out_with_exact_pending_set() {
        let ws = scheme();
        let src = slow(&["/i/a", "/i/b", "/i/c"], 20, false);
        let report = Evaluator::new(&ws, &src)
            .with_options(ExecOptions {
                degradation: DegradationMode::Partial,
                deadline: obs::Deadline::after_us(10_000),
                ..ExecOptions::default()
            })
            .eval(&nav())
            .unwrap();
        assert!(report.deadline_exceeded);
        assert!(!report.is_complete());
        // Every link is either delivered or reported — never silently lost.
        assert_eq!(report.relation.len() + report.unreachable.len(), 3);
        assert!(!report.unreachable.is_empty());
        // The cost model still charges the attempted distinct links.
        assert_eq!(report.cost_model_accesses(), 4);
    }

    #[test]
    fn pooled_deadline_abort_cancels_pending_and_reports_them() {
        let ws = scheme();
        let src = slow(&["/i/a", "/i/b", "/i/c"], 50, false);
        let token = obs::CancelToken::new();
        let report = Evaluator::new(&ws, &src)
            .with_options(ExecOptions {
                workers: 1,
                degradation: DegradationMode::Partial,
                deadline: obs::Deadline::after_us(10_000),
                cancel: Some(token.clone()),
                ..ExecOptions::default()
            })
            .eval(&nav())
            .unwrap();
        assert!(report.deadline_exceeded);
        assert_eq!(report.relation.len() + report.unreachable.len(), 3);
        assert!(report.unreachable.len() >= 2);
        // Still-queued jobs were cancelled through the token so pool
        // workers skip them pre-dispatch.
        assert!(token.cancelled_url_count() >= 2);
    }

    #[test]
    fn relevance_cancels_provably_dead_urls() {
        let ws = scheme();
        let src = source();
        let e = nav().select(Pred::eq("Items.Name", "b"));
        let plain = Evaluator::new(&ws, &src).eval(&e).unwrap();
        for workers in [0, 2] {
            let report = Evaluator::new(&ws, &src)
                .with_options(ExecOptions {
                    workers,
                    relevance: true,
                    ..ExecOptions::default()
                })
                .eval(&e)
                .unwrap();
            // Same rows, fewer downloads: /i/a and /i/c can never join
            // into an output tuple once σ[Items.Name='b'] is residual.
            assert_eq!(report.relation.sorted(), plain.relation.sorted());
            assert_eq!(report.page_accesses, 2, "entry + /i/b only");
            assert_eq!(report.cancelled, vec![Url::new("/i/a"), Url::new("/i/c")]);
            // Cancelled-as-irrelevant is not missing data.
            assert!(report.unreachable.is_empty());
            assert!(report.is_complete());
            // The cost model is untouched by relevance pruning.
            assert_eq!(report.cost_model_accesses(), plain.cost_model_accesses());
        }
    }

    #[test]
    fn relevance_never_prunes_on_page_side_predicates() {
        let ws = scheme();
        let src = source();
        // σ binds to a *page-side* column: nothing is provably dead
        // before the fetch, so every page is still downloaded.
        let e = nav().select(Pred::eq("ItemPage.Kind", "x"));
        let report = Evaluator::new(&ws, &src)
            .with_options(ExecOptions {
                relevance: true,
                ..ExecOptions::default()
            })
            .eval(&e)
            .unwrap();
        assert_eq!(report.relation.len(), 2);
        assert_eq!(report.page_accesses, 4);
        assert!(report.cancelled.is_empty());
    }

    #[test]
    fn relevance_prunes_join_keys_via_semijoin_residual() {
        let ws = scheme();
        let src = source();
        // Left side keeps only row "b"; joining on the link column makes
        // the right-side follow relevant for /i/b alone.
        let left = NalgExpr::entry("ListPage")
            .unnest("Items")
            .select(Pred::eq("Name", "b"));
        let right = NalgExpr::entry_as("ListPage", "L2")
            .unnest("Items")
            .follow("ToItem", "ItemPage");
        let e = left.join(right, vec![("ListPage.Items.ToItem", "L2.Items.ToItem")]);
        let plain = Evaluator::new(&ws, &src).eval(&e).unwrap();
        let report = Evaluator::new(&ws, &src)
            .with_options(ExecOptions {
                relevance: true,
                ..ExecOptions::default()
            })
            .eval(&e)
            .unwrap();
        assert_eq!(report.relation.sorted(), plain.relation.sorted());
        assert_eq!(plain.page_accesses, 4, "entry + all three items");
        assert_eq!(report.page_accesses, 2, "entry + /i/b only");
        assert_eq!(report.cancelled, vec![Url::new("/i/a"), Url::new("/i/c")]);
    }

    #[test]
    fn hedged_fetch_wins_without_touching_page_accesses() {
        let ws = scheme();
        // First attempt on /i/b hangs 50ms; the hedge launched after 1ms
        // is served immediately and wins.
        let src = slow(&["/i/b"], 50, true);
        let cfg = crate::fetch::HedgeConfig::new(1_000);
        let (hedges, wins) = (cfg.hedges.clone(), cfg.hedge_wins.clone());
        let report = Evaluator::new(&ws, &src)
            .with_options(ExecOptions {
                workers: 2,
                hedge: Some(cfg),
                ..ExecOptions::default()
            })
            .eval(&nav())
            .unwrap();
        assert_eq!(report.relation.len(), 3);
        assert!(report.is_complete());
        assert_eq!(hedges.get(), 1);
        assert_eq!(wins.get(), 1);
        // The paper's counters never see the backup fetch.
        assert_eq!(report.page_accesses, 4);
        assert_eq!(report.cost_model_accesses(), 4);
    }

    #[test]
    fn infinite_deadline_and_token_change_nothing() {
        let ws = scheme();
        let src = source();
        let e = nav().select(Pred::eq("Kind", "x"));
        let plain = Evaluator::new(&ws, &src).eval(&e).unwrap();
        for workers in [0, 3] {
            let report = Evaluator::new(&ws, &src)
                .with_options(ExecOptions {
                    workers,
                    deadline: obs::Deadline::infinite(),
                    cancel: Some(obs::CancelToken::new()),
                    ..ExecOptions::default()
                })
                .eval(&e)
                .unwrap();
            assert_eq!(report.relation.sorted(), plain.relation.sorted());
            assert_eq!(report.page_accesses, plain.page_accesses);
            assert_eq!(report.cache_hits, plain.cache_hits);
            assert_eq!(report.accesses_by_operator, plain.accesses_by_operator);
            assert!(!report.deadline_exceeded);
            assert!(report.cancelled.is_empty());
        }
    }

    #[test]
    fn pooled_entry_fetch_respects_the_deadline() {
        let ws = scheme();
        // The entry GET itself is the laggard: 50ms against a 5ms budget.
        let src = slow(&["/list.html"], 50, false);
        let deadline = obs::Deadline::after_us(5_000);
        // The ambient context carries the same deadline the evaluator
        // enforces — exactly how the serving layer installs it — so the
        // in-flight simulated wait is severed when the budget fires.
        let ctx = obs::reqctx::RequestCtx {
            sink: obs::trace::TraceSink::with_seed(0),
            parent: 0,
            request_id: 0,
            clock: obs::reqctx::FetchClock::new(),
            deadline,
            cancel: None,
        };
        let t0 = std::time::Instant::now();
        let report = obs::reqctx::with_ctx(Some(ctx), || {
            Evaluator::new(&ws, &src)
                .with_options(ExecOptions {
                    workers: 2,
                    deadline,
                    ..ExecOptions::default()
                })
                .eval(&nav())
        })
        .unwrap();
        assert!(report.deadline_exceeded);
        assert_eq!(report.relation.len(), 0);
        assert!(report.unreachable.contains(&Url::new("/list.html")));
        assert!(
            t0.elapsed() < std::time::Duration::from_millis(45),
            "an in-flight entry tail must not block the session past the budget"
        );
    }

    #[test]
    fn entry_fetch_is_hedged_too() {
        let ws = scheme();
        // First attempt on the entry page hangs 50ms; the backup launched
        // after 1ms is served immediately and wins.
        let src = slow(&["/list.html"], 50, true);
        let cfg = crate::fetch::HedgeConfig::new(1_000);
        let (hedges, wins) = (cfg.hedges.clone(), cfg.hedge_wins.clone());
        let report = Evaluator::new(&ws, &src)
            .with_options(ExecOptions {
                workers: 2,
                hedge: Some(cfg),
                ..ExecOptions::default()
            })
            .eval(&nav())
            .unwrap();
        assert_eq!(report.relation.len(), 3);
        assert!(report.is_complete());
        assert!(hedges.get() >= 1);
        assert!(wins.get() >= 1);
        assert_eq!(report.page_accesses, 4, "the backup GET is never charged");
    }
}
