//! Algorithm 1: navigation plan selection (Section 6.3).
//!
//! ```text
//! Step 1   translate the conjunctive query into algebra over externals
//! Step 2   replace externals by default navigations in all ways  (rule 1)
//! Step 3   eliminate repeated navigations                        (rule 4)
//! Step 4   push and prune joins                                  (rules 8, 9)
//! Step 5   push selections                                       (rule 6)
//! Step 6   push projections                                      (rule 7)
//! Step 7   eliminate unnecessary navigations                     (rules 3, 5)
//! Step 8   cost every candidate, return the cheapest
//! ```
//!
//! Steps 2 and 4 branch (several candidates); steps 3 and 5–7 are
//! normalizations applied to every candidate. A [`RuleMask`] can disable
//! individual stages — this powers the ablation experiments.

use crate::cost::{estimate, Cost, Estimate};
use crate::query::ConjunctiveQuery;
use crate::registry::{rules_for_phase, RewritePhase, RewriteRule, RuleOutcome, CANDIDATE_PHASES};
use crate::rules::{
    join_rewrite_candidates_tracked, qualify_expr, rename_alias, validate, ConstraintDependency,
};
use crate::stats::SiteStatistics;
use crate::views::{DefaultNavigation, ViewCatalog};
use crate::{OptError, Result};
use adm::WebScheme;
use nalg::{NalgExpr, Pred};
use obs::trace::{EventKind, FieldValue, TraceSink};
use resilience::ConstraintHealth;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt::Write as _;
use std::rc::Rc;

/// Enables/disables individual rewrite stages (for ablation studies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleMask {
    /// Rule 4 — repeated-navigation elimination.
    pub merge_repeated: bool,
    /// Rule 8 — pointer join.
    pub pointer_join: bool,
    /// Rule 9 — pointer chase.
    pub pointer_chase: bool,
    /// Rule 6 — selection pushing.
    pub push_selections: bool,
    /// Rules 3, 5, 7 — projection pushing and navigation pruning.
    pub prune_navigations: bool,
}

impl Default for RuleMask {
    fn default() -> Self {
        RuleMask::all()
    }
}

impl RuleMask {
    /// Everything on (the full Algorithm 1).
    pub fn all() -> Self {
        RuleMask {
            merge_repeated: true,
            pointer_join: true,
            pointer_chase: true,
            push_selections: true,
            prune_navigations: true,
        }
    }

    /// Everything off: plans are naive default-navigation joins.
    pub fn none() -> Self {
        RuleMask {
            merge_repeated: false,
            pointer_join: false,
            pointer_chase: false,
            push_selections: false,
            prune_navigations: false,
        }
    }

    /// Disables rule 8.
    pub fn without_pointer_join(mut self) -> Self {
        self.pointer_join = false;
        self
    }

    /// Disables rule 9.
    pub fn without_pointer_chase(mut self) -> Self {
        self.pointer_chase = false;
        self
    }

    /// Disables rule 6.
    pub fn without_selection_pushing(mut self) -> Self {
        self.push_selections = false;
        self
    }

    /// Disables rules 3/5/7.
    pub fn without_pruning(mut self) -> Self {
        self.prune_navigations = false;
        self
    }
}

/// A costed candidate plan.
#[derive(Debug, Clone)]
pub struct CandidatePlan {
    /// The (validated, computable) plan.
    pub expr: NalgExpr,
    /// Its cost estimate.
    pub estimate: Estimate,
    /// Provenance: every link/inclusion constraint some rewrite along the
    /// way assumed. A plan with an empty set is constraint-free — its
    /// correctness does not depend on the site honouring the scheme's
    /// declared constraints. Sorted and deduplicated.
    pub dependencies: Vec<ConstraintDependency>,
}

/// The optimizer's full output: every surviving candidate, cheapest first.
#[derive(Debug, Clone)]
pub struct Explain {
    /// The query's display form.
    pub query: String,
    /// Candidates, cheapest first. Never empty.
    pub candidates: Vec<CandidatePlan>,
    /// Constraint keys that were quarantined (and thus barred from
    /// licensing rewrites) when this plan set was produced.
    pub quarantined: Vec<String>,
}

impl Explain {
    /// The selected (cheapest) plan.
    pub fn best(&self) -> &CandidatePlan {
        &self.candidates[0]
    }

    /// A multi-line report: the query, then each candidate with its
    /// estimated cost and plan tree (paper Figures 3–4 style).
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "query: {}", self.query);
        let _ = writeln!(out, "{} candidate plan(s):", self.candidates.len());
        for (i, c) in self.candidates.iter().enumerate() {
            let marker = if i == 0 { "★" } else { " " };
            let _ = writeln!(
                out,
                "{marker} plan {i}: est. cost {} (card {:.1})",
                c.estimate.cost, c.estimate.card
            );
            for d in &c.dependencies {
                let _ = writeln!(out, "    assumes {d}");
            }
            for line in nalg::display::tree(&c.expr).lines() {
                let _ = writeln!(out, "    {line}");
            }
        }
        if !self.quarantined.is_empty() {
            let _ = writeln!(out, "quarantined (excluded from rewrites):");
            for k in &self.quarantined {
                let _ = writeln!(out, "  ✗ {k}");
            }
        }
        out
    }
}

/// A traced `optimize` call's sink, with the cost of every expression its
/// rule events have reported so far: each expression is estimated once per
/// call, and the memo goes when the call returns.
struct Tracer<'s> {
    sink: &'s TraceSink,
    costs: HashMap<NalgExpr, Option<Cost>>,
}

impl Tracer<'_> {
    /// The estimated cost of `e`, or `None` if the estimator rejects it.
    fn cost(&mut self, e: &NalgExpr, ws: &WebScheme, stats: &SiteStatistics) -> Option<Cost> {
        if let Some(&cost) = self.costs.get(e) {
            return cost;
        }
        let cost = estimate(e, ws, stats).ok().map(|est| est.cost);
        self.costs.insert(e.clone(), cost);
        cost
    }
}

/// The plan selector.
pub struct Optimizer<'a> {
    ws: &'a WebScheme,
    catalog: &'a ViewCatalog,
    stats: &'a SiteStatistics,
    /// Stage mask (ablations).
    pub mask: RuleMask,
    /// Cap on the candidate pool during rule-8/9 closure.
    pub max_candidates: usize,
    /// Whether designer-declared *incomplete* navigations may be used
    /// (see [`crate::views`]); off by default.
    pub use_incomplete_navigations: bool,
    trace: Option<TraceSink>,
    trace_parent: Option<u64>,
    health: Option<&'a ConstraintHealth>,
}

impl<'a> Optimizer<'a> {
    /// Creates an optimizer over a scheme, view catalog, and statistics.
    pub fn new(ws: &'a WebScheme, catalog: &'a ViewCatalog, stats: &'a SiteStatistics) -> Self {
        Optimizer {
            ws,
            catalog,
            stats,
            mask: RuleMask::all(),
            max_candidates: 128,
            use_incomplete_navigations: false,
            trace: None,
            trace_parent: None,
            health: None,
        }
    }

    /// Consults a [`ConstraintHealth`] registry during rewriting: a
    /// quarantined constraint may not license rules 6–9, so the plans a
    /// drifted site has falsified are simply never generated. With a
    /// healthy (or absent) registry the output is unchanged.
    pub fn with_constraint_health(mut self, health: &'a ConstraintHealth) -> Self {
        self.health = Some(health);
        self
    }

    /// Sets the rule mask (builder style).
    pub fn with_mask(mut self, mask: RuleMask) -> Self {
        self.mask = mask;
        self
    }

    /// Attaches a trace sink: every rule application (rules 1–9) is
    /// recorded as an [`EventKind::Optimizer`] event carrying the
    /// estimated cost before and after the rewrite, and each `optimize`
    /// call ends with an `optimizer.summary` event reporting how many
    /// candidates each pruning stage dropped. Tracing never changes
    /// which plans are generated or how they are ranked.
    pub fn with_trace(mut self, sink: &TraceSink) -> Self {
        self.trace = Some(sink.clone());
        self
    }

    /// Parents every traced rule event (and the summary) under `parent`
    /// — the serving layer passes its request root span so rule 1–9
    /// planning shows up inside the request's causal tree. A no-op
    /// without a sink.
    pub fn with_trace_parent(mut self, parent: u64) -> Self {
        self.trace_parent = Some(parent);
        self
    }

    /// Records one rule application: the rule's name plus the cost
    /// estimate of the expression before (when there is one — rule 1
    /// conjures plans out of the query) and after the rewrite.
    /// Intermediate expressions that the estimator rejects simply omit
    /// the corresponding fields.
    fn rule_event(
        &self,
        tracer: &mut Tracer<'_>,
        rule: &str,
        before: Option<&NalgExpr>,
        after: &NalgExpr,
    ) {
        let mut fields: Vec<(String, FieldValue)> = Vec::new();
        if let Some(cost) = before.and_then(|b| tracer.cost(b, self.ws, self.stats)) {
            fields.push(("pages_before".to_string(), cost.pages.into()));
            fields.push(("bytes_before".to_string(), cost.bytes.into()));
        }
        if let Some(cost) = tracer.cost(after, self.ws, self.stats) {
            fields.push(("pages_after".to_string(), cost.pages.into()));
            fields.push(("bytes_after".to_string(), cost.bytes.into()));
        }
        tracer
            .sink
            .event(EventKind::Optimizer, rule, self.trace_parent, fields);
    }

    /// Runs the enabled rules of one phase on a candidate, in place, and
    /// collects the constraints they lean on; traces every rule that
    /// changed the candidate. `false` if a rule rejected it.
    fn run_phase(
        &self,
        phase: RewritePhase,
        cur: &mut NalgExpr,
        deps: &mut BTreeSet<ConstraintDependency>,
        gate: &dyn Fn(&ConstraintDependency) -> bool,
        mut tracer: Option<&mut Tracer<'_>>,
    ) -> bool {
        for &rule in rules_for_phase(phase) {
            if !rule.enabled(&self.mask) {
                continue;
            }
            let before = tracer.is_some().then(|| cur.clone());
            match rule.apply(cur, self.ws, self.stats, gate) {
                RuleOutcome::NotApplicable => {}
                RuleOutcome::Applied { used } => {
                    if let (Some(t), Some(before)) = (tracer.as_deref_mut(), &before) {
                        if cur != before {
                            self.rule_event(t, rule.trace_name(), Some(before), cur);
                        }
                    }
                    deps.extend(used);
                }
                RuleOutcome::Rejected => return false,
            }
        }
        true
    }

    /// Allows incomplete navigations (builder style).
    pub fn allow_incomplete_navigations(mut self) -> Self {
        self.use_incomplete_navigations = true;
        self
    }

    /// Runs Algorithm 1 on a conjunctive query.
    pub fn optimize(&self, q: &ConjunctiveQuery) -> Result<Explain> {
        q.validate(self.catalog)?;
        let mut tracer = self.trace.as_ref().map(|sink| Tracer {
            sink,
            costs: HashMap::new(),
        });
        // The constraint gate: a quarantined constraint may not license a
        // rewrite. Without a health registry the gate is always open.
        let health = self.health;
        let gate =
            move |d: &ConstraintDependency| health.is_none_or(|h| !h.is_quarantined(&d.key()));
        // Steps 1–2: seeds (rule 1, all combinations).
        let seeds = self.build_seeds(q)?;
        if let Some(t) = tracer.as_mut() {
            for s in &seeds {
                self.rule_event(t, RewriteRule::DefaultNavigation.trace_name(), None, s);
            }
        }
        let seed_count = seeds.len();
        // Step 3: normalization (rule 4, via the phase registry). Rule 4
        // never rejects, so every seed survives it.
        let seeds: Vec<NalgExpr> = seeds
            .into_iter()
            .filter_map(|mut s| {
                let mut unused = BTreeSet::new();
                self.run_phase(
                    RewritePhase::Normalize,
                    &mut s,
                    &mut unused,
                    &gate,
                    tracer.as_mut(),
                )
                .then_some(s)
            })
            .collect();
        // Step 4: closure under rules 8/9. Each pool entry carries the set
        // of constraints its rewrite chain has assumed so far (provenance).
        // The pool and the dedup set share each candidate, and the
        // worklist holds pool indices: no candidate is copied.
        let mut pool: Vec<(Rc<NalgExpr>, BTreeSet<ConstraintDependency>)> = Vec::new();
        let mut seen: HashSet<Rc<NalgExpr>> = HashSet::new();
        let mut worklist: Vec<usize> = Vec::new();
        let mut cap_hit = false;
        for s in seeds {
            let s = Rc::new(s);
            if seen.insert(Rc::clone(&s)) {
                worklist.push(pool.len());
                pool.push((s, BTreeSet::new()));
            }
        }
        while let Some(i) = worklist.pop() {
            if pool.len() >= self.max_candidates {
                cap_hit = true;
                break;
            }
            let rewrites = join_rewrite_candidates_tracked(
                &pool[i].0,
                self.ws,
                self.mask.pointer_join,
                self.mask.pointer_chase,
                &gate,
            );
            for (cand, used, rule) in rewrites {
                let cand = Rc::new(cand);
                if seen.insert(Rc::clone(&cand)) {
                    if let Some(t) = tracer.as_mut() {
                        self.rule_event(t, rule.trace_name(), Some(&pool[i].0), &cand);
                    }
                    let mut cand_deps = pool[i].1.clone();
                    cand_deps.extend(used);
                    worklist.push(pool.len());
                    pool.push((cand, cand_deps));
                }
            }
        }
        drop(seen);
        let pool_count = pool.len();
        // Steps 5–7: per-candidate normalization, then validation.
        let mut finals: Vec<(Rc<NalgExpr>, BTreeSet<ConstraintDependency>)> = Vec::new();
        let mut seen_final: HashSet<Rc<NalgExpr>> = HashSet::new();
        let (mut pruned_unpushable, mut pruned_invalid, mut pruned_duplicate) = (0u64, 0u64, 0u64);
        'pool: for (cand, mut deps) in pool {
            let mut cur = Rc::unwrap_or_clone(cand);
            // The registry stages each surviving candidate through
            // normalize → push → prune. (A pointer-chase rewrite can leave
            // a duplicated navigation behind — the same link followed
            // twice — which is why rule 4 runs again here.)
            for &phase in CANDIDATE_PHASES {
                if !self.run_phase(phase, &mut cur, &mut deps, &gate, tracer.as_mut()) {
                    pruned_unpushable += 1;
                    continue 'pool;
                }
            }
            if !validate(&cur, self.ws) {
                pruned_invalid += 1;
                continue;
            }
            let cur = Rc::new(cur);
            if seen_final.insert(Rc::clone(&cur)) {
                finals.push((cur, deps));
            } else {
                pruned_duplicate += 1;
            }
        }
        drop(seen_final);
        // Step 8: cost and sort.
        let mut candidates: Vec<CandidatePlan> = Vec::new();
        let mut pruned_uncostable = 0u64;
        for (expr, deps) in finals {
            let expr = Rc::unwrap_or_clone(expr);
            let Ok(est) = estimate(&expr, self.ws, self.stats) else {
                pruned_uncostable += 1;
                continue;
            };
            candidates.push(CandidatePlan {
                expr,
                estimate: est,
                dependencies: deps.into_iter().collect(),
            });
        }
        if let Some(t) = &tracer {
            t.sink.event(
                EventKind::Optimizer,
                "optimizer.summary",
                self.trace_parent,
                vec![
                    ("seeds".to_string(), (seed_count as u64).into()),
                    ("pool".to_string(), (pool_count as u64).into()),
                    ("candidates".to_string(), (candidates.len() as u64).into()),
                    ("pruned_unpushable".to_string(), pruned_unpushable.into()),
                    ("pruned_invalid".to_string(), pruned_invalid.into()),
                    ("pruned_duplicate".to_string(), pruned_duplicate.into()),
                    ("pruned_uncostable".to_string(), pruned_uncostable.into()),
                    ("cap_hit".to_string(), cap_hit.into()),
                ],
            );
        }
        if candidates.is_empty() {
            return Err(OptError::NoPlan(format!(
                "no candidate survived rewriting for {q}"
            )));
        }
        candidates.sort_by(|a, b| {
            if a.estimate.cost.better_than(&b.estimate.cost) {
                std::cmp::Ordering::Less
            } else if b.estimate.cost.better_than(&a.estimate.cost) {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Equal
            }
        });
        Ok(Explain {
            query: q.to_string(),
            candidates,
            quarantined: self.health.map(|h| h.quarantined()).unwrap_or_default(),
        })
    }

    /// Rule 1: replaces every atom by each of its default navigations, in
    /// all combinations, producing fully-qualified seed expressions.
    fn build_seeds(&self, q: &ConjunctiveQuery) -> Result<Vec<NalgExpr>> {
        let mut options: Vec<Vec<&DefaultNavigation>> = Vec::new();
        for rel_name in &q.atoms {
            let rel = self.catalog.relation(rel_name)?;
            let navs: Vec<&DefaultNavigation> = rel
                .navigations
                .iter()
                .filter(|n| n.complete || self.use_incomplete_navigations)
                .collect();
            if navs.is_empty() {
                return Err(OptError::NoPlan(format!(
                    "no usable default navigation for {rel_name}"
                )));
            }
            options.push(navs);
        }
        // cartesian product, capped
        let mut combos: Vec<Vec<&DefaultNavigation>> = vec![vec![]];
        for opts in &options {
            let mut next = Vec::new();
            for combo in &combos {
                for o in opts {
                    if next.len() >= self.max_candidates {
                        break;
                    }
                    let mut c = combo.clone();
                    c.push(*o);
                    next.push(c);
                }
            }
            combos = next;
        }
        let orders = connected_orders(q, self.max_candidates);
        let mut seeds = Vec::new();
        for combo in &combos {
            // a combination's atoms are qualified and renamed once, when
            // its first seed is built, and shared by all its join orders
            let mut atoms = None;
            for order in &orders {
                if seeds.len() >= self.max_candidates {
                    return Ok(seeds);
                }
                let atoms = match &atoms {
                    Some(atoms) => atoms,
                    None => atoms.insert(self.seed_atoms(combo)?),
                };
                seeds.push(self.build_seed(q, atoms, order)?);
            }
        }
        Ok(seeds)
    }

    /// Each atom's navigation, qualified, with aliases renamed apart from
    /// the earlier atoms', and its attribute bindings renamed alike.
    fn seed_atoms(&self, navs: &[&DefaultNavigation]) -> Result<Vec<SeedAtom>> {
        let mut used: HashSet<String> = HashSet::new();
        let mut atoms = Vec::with_capacity(navs.len());
        for (i, nav) in navs.iter().enumerate() {
            let mut e = qualify_expr(&nav.expr, self.ws)?;
            let mut bmap = nav.bindings.clone();
            let mut aliases: Vec<String> = e
                .alias_map()
                .map_err(OptError::Eval)?
                .keys()
                .cloned()
                .collect();
            aliases.sort();
            for alias in aliases {
                if used.contains(&alias) {
                    let mut new = format!("{alias}_{i}");
                    let mut n = 1;
                    while used.contains(&new) {
                        new = format!("{alias}_{i}_{n}");
                        n += 1;
                    }
                    rename_alias(&mut e, &alias, &new);
                    let prefix = format!("{alias}.");
                    for (_, col) in bmap.iter_mut() {
                        if let Some(rest) = col.strip_prefix(&prefix) {
                            *col = format!("{new}.{rest}");
                        }
                    }
                    used.insert(new);
                } else {
                    used.insert(alias);
                }
            }
            atoms.push((e, bmap));
        }
        Ok(atoms)
    }

    fn build_seed(
        &self,
        q: &ConjunctiveQuery,
        atoms: &[SeedAtom],
        order: &[usize],
    ) -> Result<NalgExpr> {
        let bind = |i: usize, attr: &str| -> Result<String> {
            atoms[i]
                .1
                .iter()
                .find_map(|(a, c)| (a == attr).then(|| c.clone()))
                .ok_or_else(|| OptError::UnknownViewAttribute {
                    relation: q.atoms[i].clone(),
                    attr: attr.to_string(),
                })
        };
        // left-deep join tree over the given atom order; a join predicate
        // attaches when the later (in order) of its two atoms enters
        let mut in_tree: Vec<usize> = Vec::new();
        let mut tree: Option<NalgExpr> = None;
        for &k in order {
            let e = atoms
                .get(k)
                .filter(|_| !in_tree.contains(&k))
                .map(|(e, _)| e.clone())
                .ok_or_else(|| OptError::BadQuery(format!("bad atom order index {k}")))?;
            tree = Some(match tree {
                None => e,
                Some(t) => {
                    let mut on: Vec<(String, String)> = Vec::new();
                    for ((ai, aattr), (bi, battr)) in &q.joins {
                        if *ai == k && in_tree.contains(bi) {
                            on.push((bind(*bi, battr)?, bind(*ai, aattr)?));
                        } else if *bi == k && in_tree.contains(ai) {
                            on.push((bind(*ai, aattr)?, bind(*bi, battr)?));
                        }
                    }
                    NalgExpr::Join {
                        left: Box::new(t),
                        right: Box::new(e),
                        on,
                    }
                }
            });
            in_tree.push(k);
        }
        let mut tree = tree.ok_or_else(|| OptError::BadQuery("no atoms".into()))?;
        // selections: constant selections plus same-atom attribute
        // equalities (which the join loop above cannot attach)
        let mut atoms: Vec<Pred> = q
            .selections
            .iter()
            .map(|((i, attr), v)| Ok(Pred::Eq(bind(*i, attr)?, v.clone())))
            .collect::<Result<Vec<_>>>()?;
        for ((ai, aattr), (bi, battr)) in &q.joins {
            if ai == bi {
                atoms.push(Pred::EqAttr(bind(*ai, aattr)?, bind(*bi, battr)?));
            }
        }
        if let Some(pred) = Pred::from_conjuncts(atoms) {
            tree = tree.select(pred);
        }
        // projection (deduplicated, order-preserving)
        let mut cols: Vec<String> = Vec::new();
        for (i, attr) in &q.projection {
            let c = bind(*i, attr)?;
            if !cols.contains(&c) {
                cols.push(c);
            }
        }
        Ok(tree.project(cols))
    }
}

/// One atom of a seed: its qualified navigation and its attribute
/// bindings (view attribute, qualified column).
type SeedAtom = (NalgExpr, Vec<(String, String)>);

/// Enumerates left-deep atom orders in which every atom (after the first)
/// is connected by a join predicate to an earlier atom, falling back to
/// arbitrary extension when the join graph is disconnected. Capped.
fn connected_orders(q: &ConjunctiveQuery, cap: usize) -> Vec<Vec<usize>> {
    const MAX_ORDERS: usize = 24;
    let cap = cap.min(MAX_ORDERS);
    let n = q.atoms.len();
    if n <= 1 {
        return vec![(0..n).collect()];
    }
    let connected = |k: usize, in_tree: &[usize]| {
        q.joins.iter().any(|((ai, _), (bi, _))| {
            (*ai == k && in_tree.contains(bi)) || (*bi == k && in_tree.contains(ai))
        })
    };
    let mut out: Vec<Vec<usize>> = Vec::new();
    let mut order: Vec<usize> = Vec::new();
    let mut used = vec![false; n];
    fn rec(
        n: usize,
        cap: usize,
        connected: &impl Fn(usize, &[usize]) -> bool,
        order: &mut Vec<usize>,
        used: &mut Vec<bool>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if out.len() >= cap {
            return;
        }
        if order.len() == n {
            out.push(order.clone());
            return;
        }
        let candidates: Vec<usize> = (0..n)
            .filter(|&k| !used[k] && (order.is_empty() || connected(k, order)))
            .collect();
        let candidates = if candidates.is_empty() {
            // disconnected join graph: allow any unused atom
            (0..n).filter(|&k| !used[k]).collect()
        } else {
            candidates
        };
        for k in candidates {
            used[k] = true;
            order.push(k);
            rec(n, cap, connected, order, used, out);
            order.pop();
            used[k] = false;
        }
    }
    rec(n, cap, &connected, &mut order, &mut used, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::views::university_catalog;
    use websim::sitegen::{University, UniversityConfig};

    fn fixtures() -> (WebScheme, ViewCatalog, SiteStatistics) {
        let u = University::generate(UniversityConfig::default()).unwrap();
        let stats = SiteStatistics::from_site(&u.site);
        (u.site.scheme.clone(), university_catalog(), stats)
    }

    fn single_relation_query() -> ConjunctiveQuery {
        ConjunctiveQuery::new("cs-profs")
            .atom("ProfDept")
            .atom("Professor")
            .join((0, "PName"), (1, "PName"))
            .select((0, "DName"), "Computer Science")
            .project((1, "PName"))
            .project((1, "Email"))
    }

    #[test]
    fn optimizes_simple_selection_query() {
        let (ws, cat, stats) = fixtures();
        let opt = Optimizer::new(&ws, &cat, &stats);
        let q = ConjunctiveQuery::new("full-profs")
            .atom("Professor")
            .select((0, "Rank"), "Full")
            .project((0, "PName"));
        let explain = opt.optimize(&q).unwrap();
        let best = explain.best();
        // cost: entry + all professor pages (Rank isn't replicated)
        assert!((best.estimate.cost.pages - 21.0).abs() < 1e-6);
    }

    #[test]
    fn merges_shared_spines_across_atoms() {
        let (ws, cat, stats) = fixtures();
        let opt = Optimizer::new(&ws, &cat, &stats);
        let explain = opt.optimize(&single_relation_query()).unwrap();
        let best = explain.best();
        // Professor and ProfDept (professor-path variant) merge into one
        // navigation; the dept-path variant competes. The best plan should
        // not navigate professors twice.
        assert!(
            best.estimate.cost.pages <= 21.0 + 1e-6,
            "{}",
            explain.report()
        );
    }

    #[test]
    fn candidates_are_sorted_and_validated() {
        let (ws, cat, stats) = fixtures();
        let opt = Optimizer::new(&ws, &cat, &stats);
        let explain = opt.optimize(&single_relation_query()).unwrap();
        for w in explain.candidates.windows(2) {
            assert!(!w[1].estimate.cost.better_than(&w[0].estimate.cost));
        }
        for c in &explain.candidates {
            assert!(c.expr.is_computable());
        }
    }

    #[test]
    fn mask_none_still_produces_plans() {
        let (ws, cat, stats) = fixtures();
        let opt = Optimizer::new(&ws, &cat, &stats).with_mask(RuleMask::none());
        let explain = opt.optimize(&single_relation_query()).unwrap();
        assert!(!explain.candidates.is_empty());
        // naive plans cost at least as much as optimized ones
        let opt_full = Optimizer::new(&ws, &cat, &stats);
        let explain_full = opt_full.optimize(&single_relation_query()).unwrap();
        assert!(
            explain_full.best().estimate.cost.pages <= explain.best().estimate.cost.pages + 1e-6
        );
    }

    #[test]
    fn report_mentions_costs_and_plans() {
        let (ws, cat, stats) = fixtures();
        let opt = Optimizer::new(&ws, &cat, &stats);
        let explain = opt.optimize(&single_relation_query()).unwrap();
        let r = explain.report();
        assert!(r.contains("candidate plan"));
        assert!(r.contains("★ plan 0"));
        assert!(r.contains("est. cost"));
    }

    #[test]
    fn incomplete_only_relation_needs_opt_in() {
        let (ws, _, stats) = fixtures();
        // a catalog whose single navigation is incomplete
        let cat = crate::views::ViewCatalog::new().with(crate::views::ExternalRelation::new(
            "OnlyPartial",
            vec!["PName"],
            vec![crate::views::DefaultNavigation::new(
                nalg::NalgExpr::entry("ProfListPage")
                    .unnest("ProfList")
                    .follow("ToProf", "ProfPage"),
                vec![("PName", "ProfPage.PName")],
            )
            .incomplete()],
        ));
        let q = ConjunctiveQuery::new("q")
            .atom("OnlyPartial")
            .project((0, "PName"));
        let strict = Optimizer::new(&ws, &cat, &stats);
        assert!(matches!(
            strict.optimize(&q),
            Err(crate::OptError::NoPlan(_))
        ));
        let lax = Optimizer::new(&ws, &cat, &stats).allow_incomplete_navigations();
        assert!(lax.optimize(&q).is_ok());
    }

    #[test]
    fn candidate_cap_is_respected() {
        let (ws, cat, stats) = fixtures();
        let mut opt = Optimizer::new(&ws, &cat, &stats);
        opt.max_candidates = 2;
        let explain = opt.optimize(&single_relation_query()).unwrap();
        assert!(!explain.candidates.is_empty());
    }

    #[test]
    fn same_atom_equalities_become_selections() {
        // WHERE ci.CName = ci.PName (nonsensical but legal) must not be
        // silently dropped — it reaches the plan as an EqAttr selection.
        let (ws, cat, stats) = fixtures();
        let q = ConjunctiveQuery::new("self-eq")
            .atom("CourseInstructor")
            .join((0, "CName"), (0, "PName"))
            .project((0, "CName"));
        let opt = Optimizer::new(&ws, &cat, &stats);
        let explain = opt.optimize(&q).unwrap();
        for c in &explain.candidates {
            let shown = nalg::display::tree(&c.expr);
            assert!(shown.contains('σ'), "predicate dropped:\n{shown}");
        }
    }

    #[test]
    fn tracing_records_rule_applications_and_summary() {
        let (ws, cat, stats) = fixtures();
        let sink = TraceSink::with_seed(7);
        let opt = Optimizer::new(&ws, &cat, &stats).with_trace(&sink);
        let traced = opt.optimize(&single_relation_query()).unwrap();
        let events = sink.events();
        let rule1 = events
            .iter()
            .filter(|e| e.name == "rule1.default_navigation")
            .count();
        assert!(rule1 >= 1, "rule 1 fires at least once per seed");
        // rule-1 events carry the seed's estimated cost
        assert!(events
            .iter()
            .filter(|e| e.name == "rule1.default_navigation")
            .all(|e| e.field("pages_after").is_some()));
        let summary = events
            .iter()
            .find(|e| e.name == "optimizer.summary")
            .expect("summary event");
        assert_eq!(summary.field_u64("seeds"), Some(rule1 as u64));
        assert_eq!(
            summary.field_u64("candidates"),
            Some(traced.candidates.len() as u64)
        );
        // tracing must not change the outcome
        let plain = Optimizer::new(&ws, &cat, &stats)
            .optimize(&single_relation_query())
            .unwrap();
        assert_eq!(plain.candidates.len(), traced.candidates.len());
        for (a, b) in plain.candidates.iter().zip(&traced.candidates) {
            assert_eq!(a.expr, b.expr);
            assert_eq!(a.estimate.cost, b.estimate.cost);
        }
    }

    #[test]
    fn rejects_invalid_query() {
        let (ws, cat, stats) = fixtures();
        let opt = Optimizer::new(&ws, &cat, &stats);
        let q = ConjunctiveQuery::new("bad").atom("Nope").project((0, "X"));
        assert!(opt.optimize(&q).is_err());
    }

    #[test]
    fn best_plan_records_constraint_provenance() {
        let (ws, cat, stats) = fixtures();
        let opt = Optimizer::new(&ws, &cat, &stats);
        let explain = opt.optimize(&single_relation_query()).unwrap();
        let best = explain.best();
        assert!(
            !best.dependencies.is_empty(),
            "the winning plan pushes σ[DName=…] across a follow — that \
             rewrite is licensed by a link constraint and must be recorded:\n{}",
            explain.report()
        );
        let r = explain.report();
        for d in &best.dependencies {
            assert!(
                r.contains(&format!("assumes {d}")),
                "missing in report:\n{r}"
            );
        }
        assert!(explain.quarantined.is_empty());
        assert!(!r.contains("quarantined"));
    }

    #[test]
    fn healthy_registry_changes_nothing() {
        let (ws, cat, stats) = fixtures();
        let health = ConstraintHealth::new();
        let plain = Optimizer::new(&ws, &cat, &stats)
            .optimize(&single_relation_query())
            .unwrap();
        let gated = Optimizer::new(&ws, &cat, &stats)
            .with_constraint_health(&health)
            .optimize(&single_relation_query())
            .unwrap();
        assert_eq!(plain.candidates.len(), gated.candidates.len());
        for (a, b) in plain.candidates.iter().zip(&gated.candidates) {
            assert_eq!(a.expr, b.expr);
            assert_eq!(a.estimate.cost, b.estimate.cost);
            assert_eq!(a.dependencies, b.dependencies);
        }
        assert!(gated.quarantined.is_empty());
    }

    #[test]
    fn quarantine_bars_constraints_from_licensing_rewrites() {
        let (ws, cat, stats) = fixtures();
        let q = single_relation_query();
        let trusted = Optimizer::new(&ws, &cat, &stats).optimize(&q).unwrap();
        let deps = trusted.best().dependencies.clone();
        assert!(!deps.is_empty());
        // Quarantine every constraint the winning plan leaned on.
        let health = ConstraintHealth::new();
        for d in &deps {
            health.record(&d.key(), 1, 1);
        }
        let guarded = Optimizer::new(&ws, &cat, &stats)
            .with_constraint_health(&health)
            .optimize(&q)
            .unwrap();
        let quarantined: Vec<String> = deps.iter().map(|d| d.key()).collect();
        for c in &guarded.candidates {
            for d in &c.dependencies {
                assert!(
                    !quarantined.contains(&d.key()),
                    "quarantined constraint still licensed a rewrite: {d}"
                );
            }
        }
        // The defensive plan cannot beat the trusting one.
        assert!(trusted.best().estimate.cost.pages <= guarded.best().estimate.cost.pages + 1e-6);
        // EXPLAIN surfaces the quarantine.
        assert_eq!(guarded.quarantined.len(), deps.len());
        let r = guarded.report();
        assert!(r.contains("quarantined (excluded from rewrites):"), "{r}");
        for k in &quarantined {
            assert!(r.contains(k), "missing {k} in report:\n{r}");
        }
    }
}
