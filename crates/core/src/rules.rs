//! The NALG rewrite rules (Section 6.1).
//!
//! | Paper rule | Here |
//! |---|---|
//! | 1 — default navigation | applied by the optimizer during seed construction ([`crate::optimizer`]) |
//! | 2 — join on a link constraint ≡ follow | a semantic lemma underlying rules 8/9; exercised by tests |
//! | 3 — π through unnest | part of [`prune_navigations`] |
//! | 4 — repeated-navigation elimination | [`merge_repeated_navigations`] |
//! | 5 — unnecessary-navigation elimination | part of [`prune_navigations`] |
//! | 6 — selection pushing via link constraints | [`push_selections`] |
//! | 7 — projection pushing via link constraints | part of [`prune_navigations`] |
//! | 8 — **pointer join** | [`join_rewrite_candidates`] |
//! | 9 — **pointer chase** | [`join_rewrite_candidates`] |
//!
//! All rules operate on expressions whose attribute references are fully
//! qualified (`alias.path…`); [`qualify_expr`] normalizes an expression
//! into that form once, before rewriting starts.

use crate::registry::RewriteRule;
use crate::stats::SiteStatistics;
use crate::{OptError, Result};
use adm::{AttrRef, InclusionConstraint, LinkConstraint, WebScheme};
use nalg::expr::{field_of_column, resolve_column, resolves, NodeColumns};
use nalg::{NalgExpr, Pred};
use std::collections::HashMap;
use std::fmt;

// --------------------------------------------------------------------------
// constraint provenance
// --------------------------------------------------------------------------

/// A constraint a rewrite relied on. The optimizer collects these on every
/// candidate plan (its *constraint provenance*), so runtime auditing knows
/// exactly which site assumptions the winning plan is betting on.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ConstraintDependency {
    /// A link constraint (licenses rules 6, 7, and 8).
    Link(LinkConstraint),
    /// An inclusion constraint (licenses rule 9). For transitively implied
    /// inclusions this is the *implied* constraint itself — the statement
    /// auditing can check directly against fetched pages.
    Inclusion(InclusionConstraint),
}

impl ConstraintDependency {
    /// The canonical registry key: the constraint's display form, shared
    /// with the `ConstraintHealth` quarantine registry and EXPLAIN output.
    pub fn key(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for ConstraintDependency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintDependency::Link(c) => write!(f, "{c}"),
            ConstraintDependency::Inclusion(c) => write!(f, "{c}"),
        }
    }
}

/// Decides whether a constraint may license a rewrite. The optimizer
/// passes a closure rejecting quarantined constraints; a rejected
/// constraint simply leaves the expression unrewritten (the plan stays
/// correct, just less optimized).
pub type ConstraintGate<'g> = &'g dyn Fn(&ConstraintDependency) -> bool;

/// The gate that admits every constraint (no quarantine in effect).
pub fn open_gate(_: &ConstraintDependency) -> bool {
    true
}

// --------------------------------------------------------------------------
// tree addressing
// --------------------------------------------------------------------------

/// Visits every node in preorder — the root first, then its inputs left to
/// right — with the node's child-index path from the root, and stops at the
/// first `Some` that `f` returns.
fn find_node<'e, T>(
    e: &'e NalgExpr,
    f: &mut impl FnMut(&'e NalgExpr, &[usize]) -> Option<T>,
) -> Option<T> {
    fn go<'e, T>(
        e: &'e NalgExpr,
        path: &mut Vec<usize>,
        f: &mut impl FnMut(&'e NalgExpr, &[usize]) -> Option<T>,
    ) -> Option<T> {
        if let Some(t) = f(e, path) {
            return Some(t);
        }
        for (i, c) in e.inputs().enumerate() {
            path.push(i);
            if let Some(t) = go(c, path, f) {
                return Some(t);
            }
            path.pop();
        }
        None
    }
    go(e, &mut Vec::new(), f)
}

/// The node at a child-index path, for rewriting in place.
fn node_at_mut<'a>(e: &'a mut NalgExpr, path: &[usize]) -> &'a mut NalgExpr {
    let Some((&i, rest)) = path.split_first() else {
        return e;
    };
    if matches!(e, NalgExpr::Entry { .. } | NalgExpr::External { .. }) {
        return e;
    }
    match e {
        NalgExpr::Select { input, .. }
        | NalgExpr::Project { input, .. }
        | NalgExpr::Unnest { input, .. }
        | NalgExpr::Follow { input, .. } => node_at_mut(input, rest),
        NalgExpr::Join { left, .. } if i == 0 => node_at_mut(left, rest),
        NalgExpr::Join { right, .. } => node_at_mut(right, rest),
        NalgExpr::Entry { .. } | NalgExpr::External { .. } => unreachable!("a leaf has no inputs"),
    }
}

/// Moves a node out of the tree, leaving an allocation-free placeholder
/// to be overwritten.
pub(crate) fn take(e: &mut NalgExpr) -> NalgExpr {
    std::mem::replace(
        e,
        NalgExpr::External {
            name: String::new(),
        },
    )
}

/// A copy of `e` with the node at `path` replaced by `new`; the replaced
/// subtree itself is not copied.
fn with_node(e: &NalgExpr, path: &[usize], new: NalgExpr) -> NalgExpr {
    let Some((&i, rest)) = path.split_first() else {
        return new;
    };
    let sub = |input: &NalgExpr| Box::new(with_node(input, rest, new));
    match e {
        NalgExpr::Select { input, pred } => NalgExpr::Select {
            input: sub(input),
            pred: pred.clone(),
        },
        NalgExpr::Project { input, cols } => NalgExpr::Project {
            input: sub(input),
            cols: cols.clone(),
        },
        NalgExpr::Unnest { input, attr } => NalgExpr::Unnest {
            input: sub(input),
            attr: attr.clone(),
        },
        NalgExpr::Follow {
            input,
            link,
            target,
            alias,
        } => NalgExpr::Follow {
            input: sub(input),
            link: link.clone(),
            target: target.clone(),
            alias: alias.clone(),
        },
        NalgExpr::Join { left, right, on } if i == 0 => NalgExpr::Join {
            left: sub(left),
            right: right.clone(),
            on: on.clone(),
        },
        NalgExpr::Join { left, right, on } => NalgExpr::Join {
            left: left.clone(),
            right: sub(right),
            on: on.clone(),
        },
        leaf => leaf.clone(),
    }
}

/// Replaces the follow or unnest at `path` by its input, in place. Any
/// other node is left as it is (`false`).
fn splice_out(e: &mut NalgExpr, path: &[usize]) -> bool {
    let slot = node_at_mut(e, path);
    if !matches!(slot, NalgExpr::Follow { .. } | NalgExpr::Unnest { .. }) {
        return false;
    }
    if let NalgExpr::Follow { input, .. } | NalgExpr::Unnest { input, .. } = take(slot) {
        *slot = *input;
    }
    true
}

// --------------------------------------------------------------------------
// reference mapping
// --------------------------------------------------------------------------

/// Rewrites in place every reference for which `f` returns a replacement.
fn map_ref(r: &mut String, f: &impl Fn(&str) -> Option<String>) {
    if let Some(new) = f(r) {
        *r = new;
    }
}

fn map_pred(p: &mut Pred, f: &impl Fn(&str) -> Option<String>) {
    match p {
        Pred::Eq(a, _) => map_ref(a, f),
        Pred::EqAttr(a, b) => {
            map_ref(a, f);
            map_ref(b, f);
        }
        Pred::And(ps) => ps.iter_mut().for_each(|q| map_pred(q, f)),
    }
}

/// Rewrites every attribute reference in the tree (predicates,
/// projections, join keys, unnest attributes, follow links) for which `f`
/// returns a replacement, in place; references `f` leaves alone (`None`)
/// are not touched.
pub fn map_refs(e: &mut NalgExpr, f: &impl Fn(&str) -> Option<String>) {
    match e {
        NalgExpr::Entry { .. } | NalgExpr::External { .. } => {}
        NalgExpr::Select { input, pred } => {
            map_refs(input, f);
            map_pred(pred, f);
        }
        NalgExpr::Project { input, cols } => {
            map_refs(input, f);
            cols.iter_mut().for_each(|c| map_ref(c, f));
        }
        NalgExpr::Join { left, right, on } => {
            map_refs(left, f);
            map_refs(right, f);
            for (a, b) in on {
                map_ref(a, f);
                map_ref(b, f);
            }
        }
        NalgExpr::Unnest { input, attr } => {
            map_refs(input, f);
            map_ref(attr, f);
        }
        NalgExpr::Follow { input, link, .. } => {
            map_refs(input, f);
            map_ref(link, f);
        }
    }
}

/// The rest of a reference `alias.rest` qualified by `alias`.
fn strip_alias<'s>(r: &'s str, alias: &str) -> Option<&'s str> {
    r.strip_prefix(alias)?.strip_prefix('.')
}

/// Renames an alias in place: rewrites `Entry`/`Follow` alias fields equal
/// to `from` and every reference prefixed by `from.`.
pub fn rename_alias(e: &mut NalgExpr, from: &str, to: &str) {
    map_refs(e, &|s: &str| {
        strip_alias(s, from).map(|rest| format!("{to}.{rest}"))
    });
    fn rename_nodes(e: &mut NalgExpr, from: &str, to: &str) {
        if let NalgExpr::Entry { alias, .. } | NalgExpr::Follow { alias, .. } = e {
            if alias == from {
                *alias = to.to_string();
            }
        }
        match e {
            NalgExpr::Select { input, .. }
            | NalgExpr::Project { input, .. }
            | NalgExpr::Unnest { input, .. }
            | NalgExpr::Follow { input, .. } => rename_nodes(input, from, to),
            NalgExpr::Join { left, right, .. } => {
                rename_nodes(left, from, to);
                rename_nodes(right, from, to);
            }
            NalgExpr::Entry { .. } | NalgExpr::External { .. } => {}
        }
    }
    rename_nodes(e, from, to);
}

/// Replaces, in place, every reference exactly equal to `from` with `to`.
pub fn substitute_attr(e: &mut NalgExpr, from: &str, to: &str) {
    map_refs(e, &|s: &str| (s == from).then(|| to.to_string()));
}

/// Calls `f` on each attribute reference of a predicate.
fn for_each_pred_ref<'e>(p: &'e Pred, f: &mut impl FnMut(&'e str)) {
    match p {
        Pred::Eq(a, _) => f(a),
        Pred::EqAttr(a, b) => {
            f(a);
            f(b);
        }
        Pred::And(ps) => ps.iter().for_each(|q| for_each_pred_ref(q, f)),
    }
}

/// Whether every attribute reference of a predicate satisfies `f`.
fn all_pred_refs(p: &Pred, f: impl Fn(&str) -> bool) -> bool {
    let mut all = true;
    for_each_pred_ref(p, &mut |a| all &= f(a));
    all
}

/// Calls `f` on each attribute reference a node itself carries (not its
/// children's).
fn for_each_node_ref<'e>(e: &'e NalgExpr, f: &mut impl FnMut(&'e str)) {
    match e {
        NalgExpr::Entry { .. } | NalgExpr::External { .. } => {}
        NalgExpr::Select { pred, .. } => for_each_pred_ref(pred, f),
        NalgExpr::Project { cols, .. } => cols.iter().for_each(|c| f(c)),
        NalgExpr::Join { on, .. } => on.iter().for_each(|(a, b)| {
            f(a);
            f(b);
        }),
        NalgExpr::Unnest { attr, .. } => f(attr),
        NalgExpr::Follow { link, .. } => f(link),
    }
}

/// One plan's nodes in preorder with each node's subtree extent — node
/// `i`'s subtree is `i..end[i]` — so "every reference outside this
/// subtree" is a scan over two index ranges instead of a tree walk.
struct Preorder<'e> {
    nodes: Vec<&'e NalgExpr>,
    end: Vec<usize>,
}

impl<'e> Preorder<'e> {
    fn new(e: &'e NalgExpr) -> Self {
        fn go<'e>(e: &'e NalgExpr, out: &mut Preorder<'e>) {
            let i = out.nodes.len();
            out.nodes.push(e);
            out.end.push(0);
            for c in e.inputs() {
                go(c, out);
            }
            out.end[i] = out.nodes.len();
        }
        let mut out = Preorder {
            nodes: Vec::new(),
            end: Vec::new(),
        };
        go(e, &mut out);
        out
    }

    /// Calls `f` on every attribute reference outside node `i`'s subtree
    /// (the node's own references included), in preorder.
    fn refs_outside(&self, i: usize, f: &mut impl FnMut(&'e str)) {
        let outside = (0..i).chain(self.end[i]..self.nodes.len());
        outside.for_each(|j| for_each_node_ref(self.nodes[j], f));
    }

    /// The child-index path from the root to node `i`.
    fn path(&self, i: usize) -> Vec<usize> {
        let mut path = Vec::new();
        let mut j = 0;
        while j != i {
            // a node's first input follows it; its second (a join's right
            // side) starts where the first input's subtree ends
            let right = self.end[j + 1];
            if i < right {
                path.push(0);
                j += 1;
            } else {
                path.push(1);
                j = right;
            }
        }
        path
    }
}

// --------------------------------------------------------------------------
// qualification & validation
// --------------------------------------------------------------------------

/// Rewrites every attribute reference into its fully qualified form by
/// resolving it against the referencing operator's input columns.
pub fn qualify_expr(e: &NalgExpr, ws: &WebScheme) -> Result<NalgExpr> {
    let q = |cols: &[String], name: &str| -> Result<String> {
        let i = resolve_column(cols, name).map_err(OptError::Eval)?;
        Ok(cols[i].clone())
    };
    Ok(match e {
        NalgExpr::Entry { .. } | NalgExpr::External { .. } => e.clone(),
        NalgExpr::Select { input, pred } => {
            let qi = qualify_expr(input, ws)?;
            let cols = qi.output_columns(ws).map_err(OptError::Eval)?;
            let pred = map_pred_fallible(pred, &|s| q(&cols, s))?;
            NalgExpr::Select {
                input: Box::new(qi),
                pred,
            }
        }
        NalgExpr::Project { input, cols } => {
            let qi = qualify_expr(input, ws)?;
            let in_cols = qi.output_columns(ws).map_err(OptError::Eval)?;
            let cols = cols
                .iter()
                .map(|c| q(&in_cols, c))
                .collect::<Result<Vec<_>>>()?;
            NalgExpr::Project {
                input: Box::new(qi),
                cols,
            }
        }
        NalgExpr::Join { left, right, on } => {
            let ql = qualify_expr(left, ws)?;
            let qr = qualify_expr(right, ws)?;
            let lcols = ql.output_columns(ws).map_err(OptError::Eval)?;
            let rcols = qr.output_columns(ws).map_err(OptError::Eval)?;
            let on = on
                .iter()
                .map(|(a, b)| Ok((q(&lcols, a)?, q(&rcols, b)?)))
                .collect::<Result<Vec<_>>>()?;
            NalgExpr::Join {
                left: Box::new(ql),
                right: Box::new(qr),
                on,
            }
        }
        NalgExpr::Unnest { input, attr } => {
            let qi = qualify_expr(input, ws)?;
            let cols = qi.output_columns(ws).map_err(OptError::Eval)?;
            NalgExpr::Unnest {
                attr: q(&cols, attr)?,
                input: Box::new(qi),
            }
        }
        NalgExpr::Follow {
            input,
            link,
            target,
            alias,
        } => {
            let qi = qualify_expr(input, ws)?;
            let cols = qi.output_columns(ws).map_err(OptError::Eval)?;
            NalgExpr::Follow {
                link: q(&cols, link)?,
                input: Box::new(qi),
                target: target.clone(),
                alias: alias.clone(),
            }
        }
    })
}

fn map_pred_fallible(p: &Pred, f: &impl Fn(&str) -> Result<String>) -> Result<Pred> {
    Ok(match p {
        Pred::Eq(a, v) => Pred::Eq(f(a)?, v.clone()),
        Pred::EqAttr(a, b) => Pred::EqAttr(f(a)?, f(b)?),
        Pred::And(ps) => Pred::And(
            ps.iter()
                .map(|q| map_pred_fallible(q, f))
                .collect::<Result<Vec<_>>>()?,
        ),
    })
}

/// Full static validation: the expression is computable and every
/// reference (including selection and join attributes) resolves. One
/// bottom-up pass: each node's columns are derived once, from its inputs'.
pub fn validate(e: &NalgExpr, ws: &WebScheme) -> bool {
    fn go<'e>(e: &'e NalgExpr, ws: &WebScheme) -> Option<NodeColumns<'e>> {
        let step = match e {
            NalgExpr::Entry { .. } | NalgExpr::External { .. } => e.column_step(ws, []),
            NalgExpr::Select { input, pred } => {
                let cols = go(input, ws)?;
                if !all_pred_refs(pred, |a| resolves(&cols.cols, a)) {
                    return None;
                }
                e.column_step(ws, [Ok(cols)])
            }
            NalgExpr::Join { left, right, on } => {
                let (l, r) = (go(left, ws)?, go(right, ws)?);
                if !on
                    .iter()
                    .all(|(a, b)| resolves(&l.cols, a) && resolves(&r.cols, b))
                {
                    return None;
                }
                e.column_step(ws, [Ok(l), Ok(r)])
            }
            NalgExpr::Project { input, .. }
            | NalgExpr::Unnest { input, .. }
            | NalgExpr::Follow { input, .. } => e.column_step(ws, [Ok(go(input, ws)?)]),
        };
        step.ok()
    }
    go(e, ws).is_some()
}

// --------------------------------------------------------------------------
// helpers shared by the constraint-driven rules
// --------------------------------------------------------------------------

/// Converts a qualified column (`alias.path…`) to a scheme-qualified
/// [`AttrRef`] using the expression's alias map.
fn attr_ref_of(aliases: &HashMap<String, String>, qualified: &str) -> Option<AttrRef> {
    let mut parts = qualified.split('.');
    let alias = parts.next()?;
    let path: Vec<String> = parts.map(str::to_string).collect();
    if path.is_empty() {
        return None;
    }
    let scheme = aliases.get(alias)?;
    Some(AttrRef {
        scheme: scheme.clone(),
        path,
    })
}

/// The alias (first segment) of a qualified column.
fn alias_of(qualified: &str) -> &str {
    qualified.split('.').next().unwrap_or(qualified)
}

/// The declared link constraint on `link` with the given source and target
/// attributes, if one exists and the gate admits it.
fn find_link_constraint(
    ws: &WebScheme,
    link: &AttrRef,
    source: &AttrRef,
    target: &AttrRef,
    gate: ConstraintGate<'_>,
) -> Option<LinkConstraint> {
    ws.link_constraints_for(link)
        .into_iter()
        .find(|c| &c.source_attr == source && &c.target_attr == target)
        .cloned()
        .filter(|c| gate(&ConstraintDependency::Link(c.clone())))
}

/// Finds, for a reference `alias.B` on the target side of `link`, the
/// qualified source column licensed by a link constraint the gate admits,
/// together with the constraint relied on.
fn constraint_source_col(
    ws: &WebScheme,
    aliases: &HashMap<String, String>,
    link_col: &str,
    target_ref_col: &str,
    gate: ConstraintGate<'_>,
) -> Option<(String, ConstraintDependency)> {
    let link_ref = attr_ref_of(aliases, link_col)?;
    let target_ref = attr_ref_of(aliases, target_ref_col)?;
    if target_ref.path.len() != 1 {
        return None;
    }
    let source_alias = alias_of(link_col);
    for c in ws.link_constraints_for(&link_ref) {
        if c.target_attr == target_ref {
            let dep = ConstraintDependency::Link(c.clone());
            if !gate(&dep) {
                continue;
            }
            let col = format!("{source_alias}.{}", c.source_attr.path.join("."));
            return Some((col, dep));
        }
    }
    None
}

// --------------------------------------------------------------------------
// rule 4 — repeated-navigation elimination
// --------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum SpineStep {
    Entry(String),
    Unnest(String),
    Follow { link: String, target: String },
}

/// The alias-insensitive spine of a pure navigation, with its aliases in
/// order of introduction. `None` if the expression contains σ/π/⋈.
fn spine(e: &NalgExpr) -> Option<(Vec<SpineStep>, Vec<String>)> {
    match e {
        NalgExpr::Entry { scheme, alias } => {
            Some((vec![SpineStep::Entry(scheme.clone())], vec![alias.clone()]))
        }
        NalgExpr::Unnest { input, attr } => {
            let (mut steps, aliases) = spine(input)?;
            let leaf = attr.rsplit('.').next().unwrap_or(attr).to_string();
            steps.push(SpineStep::Unnest(leaf));
            Some((steps, aliases))
        }
        NalgExpr::Follow {
            input,
            link,
            target,
            alias,
        } => {
            let (mut steps, mut aliases) = spine(input)?;
            let leaf = link.rsplit('.').next().unwrap_or(link).to_string();
            steps.push(SpineStep::Follow {
                link: leaf,
                target: target.clone(),
            });
            aliases.push(alias.clone());
            Some((steps, aliases))
        }
        _ => None,
    }
}

/// Rule 4: replaces `R ⋈_Y R` (and `(R ∘ A) ⋈_Y R`) by the longer
/// navigation, when both join sides are navigations one of which is a
/// prefix of the other, the join attributes coincide under the alias
/// correspondence, and at least one join attribute identifies the page
/// (URL or a key-like attribute per the statistics). Column references to
/// the dropped side are renamed to the kept side's aliases. Rewrites in
/// place: nothing the merge keeps is copied.
pub fn merge_repeated_navigations(e: NalgExpr, ws: &WebScheme, stats: &SiteStatistics) -> NalgExpr {
    let mut expr = e;
    loop {
        if let Some((path, from, to)) = find_duplicate_follow(&expr) {
            splice_out(&mut expr, &path);
            rename_alias(&mut expr, &from, &to);
            continue;
        }
        let Some((path, keep_left, renames)) = find_merge(&expr, ws, stats) else {
            return expr;
        };
        let slot = node_at_mut(&mut expr, &path);
        if let NalgExpr::Join { left, right, .. } = take(slot) {
            *slot = if keep_left { *left } else { *right };
        }
        for (from, to) in renames {
            rename_alias(&mut expr, &from, &to);
        }
    }
}

/// Rule 4 on navigations themselves: following the *same* qualified link
/// column a second time re-fetches the same pages, so the outer follow can
/// be dropped with its alias renamed onto the first follow's alias.
/// Returns `(path of redundant follow, dropped alias, kept alias)`.
fn find_duplicate_follow(e: &NalgExpr) -> Option<(Vec<usize>, String, String)> {
    find_node(e, &mut |node, path| {
        let NalgExpr::Follow {
            input,
            link,
            alias: outer_alias,
            ..
        } = node
        else {
            return None;
        };
        // scan the input spine for a follow of the identical link column
        let mut cur: &NalgExpr = input;
        loop {
            match cur {
                NalgExpr::Follow {
                    input: deeper,
                    link: l1,
                    alias: a1,
                    ..
                } => {
                    if l1 == link && a1 != outer_alias {
                        return Some((path.to_vec(), outer_alias.clone(), a1.clone()));
                    }
                    cur = deeper;
                }
                NalgExpr::Unnest { input: deeper, .. } | NalgExpr::Select { input: deeper, .. } => {
                    cur = deeper
                }
                _ => return None,
            }
        }
    })
}

/// `(join path, keep-left?, alias renames)` describing one rule-4 merge.
type MergeAction = (Vec<usize>, bool, Vec<(String, String)>);

fn find_merge(e: &NalgExpr, ws: &WebScheme, stats: &SiteStatistics) -> Option<MergeAction> {
    let aliases = e.alias_map().ok()?;
    find_node(e, &mut |node, path| {
        let NalgExpr::Join { left, right, on } = node else {
            return None;
        };
        if on.is_empty() {
            return None;
        }
        let (sl, al) = spine(left)?;
        let (sr, ar) = spine(right)?;
        let (keep_left, kept_aliases, dropped_aliases) =
            if sr.len() <= sl.len() && sl.starts_with(&sr) {
                (true, &al, &ar)
            } else if sl.len() < sr.len() && sr.starts_with(&sl) {
                (false, &ar, &al)
            } else {
                return None;
            };
        let renames: Vec<(String, String)> = dropped_aliases
            .iter()
            .zip(kept_aliases.iter())
            .filter(|(d, k)| d != k)
            .map(|(d, k)| (d.clone(), k.clone()))
            .collect();
        let rename_str = |s: &str| -> String {
            for (from, to) in &renames {
                if let Some(rest) = strip_alias(s, from) {
                    return format!("{to}.{rest}");
                }
            }
            s.to_string()
        };
        // Join keys must coincide under the alias correspondence, and at
        // least one must be page-identifying.
        let mut any_key_like = false;
        for (a, b) in on {
            let (a, b) = (rename_str(a), rename_str(b));
            if a != b {
                return None;
            }
            if a.ends_with(".URL") {
                any_key_like = true;
                continue;
            }
            // a join on a nullable attribute also filters null rows —
            // merging would wrongly keep them (SQL null semantics), so
            // only non-optional attributes license a merge
            match field_of_column(ws, &aliases, &a) {
                Ok(f) if !f.optional => {}
                _ => return None,
            }
            if let Some(aref) = attr_ref_of(&aliases, &a) {
                // key-like only meaningful for top-level attributes
                if aref.path.len() == 1 && stats.is_key_like(&aref.scheme, &aref.qualified()) {
                    any_key_like = true;
                }
            }
        }
        any_key_like.then(|| (path.to_vec(), keep_left, renames))
    })
}

// --------------------------------------------------------------------------
// rules 8 & 9 — pointer join / pointer chase
// --------------------------------------------------------------------------

/// Strips trailing unnest operators, returning the core and the stripped
/// attributes (outermost first).
fn strip_unnests(e: &NalgExpr) -> (&NalgExpr, Vec<String>) {
    let mut cur = e;
    let mut attrs = Vec::new();
    while let NalgExpr::Unnest { input, attr } = cur {
        attrs.push(attr.clone());
        cur = input;
    }
    (cur, attrs)
}

fn reattach_unnests(core: NalgExpr, attrs: &[String]) -> NalgExpr {
    // attrs are outermost-first; re-apply innermost-first.
    attrs
        .iter()
        .rev()
        .fold(core, |acc, a| acc.unnest(a.clone()))
}

/// One-step applications of rule 8 (pointer join) and rule 9 (pointer
/// chase) anywhere in the tree, with every constraint admitted. See
/// [`join_rewrite_candidates_tracked`].
pub fn join_rewrite_candidates(
    e: &NalgExpr,
    ws: &WebScheme,
    pointer_join: bool,
    pointer_chase: bool,
) -> Vec<NalgExpr> {
    join_rewrite_candidates_tracked(e, ws, pointer_join, pointer_chase, &open_gate)
        .into_iter()
        .map(|(c, _, _)| c)
        .collect()
}

/// A rule-8/9 rewrite of a whole expression: the rewritten expression, the
/// constraints that licensed it, and the rule that produced it.
pub type JoinRewrite = (NalgExpr, Vec<ConstraintDependency>, RewriteRule);

/// One-step applications of rule 8 (pointer join) and rule 9 (pointer
/// chase) anywhere in the tree. Returns all rewritten whole expressions,
/// each with the constraints that licensed it (rule 8: one link constraint
/// per join pair; rule 9: additionally the inclusion it chased through)
/// and the rule applied; callers validate and cost them. Candidates that
/// drop a branch whose columns are still referenced fail [`validate`] and
/// are discarded there. Constraints the gate rejects license nothing.
pub fn join_rewrite_candidates_tracked<'e>(
    e: &'e NalgExpr,
    ws: &WebScheme,
    pointer_join: bool,
    pointer_chase: bool,
    gate: ConstraintGate<'_>,
) -> Vec<JoinRewrite> {
    let mut out = Vec::new();
    let Ok(aliases) = e.alias_map() else {
        return out;
    };
    find_node(e, &mut |node: &'e NalgExpr, path| {
        let NalgExpr::Join { left, right, on } = node else {
            return None::<()>;
        };
        if on.is_empty() {
            return None;
        }
        for follow_on_left in [true, false] {
            let (fside, oside): (&NalgExpr, &NalgExpr) = if follow_on_left {
                (left, right)
            } else {
                (right, left)
            };
            // orient pairs as (followed-side attr, other-side attr)
            let pair = |(a, b): &'e (String, String)| -> (&'e str, &'e str) {
                if follow_on_left {
                    (a, b)
                } else {
                    (b, a)
                }
            };
            let (core, stripped) = strip_unnests(fside);
            let NalgExpr::Follow {
                input: r1,
                link: l1,
                target,
                alias: a3,
            } = core
            else {
                continue;
            };
            // every followed-side join attr must be a top-level attribute
            // of the followed page (alias a3)
            if !on.iter().all(|p| alias_of(pair(p).0) == a3) {
                continue;
            }
            let Ok(ocols) = oside.output_columns(ws) else {
                continue;
            };
            // candidate links L2 in the other side pointing to the target
            for l2col in &ocols {
                let Some(l2field) = field_of_column(ws, &aliases, l2col).ok() else {
                    continue;
                };
                if l2field.ty.link_target() != Some(target.as_str()) {
                    continue;
                }
                let Some(l2ref) = attr_ref_of(&aliases, l2col) else {
                    continue;
                };
                // every pair must be licensed by a link constraint on L2
                // the gate admits; the constraints used become the
                // candidate's provenance
                let mut pair_deps: Vec<ConstraintDependency> = Vec::new();
                let mut licensed = true;
                for (f, o) in on.iter().map(pair) {
                    let (Some(fref), Some(oref)) =
                        (attr_ref_of(&aliases, f), attr_ref_of(&aliases, o))
                    else {
                        licensed = false;
                        break;
                    };
                    // nullable join attributes filter rows the rewritten
                    // plan would keep — refuse the rewrite (cf. rule 4)
                    let non_nullable = |col: &str| matches!(field_of_column(ws, &aliases, col), Ok(fld) if !fld.optional);
                    if !(fref.path.len() == 1
                        && resolves(&ocols, o)
                        && non_nullable(f)
                        && non_nullable(o))
                    {
                        licensed = false;
                        break;
                    }
                    match find_link_constraint(ws, &l2ref, &oref, &fref, gate) {
                        Some(c) => pair_deps.push(ConstraintDependency::Link(c)),
                        None => {
                            licensed = false;
                            break;
                        }
                    }
                }
                if !licensed {
                    continue;
                }
                if pointer_join {
                    // Rule 8: (R1 –L→ R3) ⋈_{R3.B=R2.A} R2
                    //       = (R1 ⋈_{R1.L=R2.L} R2) –L→ R3
                    let join = NalgExpr::Join {
                        left: r1.clone(),
                        right: Box::new(oside.clone()),
                        on: vec![(l1.clone(), l2col.clone())],
                    };
                    let rewritten = reattach_unnests(
                        join.follow_as(l1.clone(), target.clone(), a3.clone()),
                        &stripped,
                    );
                    out.push((
                        with_node(e, path, rewritten),
                        pair_deps.clone(),
                        RewriteRule::PointerJoin,
                    ));
                }
                if pointer_chase {
                    // Rule 9 additionally needs R2.L ⊆ R1.L.
                    let Some(l1ref) = attr_ref_of(&aliases, l1) else {
                        continue;
                    };
                    if ws.inclusion_implied(&l2ref, &l1ref) {
                        let mut deps = pair_deps;
                        // A trivial self-inclusion (same link attribute on
                        // both sides) assumes nothing about the site.
                        if l2ref != l1ref {
                            let dep = ConstraintDependency::Inclusion(InclusionConstraint::new(
                                l2ref.clone(),
                                l1ref,
                            ));
                            if !gate(&dep) {
                                continue;
                            }
                            deps.push(dep);
                        }
                        let rewritten = reattach_unnests(
                            oside
                                .clone()
                                .follow_as(l2col.clone(), target.clone(), a3.clone()),
                            &stripped,
                        );
                        out.push((
                            with_node(e, path, rewritten),
                            deps,
                            RewriteRule::PointerChase,
                        ));
                    }
                }
            }
        }
        None
    });
    out
}

// --------------------------------------------------------------------------
// rule 6 — selection pushing
// --------------------------------------------------------------------------

/// Pushes every selection atom as deep as it can go, with every constraint
/// admitted. See [`push_selections_tracked`].
pub fn push_selections(e: NalgExpr, ws: &WebScheme) -> Result<NalgExpr> {
    push_selections_tracked(e, ws, &open_gate).map(|(out, _)| out)
}

/// Pushes every selection atom as deep as it can go: through π, ⋈, ∘, and
/// — via link constraints (rule 6) — through follow-link operators,
/// rewriting target-side attributes into their replicated source-side
/// anchors. Returns the rewritten expression with the link constraints
/// relied on (sorted, deduplicated). Constraints the gate rejects are not
/// pushed through — the selection simply stays above the navigation.
/// Rewrites in place: each atom is inserted where it lands, and nothing
/// else is copied.
pub fn push_selections_tracked(
    e: NalgExpr,
    ws: &WebScheme,
    gate: ConstraintGate<'_>,
) -> Result<(NalgExpr, Vec<ConstraintDependency>)> {
    let mut deps = Vec::new();
    let mut out = e;
    push_sel(&mut out, ws, gate, &mut deps)?;
    deps.sort();
    deps.dedup();
    Ok((out, deps))
}

/// Pushes the selections of `e`, innermost first, each atom of a
/// selection in turn.
fn push_sel(
    e: &mut NalgExpr,
    ws: &WebScheme,
    gate: ConstraintGate<'_>,
    deps: &mut Vec<ConstraintDependency>,
) -> Result<()> {
    match e {
        NalgExpr::Select { input, .. }
        | NalgExpr::Project { input, .. }
        | NalgExpr::Unnest { input, .. }
        | NalgExpr::Follow { input, .. } => push_sel(input, ws, gate, deps)?,
        NalgExpr::Join { left, right, .. } => {
            push_sel(left, ws, gate, deps)?;
            push_sel(right, ws, gate, deps)?;
        }
        NalgExpr::Entry { .. } | NalgExpr::External { .. } => {}
    }
    let NalgExpr::Select { .. } = e else {
        return Ok(());
    };
    let NalgExpr::Select { input, pred } = take(e) else {
        unreachable!("checked above");
    };
    let mut cur = *input;
    for atom in pred.conjuncts() {
        let landing = match sink(&cur, &atom, ws, gate, deps)? {
            Sunk::Lands { path, atom } => Some((path, atom)),
            Sunk::Stays(_) => None,
        };
        match landing {
            Some((mut path, landed)) => {
                path.reverse();
                let slot = node_at_mut(&mut cur, &path);
                *slot = take(slot).select(landed);
            }
            None => cur = cur.select(atom),
        }
    }
    *e = cur;
    Ok(())
}

/// Where a selection atom goes, found by [`sink`].
enum Sunk<'e> {
    /// It lands inside the subtree, above the node at a child-index
    /// `path` (listed leaf-side first), as `atom` — rule 6 rewrites it
    /// onto source anchors on its way down.
    Lands { path: Vec<usize>, atom: Pred },
    /// It resolves nowhere in the subtree; the subtree's columns, so the
    /// parent need not derive them again.
    Stays(nalg::Result<NodeColumns<'e>>),
}

impl Sunk<'_> {
    /// This outcome for input `i`, seen from its parent.
    fn under(self, i: usize) -> Self {
        match self {
            Sunk::Lands { mut path, atom } => {
                path.push(i);
                Sunk::Lands { path, atom }
            }
            stays => stays,
        }
    }
}

/// Finds where `atom` goes inside `e`: as deep as possible, first in the
/// left input, else the right, else right above the node, and not at all
/// if its attributes resolve nowhere in `e`. Rule-6 pushes record the link
/// constraint used. Columns are derived bottom-up, once per node, and
/// only for subtrees the atom does not land in.
fn sink<'e>(
    e: &'e NalgExpr,
    atom: &Pred,
    ws: &WebScheme,
    gate: ConstraintGate<'_>,
    deps: &mut Vec<ConstraintDependency>,
) -> Result<Sunk<'e>> {
    /// The input's columns, or the landing (returned) inside input `i`.
    macro_rules! stays {
        ($input:expr, $i:expr) => {
            match sink($input, atom, ws, gate, deps)? {
                Sunk::Stays(cols) => cols,
                lands => return Ok(lands.under($i)),
            }
        };
    }
    let here = |cols: nalg::Result<NodeColumns<'e>>| -> Sunk<'e> {
        match &cols {
            Ok(c) if all_pred_refs(atom, |a| resolves(&c.cols, a)) => Sunk::Lands {
                path: Vec::new(),
                atom: atom.clone(),
            },
            _ => Sunk::Stays(cols),
        }
    };
    Ok(match e {
        NalgExpr::Select { input, .. } | NalgExpr::Project { input, .. } => {
            let cols = stays!(input, 0);
            Sunk::Stays(e.column_step(ws, [cols]))
        }
        NalgExpr::Join { left, right, .. } => {
            let l = stays!(left, 0);
            let r = stays!(right, 1);
            here(e.column_step(ws, [l, r]))
        }
        NalgExpr::Unnest { input, .. } => {
            let cols = stays!(input, 0);
            here(e.column_step(ws, [cols]))
        }
        NalgExpr::Follow {
            input, link, alias, ..
        } => {
            let cols = stays!(input, 0);
            // Rule 6: a constant selection on a replicated target attribute
            // moves below the navigation, rewritten onto the source anchor.
            if let Pred::Eq(a, v) = atom {
                if alias_of(a) == alias {
                    let aliases = e.alias_map().map_err(OptError::Eval)?;
                    if let Some((src_col, dep)) = constraint_source_col(ws, &aliases, link, a, gate)
                    {
                        deps.push(dep);
                        let new_atom = Pred::Eq(src_col, v.clone());
                        return Ok(match sink(input, &new_atom, ws, gate, deps)? {
                            Sunk::Stays(_) => Sunk::Lands {
                                path: vec![0],
                                atom: new_atom,
                            },
                            lands => lands.under(0),
                        });
                    }
                }
            }
            here(e.column_step(ws, [cols]))
        }
        NalgExpr::Entry { .. } | NalgExpr::External { .. } => here(e.column_step(ws, [])),
    })
}

// --------------------------------------------------------------------------
// rules 3, 5, 7 — navigation & unnest pruning under projections
// --------------------------------------------------------------------------

/// Removes navigations and unnests whose results the query never uses:
///
/// * rule 5 — `π_X(R1 –L→ R2) = π_X(R1)` when `X ⊆ attrs(R1)` and `L` is
///   non-optional;
/// * rule 7 — references to replicated target attributes are first
///   rewritten onto their source anchors (link constraints), which can turn
///   a used navigation into an unused one;
/// * rule 3 — `π_X(R ∘ A) = π_X(R)` when `X` doesn't use the unnested
///   columns.
///
/// Only applies when the expression root is a projection (the rules hold
/// under set-projection semantics). This variant admits every constraint;
/// see [`prune_navigations_tracked`].
pub fn prune_navigations(e: NalgExpr, ws: &WebScheme) -> Result<NalgExpr> {
    prune_navigations_tracked(e, ws, &open_gate).map(|(out, _)| out)
}

/// [`prune_navigations`] with constraint provenance: returns the pruned
/// expression and the link constraints rule 7 rewrote references through
/// (sorted, deduplicated). Rules 3 and 5 assume nothing about the site and
/// contribute no dependencies. Constraints the gate rejects block the
/// rule-7 substitution, leaving the navigation in place.
pub fn prune_navigations_tracked(
    e: NalgExpr,
    ws: &WebScheme,
    gate: ConstraintGate<'_>,
) -> Result<(NalgExpr, Vec<ConstraintDependency>)> {
    let mut deps = Vec::new();
    if !matches!(e, NalgExpr::Project { .. }) {
        return Ok((e, deps));
    }
    let mut expr = e;
    while let Some((path, substitutions, used)) = find_prune(&expr, ws, gate)? {
        deps.extend(used);
        for (from, to) in substitutions {
            substitute_attr(&mut expr, &from, &to);
        }
        if !splice_out(&mut expr, &path) {
            break;
        }
    }
    deps.sort();
    deps.dedup();
    Ok((expr, deps))
}

type PruneAction = (Vec<usize>, Vec<(String, String)>, Vec<ConstraintDependency>);

fn find_prune(
    e: &NalgExpr,
    ws: &WebScheme,
    gate: ConstraintGate<'_>,
) -> Result<Option<PruneAction>> {
    let aliases = e.alias_map().map_err(OptError::Eval)?;
    let plan = Preorder::new(e);
    for (i, node) in plan.nodes.iter().enumerate() {
        match node {
            NalgExpr::Follow {
                input, link, alias, ..
            } => {
                // the link must be non-optional for rule 5 to hold
                let Ok(field) = field_of_column(ws, &aliases, link) else {
                    continue;
                };
                if field.optional {
                    continue;
                }
                let mut outside: Vec<&str> = Vec::new();
                plan.refs_outside(i, &mut |r| {
                    if strip_alias(r, alias).is_some() {
                        outside.push(r);
                    }
                });
                if outside.is_empty() {
                    return Ok(Some((plan.path(i), vec![], vec![])));
                }
                // rule 7: try to replace each referenced target attribute
                // with its replicated source anchor, which must resolve
                // below the follow (its input's columns are derived only
                // once every reference has an anchor)
                let mut subs = Vec::new();
                let mut used = Vec::new();
                for &r in &outside {
                    let Some((src, dep)) = constraint_source_col(ws, &aliases, link, r, gate)
                    else {
                        break;
                    };
                    subs.push((r.to_string(), src));
                    used.push(dep);
                }
                if subs.len() == outside.len()
                    && matches!(input.output_columns(ws),
                        Ok(cols) if subs.iter().all(|(_, src)| resolves(&cols, src)))
                {
                    return Ok(Some((plan.path(i), subs, used)));
                }
            }
            NalgExpr::Unnest { attr, .. } => {
                let mut used = false;
                plan.refs_outside(i, &mut |r| {
                    used |= r == attr || strip_alias(r, attr).is_some();
                });
                if !used {
                    return Ok(Some((plan.path(i), vec![], vec![])));
                }
            }
            _ => {}
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SiteStatistics;
    use websim::sitegen::bibliography::bibliography_scheme;
    use websim::sitegen::university::university_scheme;
    use websim::sitegen::{BibConfig, Bibliography, University, UniversityConfig};

    fn uni_fixtures() -> (WebScheme, SiteStatistics) {
        let u = University::generate(UniversityConfig::default()).unwrap();
        let stats = SiteStatistics::from_site(&u.site);
        (university_scheme(), stats)
    }

    fn prof_spine() -> NalgExpr {
        NalgExpr::entry("ProfListPage")
            .unnest("ProfList")
            .follow("ToProf", "ProfPage")
    }

    /// The professor spine under aliases L2 and P2.
    fn p2_spine() -> NalgExpr {
        let mut e = prof_spine();
        rename_alias(&mut e, "ProfPage", "P2");
        rename_alias(&mut e, "ProfListPage", "L2");
        e
    }

    #[test]
    fn qualify_rewrites_leaf_references() {
        let ws = university_scheme();
        let e = prof_spine()
            .select(Pred::eq("Rank", "Full"))
            .project(vec!["ProfPage.PName"]);
        let q = qualify_expr(&e, &ws).unwrap();
        let NalgExpr::Project { cols, input } = &q else {
            panic!()
        };
        assert_eq!(cols, &vec!["ProfPage.PName".to_string()]);
        let NalgExpr::Select { pred, .. } = input.as_ref() else {
            panic!()
        };
        assert_eq!(pred.attrs(), vec!["ProfPage.Rank"]);
    }

    #[test]
    fn rename_alias_rewrites_refs_and_nodes() {
        let ws = university_scheme();
        let mut r = qualify_expr(&prof_spine().project(vec!["ProfPage.PName"]), &ws).unwrap();
        rename_alias(&mut r, "ProfPage", "P2");
        let NalgExpr::Project { cols, .. } = &r else {
            panic!()
        };
        assert_eq!(cols, &vec!["P2.PName".to_string()]);
        assert!(r.alias_map().unwrap().contains_key("P2"));
        assert!(validate(&r, &ws));
    }

    #[test]
    fn tree_addressing_round_trip() {
        let e = prof_spine().join(NalgExpr::entry("DeptListPage"), vec![("x", "y")]);
        // preorder paths, as `find_node` visits and `Preorder` indexes them
        let mut paths: Vec<Vec<usize>> = Vec::new();
        find_node(&e, &mut |_, path| {
            paths.push(path.to_vec());
            None::<()>
        });
        assert_eq!(paths.len(), e.size());
        let plan = Preorder::new(&e);
        for (i, p) in paths.iter().enumerate() {
            assert_eq!(&plan.path(i), p);
        }
        let replaced = with_node(&e, &[1], NalgExpr::entry("SessionListPage"));
        let NalgExpr::Join { right, .. } = &replaced else {
            panic!()
        };
        assert_eq!(**right, NalgExpr::entry("SessionListPage"));
        let mut spliced = e.clone();
        assert!(splice_out(&mut spliced, &[0]));
        assert!(!splice_out(&mut spliced, &[1]));
        let NalgExpr::Join { left, .. } = &spliced else {
            panic!()
        };
        assert_eq!(**left, NalgExpr::entry("ProfListPage").unnest("ProfList"));
    }

    #[test]
    fn rule4_merges_identical_spines() {
        let (ws, stats) = uni_fixtures();
        // Professor ⋈ ProfDept (nav 1) — both the same professor spine.
        let left = qualify_expr(&prof_spine(), &ws).unwrap();
        let right = qualify_expr(&p2_spine(), &ws).unwrap();
        let joined = left
            .join(right, vec![("ProfPage.PName", "P2.PName")])
            .project(vec!["ProfPage.Rank".to_string(), "P2.DName".to_string()]);
        let merged = merge_repeated_navigations(joined, &ws, &stats);
        assert_eq!(merged.follow_count(), 1);
        assert!(validate(&merged, &ws));
        // the dropped alias was renamed in the projection
        let NalgExpr::Project { cols, .. } = &merged else {
            panic!()
        };
        assert!(cols.contains(&"ProfPage.DName".to_string()));
    }

    #[test]
    fn rule4_merges_prefix_spines() {
        let (ws, stats) = uni_fixtures();
        // (ProfSpine ∘ CourseList) ⋈_{PName} ProfSpine: prefix case.
        let long = qualify_expr(&prof_spine().unnest("ProfPage.CourseList"), &ws).unwrap();
        let short = qualify_expr(&p2_spine(), &ws).unwrap();
        let joined = long
            .join(short, vec![("ProfPage.PName", "P2.PName")])
            .project(vec![
                "ProfPage.CourseList.CName".to_string(),
                "P2.Rank".to_string(),
            ]);
        let merged = merge_repeated_navigations(joined, &ws, &stats);
        assert_eq!(merged.follow_count(), 1);
        assert!(validate(&merged, &ws));
    }

    #[test]
    fn rule4_refuses_nullable_join_attributes() {
        // Regression (found by the randomized soundness test): a self-join
        // on the optional Email attribute filters null-email professors;
        // merging the navigations would wrongly keep them.
        let (ws, stats) = uni_fixtures();
        let left = qualify_expr(&prof_spine(), &ws).unwrap();
        let right = qualify_expr(&p2_spine(), &ws).unwrap();
        let joined = left
            .join(
                right,
                vec![
                    ("ProfPage.PName", "P2.PName"),
                    ("ProfPage.Email", "P2.Email"),
                ],
            )
            .project(vec!["ProfPage.PName".to_string(), "P2.PName".to_string()]);
        let merged = merge_repeated_navigations(joined.clone(), &ws, &stats);
        assert_eq!(merged, joined, "nullable Email must block the merge");
    }

    #[test]
    fn rule4_requires_key_like_join() {
        let (ws, stats) = uni_fixtures();
        // joining two professor spines on Rank (non-key) must NOT merge
        let left = qualify_expr(&prof_spine(), &ws).unwrap();
        let right = qualify_expr(&p2_spine(), &ws).unwrap();
        let joined = left
            .join(right, vec![("ProfPage.Rank", "P2.Rank")])
            .project(vec!["ProfPage.PName".to_string(), "P2.PName".to_string()]);
        let merged = merge_repeated_navigations(joined.clone(), &ws, &stats);
        assert_eq!(merged, joined);
    }

    #[test]
    fn rule6_pushes_selection_through_navigation() {
        let (ws, _) = uni_fixtures();
        let e = qualify_expr(
            &NalgExpr::entry("DeptListPage")
                .unnest("DeptList")
                .follow("ToDept", "DeptPage")
                .select(Pred::eq("DeptPage.DName", "Computer Science"))
                .project(vec!["Address"]),
            &ws,
        )
        .unwrap();
        let pushed = push_selections(e, &ws).unwrap();
        assert!(validate(&pushed, &ws));
        // the selection must now sit below the follow, on the anchor
        let rendered = nalg::display::tree(&pushed);
        assert!(rendered.contains("DeptListPage.DeptList.DName='Computer Science'"));
        // the follow is now the plan root's child; the selection sits below
        let sel_line = rendered.lines().position(|l| l.contains("σ[")).unwrap();
        let follow_line = rendered
            .lines()
            .position(|l| l.contains("ToDept→"))
            .unwrap();
        assert!(sel_line > follow_line, "{rendered}");
    }

    #[test]
    fn rule6_pushes_through_two_hops() {
        let ws = bibliography_scheme();
        let e = qualify_expr(
            &NalgExpr::entry("BibHomePage")
                .follow("ToConfList", "ConfListPage")
                .unnest("ConfList")
                .follow("ToConf", "ConfPage")
                .unnest("EditionList")
                .follow("ToEdition", "EditionPage")
                .select(Pred::eq("EditionPage.ConfName", "VLDB"))
                .project(vec!["EditionPage.Editors"]),
            &ws,
        )
        .unwrap();
        let pushed = push_selections(e, &ws).unwrap();
        assert!(validate(&pushed, &ws));
        let rendered = nalg::display::inline(&pushed);
        // pushed all the way to the conference-list anchor
        assert!(rendered.contains("ConfListPage.ConfList.ConfName='VLDB'"));
    }

    #[test]
    fn rule5_7_prune_unused_navigation() {
        let ws = bibliography_scheme();
        // editors of VLDB '96: the edition page need not be fetched — the
        // conference page replicates Year and Editors.
        let e = qualify_expr(
            &NalgExpr::entry("BibHomePage")
                .follow("ToConfList", "ConfListPage")
                .unnest("ConfList")
                .follow("ToConf", "ConfPage")
                .unnest("EditionList")
                .follow("ToEdition", "EditionPage")
                .select(Pred::And(vec![
                    Pred::eq("EditionPage.ConfName", "VLDB"),
                    Pred::eq("EditionPage.Year", "1996"),
                ]))
                .project(vec!["EditionPage.Editors"]),
            &ws,
        )
        .unwrap();
        let pushed = push_selections(e, &ws).unwrap();
        let pruned = prune_navigations(pushed, &ws).unwrap();
        assert!(validate(&pruned, &ws));
        // the ToEdition navigation is gone
        assert_eq!(pruned.follow_count(), 2); // home→conflist, conflist→conf
        let rendered = nalg::display::inline(&pruned);
        assert!(!rendered.contains("–ToEdition→"));
        assert!(rendered.contains("ConfPage.EditionList.Editors"));
    }

    #[test]
    fn prune_respects_used_navigations() {
        let (ws, _) = uni_fixtures();
        // Description only exists on the course page — cannot prune.
        let e = qualify_expr(
            &NalgExpr::entry("SessionListPage")
                .unnest("SesList")
                .follow("ToSes", "SessionPage")
                .unnest("SessionPage.CourseList")
                .follow("SessionPage.CourseList.ToCourse", "CoursePage")
                .project(vec!["CoursePage.Description"]),
            &ws,
        )
        .unwrap();
        let pruned = prune_navigations(e.clone(), &ws).unwrap();
        assert_eq!(pruned.follow_count(), e.follow_count());
    }

    #[test]
    fn prune_replaces_anchor_only_navigation() {
        let (ws, _) = uni_fixtures();
        // π[CName] over the full course navigation: CName is replicated in
        // the session page's course list, so the course pages need not be
        // fetched.
        let e = qualify_expr(
            &NalgExpr::entry("SessionListPage")
                .unnest("SesList")
                .follow("ToSes", "SessionPage")
                .unnest("SessionPage.CourseList")
                .follow("SessionPage.CourseList.ToCourse", "CoursePage")
                .project(vec!["CoursePage.CName"]),
            &ws,
        )
        .unwrap();
        let pruned = prune_navigations(e, &ws).unwrap();
        assert!(validate(&pruned, &ws));
        assert_eq!(pruned.follow_count(), 1); // only ToSes remains
        let NalgExpr::Project { cols, .. } = &pruned else {
            panic!()
        };
        assert_eq!(cols, &vec!["SessionPage.CourseList.CName".to_string()]);
    }

    #[test]
    fn rule8_pointer_join_on_example_71_shape() {
        let (ws, _) = uni_fixtures();
        // J1 = prof spine ∘ CourseList; right = course spine (ends with a
        // follow to CoursePage); join on replicated CName.
        let j1 = qualify_expr(&prof_spine().unnest("ProfPage.CourseList"), &ws).unwrap();
        let course = qualify_expr(
            &NalgExpr::entry("SessionListPage")
                .unnest("SesList")
                .follow("ToSes", "SessionPage")
                .unnest("SessionPage.CourseList")
                .follow("SessionPage.CourseList.ToCourse", "CoursePage"),
            &ws,
        )
        .unwrap();
        let joined = j1
            .join(
                course,
                vec![("ProfPage.CourseList.CName", "CoursePage.CName")],
            )
            .project(vec!["CoursePage.Description".to_string()]);
        let candidates = join_rewrite_candidates(&joined, &ws, true, false);
        assert!(!candidates.is_empty());
        let valid: Vec<_> = candidates.iter().filter(|c| validate(c, &ws)).collect();
        assert!(!valid.is_empty());
        // pointer-join shape: join now on the two ToCourse link columns
        let rendered = nalg::display::tree(valid[0]);
        assert!(
            rendered.contains("ToCourse = ") || rendered.contains(".ToCourse"),
            "{rendered}"
        );
    }

    #[test]
    fn rule9_pointer_chase_requires_inclusion() {
        let (ws, _) = uni_fixtures();
        let j1 = qualify_expr(&prof_spine().unnest("ProfPage.CourseList"), &ws).unwrap();
        let course = qualify_expr(
            &NalgExpr::entry("SessionListPage")
                .unnest("SesList")
                .follow("ToSes", "SessionPage")
                .unnest("SessionPage.CourseList")
                .follow("SessionPage.CourseList.ToCourse", "CoursePage"),
            &ws,
        )
        .unwrap();
        let joined = j1
            .join(
                course,
                vec![("ProfPage.CourseList.CName", "CoursePage.CName")],
            )
            .project(vec!["CoursePage.Description".to_string()]);
        let candidates = join_rewrite_candidates(&joined, &ws, false, true);
        // Inclusion ProfPage.CourseList.ToCourse ⊆ SessionPage.CourseList.ToCourse
        // holds, so chasing from the professor side is licensed.
        let valid: Vec<_> = candidates
            .into_iter()
            .filter(|c| validate(c, &ws))
            .collect();
        assert!(!valid.is_empty());
        let best = &valid[0];
        // the session branch is gone: entry SessionListPage disappears
        let rendered = nalg::display::tree(best);
        assert!(!rendered.contains("SessionListPage"), "{rendered}");
        assert!(
            rendered.contains("ProfPage.CourseList.ToCourse"),
            "{rendered}"
        );
    }

    #[test]
    fn rule9_candidates_referencing_dropped_branch_fail_validation() {
        let (ws, _) = uni_fixtures();
        let j1 = qualify_expr(&prof_spine().unnest("ProfPage.CourseList"), &ws).unwrap();
        let course = qualify_expr(
            &NalgExpr::entry("SessionListPage")
                .unnest("SesList")
                .follow("ToSes", "SessionPage")
                .unnest("SessionPage.CourseList")
                .follow("SessionPage.CourseList.ToCourse", "CoursePage"),
            &ws,
        )
        .unwrap();
        // projection references SessionPage.Session — the chase that drops
        // the session branch must fail validation.
        let joined = j1
            .join(
                course,
                vec![("ProfPage.CourseList.CName", "CoursePage.CName")],
            )
            .project(vec!["SessionPage.Session".to_string()]);
        let candidates = join_rewrite_candidates(&joined, &ws, false, true);
        for c in candidates {
            let rendered = nalg::display::tree(&c);
            if !rendered.contains("SessionListPage") {
                assert!(!validate(&c, &ws));
            }
        }
    }

    #[test]
    fn rule2_semantics_join_on_constraint_equals_follow() {
        // Rule 2 lemma, checked semantically on a real site: joining the
        // professor list with professor pages on the replicated PName
        // equals following the ToProf links.
        let u = University::generate(UniversityConfig {
            departments: 2,
            professors: 6,
            courses: 8,
            seed: 9,
            ..UniversityConfig::default()
        })
        .unwrap();
        let ws = u.site.scheme.clone();
        let src = crate::source::LiveSource::for_site(&u.site);
        let follow = qualify_expr(
            &prof_spine().project(vec!["ProfListPage.ProfList.PName", "ProfPage.Rank"]),
            &ws,
        )
        .unwrap();
        let report = nalg::Evaluator::new(&ws, &src).eval(&follow).unwrap();
        // manual "join" via the anchors: same rows
        assert_eq!(report.relation.len(), 6);
        for i in 0..report.relation.len() {
            let anchor = report
                .relation
                .value(i, "ProfListPage.ProfList.PName")
                .unwrap();
            assert!(!anchor.is_null());
        }
    }

    #[test]
    fn validate_rejects_dangling_refs() {
        let ws = university_scheme();
        let bad = prof_spine().select(Pred::eq("NoSuchAttr", "x"));
        assert!(!validate(&bad, &ws));
        let bad = prof_spine().project(vec!["CoursePage.Description"]);
        assert!(!validate(&bad, &ws));
        assert!(validate(&prof_spine(), &ws));
    }

    #[test]
    fn substitute_attr_exact_only() {
        let mut s = prof_spine().project(vec!["ProfPage.PName", "ProfPage.PName2"]);
        substitute_attr(&mut s, "ProfPage.PName", "X.Y");
        let NalgExpr::Project { cols, .. } = &s else {
            panic!()
        };
        assert_eq!(
            cols,
            &vec!["X.Y".to_string(), "ProfPage.PName2".to_string()]
        );
    }

    #[test]
    fn bibliography_rule9_home_featured_chase() {
        let ws = bibliography_scheme();
        let bib = Bibliography::generate(BibConfig {
            authors: 20,
            conferences: 5,
            db_conferences: 2,
            featured: 1,
            editions_per_conf: 2,
            papers_per_edition: 3,
            seed: 5,
            ..BibConfig::default()
        })
        .unwrap();
        let stats = SiteStatistics::from_site(&bib.site);
        // Featured ⊆ DBConfList ⊆ ConfList: transitive inclusion holds.
        let sub = AttrRef::parse("BibHomePage.Featured.ToConf").unwrap();
        let sup = AttrRef::parse("ConfListPage.ConfList.ToConf").unwrap();
        assert!(ws.inclusion_implied(&sub, &sup));
        let _ = stats; // fixture exercised above
    }

    #[test]
    fn pred_qualification_error_on_unknown() {
        let ws = university_scheme();
        let e = prof_spine().select(Pred::eq("Bogus", "x"));
        assert!(qualify_expr(&e, &ws).is_err());
    }

    fn example_71_join(ws: &WebScheme) -> NalgExpr {
        let j1 = qualify_expr(&prof_spine().unnest("ProfPage.CourseList"), ws).unwrap();
        let course = qualify_expr(
            &NalgExpr::entry("SessionListPage")
                .unnest("SesList")
                .follow("ToSes", "SessionPage")
                .unnest("SessionPage.CourseList")
                .follow("SessionPage.CourseList.ToCourse", "CoursePage"),
            ws,
        )
        .unwrap();
        j1.join(
            course,
            vec![("ProfPage.CourseList.CName", "CoursePage.CName")],
        )
        .project(vec!["CoursePage.Description".to_string()])
    }

    #[test]
    fn tracked_rewrites_record_their_constraints() {
        let (ws, _) = uni_fixtures();
        let joined = example_71_join(&ws);
        // Rule 8 records the licensing link constraint.
        let tracked = join_rewrite_candidates_tracked(&joined, &ws, true, false, &open_gate);
        assert!(!tracked.is_empty());
        for (_, deps, rule) in &tracked {
            assert_eq!(*rule, RewriteRule::PointerJoin);
            assert!(!deps.is_empty());
            assert!(deps
                .iter()
                .all(|d| matches!(d, ConstraintDependency::Link(_))));
        }
        // Rule 9 additionally records the inclusion it chases through.
        let chased = join_rewrite_candidates_tracked(&joined, &ws, false, true, &open_gate);
        assert!(chased
            .iter()
            .all(|(_, _, rule)| *rule == RewriteRule::PointerChase));
        assert!(chased.iter().any(|(_, deps, _)| deps
            .iter()
            .any(|d| matches!(d, ConstraintDependency::Inclusion(_)))));
        // Provenance does not perturb the candidates themselves.
        let plain = join_rewrite_candidates(&joined, &ws, true, true);
        let both = join_rewrite_candidates_tracked(&joined, &ws, true, true, &open_gate);
        assert_eq!(
            plain,
            both.into_iter().map(|(c, _, _)| c).collect::<Vec<_>>()
        );
    }

    #[test]
    fn closed_gate_blocks_constraint_rewrites() {
        let (ws, _) = uni_fixtures();
        let closed = |_: &ConstraintDependency| false;
        // Rules 8/9: no candidate may be generated.
        let joined = example_71_join(&ws);
        assert!(join_rewrite_candidates_tracked(&joined, &ws, true, true, &closed).is_empty());
        // Rule 6: the selection stays above the navigation.
        let e = qualify_expr(
            &NalgExpr::entry("DeptListPage")
                .unnest("DeptList")
                .follow("ToDept", "DeptPage")
                .select(Pred::eq("DeptPage.DName", "Computer Science"))
                .project(vec!["Address"]),
            &ws,
        )
        .unwrap();
        let (pushed, deps) = push_selections_tracked(e.clone(), &ws, &closed).unwrap();
        assert!(deps.is_empty());
        assert!(
            !nalg::display::inline(&pushed).contains("DeptList.DName='Computer Science'"),
            "selection must not cross the follow under a closed gate"
        );
        let (open_pushed, open_deps) = push_selections_tracked(e, &ws, &open_gate).unwrap();
        assert_eq!(open_deps.len(), 1);
        assert!(validate(&open_pushed, &ws));
        // Rule 7: the replicated-attribute navigation is kept.
        let e = qualify_expr(
            &NalgExpr::entry("SessionListPage")
                .unnest("SesList")
                .follow("ToSes", "SessionPage")
                .unnest("SessionPage.CourseList")
                .follow("SessionPage.CourseList.ToCourse", "CoursePage")
                .project(vec!["CoursePage.CName"]),
            &ws,
        )
        .unwrap();
        let (kept, deps) = prune_navigations_tracked(e.clone(), &ws, &closed).unwrap();
        assert_eq!(kept.follow_count(), 2);
        assert!(deps.is_empty());
        let (pruned, deps) = prune_navigations_tracked(e, &ws, &open_gate).unwrap();
        assert_eq!(pruned.follow_count(), 1);
        assert_eq!(deps.len(), 1);
    }
}
