//! NALG expression trees and their static analysis.
//!
//! Expressions reference attributes by name; names resolve against the
//! expression's *output columns* by exact match or unique dotted suffix,
//! exactly as the evaluator resolves them against materialized relations.
//! Every `Entry` and `Follow` node carries an **alias** (defaulting to its
//! page-scheme name) that qualifies the columns it contributes, so the same
//! page-scheme may appear several times in one plan (e.g. the three VLDB
//! edition pages of the introduction's query).

use adm::{AdmError, Field, Value, WebScheme};
use std::collections::HashMap;
use std::fmt;

/// A selection predicate: a conjunction of equality atoms (the paper
/// restricts itself to conjunctive queries).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Pred {
    /// `attr = constant`.
    Eq(String, Value),
    /// `attr1 = attr2` (both resolved against the input).
    EqAttr(String, String),
    /// Conjunction.
    And(Vec<Pred>),
}

impl Pred {
    /// `attr = text-constant` convenience.
    pub fn eq(attr: impl Into<String>, value: impl Into<Value>) -> Pred {
        Pred::Eq(attr.into(), value.into())
    }

    /// Flattens the predicate into its atomic conjuncts.
    pub fn conjuncts(&self) -> Vec<Pred> {
        match self {
            Pred::And(ps) => ps.iter().flat_map(|p| p.conjuncts()).collect(),
            atom => vec![atom.clone()],
        }
    }

    /// Rebuilds a predicate from conjuncts (`None` if empty).
    pub fn from_conjuncts(mut atoms: Vec<Pred>) -> Option<Pred> {
        match atoms.len() {
            0 => None,
            1 => Some(atoms.remove(0)),
            _ => Some(Pred::And(atoms)),
        }
    }

    /// The attribute names this predicate mentions.
    pub fn attrs(&self) -> Vec<&str> {
        match self {
            Pred::Eq(a, _) => vec![a],
            Pred::EqAttr(a, b) => vec![a, b],
            Pred::And(ps) => ps.iter().flat_map(|p| p.attrs()).collect(),
        }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::Eq(a, v) => write!(f, "{a}='{v}'"),
            Pred::EqAttr(a, b) => write!(f, "{a}={b}"),
            Pred::And(ps) => {
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∧ ")?;
                    }
                    write!(f, "{p}")?;
                }
                Ok(())
            }
        }
    }
}

/// A navigational-algebra expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NalgExpr {
    /// An entry-point page-relation (single tuple, known URL).
    Entry {
        /// The entry-point page-scheme.
        scheme: String,
        /// Column-qualification alias (defaults to the scheme name).
        alias: String,
    },
    /// An external relation, to be replaced by a default navigation
    /// (rewrite rule 1). Not computable as-is.
    External {
        /// The external relation name.
        name: String,
    },
    /// Selection σ.
    Select {
        /// Input expression.
        input: Box<NalgExpr>,
        /// The predicate.
        pred: Pred,
    },
    /// Projection π (set semantics).
    Project {
        /// Input expression.
        input: Box<NalgExpr>,
        /// Columns to keep (resolved by suffix).
        cols: Vec<String>,
    },
    /// Join ⋈ on equality pairs.
    Join {
        /// Left input.
        left: Box<NalgExpr>,
        /// Right input.
        right: Box<NalgExpr>,
        /// Equality pairs `(left column, right column)`.
        on: Vec<(String, String)>,
    },
    /// Unnest page `R ∘ A`.
    Unnest {
        /// Input expression.
        input: Box<NalgExpr>,
        /// The list attribute to unnest (resolved by suffix).
        attr: String,
    },
    /// Follow link `R –L→ P`.
    Follow {
        /// Input expression.
        input: Box<NalgExpr>,
        /// The link attribute to follow (resolved by suffix).
        link: String,
        /// Target page-scheme.
        target: String,
        /// Column-qualification alias for the target's columns.
        alias: String,
    },
}

impl NalgExpr {
    /// An entry-point leaf.
    pub fn entry(scheme: impl Into<String>) -> NalgExpr {
        let scheme = scheme.into();
        NalgExpr::Entry {
            alias: scheme.clone(),
            scheme,
        }
    }

    /// An entry-point leaf with an explicit alias.
    pub fn entry_as(scheme: impl Into<String>, alias: impl Into<String>) -> NalgExpr {
        NalgExpr::Entry {
            scheme: scheme.into(),
            alias: alias.into(),
        }
    }

    /// An external-relation leaf.
    pub fn external(name: impl Into<String>) -> NalgExpr {
        NalgExpr::External { name: name.into() }
    }

    /// σ; builder style.
    pub fn select(self, pred: Pred) -> NalgExpr {
        NalgExpr::Select {
            input: Box::new(self),
            pred,
        }
    }

    /// π; builder style.
    pub fn project<S: Into<String>>(self, cols: Vec<S>) -> NalgExpr {
        NalgExpr::Project {
            input: Box::new(self),
            cols: cols.into_iter().map(Into::into).collect(),
        }
    }

    /// ⋈; builder style.
    pub fn join<S: Into<String>>(self, right: NalgExpr, on: Vec<(S, S)>) -> NalgExpr {
        NalgExpr::Join {
            left: Box::new(self),
            right: Box::new(right),
            on: on.into_iter().map(|(a, b)| (a.into(), b.into())).collect(),
        }
    }

    /// `∘ attr`; builder style.
    pub fn unnest(self, attr: impl Into<String>) -> NalgExpr {
        NalgExpr::Unnest {
            input: Box::new(self),
            attr: attr.into(),
        }
    }

    /// `–link→ target`; builder style.
    pub fn follow(self, link: impl Into<String>, target: impl Into<String>) -> NalgExpr {
        let target = target.into();
        NalgExpr::Follow {
            input: Box::new(self),
            link: link.into(),
            alias: target.clone(),
            target,
        }
    }

    /// `–link→ target` with an explicit alias; builder style.
    pub fn follow_as(
        self,
        link: impl Into<String>,
        target: impl Into<String>,
        alias: impl Into<String>,
    ) -> NalgExpr {
        NalgExpr::Follow {
            input: Box::new(self),
            link: link.into(),
            target: target.into(),
            alias: alias.into(),
        }
    }

    /// Builds an expression from a navigation path.
    pub fn from_path(path: &adm::NavPath) -> NalgExpr {
        let mut e = NalgExpr::entry(path.entry.clone());
        for step in &path.steps {
            e = match step {
                adm::PathStep::Unnest(a) => e.unnest(a.clone()),
                adm::PathStep::Follow { link, target } => e.follow(link.clone(), target.clone()),
            };
        }
        e
    }

    /// Direct children.
    pub fn children(&self) -> Vec<&NalgExpr> {
        self.inputs().collect()
    }

    /// The direct children, left before right, without allocating.
    pub fn inputs(&self) -> impl Iterator<Item = &NalgExpr> {
        let (a, b): (Option<&NalgExpr>, Option<&NalgExpr>) = match self {
            NalgExpr::Entry { .. } | NalgExpr::External { .. } => (None, None),
            NalgExpr::Select { input, .. }
            | NalgExpr::Project { input, .. }
            | NalgExpr::Unnest { input, .. }
            | NalgExpr::Follow { input, .. } => (Some(input), None),
            NalgExpr::Join { left, right, .. } => (Some(left), Some(right)),
        };
        a.into_iter().chain(b)
    }

    /// True if every leaf is an entry point (Section 4's computability).
    pub fn is_computable(&self) -> bool {
        match self {
            NalgExpr::Entry { .. } => true,
            NalgExpr::External { .. } => false,
            other => other.inputs().all(|c| c.is_computable()),
        }
    }

    /// True if any external-relation leaf remains.
    pub fn has_external(&self) -> bool {
        match self {
            NalgExpr::External { .. } => true,
            other => other.inputs().any(|c| c.has_external()),
        }
    }

    /// All external relation names, in leaf order.
    pub fn externals(&self) -> Vec<&str> {
        match self {
            NalgExpr::External { name } => vec![name.as_str()],
            other => other.inputs().flat_map(|c| c.externals()).collect(),
        }
    }

    /// Number of operator nodes (tree size).
    pub fn size(&self) -> usize {
        1 + self.inputs().map(|c| c.size()).sum::<usize>()
    }

    /// Number of follow-link operators (navigations).
    pub fn follow_count(&self) -> usize {
        let here = usize::from(matches!(self, NalgExpr::Follow { .. }));
        here + self.inputs().map(|c| c.follow_count()).sum::<usize>()
    }

    /// Rewrites the tree bottom-up: children first, then `f` on the node.
    pub fn transform_bottom_up(self, f: &impl Fn(NalgExpr) -> NalgExpr) -> NalgExpr {
        let rebuilt = match self {
            NalgExpr::Select { input, pred } => NalgExpr::Select {
                input: Box::new(input.transform_bottom_up(f)),
                pred,
            },
            NalgExpr::Project { input, cols } => NalgExpr::Project {
                input: Box::new(input.transform_bottom_up(f)),
                cols,
            },
            NalgExpr::Unnest { input, attr } => NalgExpr::Unnest {
                input: Box::new(input.transform_bottom_up(f)),
                attr,
            },
            NalgExpr::Follow {
                input,
                link,
                target,
                alias,
            } => NalgExpr::Follow {
                input: Box::new(input.transform_bottom_up(f)),
                link,
                target,
                alias,
            },
            NalgExpr::Join { left, right, on } => NalgExpr::Join {
                left: Box::new(left.transform_bottom_up(f)),
                right: Box::new(right.transform_bottom_up(f)),
                on,
            },
            leaf => leaf,
        };
        f(rebuilt)
    }

    /// The alias → page-scheme map contributed by this expression's
    /// `Entry`/`Follow` nodes. Errors on duplicate aliases.
    pub fn alias_map(&self) -> crate::Result<HashMap<String, String>> {
        let mut map = HashMap::new();
        fn walk(e: &NalgExpr, map: &mut HashMap<String, String>) -> crate::Result<()> {
            let binding = match e {
                NalgExpr::Entry { scheme, alias } => Some((alias, scheme)),
                NalgExpr::Follow { target, alias, .. } => Some((alias, target)),
                _ => None,
            };
            if let Some((alias, scheme)) = binding {
                if map.insert(alias.clone(), scheme.clone()).is_some() {
                    return Err(crate::EvalError::DuplicateAlias(alias.clone()));
                }
            }
            for c in e.inputs() {
                walk(c, map)?;
            }
            Ok(())
        }
        walk(self, &mut map)?;
        Ok(map)
    }

    /// The qualified output columns of this expression under a scheme.
    /// External leaves make this fail ([`crate::EvalError::NotComputable`]).
    /// One bottom-up pass: each node is analysed once, by
    /// [`NalgExpr::column_step`].
    pub fn output_columns(&self, ws: &WebScheme) -> crate::Result<Vec<String>> {
        fn go<'e>(e: &'e NalgExpr, ws: &WebScheme) -> crate::Result<NodeColumns<'e>> {
            e.column_step(ws, e.inputs().map(|c| go(c, ws)))
        }
        go(self, ws).map(|c| c.cols)
    }

    /// This node's [`NodeColumns`], derived from its inputs' — the per-node
    /// step of [`NalgExpr::output_columns`], for passes that walk a plan
    /// bottom-up and carry each node's columns to its parent instead of
    /// re-deriving them. `inputs` yields one result per child, left before
    /// right, and is consumed lazily: a failed left input is returned
    /// without pulling the right one. The result (columns or error) is the
    /// one `output_columns` returns on this node.
    pub fn column_step<'e>(
        &'e self,
        ws: &WebScheme,
        inputs: impl IntoIterator<Item = crate::Result<NodeColumns<'e>>>,
    ) -> crate::Result<NodeColumns<'e>> {
        let mut inputs = inputs.into_iter();
        let mut input = || inputs.next().expect("one input per child");
        match self {
            NalgExpr::Entry { scheme, alias } => Ok(NodeColumns {
                cols: page_columns(ws, scheme, alias)?,
                bindings: vec![(alias, scheme)],
                duplicate: false,
            }),
            NalgExpr::External { name } => Err(crate::EvalError::NotComputable(format!(
                "external relation {name} has no navigational columns"
            ))),
            NalgExpr::Select { .. } => input(),
            NalgExpr::Project { cols, .. } => {
                let mut c = input()?;
                c.cols = cols
                    .iter()
                    .map(|name| resolve_column(&c.cols, name).map(|i| c.cols[i].clone()))
                    .collect::<crate::Result<_>>()?;
                Ok(c)
            }
            NalgExpr::Join { .. } => {
                let mut l = input()?;
                let r = input()?;
                l.duplicate |= r.duplicate
                    || r.bindings
                        .iter()
                        .any(|(a, _)| l.bindings.iter().any(|(b, _)| a == b));
                l.cols.extend(r.cols);
                l.bindings.extend(r.bindings);
                Ok(l)
            }
            NalgExpr::Unnest { attr, .. } => {
                let mut c = input()?;
                let i = resolve_column(&c.cols, attr)?;
                if c.duplicate {
                    return Err(self.duplicate_alias());
                }
                let field = field_in(ws, |a| c.scheme_of(a), &c.cols[i])?;
                let inner = field.ty.list_fields().ok_or_else(|| {
                    crate::EvalError::Adm(AdmError::TypeMismatch {
                        attr: c.cols[i].clone(),
                        expected: "list",
                        found: field.ty.kind().to_string(),
                    })
                })?;
                let qualified = c.cols.remove(i);
                c.cols.retain(|col| *col != qualified);
                c.cols
                    .extend(inner.iter().map(|f| format!("{qualified}.{}", f.name)));
                Ok(c)
            }
            NalgExpr::Follow {
                link,
                target,
                alias,
                ..
            } => {
                let mut c = input()?;
                let i = resolve_column(&c.cols, link)?;
                if c.duplicate || c.scheme_of(alias).is_some() {
                    return Err(self.duplicate_alias());
                }
                let scheme_of = |a: &str| {
                    if a == alias {
                        Some(target.as_str())
                    } else {
                        c.scheme_of(a)
                    }
                };
                let field = field_in(ws, scheme_of, &c.cols[i])?;
                match field.ty.link_target() {
                    Some(t) if t == target => {}
                    Some(t) => {
                        return Err(crate::EvalError::Adm(AdmError::TypeMismatch {
                            attr: c.cols[i].clone(),
                            expected: "link to the follow target",
                            found: format!("link to {t}"),
                        }))
                    }
                    None => {
                        return Err(crate::EvalError::Adm(AdmError::TypeMismatch {
                            attr: c.cols[i].clone(),
                            expected: "link",
                            found: field.ty.kind().to_string(),
                        }))
                    }
                }
                c.cols.extend(page_columns(ws, target, alias)?);
                c.bindings.push((alias, target));
                Ok(c)
            }
        }
    }

    /// The error [`NalgExpr::alias_map`] reports for a subtree known to
    /// bind some alias twice.
    fn duplicate_alias(&self) -> crate::EvalError {
        match self.alias_map() {
            Err(e) => e,
            Ok(_) => unreachable!("the subtree binds an alias twice"),
        }
    }
}

/// What [`NalgExpr::output_columns`] knows about one node: its qualified
/// output columns and the alias → page-scheme bindings of its subtree.
/// [`NalgExpr::column_step`] derives a node's from its inputs'.
#[derive(Debug, Clone)]
pub struct NodeColumns<'e> {
    /// The qualified output columns, in order.
    pub cols: Vec<String>,
    /// `(alias, page-scheme)` of every `Entry`/`Follow` node in the subtree.
    bindings: Vec<(&'e str, &'e str)>,
    /// Two nodes of the subtree bind the same alias.
    duplicate: bool,
}

impl<'e> NodeColumns<'e> {
    /// The page-scheme an alias of the subtree is bound to.
    fn scheme_of(&self, alias: &str) -> Option<&'e str> {
        self.bindings
            .iter()
            .find_map(|&(a, s)| (a == alias).then_some(s))
    }
}

/// The columns a page-relation contributes: `alias.URL` plus one per
/// top-level attribute (lists stay nested in a single column).
pub fn page_columns(ws: &WebScheme, scheme: &str, alias: &str) -> crate::Result<Vec<String>> {
    let ps = ws.scheme(scheme)?;
    let mut cols = Vec::with_capacity(ps.fields.len() + 1);
    cols.push(format!("{alias}.URL"));
    cols.extend(ps.fields.iter().map(|f| format!("{alias}.{}", f.name)));
    Ok(cols)
}

/// True if `col` ends in `.name` (a dotted-suffix match).
fn is_dotted_suffix(col: &str, name: &str) -> bool {
    col.len() > name.len()
        && col.ends_with(name)
        && col.as_bytes()[col.len() - name.len() - 1] == b'.'
}

/// Where `name` resolves in `cols`: exact match, else unique dotted-suffix
/// match.
fn column_position(cols: &[String], name: &str) -> Option<usize> {
    if let Some(i) = cols.iter().position(|c| c == name) {
        return Some(i);
    }
    let mut hits = cols
        .iter()
        .enumerate()
        .filter(|(_, c)| is_dotted_suffix(c, name));
    match (hits.next(), hits.next()) {
        (Some((i, _)), None) => Some(i),
        _ => None,
    }
}

/// Resolves a column name against a header: exact match, else unique
/// dotted-suffix match (same rule as `adm::Relation::resolve`).
pub fn resolve_column(cols: &[String], name: &str) -> crate::Result<usize> {
    column_position(cols, name).ok_or_else(|| {
        let candidates: Vec<String> = cols
            .iter()
            .filter(|c| is_dotted_suffix(c, name))
            .cloned()
            .collect();
        crate::EvalError::Adm(if candidates.is_empty() {
            AdmError::UnknownAttribute {
                attr: name.to_string(),
                within: format!("columns [{}]", cols.join(", ")),
            }
        } else {
            AdmError::AmbiguousAttribute {
                attr: name.to_string(),
                candidates,
            }
        })
    })
}

/// Whether `name` resolves against `cols` — [`resolve_column`] for a yes/no
/// answer, without building the error.
pub fn resolves(cols: &[String], name: &str) -> bool {
    column_position(cols, name).is_some()
}

/// Maps a fully qualified column (`alias.path…`) to its field definition.
/// `alias.URL` has no field; it errors (URL is the implicit key).
pub fn field_of_column<'ws>(
    ws: &'ws WebScheme,
    aliases: &HashMap<String, String>,
    qualified: &str,
) -> crate::Result<&'ws Field> {
    field_in(ws, |a| aliases.get(a).map(String::as_str), qualified)
}

/// [`field_of_column`] with the alias bindings as a lookup function.
fn field_in<'ws, 's>(
    ws: &'ws WebScheme,
    scheme_of: impl Fn(&str) -> Option<&'s str>,
    qualified: &str,
) -> crate::Result<&'ws Field> {
    let (alias, path) = match qualified.split_once('.') {
        Some((alias, path)) => (alias, Some(path)),
        None => (qualified, None),
    };
    let scheme = scheme_of(alias).ok_or_else(|| {
        crate::EvalError::Adm(AdmError::UnknownAttribute {
            attr: qualified.to_string(),
            within: "alias map".to_string(),
        })
    })?;
    let Some(path) = path.filter(|p| *p != "URL") else {
        return Err(crate::EvalError::Adm(AdmError::UnknownAttribute {
            attr: qualified.to_string(),
            within: format!("page-scheme {scheme} (URL is implicit)"),
        }));
    };
    let ps = ws.scheme(scheme)?;
    // most paths are one or two segments deep: resolve them without
    // collecting the segments
    Ok(match path.split_once('.') {
        None => ps.resolve_path(&[path])?,
        Some((a, b)) if !b.contains('.') => ps.resolve_path(&[a, b])?,
        Some(_) => ps.resolve_path(&path.split('.').collect::<Vec<_>>())?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adm::{Field, PageScheme};

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
            PageScheme::new("ItemPage", vec![Field::text("Name"), Field::text("Info")]).unwrap();
        WebScheme::builder()
            .scheme(list)
            .scheme(item)
            .entry_point("ListPage", "/list.html")
            .build()
            .unwrap()
    }

    fn nav() -> NalgExpr {
        NalgExpr::entry("ListPage")
            .unnest("Items")
            .follow("ToItem", "ItemPage")
    }

    #[test]
    fn computability() {
        assert!(nav().is_computable());
        let with_ext = NalgExpr::external("R").join(nav(), vec![("a", "b")]);
        assert!(!with_ext.is_computable());
        assert!(with_ext.has_external());
        assert_eq!(with_ext.externals(), vec!["R"]);
    }

    #[test]
    fn output_columns_through_unnest_and_follow() {
        let cols = nav().output_columns(&scheme()).unwrap();
        assert_eq!(
            cols,
            vec![
                "ListPage.URL",
                "ListPage.Items.Name",
                "ListPage.Items.ToItem",
                "ItemPage.URL",
                "ItemPage.Name",
                "ItemPage.Info",
            ]
        );
    }

    #[test]
    fn project_resolves_by_suffix() {
        let e = nav().project(vec!["Info"]);
        let cols = e.output_columns(&scheme()).unwrap();
        assert_eq!(cols, vec!["ItemPage.Info"]);
    }

    #[test]
    fn ambiguous_suffix_rejected() {
        // Name appears both in the list rows and on the item page.
        let e = nav().project(vec!["Name"]);
        assert!(matches!(
            e.output_columns(&scheme()),
            Err(crate::EvalError::Adm(AdmError::AmbiguousAttribute { .. }))
        ));
    }

    #[test]
    fn follow_validates_link_type() {
        let bad = NalgExpr::entry("ListPage")
            .unnest("Items")
            .follow("Name", "ItemPage"); // Name is text, not link
        assert!(bad.output_columns(&scheme()).is_err());
    }

    #[test]
    fn aliases_allow_same_scheme_twice() {
        let left = NalgExpr::entry("ListPage")
            .unnest("Items")
            .follow_as("ToItem", "ItemPage", "I1");
        let right = NalgExpr::entry_as("ListPage", "L2")
            .unnest("Items")
            .follow_as("ToItem", "ItemPage", "I2");
        let j = left.join(right, vec![("I1.Name", "I2.Name")]);
        let cols = j.output_columns(&scheme()).unwrap();
        assert!(cols.contains(&"I1.Info".to_string()));
        assert!(cols.contains(&"I2.Info".to_string()));
    }

    #[test]
    fn duplicate_alias_rejected() {
        let l = NalgExpr::entry("ListPage");
        let r = NalgExpr::entry("ListPage");
        let j = l.join(r, vec![("URL", "URL")]);
        assert!(matches!(
            j.alias_map(),
            Err(crate::EvalError::DuplicateAlias(_))
        ));
    }

    #[test]
    fn pred_conjunct_flattening() {
        let p = Pred::And(vec![
            Pred::eq("A", "1"),
            Pred::And(vec![
                Pred::eq("B", "2"),
                Pred::EqAttr("C".into(), "D".into()),
            ]),
        ]);
        let atoms = p.conjuncts();
        assert_eq!(atoms.len(), 3);
        let rebuilt = Pred::from_conjuncts(atoms).unwrap();
        assert_eq!(rebuilt.conjuncts().len(), 3);
        assert!(Pred::from_conjuncts(vec![]).is_none());
    }

    #[test]
    fn pred_attrs() {
        let p = Pred::And(vec![
            Pred::eq("A", "1"),
            Pred::EqAttr("B".into(), "C".into()),
        ]);
        assert_eq!(p.attrs(), vec!["A", "B", "C"]);
    }

    #[test]
    fn size_and_follow_count() {
        let e = nav().select(Pred::eq("Info", "x")).project(vec!["Info"]);
        assert_eq!(e.size(), 5);
        assert_eq!(e.follow_count(), 1);
    }

    #[test]
    fn transform_bottom_up_rewrites() {
        // Remove all projections.
        let e = nav().project(vec!["Info"]);
        let stripped = e.transform_bottom_up(&|n| match n {
            NalgExpr::Project { input, .. } => *input,
            other => other,
        });
        assert_eq!(stripped, nav());
    }

    #[test]
    fn from_path_matches_builder() {
        let p = adm::NavPath::at("ListPage")
            .unnest("Items")
            .follow("ToItem", "ItemPage");
        assert_eq!(NalgExpr::from_path(&p), nav());
    }

    #[test]
    fn pred_display() {
        let p = Pred::And(vec![Pred::eq("Session", "Fall"), Pred::eq("Rank", "Full")]);
        assert_eq!(p.to_string(), "Session='Fall' ∧ Rank='Full'");
    }
}
