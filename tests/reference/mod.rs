//! A deliberately naive reference interpreter for NALG, written straight
//! from the operator definitions of the paper's Section 4 and sharing no
//! code with `nalg::Evaluator`: relations are plain row vectors, every
//! operator is a nested loop, and pages come from a [`PageSource`] one
//! `fetch` at a time.
//!
//! * entry point `P` — the single page at `P`'s known URL;
//! * σ — keep the rows satisfying the predicate (`attr = const` holds for
//!   equal values, `Null = Null` included; `a = b` never holds on a null);
//! * π — keep the named columns, with set semantics;
//! * ⋈ — every pair of rows agreeing (non-null) on the join columns,
//!   left columns first;
//! * µ `R ∘ A` — one row per element of the list `A`, the list column
//!   replaced by its inner fields `A.f`; an empty or null list yields
//!   nothing;
//! * `R –L→ P` — the join `R.L = P.URL`, downloading the page behind every
//!   link; a row whose link is null or dangling yields nothing.
//!
//! Besides the answer it records what the paper's cost model charges:
//! one access per entry point and, per navigation, the number of distinct
//! links followed — plus the set of distinct URLs the plan asked for.

use std::collections::{BTreeMap, HashSet};
use webviews::nalg::SourceError;
use webviews::prelude::*;

/// A column of a reference relation: its qualified name and, for a list
/// column, the inner fields `µ` expands it into.
#[derive(Clone)]
struct Column {
    name: String,
    list: Option<Vec<Field>>,
}

/// A relation as the reference interpreter computes it: a header and a bag
/// of rows.
pub struct RefRelation {
    columns: Vec<Column>,
    rows: Vec<Vec<Value>>,
}

impl RefRelation {
    /// The header, as qualified column names.
    pub fn header(&self) -> Vec<String> {
        self.columns.iter().map(|c| c.name.clone()).collect()
    }

    /// The answer as a boundary [`Relation`].
    pub fn into_relation(self) -> Relation {
        Relation::from_rows(self.header(), self.rows).expect("rows match the header")
    }

    /// Exact name first, then the unique `.name` suffix.
    fn resolve(&self, name: &str) -> usize {
        if let Some(i) = self.columns.iter().position(|c| c.name == name) {
            return i;
        }
        let suffix = format!(".{name}");
        let hits: Vec<usize> = (0..self.columns.len())
            .filter(|&i| self.columns[i].name.ends_with(&suffix))
            .collect();
        assert_eq!(hits.len(), 1, "column {name} must resolve uniquely");
        hits[0]
    }
}

/// The interpreter: one per evaluated plan.
pub struct Reference<'a, S: PageSource> {
    ws: &'a WebScheme,
    source: &'a S,
    /// Every distinct URL the plan asked for; `None` for a dangling link.
    pages: BTreeMap<Url, Option<Tuple>>,
    /// The cost model's charge per entry point / navigation, in evaluation
    /// order.
    pub navigations: Vec<(String, u64)>,
}

impl<'a, S: PageSource> Reference<'a, S> {
    pub fn new(ws: &'a WebScheme, source: &'a S) -> Self {
        Reference {
            ws,
            source,
            pages: BTreeMap::new(),
            navigations: Vec::new(),
        }
    }

    /// Distinct URLs the plan asked for, dangling ones included.
    pub fn distinct_urls(&self) -> u64 {
        self.pages.len() as u64
    }

    fn page(&mut self, url: &Url, scheme: &str) -> Option<Tuple> {
        let source = self.source;
        self.pages
            .entry(url.clone())
            .or_insert_with(|| match source.fetch(url, scheme) {
                Ok(t) => Some(t),
                Err(SourceError::NotFound(_)) => None,
                Err(e) => panic!("reference fetch of {url} failed: {e}"),
            })
            .clone()
    }

    /// The columns of a page-relation of `scheme` qualified by `alias`.
    fn page_columns(&self, scheme: &str, alias: &str) -> Vec<Column> {
        let ps = self.ws.scheme(scheme).expect("declared scheme");
        let mut cols = vec![Column {
            name: format!("{alias}.URL"),
            list: None,
        }];
        for f in &ps.fields {
            cols.push(Column {
                name: format!("{alias}.{}", f.name),
                list: list_fields(&f.ty),
            });
        }
        cols
    }

    /// The row of one page: its URL, then its fields in scheme order.
    fn page_row(&self, scheme: &str, url: &Url, page: &Tuple) -> Vec<Value> {
        let ps = self.ws.scheme(scheme).expect("declared scheme");
        let mut row = vec![Value::Link(url.clone())];
        for f in &ps.fields {
            row.push(page.get(&f.name).cloned().unwrap_or(Value::Null));
        }
        row
    }

    pub fn eval(&mut self, expr: &NalgExpr) -> RefRelation {
        match expr {
            NalgExpr::External { name } => panic!("external relation {name} is not computable"),
            NalgExpr::Entry { scheme, alias } => {
                let url = self
                    .ws
                    .entry_point(scheme)
                    .expect("entry point")
                    .url
                    .clone();
                let page = self.page(&url, scheme).expect("entry page exists");
                self.navigations.push((format!("entry {scheme}"), 1));
                RefRelation {
                    columns: self.page_columns(scheme, alias),
                    rows: vec![self.page_row(scheme, &url, &page)],
                }
            }
            NalgExpr::Select { input, pred } => {
                let rel = self.eval(input);
                let rows = rel
                    .rows
                    .iter()
                    .filter(|r| holds(&rel, r, pred))
                    .cloned()
                    .collect();
                RefRelation {
                    columns: rel.columns,
                    rows,
                }
            }
            NalgExpr::Project { input, cols } => {
                let rel = self.eval(input);
                let idx: Vec<usize> = cols.iter().map(|c| rel.resolve(c)).collect();
                let mut rows: Vec<Vec<Value>> = Vec::new();
                for row in &rel.rows {
                    let out: Vec<Value> = idx.iter().map(|&i| row[i].clone()).collect();
                    if !rows.contains(&out) {
                        rows.push(out);
                    }
                }
                RefRelation {
                    columns: idx.iter().map(|&i| rel.columns[i].clone()).collect(),
                    rows,
                }
            }
            NalgExpr::Join { left, right, on } => {
                let l = self.eval(left);
                let r = self.eval(right);
                let keys: Vec<(usize, usize)> = on
                    .iter()
                    .map(|(a, b)| (l.resolve(a), r.resolve(b)))
                    .collect();
                let mut rows = Vec::new();
                for lrow in &l.rows {
                    for rrow in &r.rows {
                        if keys
                            .iter()
                            .all(|&(i, j)| !lrow[i].is_null() && lrow[i] == rrow[j])
                        {
                            rows.push(lrow.iter().chain(rrow).cloned().collect());
                        }
                    }
                }
                let mut columns = l.columns;
                columns.extend(r.columns);
                RefRelation { columns, rows }
            }
            NalgExpr::Unnest { input, attr } => {
                let rel = self.eval(input);
                let ci = rel.resolve(attr);
                let list = &rel.columns[ci];
                let inner = list.list.clone().expect("µ applies to a list column");
                let mut columns: Vec<Column> = rel
                    .columns
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != ci)
                    .map(|(_, c)| c.clone())
                    .collect();
                for f in &inner {
                    columns.push(Column {
                        name: format!("{}.{}", list.name, f.name),
                        list: list_fields(&f.ty),
                    });
                }
                let mut rows = Vec::new();
                for row in &rel.rows {
                    let elements = match &row[ci] {
                        Value::List(ts) => ts.as_slice(),
                        Value::Null => &[],
                        other => panic!("µ over a non-list value {other:?}"),
                    };
                    for t in elements {
                        let mut out: Vec<Value> = row
                            .iter()
                            .enumerate()
                            .filter(|&(i, _)| i != ci)
                            .map(|(_, v)| v.clone())
                            .collect();
                        for f in &inner {
                            out.push(t.get(&f.name).cloned().unwrap_or(Value::Null));
                        }
                        rows.push(out);
                    }
                }
                RefRelation { columns, rows }
            }
            NalgExpr::Follow {
                input,
                link,
                target,
                alias,
            } => {
                let rel = self.eval(input);
                let li = rel.resolve(link);
                let mut distinct: HashSet<Url> = HashSet::new();
                for row in &rel.rows {
                    if let Value::Link(u) = &row[li] {
                        distinct.insert(u.clone());
                    }
                }
                self.navigations
                    .push((format!("–{link}→ {target}"), distinct.len() as u64));
                let mut rows = Vec::new();
                for row in &rel.rows {
                    let Value::Link(u) = &row[li] else { continue };
                    if let Some(page) = self.page(u, target) {
                        let mut out = row.clone();
                        out.extend(self.page_row(target, u, &page));
                        rows.push(out);
                    }
                }
                let mut columns = rel.columns;
                columns.extend(self.page_columns(target, alias));
                RefRelation { columns, rows }
            }
        }
    }
}

fn list_fields(ty: &WebType) -> Option<Vec<Field>> {
    match ty {
        WebType::List(inner) => Some(inner.clone()),
        _ => None,
    }
}

fn holds(rel: &RefRelation, row: &[Value], pred: &Pred) -> bool {
    match pred {
        Pred::Eq(attr, v) => &row[rel.resolve(attr)] == v,
        Pred::EqAttr(a, b) => {
            let (x, y) = (&row[rel.resolve(a)], &row[rel.resolve(b)]);
            !x.is_null() && x == y
        }
        Pred::And(ps) => ps.iter().all(|p| holds(rel, row, p)),
    }
}
