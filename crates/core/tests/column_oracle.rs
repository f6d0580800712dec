//! Reference oracle for plan column analysis.
//!
//! `NalgExpr::output_columns` and `rules::validate` derive each node's
//! columns once, bottom-up, from its inputs' (`NalgExpr::column_step`).
//! This file keeps the recursive definitions they replaced — each node
//! re-deriving its inputs' columns, and the subtree's alias map at every
//! unnest and follow — as test-only reference code, and checks on seeded
//! random expressions, valid and invalid, that both give the same `Ok`
//! columns, the same error, and the same verdict.

use nalg::expr::field_of_column;
use nalg::{EvalError, NalgExpr, Pred};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use websim::sitegen::university::university_scheme;
use wvcore::rules::validate;

/// The recursive definitions the single-pass analysis replaced.
mod reference {
    use super::*;
    use adm::{AdmError, WebScheme};

    pub fn page_columns(ws: &WebScheme, scheme: &str, alias: &str) -> nalg::Result<Vec<String>> {
        let ps = ws.scheme(scheme)?;
        let mut cols = vec![format!("{alias}.URL")];
        cols.extend(ps.fields.iter().map(|f| format!("{alias}.{}", f.name)));
        Ok(cols)
    }

    pub fn resolve_column(cols: &[String], name: &str) -> nalg::Result<usize> {
        if let Some(i) = cols.iter().position(|c| c == name) {
            return Ok(i);
        }
        let suffix = format!(".{name}");
        let hits: Vec<usize> = cols
            .iter()
            .enumerate()
            .filter(|(_, c)| c.ends_with(&suffix))
            .map(|(i, _)| i)
            .collect();
        match hits.len() {
            1 => Ok(hits[0]),
            0 => Err(EvalError::Adm(AdmError::UnknownAttribute {
                attr: name.to_string(),
                within: format!("columns [{}]", cols.join(", ")),
            })),
            _ => Err(EvalError::Adm(AdmError::AmbiguousAttribute {
                attr: name.to_string(),
                candidates: hits.iter().map(|&i| cols[i].clone()).collect(),
            })),
        }
    }

    pub fn output_columns(e: &NalgExpr, ws: &WebScheme) -> nalg::Result<Vec<String>> {
        match e {
            NalgExpr::Entry { scheme, alias } => page_columns(ws, scheme, alias),
            NalgExpr::External { name } => Err(EvalError::NotComputable(format!(
                "external relation {name} has no navigational columns"
            ))),
            NalgExpr::Select { input, .. } => output_columns(input, ws),
            NalgExpr::Project { input, cols } => {
                let in_cols = output_columns(input, ws)?;
                cols.iter()
                    .map(|c| resolve_column(&in_cols, c).map(|i| in_cols[i].clone()))
                    .collect()
            }
            NalgExpr::Join { left, right, .. } => {
                let mut cols = output_columns(left, ws)?;
                cols.extend(output_columns(right, ws)?);
                Ok(cols)
            }
            NalgExpr::Unnest { input, attr } => {
                let in_cols = output_columns(input, ws)?;
                let i = resolve_column(&in_cols, attr)?;
                let qualified = in_cols[i].clone();
                let field = field_of_column(ws, &e.alias_map()?, &qualified)?;
                let inner = field.ty.list_fields().ok_or_else(|| {
                    EvalError::Adm(AdmError::TypeMismatch {
                        attr: qualified.clone(),
                        expected: "list",
                        found: field.ty.kind().to_string(),
                    })
                })?;
                let mut out: Vec<String> = in_cols
                    .iter()
                    .filter(|c| **c != qualified)
                    .cloned()
                    .collect();
                out.extend(inner.iter().map(|f| format!("{qualified}.{}", f.name)));
                Ok(out)
            }
            NalgExpr::Follow {
                input,
                link,
                target,
                alias,
            } => {
                let in_cols = output_columns(input, ws)?;
                let i = resolve_column(&in_cols, link)?;
                let qualified = in_cols[i].clone();
                let field = field_of_column(ws, &e.alias_map()?, &qualified)?;
                match field.ty.link_target() {
                    Some(t) if t == target => {}
                    Some(t) => {
                        return Err(EvalError::Adm(AdmError::TypeMismatch {
                            attr: qualified,
                            expected: "link to the follow target",
                            found: format!("link to {t}"),
                        }))
                    }
                    None => {
                        return Err(EvalError::Adm(AdmError::TypeMismatch {
                            attr: qualified,
                            expected: "link",
                            found: field.ty.kind().to_string(),
                        }))
                    }
                }
                let mut cols = in_cols;
                cols.extend(page_columns(ws, target, alias)?);
                Ok(cols)
            }
        }
    }

    fn nodes(e: &NalgExpr) -> Vec<&NalgExpr> {
        let mut out = vec![e];
        for c in e.children() {
            out.extend(nodes(c));
        }
        out
    }

    pub fn validate(e: &NalgExpr, ws: &WebScheme) -> bool {
        if !e.is_computable() || output_columns(e, ws).is_err() {
            return false;
        }
        for node in nodes(e) {
            match node {
                NalgExpr::Select { input, pred } => {
                    let Ok(cols) = output_columns(input, ws) else {
                        return false;
                    };
                    if pred
                        .attrs()
                        .iter()
                        .any(|a| resolve_column(&cols, a).is_err())
                    {
                        return false;
                    }
                }
                NalgExpr::Join { left, right, on } => {
                    let (Ok(l), Ok(r)) = (output_columns(left, ws), output_columns(right, ws))
                    else {
                        return false;
                    };
                    for (a, b) in on {
                        if resolve_column(&l, a).is_err() || resolve_column(&r, b).is_err() {
                            return false;
                        }
                    }
                }
                _ => {}
            }
        }
        true
    }
}

/// Random expressions over the university scheme. References are mostly
/// drawn from the input's real columns (whole, or a dotted suffix), so
/// most expressions get deep before something fails; the rest are bogus
/// names, wrong link targets, non-list unnests, reused aliases and
/// external leaves.
struct Gen {
    rng: StdRng,
    ws: adm::WebScheme,
}

const ALIASES: [&str; 4] = ["A", "B", "ProfPage", "CoursePage"];

impl Gen {
    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.rng.gen_range(0..items.len())]
    }

    fn alias(&mut self, scheme: &str) -> String {
        if self.rng.gen_bool(0.6) {
            scheme.to_string()
        } else {
            self.pick(&ALIASES).to_string()
        }
    }

    /// A reference into `cols`: a column, a dotted suffix of one, or junk.
    fn reference(&mut self, cols: &[String]) -> String {
        if cols.is_empty() || self.rng.gen_bool(0.1) {
            return "NoSuchAttr".to_string();
        }
        let col = self.pick(cols).clone();
        if self.rng.gen_bool(0.5) {
            return col;
        }
        let parts: Vec<&str> = col.split('.').collect();
        let from = self.rng.gen_range(1..parts.len());
        parts[from..].join(".")
    }

    fn leaf(&mut self) -> NalgExpr {
        if self.rng.gen_bool(0.08) {
            return NalgExpr::external("Professor");
        }
        let schemes: Vec<String> = self.ws.schemes().map(|s| s.name.clone()).collect();
        let scheme = self.pick(&schemes).clone();
        let alias = self.alias(&scheme);
        NalgExpr::entry_as(scheme, alias)
    }

    fn expr(&mut self, depth: usize) -> NalgExpr {
        if depth == 0 || self.rng.gen_bool(0.15) {
            return self.leaf();
        }
        let input = self.expr(depth - 1);
        let cols = reference::output_columns(&input, &self.ws).unwrap_or_default();
        match self.rng.gen_range(0..6u32) {
            0 => {
                let a = self.reference(&cols);
                let pred = if self.rng.gen_bool(0.3) {
                    Pred::And(vec![
                        Pred::eq(a, "x"),
                        Pred::EqAttr(self.reference(&cols), self.reference(&cols)),
                    ])
                } else {
                    Pred::eq(a, "x")
                };
                input.select(pred)
            }
            1 => {
                let keep: Vec<String> = (0..self.rng.gen_range(1..=3usize))
                    .map(|_| self.reference(&cols))
                    .collect();
                input.project(keep)
            }
            2 => {
                let right = self.expr(depth - 1);
                let rcols = reference::output_columns(&right, &self.ws).unwrap_or_default();
                let on: Vec<(String, String)> = (0..self.rng.gen_range(0..=2usize))
                    .map(|_| (self.reference(&cols), self.reference(&rcols)))
                    .collect();
                input.join(right, on)
            }
            3 => {
                // prefer a list column
                let lists: Vec<String> = cols
                    .iter()
                    .filter(|c| self.field_kind(&input, c) == Some("list"))
                    .cloned()
                    .collect();
                let attr = if !lists.is_empty() && self.rng.gen_bool(0.8) {
                    self.reference(&lists)
                } else {
                    self.reference(&cols)
                };
                input.unnest(attr)
            }
            _ => {
                let links: Vec<String> = cols
                    .iter()
                    .filter(|c| self.field_kind(&input, c) == Some("link"))
                    .cloned()
                    .collect();
                let (link, target) = if !links.is_empty() && self.rng.gen_bool(0.85) {
                    let col = self.pick(&links).clone();
                    let target = self.link_target(&input, &col);
                    let target = if self.rng.gen_bool(0.9) {
                        target
                    } else {
                        "DeptPage".to_string()
                    };
                    (self.reference(std::slice::from_ref(&col)), target)
                } else {
                    (self.reference(&cols), "ProfPage".to_string())
                };
                let alias = self.alias(&target);
                input.follow_as(link, target, alias)
            }
        }
    }

    fn field_kind(&self, e: &NalgExpr, col: &str) -> Option<&'static str> {
        let aliases = e.alias_map().ok()?;
        field_of_column(&self.ws, &aliases, col)
            .ok()
            .map(|f| f.ty.kind())
    }

    fn link_target(&self, e: &NalgExpr, col: &str) -> String {
        let aliases = e.alias_map().expect("checked by field_kind");
        let field = field_of_column(&self.ws, &aliases, col).expect("a link column");
        field.ty.link_target().expect("a link column").to_string()
    }
}

/// The error kinds the cases must include, with how many cases hit each.
#[derive(Default, Debug)]
struct Coverage {
    ok: usize,
    duplicate_alias_below_unnest_or_follow: usize,
    wrong_link_target: usize,
    unresolvable_ref: usize,
    external_leaf: usize,
}

fn check(e: &NalgExpr, ws: &adm::WebScheme, seen: &mut Coverage) {
    let expected = reference::output_columns(e, ws);
    assert_eq!(e.output_columns(ws), expected, "output_columns of {e:?}");
    assert_eq!(
        validate(e, ws),
        reference::validate(e, ws),
        "validate of {e:?}"
    );
    match &expected {
        Ok(_) => seen.ok += 1,
        Err(EvalError::DuplicateAlias(_)) => seen.duplicate_alias_below_unnest_or_follow += 1,
        Err(EvalError::Adm(adm::AdmError::TypeMismatch { expected, .. }))
            if *expected == "link to the follow target" =>
        {
            seen.wrong_link_target += 1
        }
        Err(EvalError::Adm(adm::AdmError::UnknownAttribute { .. })) => seen.unresolvable_ref += 1,
        Err(EvalError::NotComputable(_)) => seen.external_leaf += 1,
        Err(_) => {}
    }
}

#[test]
fn single_pass_analysis_matches_the_recursive_reference() {
    let ws = university_scheme();
    let mut seen = Coverage::default();
    // The invalid shapes named explicitly, so they are covered whatever
    // the generator draws.
    let prof = || {
        NalgExpr::entry("ProfListPage")
            .unnest("ProfList")
            .follow("ToProf", "ProfPage")
    };
    let same_alias_both_sides = prof()
        .join(prof(), vec![("PName", "PName")])
        .unnest("ProfPage.CourseList");
    let wrong_target = NalgExpr::entry("ProfListPage")
        .unnest("ProfList")
        .follow("ToProf", "DeptPage");
    let unresolvable = prof().select(Pred::eq("NoSuchAttr", "x"));
    let external = NalgExpr::external("Professor").join(prof(), vec![("PName", "PName")]);
    for e in [same_alias_both_sides, wrong_target, unresolvable, external] {
        check(&e, &ws, &mut seen);
    }
    let mut gen = Gen {
        rng: StdRng::seed_from_u64(0x0c01_0a1e),
        ws: ws.clone(),
    };
    for _ in 0..3000 {
        let e = gen.expr(6);
        check(&e, &ws, &mut seen);
    }
    // every kind of case occurs among the random ones too
    assert!(seen.ok >= 300, "{seen:?}");
    assert!(
        seen.duplicate_alias_below_unnest_or_follow >= 20,
        "{seen:?}"
    );
    assert!(seen.wrong_link_target >= 20, "{seen:?}");
    assert!(seen.unresolvable_ref >= 20, "{seen:?}");
    assert!(seen.external_leaf >= 20, "{seen:?}");
}
