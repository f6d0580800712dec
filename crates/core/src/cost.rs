//! The cost model of Section 6.2.
//!
//! **Step 1** estimates the cardinality of every intermediate result:
//!
//! ```text
//! |P ∘ L|        = |P| · |L|                (fan-out)
//! |σ_{A=v}(R)|   = |R| · s_A,  s_A = 1/c_A  (uniformity assumption)
//! |R1 ⋈_A R2|    = |R1| · |R2| · jsel
//! |π_X(R)|       = min(|R|, Π c_X)          (set projection)
//! |R –L→ P|      = |R|                      (L is a key join on URL)
//! ```
//!
//! **Step 2** sums operator costs: only network access costs anything —
//! an entry point costs 1 page, a navigation `R –L→ P` costs the number of
//! *distinct* outgoing links `|π_L(R)|`, estimated as
//! `min(|R|, c_L)`; σ, π, ⋈ are local and free.
//!
//! Costs carry a secondary **bytes** component (page count × average page
//! size) used only to break page-count ties, reproducing the paper's
//! preference for strategy 2 (the smaller database-conference list page)
//! over strategy 1.

use crate::stats::SiteStatistics;
use crate::{OptError, Result};
use nalg::expr::{resolve_column, NodeColumns};
use nalg::{NalgExpr, Pred};
use std::collections::HashMap;
use std::fmt;
use std::ops::Add;

/// An estimated plan cost: pages downloaded, with a bytes tiebreaker.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cost {
    /// Estimated number of page downloads (the paper's 𝒞).
    pub pages: f64,
    /// Estimated bytes transferred (secondary, tie-breaking component).
    pub bytes: f64,
}

impl Cost {
    /// The zero cost.
    pub const ZERO: Cost = Cost {
        pages: 0.0,
        bytes: 0.0,
    };

    /// Lexicographic comparison with a small tolerance on pages.
    pub fn better_than(&self, other: &Cost) -> bool {
        const EPS: f64 = 1e-6;
        if self.pages + EPS < other.pages {
            return true;
        }
        if (self.pages - other.pages).abs() <= EPS {
            return self.bytes < other.bytes;
        }
        false
    }
}

impl Add for Cost {
    type Output = Cost;
    fn add(self, rhs: Cost) -> Cost {
        Cost {
            pages: self.pages + rhs.pages,
            bytes: self.bytes + rhs.bytes,
        }
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} pages ({:.1} KB)", self.pages, self.bytes / 1024.0)
    }
}

/// A full cost estimate for an expression.
#[derive(Debug, Clone)]
pub struct Estimate {
    /// Estimated output cardinality.
    pub card: f64,
    /// Estimated total cost.
    pub cost: Cost,
    /// Per-navigation breakdown (operator label, estimated page accesses),
    /// mirroring [`nalg::EvalReport::accesses_by_operator`].
    pub per_operator: Vec<(String, f64)>,
    /// Per-node estimates in pre-order (index = pre-order node index).
    /// The evaluator's operator spans number nodes the same way for the
    /// same expression, which is what lets EXPLAIN ANALYZE join
    /// predicted and observed values per operator.
    pub nodes: Vec<NodeEstimate>,
}

/// Estimated cardinality and page cost of one operator node.
#[derive(Debug, Clone)]
pub struct NodeEstimate {
    /// Display label (same convention as the evaluator's span names).
    pub label: String,
    /// Estimated output cardinality of this node.
    pub card: f64,
    /// Pages charged by *this* node alone (1 for an entry point, the
    /// estimated distinct links for a navigation, 0 otherwise).
    pub pages: f64,
}

/// Display label of one operator node; mirrors the evaluator's span
/// naming so predicted and observed rows read identically.
fn node_label(e: &NalgExpr) -> String {
    match e {
        NalgExpr::External { name } => format!("external {name}"),
        NalgExpr::Entry { scheme, .. } => format!("entry {scheme}"),
        NalgExpr::Select { .. } => "σ".to_string(),
        NalgExpr::Project { .. } => "π".to_string(),
        NalgExpr::Join { .. } => "⋈".to_string(),
        NalgExpr::Unnest { attr, .. } => format!("µ {attr}"),
        NalgExpr::Follow { link, target, .. } => format!("–{link}→ {target}"),
    }
}

/// Rewrites an alias-qualified column (`Ed96.Editors`) into the
/// scheme-qualified statistics key (`EditionPage.Editors`).
fn stats_key(aliases: &HashMap<String, String>, qualified: &str) -> String {
    match qualified.split_once('.') {
        Some((alias, rest)) => {
            let scheme = aliases.get(alias).map(String::as_str).unwrap_or(alias);
            format!("{scheme}.{rest}")
        }
        None => qualified.to_string(),
    }
}

struct Estimator<'a> {
    ws: &'a adm::WebScheme,
    stats: &'a SiteStatistics,
    aliases: HashMap<String, String>,
    per_op: Vec<(String, f64)>,
    nodes: Vec<NodeEstimate>,
}

/// A walked subexpression: its cardinality, its accumulated cost, and its
/// output columns (or the error deriving them), which only its parent
/// needs.
type Walked<'e> = (f64, Cost, nalg::Result<NodeColumns<'e>>);

/// Estimates the cardinality and cost of a computable expression in one
/// bottom-up pass: each node's columns are derived once, from its inputs'.
pub fn estimate(expr: &NalgExpr, ws: &adm::WebScheme, stats: &SiteStatistics) -> Result<Estimate> {
    let aliases = expr.alias_map().map_err(OptError::Eval)?;
    let mut est = Estimator {
        ws,
        stats,
        aliases,
        per_op: Vec::new(),
        nodes: Vec::new(),
    };
    let (card, cost, _) = est.walk(expr)?;
    Ok(Estimate {
        card,
        cost,
        per_operator: est.per_op,
        nodes: est.nodes,
    })
}

impl Estimator<'_> {
    fn key_for(&self, cols: &[String], attr: &str) -> Result<String> {
        let i = resolve_column(cols, attr).map_err(OptError::Eval)?;
        Ok(stats_key(&self.aliases, &cols[i]))
    }

    fn pred_selectivity(&self, cols: &[String], pred: &Pred) -> Result<f64> {
        let mut sel = 1.0;
        for atom in pred.conjuncts() {
            sel *= match &atom {
                Pred::Eq(a, _) => {
                    let key = self.key_for(cols, a)?;
                    1.0 / self.stats.distinct_of(&key).max(1.0)
                }
                Pred::EqAttr(a, b) => {
                    let ka = self.key_for(cols, a)?;
                    let kb = self.key_for(cols, b)?;
                    self.stats.selectivity(&ka, &kb)
                }
                Pred::And(_) => unreachable!("conjuncts() returns atoms"),
            };
        }
        Ok(sel)
    }

    /// Returns (cardinality, accumulated cost, output columns) of a
    /// subexpression, recording a [`NodeEstimate`] per node in pre-order —
    /// the same numbering the evaluator assigns its operator spans.
    fn walk<'e>(&mut self, e: &'e NalgExpr) -> Result<Walked<'e>> {
        let node = self.nodes.len();
        self.nodes.push(NodeEstimate {
            label: node_label(e),
            card: 0.0,
            pages: 0.0,
        });
        let per_op_before = self.per_op.len();
        let walked = self.walk_node(e)?;
        self.nodes[node].card = walked.0;
        if matches!(e, NalgExpr::Entry { .. } | NalgExpr::Follow { .. })
            && self.per_op.len() > per_op_before
        {
            // The charge this node pushed — always the last entry, since
            // it is recorded after the input subtree.
            self.nodes[node].pages = self.per_op[self.per_op.len() - 1].1;
        }
        Ok(walked)
    }

    fn walk_node<'e>(&mut self, e: &'e NalgExpr) -> Result<Walked<'e>> {
        let ws = self.ws;
        match e {
            NalgExpr::External { name } => Err(OptError::NoPlan(format!(
                "cannot cost unresolved external relation {name}"
            ))),
            NalgExpr::Entry { scheme, .. } => {
                let card = if ws.is_entry_point(scheme) {
                    1.0
                } else {
                    self.stats.card(scheme)
                };
                self.per_op.push((format!("entry {scheme}"), 1.0));
                let cost = Cost {
                    pages: 1.0,
                    bytes: self.stats.bytes_of(scheme),
                };
                Ok((card, cost, e.column_step(ws, [])))
            }
            NalgExpr::Select { input, pred } => {
                let (card, cost, cols) = self.walk(input)?;
                let cols = cols.map_err(OptError::Eval)?;
                let sel = self.pred_selectivity(&cols.cols, pred)?;
                Ok((card * sel, cost, e.column_step(ws, [Ok(cols)])))
            }
            NalgExpr::Project { input, cols: keep } => {
                let (card, cost, cols) = self.walk(input)?;
                let cols = cols.map_err(OptError::Eval)?;
                let mut distinct = 1.0;
                for c in keep {
                    let key = self.key_for(&cols.cols, c)?;
                    distinct *= self.stats.distinct_of(&key).max(1.0);
                }
                Ok((card.min(distinct), cost, e.column_step(ws, [Ok(cols)])))
            }
            NalgExpr::Join { left, right, on } => {
                let (cl, costl, lcols) = self.walk(left)?;
                let (cr, costr, rcols) = self.walk(right)?;
                let lcols = lcols.map_err(OptError::Eval)?;
                let rcols = rcols.map_err(OptError::Eval)?;
                let mut sel = 1.0;
                for (a, b) in on {
                    let ka = self.key_for(&lcols.cols, a)?;
                    let kb = self.key_for(&rcols.cols, b)?;
                    sel *= self.stats.selectivity(&ka, &kb);
                }
                let cols = e.column_step(ws, [Ok(lcols), Ok(rcols)]);
                Ok((cl * cr * sel, costl + costr, cols))
            }
            NalgExpr::Unnest { input, attr } => {
                let (card, cost, cols) = self.walk(input)?;
                let cols = cols.map_err(OptError::Eval)?;
                let key = self.key_for(&cols.cols, attr)?;
                let card = card * self.stats.fanout_of(&key);
                Ok((card, cost, e.column_step(ws, [Ok(cols)])))
            }
            NalgExpr::Follow {
                input,
                link,
                target,
                ..
            } => {
                let (card, cost, cols) = self.walk(input)?;
                let cols = cols.map_err(OptError::Eval)?;
                let key = self.key_for(&cols.cols, link)?;
                let distinct_links = card.min(self.stats.distinct_of(&key)).max(0.0);
                self.per_op
                    .push((format!("–{link}→ {target}"), distinct_links));
                let nav_cost = Cost {
                    pages: distinct_links,
                    bytes: distinct_links * self.stats.bytes_of(target),
                };
                Ok((card, cost + nav_cost, e.column_step(ws, [Ok(cols)])))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SiteStatistics;
    use nalg::Pred;
    use websim::sitegen::university::university_scheme;
    use websim::sitegen::{University, UniversityConfig};

    fn fixtures() -> (adm::WebScheme, SiteStatistics) {
        let u = University::generate(UniversityConfig::default()).unwrap();
        let stats = SiteStatistics::from_site(&u.site);
        (university_scheme(), stats)
    }

    #[test]
    fn entry_costs_one_page() {
        let (ws, stats) = fixtures();
        let e = NalgExpr::entry("ProfListPage");
        let est = estimate(&e, &ws, &stats).unwrap();
        assert_eq!(est.cost.pages, 1.0);
        assert_eq!(est.card, 1.0);
    }

    #[test]
    fn full_professor_navigation_cost() {
        let (ws, stats) = fixtures();
        // ProfListPage ∘ ProfList –ToProf→ ProfPage: 1 + |ProfPage| pages.
        let e = NalgExpr::entry("ProfListPage")
            .unnest("ProfList")
            .follow("ToProf", "ProfPage");
        let est = estimate(&e, &ws, &stats).unwrap();
        assert!((est.cost.pages - 21.0).abs() < 1e-6);
        assert!((est.card - 20.0).abs() < 1e-6);
    }

    #[test]
    fn pushed_selection_reduces_navigation_cost() {
        let (ws, stats) = fixtures();
        // σ DName='CS' before following: only one department page fetched.
        let e = NalgExpr::entry("DeptListPage")
            .unnest("DeptList")
            .select(Pred::eq("DName", "Computer Science"))
            .follow("ToDept", "DeptPage");
        let est = estimate(&e, &ws, &stats).unwrap();
        assert!((est.cost.pages - 2.0).abs() < 1e-6);
        assert!((est.card - 1.0).abs() < 1e-6);
    }

    #[test]
    fn paper_example_72_pointer_chase_cost() {
        let (ws, stats) = fixtures();
        // Plan (2) of Example 7.2:
        // 1 + 1 + |Prof|/|Dept| + |Course|/|Dept| ≈ 25.3 at (50, 20, 3)
        let e = NalgExpr::entry("DeptListPage")
            .unnest("DeptList")
            .select(Pred::eq("DName", "Computer Science"))
            .follow("ToDept", "DeptPage")
            .unnest("DeptPage.ProfList")
            .follow("DeptPage.ProfList.ToProf", "ProfPage")
            .unnest("ProfPage.CourseList")
            .follow("ProfPage.CourseList.ToCourse", "CoursePage")
            .select(Pred::eq("Type", "Graduate"));
        let est = estimate(&e, &ws, &stats).unwrap();
        let expected = 1.0 + 1.0 + 20.0 / 3.0 + 50.0 / 3.0;
        assert!(
            (est.cost.pages - expected).abs() < 1.5,
            "estimated {} vs paper-formula {expected}",
            est.cost.pages
        );
        assert!(est.cost.pages > 20.0 && est.cost.pages < 30.0);
    }

    #[test]
    fn follow_distinct_links_capped_by_target_card() {
        let (ws, stats) = fixtures();
        // Navigating from all course pages to professors: at most |Prof|
        // distinct professor pages, even though there are 50 courses.
        let e = NalgExpr::entry("SessionListPage")
            .unnest("SesList")
            .follow("ToSes", "SessionPage")
            .unnest("SessionPage.CourseList")
            .follow("SessionPage.CourseList.ToCourse", "CoursePage")
            .follow("CoursePage.ToProf", "ProfPage");
        let est = estimate(&e, &ws, &stats).unwrap();
        let last = est.per_operator.last().unwrap();
        assert!(last.0.contains("ProfPage"));
        assert!(last.1 <= 20.0 + 1e-9);
    }

    #[test]
    fn bytes_break_ties() {
        let a = Cost {
            pages: 5.0,
            bytes: 100.0,
        };
        let b = Cost {
            pages: 5.0,
            bytes: 200.0,
        };
        let c = Cost {
            pages: 4.0,
            bytes: 9999.0,
        };
        assert!(a.better_than(&b));
        assert!(!b.better_than(&a));
        assert!(c.better_than(&a));
    }

    #[test]
    fn join_uses_selectivity() {
        let (ws, stats) = fixtures();
        let left = NalgExpr::entry("ProfListPage").unnest("ProfList");
        let right = NalgExpr::entry_as("SessionListPage", "S2").unnest("SesList");
        // Cartesian-ish join on unrelated attrs; card = 20 × 3 × jsel.
        let e = left.join(
            right,
            vec![("ProfListPage.ProfList.PName", "S2.SesList.Session")],
        );
        let est = estimate(&e, &ws, &stats).unwrap();
        // jsel = 1/max(20, 3) = 1/20 → card = 3
        assert!((est.card - 3.0).abs() < 1e-6);
        assert_eq!(est.cost.pages, 2.0);
    }

    #[test]
    fn projection_caps_cardinality() {
        let (ws, stats) = fixtures();
        // Project 50 courses onto Session: at most 3 distinct values.
        let e = NalgExpr::entry("SessionListPage")
            .unnest("SesList")
            .follow("ToSes", "SessionPage")
            .unnest("SessionPage.CourseList")
            .follow("SessionPage.CourseList.ToCourse", "CoursePage")
            .project(vec!["CoursePage.Session"]);
        let est = estimate(&e, &ws, &stats).unwrap();
        assert!((est.card - 3.0).abs() < 1e-6);
    }

    #[test]
    fn external_cannot_be_costed() {
        let (ws, stats) = fixtures();
        let e = NalgExpr::external("Professor");
        assert!(estimate(&e, &ws, &stats).is_err());
    }
}
