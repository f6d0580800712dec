//! The seeded ad-hoc query generator of `adhoc_cold`.
//!
//! Each query is drawn from templates of 1 to 4 atoms over `Professor`,
//! `ProfDept`, `CourseInstructor`, `Course` and `Dept`: first the atom
//! count, with shares fixed here so the mean cost of a plan-cache miss
//! does not drift with the seed, then a template of that size, a
//! non-empty projection and one of the template's filters. Constants come
//! from the generated site.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use websim::sitegen::University;

/// Share, in percent, of queries with 1, 2, 3 and 4 atoms.
pub const ATOM_SHARES: [u32; 4] = [30, 35, 29, 6];

/// The constants a filter can name.
#[derive(Debug, Clone, Copy)]
enum Const {
    Prof,
    Course,
    Dept,
    Rank,
    Session,
    Type,
}

/// One filter: `(attribute, constant kind)` conjuncts.
type Filter = &'static [(&'static str, Const)];

struct Template {
    /// `FROM` list with aliases.
    from: &'static str,
    /// Join conditions, always present.
    joins: &'static str,
    /// Attributes the projection draws from.
    proj: &'static [&'static str],
    filters: &'static [Filter],
}

use Const::*;

const ONE: &[Template] = &[
    Template {
        from: "Professor p",
        joins: "",
        proj: &["p.PName", "p.Rank", "p.Email"],
        filters: &[&[("p.Rank", Rank)], &[("p.PName", Prof)]],
    },
    Template {
        from: "Course c",
        joins: "",
        proj: &["c.CName", "c.Session", "c.Description", "c.Type"],
        filters: &[
            &[("c.Session", Session)],
            &[("c.Session", Session), ("c.Type", Type)],
            &[("c.CName", Course)],
        ],
    },
    Template {
        from: "Dept d",
        joins: "",
        proj: &["d.DName", "d.Address"],
        filters: &[&[], &[("d.DName", Dept)]],
    },
    Template {
        from: "CourseInstructor i",
        joins: "",
        proj: &["i.CName", "i.PName"],
        filters: &[&[("i.PName", Prof)], &[("i.CName", Course)]],
    },
    Template {
        from: "ProfDept pd",
        joins: "",
        proj: &["pd.PName", "pd.DName"],
        filters: &[&[("pd.DName", Dept)], &[("pd.PName", Prof)]],
    },
];

const TWO: &[Template] = &[
    Template {
        from: "Professor p, ProfDept pd",
        joins: "p.PName = pd.PName",
        proj: &["p.PName", "p.Rank", "p.Email", "pd.DName"],
        filters: &[
            &[("pd.DName", Dept)],
            &[("pd.DName", Dept), ("p.Rank", Rank)],
        ],
    },
    Template {
        from: "Professor p, CourseInstructor i",
        joins: "p.PName = i.PName",
        proj: &["p.PName", "p.Email", "p.Rank", "i.CName"],
        filters: &[&[("p.Rank", Rank)], &[("i.CName", Course)]],
    },
    Template {
        from: "Course c, CourseInstructor i",
        joins: "c.CName = i.CName",
        proj: &["c.CName", "c.Description", "c.Session", "i.PName"],
        filters: &[
            &[("i.PName", Prof)],
            &[("c.Session", Session), ("c.Type", Type)],
        ],
    },
    Template {
        from: "Dept d, ProfDept pd",
        joins: "d.DName = pd.DName",
        proj: &["d.DName", "d.Address", "pd.PName"],
        filters: &[&[("pd.PName", Prof)], &[("d.DName", Dept)]],
    },
];

const THREE: &[Template] = &[
    Template {
        from: "Professor p, CourseInstructor i, Course c",
        joins: "p.PName = i.PName AND i.CName = c.CName",
        proj: &["c.CName", "c.Description", "c.Type", "p.PName", "p.Email"],
        filters: &[
            &[("p.Rank", Rank), ("c.Session", Session)],
            &[("c.CName", Course)],
            &[("p.PName", Prof)],
        ],
    },
    Template {
        from: "Professor p, ProfDept pd, Dept d",
        joins: "p.PName = pd.PName AND pd.DName = d.DName",
        proj: &["p.PName", "p.Email", "p.Rank", "d.DName", "d.Address"],
        filters: &[
            &[("d.DName", Dept)],
            &[("d.DName", Dept), ("p.Rank", Rank)],
            &[("p.PName", Prof)],
        ],
    },
    Template {
        from: "Course c, CourseInstructor i, ProfDept pd",
        joins: "c.CName = i.CName AND i.PName = pd.PName",
        proj: &[
            "c.CName",
            "c.Session",
            "c.Description",
            "i.PName",
            "pd.DName",
        ],
        filters: &[
            &[("pd.DName", Dept), ("c.Type", Type)],
            &[("i.PName", Prof)],
        ],
    },
];

const FOUR: &[Template] = &[
    Template {
        from: "Course c, CourseInstructor i, Professor p, ProfDept pd",
        joins: "c.CName = i.CName AND i.PName = p.PName AND p.PName = pd.PName",
        proj: &["p.PName", "p.Email", "p.Rank", "c.CName", "c.Description"],
        filters: &[
            &[("pd.DName", Dept), ("c.Type", Type)],
            &[("c.CName", Course)],
            &[("p.Rank", Rank), ("c.Session", Session)],
        ],
    },
    Template {
        from: "Dept d, ProfDept pd, Professor p, CourseInstructor i",
        joins: "d.DName = pd.DName AND pd.PName = p.PName AND p.PName = i.PName",
        proj: &["p.PName", "p.Email", "i.CName", "d.DName", "d.Address"],
        filters: &[
            &[("d.DName", Dept), ("p.Rank", Rank)],
            &[("p.PName", Prof)],
            &[("i.CName", Course)],
        ],
    },
];

/// Constant values drawn from the generated site.
#[derive(Debug, Clone)]
pub struct Vocab {
    profs: Vec<String>,
    courses: Vec<String>,
    depts: Vec<String>,
    ranks: Vec<String>,
    sessions: Vec<String>,
    types: Vec<String>,
}

impl Vocab {
    pub fn from_site(u: &University) -> Vocab {
        let set = |v: Vec<String>| v.into_iter().collect::<BTreeSet<_>>().into_iter().collect();
        let profs = u.expected_professor();
        let courses = u.expected_course();
        Vocab {
            profs: set(profs.iter().map(|p| p.0.clone()).collect()),
            ranks: set(profs.iter().map(|p| p.1.clone()).collect()),
            courses: set(courses.iter().map(|c| c.0.clone()).collect()),
            sessions: set(courses.iter().map(|c| c.1.clone()).collect()),
            types: set(courses.iter().map(|c| c.3.clone()).collect()),
            depts: set(u.expected_dept().into_iter().map(|d| d.0).collect()),
        }
    }

    fn values(&self, c: Const) -> &[String] {
        match c {
            Prof => &self.profs,
            Course => &self.courses,
            Dept => &self.depts,
            Rank => &self.ranks,
            Session => &self.sessions,
            Type => &self.types,
        }
    }
}

/// An SQL string literal, quoted with whichever quote it does not contain.
fn literal(s: &str) -> String {
    if s.contains('\'') {
        format!("\"{s}\"")
    } else {
        format!("'{s}'")
    }
}

/// A seeded stream of ad-hoc SQL queries.
pub struct QueryGen {
    rng: StdRng,
    vocab: Vocab,
}

impl QueryGen {
    pub fn new(seed: u64, vocab: Vocab) -> QueryGen {
        QueryGen {
            rng: StdRng::seed_from_u64(seed),
            vocab,
        }
    }

    /// Draws one query; returns its SQL and atom count.
    pub fn next_sql(&mut self) -> (String, usize) {
        let mut pick = self.rng.gen_range(0..ATOM_SHARES.iter().sum::<u32>());
        let mut atoms = 1;
        for (i, share) in ATOM_SHARES.iter().enumerate() {
            if pick < *share {
                atoms = i + 1;
                break;
            }
            pick -= share;
        }
        let templates = [ONE, TWO, THREE, FOUR][atoms - 1];
        let t = &templates[self.rng.gen_range(0..templates.len())];
        let mask = self.rng.gen_range(1..(1u32 << t.proj.len()));
        let proj: Vec<&str> = t
            .proj
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, a)| *a)
            .collect();
        let filter = t.filters[self.rng.gen_range(0..t.filters.len())];
        let mut conds: Vec<String> = Vec::new();
        if !t.joins.is_empty() {
            conds.push(t.joins.to_string());
        }
        for (attr, c) in filter {
            let vals = self.vocab.values(*c);
            let v = &vals[self.rng.gen_range(0..vals.len())];
            conds.push(format!("{attr} = {}", literal(v)));
        }
        let mut sql = format!("SELECT {} FROM {}", proj.join(", "), t.from);
        if !conds.is_empty() {
            sql.push_str(" WHERE ");
            sql.push_str(&conds.join(" AND "));
        }
        (sql, atoms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::university;
    use std::collections::HashSet;
    use wvcore::views::university_catalog;

    /// Plan-cache capacity of a default `QueryServer`.
    const PLAN_CACHE_CAPACITY: usize = 64;

    #[test]
    fn every_query_parses_and_the_key_space_is_large() {
        let u = university();
        let catalog = university_catalog();
        catalog.validate(&u.site.scheme).expect("catalog validates");
        let mut g = QueryGen::new(11, Vocab::from_site(&u));
        let mut keys = HashSet::new();
        let mut by_atoms = [0usize; 4];
        let draws = 20_000;
        for _ in 0..draws {
            let (sql, atoms) = g.next_sql();
            let q = wvquery::parse_query(&sql, &catalog).unwrap_or_else(|e| panic!("{sql}: {e}"));
            assert_eq!(q.atoms.len(), atoms, "{sql}");
            by_atoms[atoms - 1] += 1;
            keys.insert(q.cache_key());
        }
        assert!(
            keys.len() >= 50 * PLAN_CACHE_CAPACITY,
            "only {} distinct keys",
            keys.len()
        );
        // The 4-atom share is the fixed one, within sampling error.
        let four = by_atoms[3] as f64 / draws as f64;
        assert!(
            (four - ATOM_SHARES[3] as f64 / 100.0).abs() < 0.01,
            "{four}"
        );
    }

    #[test]
    fn same_seed_same_stream() {
        let u = university();
        let v = Vocab::from_site(&u);
        let mut a = QueryGen::new(5, v.clone());
        let mut b = QueryGen::new(5, v);
        for _ in 0..100 {
            assert_eq!(a.next_sql(), b.next_sql());
        }
    }
}
