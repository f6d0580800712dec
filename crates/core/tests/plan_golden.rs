//! Golden pin of Algorithm 1's output.
//!
//! Plans the seven university-workload queries (as SQL) and 64 seeded
//! random conjunctive queries under four optimizer configurations — every
//! rule, no rule, no join rule (8/9), and every rule with one quarantined
//! constraint — and renders, per run:
//!
//! * `Explain::report()`;
//! * each candidate's `Estimate` (cardinality, cost, per-operator charges,
//!   per-node estimates) and its constraint dependencies;
//! * the traced rule-event stream (event names and fields).
//!
//! The full rendering runs to several megabytes, so `golden/plan_golden.txt`
//! keeps one line per run: a 64-bit FNV-1a digest of the run's rendering,
//! its length in bytes, and the run's header. Any byte difference in any
//! run fails: a planner change that claims to keep plans identical must
//! keep this file identical. On a mismatch the test writes the new digest
//! file and the full rendering next to the build's temporary files and
//! names the runs that differ; replace the golden file only when the plan
//! change is intended.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use resilience::ConstraintHealth;
use std::fmt::Write as _;
use websim::sitegen::{University, UniversityConfig};
use wvcore::views::university_catalog;
use wvcore::{ConjunctiveQuery, ConstraintDependency, Optimizer, RuleMask, SiteStatistics};

const GOLDEN: &str = include_str!("golden/plan_golden.txt");

/// The university workload of the paper's experiments, as SQL text.
const PAPER_SQL: [&str; 7] = [
    "SELECT PName FROM Professor WHERE Rank = 'Full'",
    "SELECT p.PName, p.Email FROM Professor p, ProfDept d \
     WHERE p.PName = d.PName AND d.DName = 'Computer Science'",
    "SELECT c.CName, c.Description FROM Professor p, CourseInstructor i, Course c \
     WHERE p.PName = i.PName AND i.CName = c.CName AND p.Rank = 'Full' AND c.Session = 'Fall'",
    "SELECT p.PName, p.Email FROM Course c, CourseInstructor i, Professor p, ProfDept d \
     WHERE c.CName = i.CName AND i.PName = p.PName AND p.PName = d.PName \
     AND d.DName = 'Computer Science' AND c.Type = 'Graduate'",
    "SELECT CName, Description FROM Course WHERE Session = 'Fall' AND Type = 'Graduate'",
    "SELECT PName, CName FROM CourseInstructor",
    "SELECT DName, Address FROM Dept",
];

/// The relations of the university view and their attributes.
const RELATIONS: &[(&str, &[&str])] = &[
    ("Dept", &["DName", "Address"]),
    ("Professor", &["PName", "Rank", "Email"]),
    ("Course", &["CName", "Session", "Description", "Type"]),
    ("CourseInstructor", &["CName", "PName"]),
    ("ProfDept", &["PName", "DName"]),
];

fn values_for(attr: &str) -> &'static [&'static str] {
    match attr {
        "Rank" => &["Full", "Associate", "Assistant"],
        "Session" => &["Fall", "Winter", "Summer"],
        "Type" => &["Graduate", "Undergraduate"],
        "DName" => &["Computer Science", "Mathematics", "Physics", "Nowhere"],
        _ => &["no-such-value"],
    }
}

/// A random conjunctive query in the style of `random_queries.rs`: one to
/// three atoms, up to two constant selections, natural joins on shared
/// attribute names (or none), and the first attribute of every atom
/// projected.
fn random_query(rng: &mut StdRng, i: usize) -> ConjunctiveQuery {
    let atoms: Vec<usize> = (0..rng.gen_range(1..=3usize))
        .map(|_| rng.gen_range(0..RELATIONS.len()))
        .collect();
    let mut q = ConjunctiveQuery::new(format!("random {i}"));
    for &a in &atoms {
        q = q.atom(RELATIONS[a].0);
    }
    if rng.gen_bool(0.75) {
        for j in 1..atoms.len() {
            for k in 0..j {
                for attr in RELATIONS[atoms[k]].1 {
                    if RELATIONS[atoms[j]].1.contains(attr) {
                        q = q.join((k, *attr), (j, *attr));
                    }
                }
            }
        }
    }
    for _ in 0..rng.gen_range(0..3usize) {
        let atom = rng.gen_range(0..atoms.len());
        let attrs = RELATIONS[atoms[atom]].1;
        let attr = attrs[rng.gen_range(0..attrs.len())];
        let pool = values_for(attr);
        q = q.select((atom, attr), pool[rng.gen_range(0..pool.len())]);
    }
    for (k, &a) in atoms.iter().enumerate() {
        q = q.project((k, RELATIONS[a].1[0]));
    }
    q
}

fn queries(catalog: &wvcore::ViewCatalog) -> Vec<ConjunctiveQuery> {
    let mut out: Vec<ConjunctiveQuery> = PAPER_SQL
        .iter()
        .map(|sql| wvquery::parse_query(sql, catalog).expect("paper query parses"))
        .collect();
    let mut rng = StdRng::seed_from_u64(0x5eed_601d);
    out.extend((0..64).map(|i| random_query(&mut rng, i)));
    out
}

/// One optimizer run, rendered.
fn render_run(
    out: &mut String,
    opt: Optimizer<'_>,
    sink: &obs::trace::TraceSink,
    q: &ConjunctiveQuery,
) {
    match opt.optimize(q) {
        Ok(explain) => {
            out.push_str(&explain.report());
            for (i, c) in explain.candidates.iter().enumerate() {
                let e = &c.estimate;
                let _ = writeln!(
                    out,
                    "candidate {i}: card {:?} pages {:?} bytes {:?}",
                    e.card, e.cost.pages, e.cost.bytes
                );
                for (label, pages) in &e.per_operator {
                    let _ = writeln!(out, "  op {label} {pages:?}");
                }
                for (n, node) in e.nodes.iter().enumerate() {
                    let _ = writeln!(
                        out,
                        "  node {n} {} card {:?} pages {:?}",
                        node.label, node.card, node.pages
                    );
                }
                for d in &c.dependencies {
                    let _ = writeln!(out, "  dep {d}");
                }
            }
        }
        Err(err) => {
            let _ = writeln!(out, "error: {err}");
        }
    }
    for ev in sink.events() {
        let _ = write!(out, "event {}", ev.name);
        for (k, v) in &ev.fields {
            let _ = write!(out, " {k}={v:?}");
        }
        out.push('\n');
    }
}

/// 64-bit FNV-1a: a digest that is stable across platforms and releases.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every run as `(header, rendering)`, in a fixed order.
fn render_all() -> Vec<(String, String)> {
    let u = University::generate(UniversityConfig::default()).unwrap();
    let ws = u.site.scheme.clone();
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = university_catalog();
    // One quarantined constraint: the professor-list anchor that licenses
    // rule-7 pruning and rule-8 joins on PName.
    let health = ConstraintHealth::new();
    let quarantined = ConstraintDependency::Link(
        adm::LinkConstraint::parse(
            "ProfListPage.ProfList.ToProf",
            "ProfListPage.ProfList.PName",
            "ProfPage.PName",
        )
        .unwrap(),
    );
    health.record(&quarantined.key(), 1, 1);
    assert!(health.is_quarantined(&quarantined.key()));
    let configs: [(&str, RuleMask, bool); 4] = [
        ("all", RuleMask::all(), false),
        ("none", RuleMask::none(), false),
        (
            "no-join-rules",
            RuleMask::all()
                .without_pointer_join()
                .without_pointer_chase(),
            false,
        ),
        ("all+quarantine", RuleMask::all(), true),
    ];
    let mut runs = Vec::new();
    for q in queries(&catalog) {
        for (label, mask, quarantine) in configs {
            let sink = obs::trace::TraceSink::with_seed(7);
            let mut opt = Optimizer::new(&ws, &catalog, &stats)
                .with_mask(mask)
                .with_trace(&sink);
            if quarantine {
                opt = opt.with_constraint_health(&health);
            }
            let mut body = String::new();
            render_run(&mut body, opt, &sink, &q);
            runs.push((format!("{q} [{label}]"), body));
        }
    }
    runs
}

#[test]
fn planner_output_matches_the_golden_file() {
    let runs = render_all();
    let digests: String = runs
        .iter()
        .map(|(header, body)| format!("{:016x} {} {header}\n", fnv1a(body.as_bytes()), body.len()))
        .collect();
    if digests == GOLDEN {
        return;
    }
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(dir.join("plan_golden.txt"), &digests).unwrap();
    let full: String = runs
        .iter()
        .map(|(header, body)| format!("=== {header}\n{body}"))
        .collect();
    std::fs::write(dir.join("plan_golden.full.txt"), full).unwrap();
    let golden: Vec<&str> = GOLDEN.lines().collect();
    let differing: Vec<&str> = digests
        .lines()
        .enumerate()
        .filter(|(i, line)| golden.get(*i) != Some(line))
        .map(|(_, line)| line)
        .collect();
    panic!(
        "{} of {} planner runs differ from golden/plan_golden.txt ({} golden lines); first: {:?}\n\
         digests and full rendering written to {}",
        differing.len(),
        runs.len(),
        golden.len(),
        differing.first(),
        dir.display()
    );
}
