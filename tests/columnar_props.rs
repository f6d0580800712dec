//! Property pin for the columnar evaluator: on arbitrary seeded sites its
//! answers and access counters must match an independent oracle, the
//! naive reference NALG interpreter in `tests/reference` — same header,
//! same rows (after the canonical sort), every distinct URL the plan asks
//! for acquired exactly once (downloaded, served by the shared cache, or
//! found dangling), and the paper's per-navigation distinct-link charge.
//! The sequential evaluator and the 1- and 3-worker pooled evaluators,
//! each with and without the shared page cache, must moreover agree with
//! each other on the rendered answer and every counter.

mod reference;

use proptest::prelude::*;
use reference::Reference;
use webviews::nalg::SharedPageCache;
use webviews::prelude::*;

/// The three plan shapes the paper's experiments exercise — a pointer
/// chase through the department hierarchy, a pointer join intersecting
/// two navigation frontiers, and a flat scan-select-project — plus a plan
/// that visits the same pages twice.
fn plans() -> Vec<(&'static str, NalgExpr)> {
    let chase = NalgExpr::entry("DeptListPage")
        .unnest("DeptList")
        .select(Pred::eq("DeptListPage.DeptList.DName", "Computer Science"))
        .follow("ToDept", "DeptPage")
        .unnest("DeptPage.ProfList")
        .follow("DeptPage.ProfList.ToProf", "ProfPage")
        .unnest("ProfPage.CourseList")
        .follow("ProfPage.CourseList.ToCourse", "CoursePage")
        .select(Pred::eq("CoursePage.Type", "Graduate"))
        .project(vec!["ProfPage.PName", "ProfPage.Email"]);
    let prof_side = NalgExpr::entry("ProfListPage")
        .unnest("ProfList")
        .follow("ToProf", "ProfPage")
        .select(Pred::eq("ProfPage.Rank", "Full"))
        .unnest("ProfPage.CourseList");
    let session_side = NalgExpr::entry("SessionListPage")
        .unnest("SesList")
        .select(Pred::eq("SessionListPage.SesList.Session", "Fall"))
        .follow("ToSes", "SessionPage")
        .unnest("SessionPage.CourseList");
    let join = session_side
        .join(
            prof_side,
            vec![(
                "SessionPage.CourseList.ToCourse",
                "ProfPage.CourseList.ToCourse",
            )],
        )
        .follow("SessionPage.CourseList.ToCourse", "CoursePage")
        .project(vec!["CoursePage.CName", "CoursePage.Description"]);
    let scan = NalgExpr::entry("DeptListPage")
        .unnest("DeptList")
        .follow("ToDept", "DeptPage")
        .unnest("DeptPage.ProfList")
        .follow("DeptPage.ProfList.ToProf", "ProfPage")
        .project(vec!["ProfPage.PName", "ProfPage.Rank"]);
    // Professor pages reached along two navigations and joined on their
    // URL: the second visit to each page is a per-query cache hit.
    let by_list = NalgExpr::entry("ProfListPage")
        .unnest("ProfList")
        .follow("ToProf", "ProfPage");
    let by_dept = NalgExpr::entry("DeptListPage")
        .unnest("DeptList")
        .follow("ToDept", "DeptPage")
        .unnest("DeptPage.ProfList")
        .follow_as("DeptPage.ProfList.ToProf", "ProfPage", "P2");
    let revisit = by_list
        .join(by_dept, vec![("ProfPage.URL", "P2.URL")])
        .project(vec!["ProfPage.PName", "DeptPage.DName"]);
    vec![
        ("chase", chase),
        ("join", join),
        ("scan", scan),
        ("revisit", revisit),
    ]
}

/// Evaluates `expr` with the reference interpreter and with the engine in
/// every configuration, asserting each engine run against the reference
/// and against the first (sequential) run.
fn assert_matches_reference(site: &websim::Site, expr: &NalgExpr, label: &str) {
    let source = LiveSource::for_site(site);
    let mut oracle = Reference::new(&site.scheme, &source);
    let expected = oracle.eval(expr);
    let header = expected.header();
    let expected = expected.into_relation().sorted();

    let mut first: Option<EvalReport> = None;
    for workers in [None, Some(1usize), Some(3)] {
        for shared in [false, true] {
            // Each run gets its own fresh shared cache: the cache is part
            // of the configuration under test, not state carried over.
            let cache = SharedPageCache::with_byte_budget(1 << 20);
            let mut ev = Evaluator::new(&site.scheme, &source).with_options(ExecOptions {
                workers: workers.unwrap_or(0),
                ..ExecOptions::default()
            });
            if shared {
                ev = ev.with_shared_cache(&cache);
            }
            let got = ev.eval(expr).expect("engine eval");
            let ctx = format!("{label} (workers={workers:?}, shared={shared})");

            prop_assert_eq!(got.relation.columns(), &header[..], "{}: header", &ctx);
            prop_assert_eq!(got.relation.sorted(), expected.clone(), "{}: rows", &ctx);
            prop_assert_eq!(
                got.page_accesses + got.shared_cache_hits + got.broken_links,
                oracle.distinct_urls(),
                "{}: distinct URLs acquired",
                &ctx
            );
            prop_assert_eq!(
                got.accesses_by_operator.clone(),
                oracle.navigations.clone(),
                "{}: accesses_by_operator",
                &ctx
            );

            let Some(base) = &first else {
                first = Some(got);
                continue;
            };
            prop_assert_eq!(
                got.relation.to_table(),
                base.relation.to_table(),
                "{}: rendered tables diverged",
                &ctx
            );
            prop_assert_eq!(
                got.page_accesses,
                base.page_accesses,
                "{}: page_accesses",
                &ctx
            );
            prop_assert_eq!(got.cache_hits, base.cache_hits, "{}: cache_hits", &ctx);
            prop_assert_eq!(
                got.shared_cache_hits,
                base.shared_cache_hits,
                "{}: shared_cache_hits",
                &ctx
            );
            prop_assert_eq!(
                got.broken_links,
                base.broken_links,
                "{}: broken_links",
                &ctx
            );
            prop_assert_eq!(
                got.unreachable.clone(),
                base.unreachable.clone(),
                "{}: unreachable",
                &ctx
            );
        }
    }
}

// Engine ≡ reference on arbitrary seeded sites, for every plan shape.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn columnar_matches_reference_on_seeded_sites(
        departments in 1usize..4,
        extra_profs in 0usize..8,
        courses in 2usize..16,
        seed in 0u64..10_000,
    ) {
        let u = University::generate(UniversityConfig {
            departments,
            professors: departments + extra_profs,
            courses,
            seed,
            ..UniversityConfig::default()
        }).unwrap();
        for (label, expr) in plans() {
            assert_matches_reference(&u.site, &expr, label);
        }
    }
}

/// The default-config site (the one every experiment uses) gets the same
/// pin deterministically, so a divergence fails fast even under
/// `proptest`-skipping test filters.
#[test]
fn columnar_matches_reference_on_default_site() {
    let u = University::generate(UniversityConfig::default()).unwrap();
    for (label, expr) in plans() {
        assert_matches_reference(&u.site, &expr, label);
    }
}
