//! Planner allocation gate: heap allocations and wall time per Algorithm-1
//! `optimize` call, untraced and traced, for the seven university-workload
//! queries and for a 1–5-atom chain of joins.
//!
//! Planning is the CPU hot spot of a plan-cache miss, and its cost tracks
//! its allocation count closely, so a counting global allocator measures
//! each call. The run **fails** (exit 1) if the 4-atom paper query (Course
//! ⋈ CourseInstructor ⋈ Professor ⋈ ProfDept) allocates more than the
//! committed ceilings below, untraced or traced: a re-analysis or a
//! deep clone creeping back into the rewrite rules breaks `perf-smoke`
//! rather than silently eating the planning speedup.
//!
//! `cargo bench -p bench --bench planner` times the median of several
//! calls; with `--test` (as in `cargo bench -p bench -- --test`) it times
//! one call. Allocation counts are deterministic either way.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use websim::sitegen::{University, UniversityConfig};
use wvcore::views::university_catalog;
use wvcore::{ConjunctiveQuery, Optimizer, SiteStatistics, ViewCatalog};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations of one untraced `optimize` of the 4-atom paper query
/// before planning analysed each plan node once per pass.
const BEFORE_UNTRACED: u64 = 547_009;
/// The same for a traced `optimize`.
const BEFORE_TRACED: u64 = 1_083_511;
/// The gate: at most a third of the counts above.
const UNTRACED_CEILING: u64 = BEFORE_UNTRACED / 3;
const TRACED_CEILING: u64 = BEFORE_TRACED / 3;

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

/// Index of the 4-atom query in [`PAPER_SQL`].
const FOUR_ATOM: usize = 3;

/// The planner curve: a chain Course ⋈ CourseInstructor ⋈ Professor ⋈
/// ProfDept ⋈ Dept, cut after 1–5 atoms.
const CHAIN_SQL: [&str; 5] = [
    "SELECT c.CName FROM Course c WHERE c.Type = 'Graduate'",
    "SELECT c.CName, i.PName FROM Course c, CourseInstructor i \
     WHERE c.CName = i.CName AND c.Type = 'Graduate'",
    "SELECT p.PName, p.Email FROM Course c, CourseInstructor i, Professor p \
     WHERE c.CName = i.CName AND i.PName = p.PName AND c.Type = 'Graduate'",
    "SELECT p.PName, p.Email FROM Course c, CourseInstructor i, Professor p, ProfDept d \
     WHERE c.CName = i.CName AND i.PName = p.PName AND p.PName = d.PName \
     AND d.DName = 'Computer Science' AND c.Type = 'Graduate'",
    "SELECT p.PName, t.Address FROM Course c, CourseInstructor i, Professor p, ProfDept d, Dept t \
     WHERE c.CName = i.CName AND i.PName = p.PName AND p.PName = d.PName \
     AND d.DName = t.DName AND d.DName = 'Computer Science' AND c.Type = 'Graduate'",
];

struct Fixture {
    u: University,
    stats: SiteStatistics,
    catalog: ViewCatalog,
}

/// Allocations, median wall time (ms) and candidate count of `optimize`.
struct Sample {
    allocs: u64,
    ms: f64,
    candidates: usize,
}

impl Fixture {
    fn measure(&self, q: &ConjunctiveQuery, traced: bool, runs: usize) -> Sample {
        let run = || {
            let sink = obs::trace::TraceSink::with_seed(7);
            let mut opt = Optimizer::new(&self.u.site.scheme, &self.catalog, &self.stats);
            if traced {
                opt = opt.with_trace(&sink);
            }
            let before = ALLOCS.load(Ordering::Relaxed);
            let start = Instant::now();
            let explain = std::hint::black_box(opt.optimize(q).expect("the query plans"));
            let ms = start.elapsed().as_secs_f64() * 1e3;
            let allocs = ALLOCS.load(Ordering::Relaxed) - before;
            (allocs, ms, explain.candidates.len())
        };
        let (allocs, ms, candidates) = run();
        let mut times = vec![ms];
        times.extend((1..runs).map(|_| run().1));
        times.sort_by(f64::total_cmp);
        Sample {
            allocs,
            ms: times[times.len() / 2],
            candidates,
        }
    }
}

fn parse(sql: &str, catalog: &ViewCatalog) -> ConjunctiveQuery {
    wvquery::parse_query(sql, catalog).expect("the benchmark query parses")
}

fn main() {
    let runs = if std::env::args().any(|a| a == "--test") {
        1
    } else {
        7
    };
    let u = University::generate(UniversityConfig::default()).expect("the default site generates");
    let stats = SiteStatistics::from_site(&u.site);
    let fx = Fixture {
        u,
        stats,
        catalog: university_catalog(),
    };

    println!("== Algorithm 1: allocations and time per optimize (median of {runs}) ==");
    println!(
        "{:<8} {:>5} {:>10} {:>10} {:>10} {:>10}",
        "query", "cands", "allocs", "ms", "traced", "traced ms"
    );
    let mut four_atom = (0, 0);
    for (i, sql) in PAPER_SQL.iter().enumerate() {
        let q = parse(sql, &fx.catalog);
        let plain = fx.measure(&q, false, runs);
        let traced = fx.measure(&q, true, runs);
        println!(
            "{:<8} {:>5} {:>10} {:>10.2} {:>10} {:>10.2}",
            format!("paper {}", i + 1),
            plain.candidates,
            plain.allocs,
            plain.ms,
            traced.allocs,
            traced.ms
        );
        if i == FOUR_ATOM {
            four_atom = (plain.allocs, traced.allocs);
        }
    }

    println!("== planner curve: Course ⋈ CourseInstructor ⋈ Professor ⋈ ProfDept ⋈ Dept ==");
    println!(
        "{:<8} {:>5} {:>10} {:>10}",
        "atoms", "cands", "allocs", "ms"
    );
    for (n, sql) in CHAIN_SQL.iter().enumerate() {
        let s = fx.measure(&parse(sql, &fx.catalog), false, runs);
        println!(
            "{:<8} {:>5} {:>10} {:>10.2}",
            n + 1,
            s.candidates,
            s.allocs,
            s.ms
        );
    }

    let (plain, traced) = four_atom;
    let mut failed = false;
    for (what, got, ceiling) in [
        ("untraced", plain, UNTRACED_CEILING),
        ("traced", traced, TRACED_CEILING),
    ] {
        if got > ceiling {
            eprintln!("FAIL: 4-atom {what} optimize allocates {got} > ceiling {ceiling}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "ok: 4-atom optimize allocates {plain} untraced (ceiling {UNTRACED_CEILING}), \
         {traced} traced (ceiling {TRACED_CEILING})"
    );
}
