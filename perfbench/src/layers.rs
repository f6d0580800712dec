//! The traced run's instruments, all owned by the benchmark: an in-memory
//! span recorder and decorators that time calls into `nalg`, `websim` and
//! `wrapper` from outside the program.
//!
//! * [`MirrorSource`] is a line-for-line mirror of `wvcore::LiveSource`
//!   that times `VirtualServer::get` and `wrapper::wrap_page` separately;
//! * [`OuterSource`] sits above the coalescing layer and times every call
//!   that missed the shared page cache;
//! * [`TimedServer`] is a `websim::PageServer` for `dataflow` and
//!   `matview`, timing each GET and HEAD.
//!
//! Spans on the read path are tagged with the request id the server
//! installs in `obs::reqctx` under `QueryServer::with_trace`, so pool
//! workers and coalescing followers attribute their time to the right
//! read. A layer's self time is its span's duration minus the union of
//! its child spans.

use adm::{Tuple, Url, WebScheme};
use nalg::{PageSource, SourceError};
use parking_lot::Mutex;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use websim::{HeadResponse, PageResponse, PageServer, VirtualServer, WebError};

/// The layer a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One read: SQL text to answer.
    Request,
    /// `wvquery::parse_query`.
    Parse,
    /// `QueryServer::serve`.
    Serve,
    /// A page-source call below the shared cache, above coalescing.
    Source,
    /// `VirtualServer::get`.
    Get,
    /// `VirtualServer::head`.
    Head,
    /// `wrapper::wrap_page`.
    Wrap,
    /// `IncrementalView::sync_with`.
    Sync,
    /// `MatSession::run`.
    MatRun,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::Parse => "wvquery.parse",
            Layer::Serve => "serve.serve",
            Layer::Source => "nalg.source",
            Layer::Get => "websim.get",
            Layer::Head => "websim.head",
            Layer::Wrap => "wrapper.wrap",
            Layer::Sync => "dataflow.sync",
            Layer::MatRun => "matview.run",
        }
    }
}

/// One timed interval, in nanoseconds since the recorder was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The owning request (0 outside a traced request).
    pub rid: u64,
    pub layer: Layer,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span store; written out once, after the measured region.
pub struct Recorder {
    base: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            base: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    pub fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    pub fn record(&self, rid: u64, layer: Layer, start: u64, end: u64) {
        self.spans.lock().push(Span {
            rid,
            layer,
            start,
            end,
        });
    }

    /// Runs `f` under a span.
    pub fn time<R>(&self, rid: u64, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let r = f();
        self.record(rid, layer, start, self.now());
        r
    }

    /// The spans that started at or after `start`.
    pub fn spans_since(&self, start: u64) -> Vec<Span> {
        let spans = self.spans.lock();
        spans.iter().filter(|s| s.start >= start).copied().collect()
    }

    /// Writes every span as one JSON line to `<dir>/<workload>.jsonl`
    /// (the latest traced run of each workload); no-op without a `dir`.
    pub fn write_out(&self, dir: Option<&std::path::Path>, workload: &str) {
        let Some(dir) = dir else { return };
        let path = dir.join(format!("{workload}.jsonl"));
        if let Err(e) = self.write_jsonl(&path) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }

    fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().iter() {
            writeln!(
                out,
                "{{\"rid\": {}, \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.rid,
                s.layer.name(),
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}

/// The request id of the traced request this thread is working for.
fn current_rid() -> u64 {
    obs::reqctx::current().map_or(0, |c| c.request_id)
}

/// Total length covered by a set of intervals (overlaps counted once).
pub fn union_ns(mut ivs: Vec<(u64, u64)>) -> u64 {
    ivs.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in ivs {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// `wvcore::LiveSource` with its two steps timed apart: the GET (wire
/// wait plus server handling) and the wrapper.
pub struct MirrorSource<'a> {
    ws: &'a WebScheme,
    server: &'a VirtualServer,
    rec: &'a Recorder,
}

impl<'a> MirrorSource<'a> {
    pub fn new(ws: &'a WebScheme, server: &'a VirtualServer, rec: &'a Recorder) -> Self {
        MirrorSource { ws, server, rec }
    }
}

impl PageSource for MirrorSource<'_> {
    fn fetch(&self, url: &Url, scheme: &str) -> Result<Tuple, SourceError> {
        self.fetch_stamped(url, scheme).map(|(t, _)| t)
    }

    fn fetch_stamped(&self, url: &Url, scheme: &str) -> Result<(Tuple, Option<u64>), SourceError> {
        let rid = current_rid();
        let resp = self
            .rec
            .time(rid, Layer::Get, || self.server.get(url))
            .map_err(|e| match e {
                WebError::NotFound(u) => SourceError::NotFound(u),
                WebError::Unavailable { url, status } => SourceError::Unavailable {
                    url,
                    reason: format!("http {status}"),
                },
                WebError::Timeout(u) => SourceError::Timeout(u),
                other => SourceError::Other(other.to_string()),
            })?;
        let ps = self
            .ws
            .scheme(scheme)
            .map_err(|e| SourceError::Other(e.to_string()))?;
        let html = std::str::from_utf8(&resp.body).map_err(|e| SourceError::Malformed {
            url: url.clone(),
            reason: format!("non-utf8 page body: {e}"),
        })?;
        let tuple = self
            .rec
            .time(rid, Layer::Wrap, || wrapper::wrap_page(ps, html))
            .map_err(|e| SourceError::Malformed {
                url: url.clone(),
                reason: e.to_string(),
            })?;
        Ok((tuple, Some(resp.last_modified)))
    }
}

/// Times every call into the source stack below the shared cache.
pub struct OuterSource<'a, S> {
    inner: &'a S,
    rec: &'a Recorder,
}

impl<'a, S> OuterSource<'a, S> {
    pub fn new(inner: &'a S, rec: &'a Recorder) -> Self {
        OuterSource { inner, rec }
    }
}

impl<S: PageSource> PageSource for OuterSource<'_, S> {
    fn fetch(&self, url: &Url, scheme: &str) -> Result<Tuple, SourceError> {
        self.fetch_stamped(url, scheme).map(|(t, _)| t)
    }

    fn fetch_stamped(&self, url: &Url, scheme: &str) -> Result<(Tuple, Option<u64>), SourceError> {
        self.rec.time(current_rid(), Layer::Source, || {
            self.inner.fetch_stamped(url, scheme)
        })
    }
}

/// A timed `websim::PageServer` for the maintenance paths. Spans carry
/// the operation id last set with [`TimedServer::set_op`].
pub struct TimedServer<'a> {
    inner: &'a VirtualServer,
    rec: &'a Recorder,
    op: AtomicU64,
}

impl<'a> TimedServer<'a> {
    pub fn new(inner: &'a VirtualServer, rec: &'a Recorder) -> Self {
        TimedServer {
            inner,
            rec,
            op: AtomicU64::new(0),
        }
    }

    pub fn set_op(&self, op: u64) {
        self.op.store(op, Ordering::Relaxed);
    }
}

impl PageServer for TimedServer<'_> {
    fn get(&self, url: &Url) -> websim::Result<PageResponse> {
        let op = self.op.load(Ordering::Relaxed);
        self.rec.time(op, Layer::Get, || self.inner.get(url))
    }

    fn head(&self, url: &Url) -> websim::Result<HeadResponse> {
        let op = self.op.load(Ordering::Relaxed);
        self.rec.time(op, Layer::Head, || self.inner.head(url))
    }

    fn now(&self) -> u64 {
        self.inner.now()
    }
}

/// Mean duration in ms of the spans of `layer`; 0 when there are none.
pub fn mean_ms(spans: &[Span], layer: Layer) -> f64 {
    let v: Vec<f64> = spans
        .iter()
        .filter(|s| s.layer == layer)
        .map(|s| s.ns() as f64 / 1e6)
        .collect();
    crate::common::mean(&v)
}

pub fn count(spans: &[Span], layer: Layer) -> usize {
    spans.iter().filter(|s| s.layer == layer).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{all_pages, university, UNIVERSITY_SQL};
    use wvcore::views::university_catalog;
    use wvcore::{LiveSource, QuerySession, SiteStatistics};

    #[test]
    fn union_counts_overlaps_once() {
        assert_eq!(union_ns(vec![]), 0);
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_ns(vec![(3, 4), (0, 10)]), 10);
    }

    /// The mirror must be the same program as `LiveSource`: identical
    /// tuples, stamps and server counters on every page, and identical
    /// answers and access counts on the whole query workload.
    #[test]
    fn mirror_source_matches_live_source() {
        let u = university();
        let rec = Recorder::default();
        let live = LiveSource::for_site(&u.site);
        let mirror = MirrorSource::new(&u.site.scheme, &u.site.server, &rec);
        for (url, scheme) in all_pages(&u) {
            let before = u.site.server.stats();
            let a = live.fetch_stamped(&url, &scheme).expect("live fetch");
            let mid = u.site.server.stats();
            let b = mirror.fetch_stamped(&url, &scheme).expect("mirror fetch");
            let after = u.site.server.stats();
            assert_eq!(a, b, "{url}");
            assert_eq!(mid.since(&before), after.since(&mid), "{url}");
        }
        let missing = Url::new("/no-such-page.html");
        assert!(matches!(
            mirror.fetch(&missing, "ProfPage"),
            Err(SourceError::NotFound(_))
        ));

        let stats = SiteStatistics::from_site(&u.site);
        let catalog = university_catalog();
        for sql in UNIVERSITY_SQL {
            let q = wvquery::parse_query(sql, &catalog).expect("parses");
            let before = u.site.server.stats();
            let a = QuerySession::new(&u.site.scheme, &catalog, &stats, &live)
                .run(&q)
                .expect("live run");
            let mid = u.site.server.stats();
            let outer = OuterSource::new(&mirror, &rec);
            let b = QuerySession::new(&u.site.scheme, &catalog, &stats, &outer)
                .run(&q)
                .expect("mirror run");
            let after = u.site.server.stats();
            assert_eq!(a.report.relation, b.report.relation, "{sql}");
            assert_eq!(a.report.page_accesses, b.report.page_accesses, "{sql}");
            assert_eq!(a.report.accesses_by_operator, b.report.accesses_by_operator);
            assert_eq!(mid.since(&before), after.since(&mid), "{sql}");
        }
        let spans = rec.spans_since(0);
        assert_eq!(count(&spans, Layer::Get), count(&spans, Layer::Wrap) + 1);
        assert!(count(&spans, Layer::Source) > 0);
    }
}
