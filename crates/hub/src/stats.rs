//! Per-endpoint request/byte/error counters, backed by an mh-obs
//! [`mh_obs::Registry`] and exported two ways: the line-oriented
//! `GET /stats` text the client can parse back, and Prometheus text format
//! at `GET /metrics` (which additionally includes the process-global
//! registry — PAS, compression, and pool series).
//!
//! The registry is **per server instance**, not global, so several
//! `HubServer`s in one test process keep independent counts.

use mh_obs::{Counter, Gauge, Registry};

/// The hub endpoints tracked individually.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    Repos,
    Search,
    Manifest,
    Objects,
    Publish,
    Stats,
    Metrics,
    Flightrec,
    Other,
}

pub const ENDPOINTS: [Endpoint; 9] = [
    Endpoint::Repos,
    Endpoint::Search,
    Endpoint::Manifest,
    Endpoint::Objects,
    Endpoint::Publish,
    Endpoint::Stats,
    Endpoint::Metrics,
    Endpoint::Flightrec,
    Endpoint::Other,
];

impl Endpoint {
    pub fn name(self) -> &'static str {
        match self {
            Self::Repos => "repos",
            Self::Search => "search",
            Self::Manifest => "manifest",
            Self::Objects => "objects",
            Self::Publish => "publish",
            Self::Stats => "stats",
            Self::Metrics => "metrics",
            Self::Flightrec => "flightrec",
            Self::Other => "other",
        }
    }
}

/// Request-duration buckets (milliseconds): sub-ms manifest reads
/// through multi-second object streams.
pub const DURATION_MS_BUCKETS: &[f64] =
    &[0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1_000.0, 5_000.0];

/// Monotonic per-endpoint counters. Cheap to record from any worker.
#[derive(Debug)]
pub struct Stats {
    registry: Registry,
}

impl Default for Stats {
    fn default() -> Self {
        Self::new()
    }
}

/// One parsed `/stats` line.
#[derive(Debug, Clone, PartialEq)]
pub struct StatLine {
    pub endpoint: String,
    pub requests: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub errors: u64,
    /// Request-duration quantiles (milliseconds), interpolated from the
    /// server-side histogram; 0.0 when the endpoint saw no traffic.
    pub p50_ms: f64,
    pub p99_ms: f64,
}

impl Stats {
    pub fn new() -> Self {
        let registry = Registry::new();
        // Pre-register every series so `/stats` and `/metrics` show each
        // endpoint (at zero) from the first scrape.
        for ep in ENDPOINTS {
            let labels = &[("endpoint", ep.name())];
            let _ = registry.counter_labeled("hub_requests_total", labels);
            let _ = registry.counter_labeled("hub_bytes_in_total", labels);
            let _ = registry.counter_labeled("hub_bytes_out_total", labels);
            let _ = registry.counter_labeled("hub_errors_total", labels);
            let _ =
                registry.histogram_labeled("hub_request_duration_ms", labels, DURATION_MS_BUCKETS);
        }
        // Connection series, present (at zero) from the first scrape.
        let _ = registry.gauge("hub_connections_open");
        let _ = registry.gauge("hub_connections_peak");
        let _ = registry.counter("hub_connections_rejected_total");
        let _ = registry.counter("hub_body_rejected_total");
        Self { registry }
    }

    /// Currently open (admitted) connections.
    pub fn conn_open(&self) -> &'static Gauge {
        self.registry.gauge("hub_connections_open")
    }

    /// High-water mark of simultaneously open connections — the metric
    /// that shows connections are not capped by the handler slots.
    pub fn conn_peak(&self) -> &'static Gauge {
        self.registry.gauge("hub_connections_peak")
    }

    /// Connections answered 503 + `Retry-After` at accept time because
    /// the `--max-conns` cap was reached. Busy handler slots are *not*
    /// counted here (and never 503): a complete request waits on its
    /// connection thread until a slot frees.
    pub fn conn_rejected(&self) -> &'static Counter {
        self.registry.counter("hub_connections_rejected_total")
    }

    /// Requests answered 503 + `Retry-After` because admitting their
    /// declared body would overrun the server's aggregate in-flight
    /// request-body budget (`--body-budget`).
    pub fn body_rejected(&self) -> &'static Counter {
        self.registry.counter("hub_body_rejected_total")
    }

    /// Record one handled request: request-body bytes in, response-body
    /// bytes actually written out, and whether it ended in an error
    /// (status >= 400 or a transport failure).
    pub fn record(&self, ep: Endpoint, bytes_in: u64, bytes_out: u64, error: bool) {
        let labels = &[("endpoint", ep.name())];
        self.registry
            .counter_labeled("hub_requests_total", labels)
            .inc();
        self.registry
            .counter_labeled("hub_bytes_in_total", labels)
            .add(bytes_in);
        self.registry
            .counter_labeled("hub_bytes_out_total", labels)
            .add(bytes_out);
        if error {
            self.registry
                .counter_labeled("hub_errors_total", labels)
                .inc();
        }
    }

    /// Record one request's worker-side handling time into the
    /// per-endpoint duration histogram (the `/stats` p50/p99 source).
    pub fn record_duration(&self, ep: Endpoint, ms: f64) {
        self.registry
            .histogram_labeled(
                "hub_request_duration_ms",
                &[("endpoint", ep.name())],
                DURATION_MS_BUCKETS,
            )
            .observe(ms);
    }

    /// Render the `/stats` body: one line per endpoint,
    /// `<endpoint> requests=<n> bytes_in=<n> bytes_out=<n> errors=<n>
    /// p50_ms=<q> p99_ms=<q>`. The quantiles are bucket-interpolated
    /// estimates from the duration histogram ([`mh_obs::Histogram::quantile`]);
    /// `parse_stats` ignores keys it does not know, so older clients keep
    /// working.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (ep, line) in ENDPOINTS.iter().zip(self.snapshot()) {
            let h = self.registry.histogram_labeled(
                "hub_request_duration_ms",
                &[("endpoint", ep.name())],
                DURATION_MS_BUCKETS,
            );
            out.push_str(&format!(
                "{} requests={} bytes_in={} bytes_out={} errors={} p50_ms={:.3} p99_ms={:.3}\n",
                line.endpoint,
                line.requests,
                line.bytes_in,
                line.bytes_out,
                line.errors,
                h.quantile(0.5),
                h.quantile(0.99),
            ));
        }
        out
    }

    /// Render the `/metrics` body: this server's series in Prometheus text
    /// format, followed by the process-global registry (PAS, compression,
    /// worker-pool series). Metric names never overlap between the two, so
    /// plain concatenation stays a valid exposition.
    pub fn render_prometheus(&self) -> String {
        let mut out = self.registry.render_prometheus();
        out.push_str(&Registry::global().render_prometheus());
        out
    }

    pub fn snapshot(&self) -> Vec<StatLine> {
        ENDPOINTS
            .iter()
            .map(|ep| {
                let labels = &[("endpoint", ep.name())];
                StatLine {
                    endpoint: ep.name().to_string(),
                    requests: self
                        .registry
                        .counter_labeled("hub_requests_total", labels)
                        .get(),
                    bytes_in: self
                        .registry
                        .counter_labeled("hub_bytes_in_total", labels)
                        .get(),
                    bytes_out: self
                        .registry
                        .counter_labeled("hub_bytes_out_total", labels)
                        .get(),
                    errors: self
                        .registry
                        .counter_labeled("hub_errors_total", labels)
                        .get(),
                    p50_ms: self
                        .registry
                        .histogram_labeled("hub_request_duration_ms", labels, DURATION_MS_BUCKETS)
                        .quantile(0.5),
                    p99_ms: self
                        .registry
                        .histogram_labeled("hub_request_duration_ms", labels, DURATION_MS_BUCKETS)
                        .quantile(0.99),
                }
            })
            .collect()
    }
}

/// Parse a `/stats` body (used by the client and tests).
pub fn parse_stats(body: &str) -> Vec<StatLine> {
    let mut out = Vec::new();
    for line in body.lines() {
        let mut fields = line.split(' ');
        let Some(endpoint) = fields.next() else {
            continue;
        };
        let mut stat = StatLine {
            endpoint: endpoint.to_string(),
            requests: 0,
            bytes_in: 0,
            bytes_out: 0,
            errors: 0,
            p50_ms: 0.0,
            p99_ms: 0.0,
        };
        for f in fields {
            if let Some((k, v)) = f.split_once('=') {
                match k {
                    "requests" => stat.requests = v.parse().unwrap_or(0),
                    "bytes_in" => stat.bytes_in = v.parse().unwrap_or(0),
                    "bytes_out" => stat.bytes_out = v.parse().unwrap_or(0),
                    "errors" => stat.errors = v.parse().unwrap_or(0),
                    "p50_ms" => stat.p50_ms = v.parse().unwrap_or(0.0),
                    "p99_ms" => stat.p99_ms = v.parse().unwrap_or(0.0),
                    _ => {}
                }
            }
        }
        out.push(stat);
    }
    out
}

/// Model-checked exploration of concurrent stat recording
/// (`cargo test -p mh-hub --features model`): with the `model` feature
/// the registry behind [`Stats`] runs on instrumented primitives, so
/// every interleaving of two workers recording into the same endpoint
/// counters is executed deterministically.
#[cfg(all(test, feature = "model"))]
mod model_tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn model_concurrent_record_loses_nothing() {
        let stats = mh_par::model::Builder::new().preemption_bound(2).check(|| {
            let s = Arc::new(Stats::new());
            let (sa, sb) = (Arc::clone(&s), Arc::clone(&s));
            let ta = mh_par::sync::thread::spawn(move || {
                sa.record(Endpoint::Objects, 10, 100, false);
            });
            let tb = mh_par::sync::thread::spawn(move || {
                sb.record(Endpoint::Objects, 3, 7, true);
            });
            ta.join().expect("worker a");
            tb.join().expect("worker b");
            let snap = s.snapshot();
            let obj = snap
                .iter()
                .find(|l| l.endpoint == "objects")
                .expect("objects line");
            assert_eq!(obj.requests, 2, "a request count was lost");
            assert_eq!(obj.bytes_in, 13);
            assert_eq!(obj.bytes_out, 107);
            assert_eq!(obj.errors, 1);
        });
        assert!(stats.complete, "exploration should finish: {stats:?}");
        assert!(stats.iterations > 1, "expected multiple interleavings");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_render_parse_roundtrip() {
        let s = Stats::new();
        s.record(Endpoint::Objects, 10, 2000, false);
        s.record(Endpoint::Objects, 5, 70, true);
        s.record(Endpoint::Manifest, 0, 300, false);
        let parsed = parse_stats(&s.render());
        let obj = parsed.iter().find(|l| l.endpoint == "objects").unwrap();
        assert_eq!(obj.requests, 2);
        assert_eq!(obj.bytes_in, 15);
        assert_eq!(obj.bytes_out, 2070);
        assert_eq!(obj.errors, 1);
        let man = parsed.iter().find(|l| l.endpoint == "manifest").unwrap();
        assert_eq!(man.bytes_out, 300);
    }

    #[test]
    fn stats_lines_carry_latency_quantiles() {
        let s = Stats::new();
        // 5 fast requests, 5 slower: p50 lands exactly on the first
        // bucket's edge, p99 interpolates inside the 5..10ms bucket.
        for _ in 0..5 {
            s.record_duration(Endpoint::Objects, 0.25);
        }
        for _ in 0..5 {
            s.record_duration(Endpoint::Objects, 6.0);
        }
        let text = s.render();
        let obj_line = text
            .lines()
            .find(|l| l.starts_with("objects "))
            .expect("objects line");
        assert!(obj_line.contains("p50_ms=0.500"), "line: {obj_line}");
        assert!(obj_line.contains("p99_ms=9.900"), "line: {obj_line}");
        // Endpoints with no samples render zero quantiles.
        let repos_line = text.lines().find(|l| l.starts_with("repos ")).unwrap();
        assert!(repos_line.contains("p50_ms=0.000"));
        // Old parsers ignore the new keys.
        let parsed = parse_stats(&text);
        assert_eq!(parsed.len(), ENDPOINTS.len());
    }

    #[test]
    fn prometheus_export_has_duration_histograms() {
        let s = Stats::new();
        s.record_duration(Endpoint::Manifest, 3.0);
        let text = s.render_prometheus();
        assert!(text.contains("# TYPE hub_request_duration_ms histogram"));
        assert!(text.contains("hub_request_duration_ms_bucket{endpoint=\"manifest\",le=\"5\"} 1"));
        assert!(text.contains("hub_request_duration_ms_count{endpoint=\"manifest\"} 1"));
        // Pre-registered at zero for endpoints with no traffic yet.
        assert!(text.contains("hub_request_duration_ms_count{endpoint=\"objects\"} 0"));
    }

    #[test]
    fn servers_have_independent_counters() {
        let a = Stats::new();
        let b = Stats::new();
        a.record(Endpoint::Repos, 0, 10, false);
        let bl = b.snapshot();
        let repos = bl.iter().find(|l| l.endpoint == "repos").unwrap();
        assert_eq!(
            repos.requests, 0,
            "second server must not see first's traffic"
        );
    }

    #[test]
    fn prometheus_export_has_labeled_series() {
        let s = Stats::new();
        s.record(Endpoint::Publish, 100, 3, true);
        let text = s.render_prometheus();
        assert!(text.contains("# TYPE hub_requests_total counter"));
        assert!(text.contains("hub_requests_total{endpoint=\"publish\"} 1"));
        assert!(text.contains("hub_bytes_in_total{endpoint=\"publish\"} 100"));
        assert!(text.contains("hub_errors_total{endpoint=\"publish\"} 1"));
        // Unused endpoints still present at zero.
        assert!(text.contains("hub_requests_total{endpoint=\"search\"} 0"));
    }
}
