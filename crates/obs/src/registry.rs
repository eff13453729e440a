//! The instrument registry and its point-in-time snapshot.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::metrics::{Counter, FloatGauge, Gauge, Histogram};
use crate::ring::{Event, EventRing, DEFAULT_EVENT_CAPACITY};

/// A named collection of instruments.
///
/// Instruments are created on first use (`counter("storage.cache.hits")`)
/// and live for the registry's lifetime; lookups happen once at component
/// construction, after which components hold `Arc`s to their instruments
/// and the hot paths never touch the registry maps.
#[derive(Debug)]
pub struct Registry {
    enabled: bool,
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    float_gauges: Mutex<BTreeMap<String, Arc<FloatGauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    events: EventRing,
}

impl Registry {
    /// A live registry: instruments record, events are retained.
    pub fn new() -> Registry {
        Registry::with_enabled(true)
    }

    /// A disabled registry: every instrument it hands out is inert.
    pub fn disabled() -> Registry {
        Registry::with_enabled(false)
    }

    fn with_enabled(enabled: bool) -> Registry {
        Registry {
            enabled,
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            float_gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            events: EventRing::new(enabled, DEFAULT_EVENT_CAPACITY),
        }
    }

    /// Whether instruments from this registry record anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Self::resolve(&self.counters, name, || Counter::new(self.enabled))
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Self::resolve(&self.gauges, name, || Gauge::new(self.enabled))
    }

    /// Get or create the float gauge `name`.
    pub fn float_gauge(&self, name: &str) -> Arc<FloatGauge> {
        Self::resolve(&self.float_gauges, name, || FloatGauge::new(self.enabled))
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Self::resolve(&self.histograms, name, || Histogram::new(self.enabled))
    }

    fn resolve<T>(
        map: &Mutex<BTreeMap<String, Arc<T>>>,
        name: &str,
        make: impl FnOnce() -> T,
    ) -> Arc<T> {
        let mut map = map.lock().unwrap();
        if let Some(existing) = map.get(name) {
            return Arc::clone(existing);
        }
        let made = Arc::new(make());
        map.insert(name.to_string(), Arc::clone(&made));
        made
    }

    /// Record a rare event in the bounded ring.
    pub fn event(&self, kind: &'static str, message: String) {
        self.events.emit(kind, message);
    }

    /// A point-in-time snapshot of every instrument and retained event.
    ///
    /// Each instrument is read atomically (histograms capture all buckets
    /// once before answering quantiles), so a snapshot taken under
    /// concurrent updates is internally consistent per instrument.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let counters = self
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect();
        let float_gauges = self
            .float_gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(name, h)| {
                let (count, quantiles) = h.count_and_quantiles();
                let (p50, p95, p99) = quantiles.unwrap_or((0, 0, 0));
                HistogramSnapshot {
                    name: name.clone(),
                    count,
                    sum: h.sum(),
                    p50,
                    p95,
                    p99,
                }
            })
            .collect();
        TelemetrySnapshot {
            counters,
            gauges,
            float_gauges,
            histograms,
            events: self.events.events(),
            dropped_events: self.events.dropped(),
        }
    }
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

/// One histogram's summary inside a [`TelemetrySnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Instrument name.
    pub name: String,
    /// Observations recorded, from the same capture as the quantiles.
    pub count: u64,
    /// Sum of observations (wrapping).
    pub sum: u64,
    /// 50th-percentile upper-edge estimate (0 when empty).
    pub p50: u64,
    /// 95th-percentile upper-edge estimate (0 when empty).
    pub p95: u64,
    /// 99th-percentile upper-edge estimate (0 when empty).
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A coherent point-in-time view of a [`Registry`], with stable text and
/// JSON renderings (hand-rolled — no serde).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, value)` for every float gauge; `None` means never set.
    pub float_gauges: Vec<(String, Option<f64>)>,
    /// Per-histogram summaries, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// Retained ring-buffer events, oldest first.
    pub events: Vec<Event>,
    /// Events evicted from the ring to make room.
    pub dropped_events: u64,
}

impl TelemetrySnapshot {
    /// Counter value by name, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Gauge value by name, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Float-gauge value by name (`Some(None)` = registered, never set).
    pub fn float_gauge(&self, name: &str) -> Option<Option<f64>> {
        self.float_gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Histogram summary by name, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Names of all registered instruments, every kind, sorted.
    pub fn instrument_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .counters
            .iter()
            .map(|(n, _)| n.clone())
            .chain(self.gauges.iter().map(|(n, _)| n.clone()))
            .chain(self.float_gauges.iter().map(|(n, _)| n.clone()))
            .chain(self.histograms.iter().map(|h| h.name.clone()))
            .collect();
        names.sort();
        names
    }

    /// Human-readable multi-line exposition.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# telemetry snapshot\n");
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<40} {v}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "  {name:<40} {v}");
            }
        }
        if !self.float_gauges.is_empty() {
            out.push_str("float gauges:\n");
            for (name, v) in &self.float_gauges {
                match v {
                    Some(v) => {
                        let _ = writeln!(out, "  {name:<40} {v:.3}");
                    }
                    None => {
                        let _ = writeln!(out, "  {name:<40} (unset)");
                    }
                }
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms (count / mean / p50 / p95 / p99):\n");
            for h in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {:<40} {} / {:.0} / {} / {} / {}",
                    h.name,
                    h.count,
                    h.mean(),
                    h.p50,
                    h.p95,
                    h.p99
                );
            }
        }
        let _ = writeln!(
            out,
            "events ({} retained, {} dropped):",
            self.events.len(),
            self.dropped_events
        );
        for event in &self.events {
            let _ = writeln!(
                out,
                "  [{:>8}ms] #{} {}: {}",
                event.elapsed_ms, event.seq, event.kind, event.message
            );
        }
        out
    }

    /// Machine-readable JSON exposition. The schema is stable: top-level
    /// keys `counters`, `gauges`, `float_gauges`, `histograms`, `events`,
    /// `dropped_events`; an unset float gauge renders as `null`; no value
    /// can render as NaN.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str("\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{v}", json_string(name));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{v}", json_string(name));
        }
        out.push_str("},\"float_gauges\":{");
        for (i, (name, v)) in self.float_gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_string(name), json_f64(*v));
        }
        out.push_str("},\"histograms\":{");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                json_string(&h.name),
                h.count,
                h.sum,
                h.p50,
                h.p95,
                h.p99
            );
        }
        out.push_str("},\"events\":[");
        for (i, event) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"seq\":{},\"elapsed_ms\":{},\"kind\":{},\"message\":{}}}",
                event.seq,
                event.elapsed_ms,
                json_string(event.kind),
                json_string(&event.message)
            );
        }
        let _ = write!(out, "],\"dropped_events\":{}}}", self.dropped_events);
        out
    }
}

/// Escape a string as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render an optional float as a JSON value: `null` when unset, and never
/// NaN/Infinity (the gauge rejects them, but belt-and-braces here too).
fn json_f64(v: Option<f64>) -> String {
    match v {
        Some(v) if v.is_finite() => {
            if v == v.trunc() && v.abs() < 1e15 {
                format!("{:.1}", v)
            } else {
                format!("{}", v)
            }
        }
        _ => "null".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_renderings_cover_all_instrument_kinds() {
        let registry = Registry::new();
        registry.counter("c.one").add(3);
        registry.gauge("g.depth").set(-2);
        registry.float_gauge("f.amp").set(1.25);
        registry.float_gauge("f.unset");
        registry.histogram("h.lat").record(100);
        registry.event("test", "hello \"world\"\n".to_string());

        let snap = registry.snapshot();
        assert_eq!(snap.counter("c.one"), Some(3));
        assert_eq!(snap.gauge("g.depth"), Some(-2));
        assert_eq!(snap.float_gauge("f.amp"), Some(Some(1.25)));
        assert_eq!(snap.float_gauge("f.unset"), Some(None));
        let h = snap.histogram("h.lat").unwrap();
        assert_eq!(h.count, 1);
        assert!(h.p50 >= 100 && h.p50 < 200);

        let text = snap.render_text();
        assert!(text.contains("c.one"));
        assert!(text.contains("(unset)"));

        let json = snap.render_json();
        assert!(json.contains("\"c.one\":3"));
        assert!(json.contains("\"f.amp\":1.25"));
        assert!(json.contains("\"f.unset\":null"));
        assert!(json.contains("\\\"world\\\"\\n"));
        assert!(!json.contains("NaN"));
    }

    #[test]
    fn json_f64_renders_integral_values_as_numbers() {
        assert_eq!(json_f64(Some(3.0)), "3.0");
        assert_eq!(json_f64(Some(1.5)), "1.5");
        assert_eq!(json_f64(None), "null");
        assert_eq!(json_f64(Some(f64::NAN)), "null");
    }

    #[test]
    fn registry_returns_same_instrument_for_same_name() {
        let registry = Registry::new();
        let a = registry.counter("x");
        let b = registry.counter("x");
        a.inc();
        assert_eq!(b.get(), 1);
        assert!(Arc::ptr_eq(&a, &b));
    }
}
