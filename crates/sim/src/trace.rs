//! Deterministic structured tracing: typed span/instant events on virtual
//! time, latency histograms per event class, and a Chrome-trace-event
//! (Perfetto-compatible) JSON exporter.
//!
//! The tracer is owned by the machine model and threaded through every
//! layer that does interesting work (policy passes, migrations, page
//! faults, write-protection stalls, PEBS drains, DMA batches). Two rules
//! keep it from perturbing the simulation it observes:
//!
//! - **Virtual time only.** Every event carries an [`Ns`] timestamp from
//!   the simulation clock; the tracer never reads a wall clock, so a
//!   traced run is reproducible from the seed like any other.
//! - **No side effects on simulation state.** Recording never touches the
//!   RNG, the event queue, or any device model, so enabling tracing
//!   cannot change a single scheduling decision or random draw. A traced
//!   run and an untraced run produce byte-identical machine stats.
//!
//! Event buffers are only populated while the tracer is enabled (the
//! default-off `trace` flag on the machine config); latency histograms
//! are cheap integer accumulators and stay live either way, which is what
//! lets the telemetry CSV report percentiles without a trace buffer.

use std::collections::BTreeMap;

use crate::stats::Histogram;
use crate::time::Ns;

/// Latency/backlog classes with a dedicated histogram each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyClass {
    /// End-to-end migration latency: policy issue (journal prepare) to
    /// commit (mapping flip).
    Migration,
    /// Page-fault service latency as seen by the faulting thread.
    Fault,
    /// Per-write write-protection stall duration (§3.2's "exceedingly
    /// rare" stalls).
    WpStall,
    /// Policy-pass CPU duration.
    PolicyPass,
    /// PEBS buffer backlog (records waiting) observed at each drain.
    PebsBacklog,
    /// DMA batch latency: ioctl submit to last descriptor landed.
    DmaBatch,
    /// Major-fault service latency: an access to an SSD-resident page,
    /// stalled behind the swap device's queue plus the promotion copy.
    MajorFault,
}

impl LatencyClass {
    /// Every class, indexable by [`LatencyClass::index`].
    pub const ALL: [LatencyClass; 7] = [
        LatencyClass::Migration,
        LatencyClass::Fault,
        LatencyClass::WpStall,
        LatencyClass::PolicyPass,
        LatencyClass::PebsBacklog,
        LatencyClass::DmaBatch,
        LatencyClass::MajorFault,
    ];

    /// Dense index of this class.
    pub fn index(self) -> usize {
        match self {
            LatencyClass::Migration => 0,
            LatencyClass::Fault => 1,
            LatencyClass::WpStall => 2,
            LatencyClass::PolicyPass => 3,
            LatencyClass::PebsBacklog => 4,
            LatencyClass::DmaBatch => 5,
            LatencyClass::MajorFault => 6,
        }
    }

    /// Stable short name (used in CSV column prefixes).
    pub fn name(self) -> &'static str {
        match self {
            LatencyClass::Migration => "migration",
            LatencyClass::Fault => "fault",
            LatencyClass::WpStall => "wp_stall",
            LatencyClass::PolicyPass => "policy_pass",
            LatencyClass::PebsBacklog => "pebs_backlog",
            LatencyClass::DmaBatch => "dma_batch",
            LatencyClass::MajorFault => "major_fault",
        }
    }
}

/// Chrome-trace phase of one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Async span begin (`"b"`). Async — not duration — events are used
    /// so overlapping spans (concurrent migrations) nest correctly.
    Begin,
    /// Async span end (`"e"`), matched to its begin by `(name, id)`.
    End,
    /// Instant event (`"i"`).
    Instant,
}

/// One trace event on virtual time.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Virtual timestamp.
    pub ts: Ns,
    /// Event name (`"migration"`, `"policy_pass"`, ...).
    pub name: &'static str,
    /// Category, for trace-viewer filtering.
    pub cat: &'static str,
    /// Span begin/end or instant.
    pub ph: Phase,
    /// Async-span correlation id (0 for instants).
    pub id: u64,
    /// Integer key/value payload.
    pub args: Vec<(&'static str, u64)>,
}

/// Per-policy-pass decision attribution, accumulated across passes.
///
/// `run_policy` classifies every decision it makes so a trace (or a plain
/// counter dump) can answer *why* pages moved: demoted to refill the
/// watermark, promoted for hotness, demoted to make room for a waiting
/// promotion, or suppressed by the in-flight throttle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyCounters {
    /// Policy passes executed.
    pub passes: u64,
    /// Demotions issued to refill the DRAM free watermark.
    pub demote_watermark: u64,
    /// Promotions of hot NVM pages issued.
    pub promote: u64,
    /// Demote-for-promotion swaps issued while the promotion itself was
    /// deferred to a later period (no free DRAM frame yet).
    pub swap_deferrals: u64,
    /// Passes that issued nothing because the in-flight page limit was
    /// already reached.
    pub throttled: u64,
}

/// The tracer: event buffer, open-span table, and per-class histograms.
#[derive(Debug, Clone)]
pub struct Tracer {
    enabled: bool,
    events: Vec<TraceEvent>,
    /// Open async spans: `(name, id)` -> begin timestamp. Bounded by the
    /// in-flight migration limit, so it stays tiny even when disabled.
    open: BTreeMap<(&'static str, u64), Ns>,
    hists: Vec<Histogram>,
    /// Policy decision attribution (always accumulated).
    pub policy: PolicyCounters,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(false)
    }
}

impl Tracer {
    /// Creates a tracer; `enabled` controls event capture (histograms and
    /// policy counters accumulate regardless).
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            events: Vec::new(),
            open: BTreeMap::new(),
            hists: LatencyClass::ALL.iter().map(|_| Histogram::new()).collect(),
            policy: PolicyCounters::default(),
        }
    }

    /// Whether event capture is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Events captured so far (empty while disabled).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Histogram for one latency class.
    pub fn hist(&self, class: LatencyClass) -> &Histogram {
        &self.hists[class.index()]
    }

    /// Records `value` into `class`'s histogram (always, enabled or not).
    pub fn observe(&mut self, class: LatencyClass, value: u64) {
        self.hists[class.index()].record(value);
    }

    /// Records a duration into `class`'s histogram.
    pub fn observe_ns(&mut self, class: LatencyClass, d: Ns) {
        self.observe(class, d.as_nanos());
    }

    /// Records an instant event.
    pub fn instant(
        &mut self,
        ts: Ns,
        name: &'static str,
        cat: &'static str,
        args: &[(&'static str, u64)],
    ) {
        if self.enabled {
            self.events.push(TraceEvent {
                ts,
                name,
                cat,
                ph: Phase::Instant,
                id: 0,
                args: args.to_vec(),
            });
        }
    }

    /// Opens an async span. The begin timestamp is remembered even while
    /// disabled so [`Tracer::span_end`] can return the duration for
    /// histogram accounting.
    pub fn span_begin(&mut self, ts: Ns, name: &'static str, cat: &'static str, id: u64) {
        self.open.insert((name, id), ts);
        if self.enabled {
            self.events.push(TraceEvent {
                ts,
                name,
                cat,
                ph: Phase::Begin,
                id,
                args: Vec::new(),
            });
        }
    }

    /// Closes an async span, records its duration into `class`, and
    /// returns it. `None` when no matching begin exists (e.g. a
    /// completion event for a span rolled back by crash recovery).
    pub fn span_end(
        &mut self,
        ts: Ns,
        class: LatencyClass,
        name: &'static str,
        cat: &'static str,
        id: u64,
        args: &[(&'static str, u64)],
    ) -> Option<Ns> {
        let begin = self.open.remove(&(name, id))?;
        let d = ts.saturating_sub(begin);
        self.observe_ns(class, d);
        if self.enabled {
            self.events.push(TraceEvent {
                ts,
                name,
                cat,
                ph: Phase::End,
                id,
                args: args.to_vec(),
            });
        }
        Some(d)
    }

    /// Closes an async span without histogram accounting (aborted or
    /// rolled-back work whose duration is not a completed-operation
    /// latency). Keeps the exported trace's begin/end pairing intact.
    pub fn span_drop(
        &mut self,
        ts: Ns,
        name: &'static str,
        cat: &'static str,
        id: u64,
        args: &[(&'static str, u64)],
    ) {
        if self.open.remove(&(name, id)).is_some() && self.enabled {
            self.events.push(TraceEvent {
                ts,
                name,
                cat,
                ph: Phase::End,
                id,
                args: args.to_vec(),
            });
        }
    }

    /// Checks the captured event stream: every span end has a begin,
    /// nothing is left open (unless `allow_open`), and the event list
    /// sorts into a valid nondecreasing-timestamp order (always true by
    /// construction; kept as a guard for future recording paths).
    pub fn validate(&self, allow_open: bool) -> Result<(), String> {
        if !allow_open && !self.open.is_empty() {
            return Err(format!("{} spans still open", self.open.len()));
        }
        let mut begins: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
        for e in &self.events {
            match e.ph {
                Phase::Begin => *begins.entry((e.name, e.id)).or_insert(0) += 1,
                Phase::End => {
                    let c = begins.entry((e.name, e.id)).or_insert(0);
                    if *c == 0 {
                        return Err(format!("end without begin: {} id {}", e.name, e.id));
                    }
                    *c -= 1;
                }
                Phase::Instant => {}
            }
        }
        let unmatched: u64 = begins.values().sum();
        let open = self.open.len() as u64;
        if unmatched != if self.enabled { open } else { 0 } {
            return Err(format!(
                "{unmatched} begins never ended ({open} legitimately open)"
            ));
        }
        Ok(())
    }

    /// Exports the captured events as Chrome trace-event JSON (the format
    /// `chrome://tracing` and Perfetto load directly). Events are sorted
    /// by virtual timestamp (stable, so same-instant events keep record
    /// order); timestamps are microseconds with nanosecond precision.
    pub fn export_chrome(&self) -> String {
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by_key(|&i| self.events[i].ts);
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        for (n, &i) in order.iter().enumerate() {
            let e = &self.events[i];
            if n > 0 {
                out.push(',');
            }
            let ph = match e.ph {
                Phase::Begin => "b",
                Phase::End => "e",
                Phase::Instant => "i",
            };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{:.3},\"pid\":1,\"tid\":1",
                e.name,
                e.cat,
                ph,
                e.ts.as_micros_f64()
            ));
            match e.ph {
                Phase::Begin | Phase::End => {
                    out.push_str(&format!(",\"id\":{}", e.id));
                }
                Phase::Instant => out.push_str(",\"s\":\"g\""),
            }
            out.push_str(",\"args\":{");
            for (k, (key, val)) in e.args.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{key}\":{val}"));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

/// Minimal JSON well-formedness scanner (no external parser in this
/// workspace): checks string escapes and brace/bracket balance, and that
/// the document is one top-level object with no trailing garbage.
pub fn json_is_wellformed(s: &str) -> bool {
    let bytes = s.as_bytes();
    let mut stack: Vec<u8> = Vec::new();
    let mut in_str = false;
    let mut escaped = false;
    let mut seen_root = false;
    for &b in bytes.iter() {
        if in_str {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_str = false;
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'{' | b'[' => {
                if stack.is_empty() {
                    if seen_root || b != b'{' {
                        return false;
                    }
                    seen_root = true;
                }
                stack.push(b);
            }
            b'}' => {
                if stack.pop() != Some(b'{') {
                    return false;
                }
            }
            b']' => {
                if stack.pop() != Some(b'[') {
                    return false;
                }
            }
            _ => {
                // Non-whitespace outside any container: leading or
                // trailing garbage around the root object.
                if stack.is_empty() && !b.is_ascii_whitespace() {
                    return false;
                }
            }
        }
    }
    seen_root && stack.is_empty() && !in_str
}

/// Validates an exported Chrome trace: well-formed JSON, the
/// `traceEvents` envelope, nondecreasing `ts` values, and as many span
/// ends as begins.
pub fn validate_chrome(json: &str) -> Result<(), String> {
    if !json_is_wellformed(json) {
        return Err("malformed JSON".into());
    }
    if !json.starts_with("{\"traceEvents\":[") {
        return Err("missing traceEvents envelope".into());
    }
    let mut last_ts = f64::NEG_INFINITY;
    let mut rest = json;
    while let Some(p) = rest.find("\"ts\":") {
        rest = &rest[p + 5..];
        let end = rest
            .find([',', '}'])
            .ok_or_else(|| "unterminated ts value".to_string())?;
        let ts: f64 = rest[..end]
            .trim()
            .parse()
            .map_err(|e| format!("bad ts value {:?}: {e}", &rest[..end]))?;
        if ts < last_ts {
            return Err(format!("ts not monotone: {ts} after {last_ts}"));
        }
        last_ts = ts;
    }
    let begins = json.matches("\"ph\":\"b\"").count();
    let ends = json.matches("\"ph\":\"e\"").count();
    if begins != ends {
        return Err(format!("{begins} span begins vs {ends} ends"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_keeps_histograms_but_no_events() {
        let mut t = Tracer::new(false);
        t.span_begin(Ns::nanos(10), "migration", "mig", 1);
        let d = t.span_end(
            Ns::nanos(40),
            LatencyClass::Migration,
            "migration",
            "mig",
            1,
            &[],
        );
        assert_eq!(d, Some(Ns::nanos(30)));
        assert!(t.events().is_empty());
        assert_eq!(t.hist(LatencyClass::Migration).count(), 1);
        assert_eq!(t.hist(LatencyClass::Migration).max(), 30);
    }

    #[test]
    fn span_pairing_and_validation() {
        let mut t = Tracer::new(true);
        t.span_begin(Ns::nanos(5), "migration", "mig", 7);
        t.instant(Ns::nanos(6), "policy_pass", "policy", &[("promote", 2)]);
        assert!(t.validate(true).is_ok());
        assert!(t.validate(false).is_err(), "span 7 still open");
        t.span_end(
            Ns::nanos(9),
            LatencyClass::Migration,
            "migration",
            "mig",
            7,
            &[],
        );
        assert!(t.validate(false).is_ok());
        assert_eq!(t.events().len(), 3);
    }

    #[test]
    fn span_end_without_begin_is_ignored() {
        let mut t = Tracer::new(true);
        let d = t.span_end(
            Ns::nanos(9),
            LatencyClass::Migration,
            "migration",
            "mig",
            3,
            &[],
        );
        assert_eq!(d, None);
        assert!(t.events().is_empty(), "no dangling end event");
        assert_eq!(t.hist(LatencyClass::Migration).count(), 0);
    }

    #[test]
    fn span_drop_closes_without_histogram() {
        let mut t = Tracer::new(true);
        t.span_begin(Ns::nanos(1), "migration", "mig", 1);
        t.span_drop(Ns::nanos(2), "migration", "mig", 1, &[("rollback", 1)]);
        assert!(t.validate(false).is_ok());
        assert_eq!(t.hist(LatencyClass::Migration).count(), 0);
    }

    #[test]
    fn export_is_wellformed_and_validates() {
        let mut t = Tracer::new(true);
        t.span_begin(Ns::micros(2), "migration", "mig", 1);
        t.span_begin(Ns::micros(3), "migration", "mig", 2);
        t.instant(Ns::micros(4), "fault", "fault", &[("stall_ns", 1234)]);
        t.span_end(
            Ns::micros(5),
            LatencyClass::Migration,
            "migration",
            "mig",
            2,
            &[],
        );
        t.span_end(
            Ns::micros(6),
            LatencyClass::Migration,
            "migration",
            "mig",
            1,
            &[],
        );
        let json = t.export_chrome();
        assert!(json_is_wellformed(&json));
        assert!(
            validate_chrome(&json).is_ok(),
            "{:?}",
            validate_chrome(&json)
        );
        assert!(json.contains("\"ph\":\"b\""));
        assert!(json.contains("\"stall_ns\":1234"));
    }

    #[test]
    fn export_sorts_out_of_order_timestamps() {
        // populate() records fault events at projected future instants, so
        // raw append order is not ts order; the exporter must sort.
        let mut t = Tracer::new(true);
        t.instant(Ns::micros(50), "fault", "fault", &[]);
        t.instant(Ns::micros(10), "fault", "fault", &[]);
        let json = t.export_chrome();
        assert!(validate_chrome(&json).is_ok());
        let p10 = json.find("\"ts\":10.000").expect("early event present");
        let p50 = json.find("\"ts\":50.000").expect("late event present");
        assert!(p10 < p50);
    }

    #[test]
    fn wellformed_scanner_rejects_breakage() {
        assert!(json_is_wellformed("{\"a\":[1,2,{\"b\":\"x\\\"y\"}]}"));
        assert!(!json_is_wellformed("{\"a\":[1,2}"));
        assert!(!json_is_wellformed("{\"a\":1} trailing"));
        assert!(!json_is_wellformed("[1,2]"), "root must be an object");
        assert!(!json_is_wellformed("{\"a\":\"unterminated}"));
    }

    #[test]
    fn chrome_validator_rejects_non_monotone_and_unmatched() {
        let bad_ts = "{\"traceEvents\":[{\"ts\":5.0},{\"ts\":4.0}]}";
        assert!(validate_chrome(bad_ts).is_err());
        let bad_pair = "{\"traceEvents\":[{\"ph\":\"b\",\"ts\":1.0}]}";
        assert!(validate_chrome(bad_pair).is_err());
    }
}
