//! Always-on flight recorder: a fixed-capacity sharded ring that keeps
//! the most recent span records and warn/error log events, even when span
//! tracing (`--trace`) is off.
//!
//! The recorder exists to answer "what just happened?" after a failure:
//! hubd serves its contents at `GET /debug/flightrec`, the panic hook
//! dumps it to stderr, and `modelhub prof --from-dump` renders a dump as
//! a profile tree. It is disarmed by default at the crate level (so unit
//! tests see the historical inert-span behaviour) and armed by the CLIs
//! and by hubd at startup.
//!
//! Overhead is bounded by construction: a fixed number of shards, each a
//! fixed-length ring guarded by its own mutex, selected by thread id so
//! concurrent recorders rarely contend. `repro overhead` holds the
//! armed-vs-disarmed cost of a full archival build under 3%.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::span::SpanRecord;

/// Shard count (power of two, indexed by thread id).
const SHARDS: usize = 8;
/// Events retained per shard; total capacity is `SHARDS * SHARD_CAP`.
const SHARD_CAP: usize = 128;

static ARMED: AtomicBool = AtomicBool::new(false);
/// Global capture sequence; orders events across shards in dumps.
static SEQ: AtomicU64 = AtomicU64::new(1);

#[derive(Debug, Clone)]
enum Event {
    Span(SpanRecord),
    Log { level: &'static str, msg: String },
}

struct Shard {
    /// Ring slots as (sequence, event); overwritten oldest-first.
    slots: Vec<(u64, Event)>,
    /// Next slot to overwrite once the ring is full.
    next: usize,
}

fn shards() -> &'static [Mutex<Shard>; SHARDS] {
    static RINGS: OnceLock<[Mutex<Shard>; SHARDS]> = OnceLock::new();
    RINGS.get_or_init(|| {
        std::array::from_fn(|_| {
            Mutex::new(Shard {
                slots: Vec::with_capacity(SHARD_CAP),
                next: 0,
            })
        })
    })
}

fn lock(m: &Mutex<Shard>) -> std::sync::MutexGuard<'_, Shard> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Is the recorder currently armed? Checked on the span fast path.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Arm the recorder. Idempotent; called by CLI entry points and hubd.
pub fn enable() {
    crate::span::touch_epoch();
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarm the recorder and clear its contents (used by the overhead bench
/// to measure a recorder-free baseline, and by tests).
pub fn disable() {
    ARMED.store(false, Ordering::Relaxed);
    for shard in shards() {
        let mut s = lock(shard);
        s.slots.clear();
        s.next = 0;
    }
}

fn push(event: Event) {
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let shard = &shards()[(crate::span::thread_id() as usize) & (SHARDS - 1)];
    let mut s = lock(shard);
    if s.slots.len() < SHARD_CAP {
        s.slots.push((seq, event));
    } else {
        let next = s.next;
        s.slots[next] = (seq, event);
        s.next = (next + 1) % SHARD_CAP;
    }
}

/// Record a finished span (no-op when disarmed). Called from the span
/// sink fan-out.
pub(crate) fn record_span(record: &SpanRecord) {
    if !armed() {
        return;
    }
    push(Event::Span(record.clone()));
}

/// Record a warn/error log event (no-op when disarmed).
pub(crate) fn record_log(level: &'static str, msg: String) {
    if !armed() {
        return;
    }
    push(Event::Log { level, msg });
}

/// Number of events currently retained (for tests and diagnostics).
pub fn len() -> usize {
    shards().iter().map(|s| lock(s).slots.len()).sum()
}

/// Render the recorder contents as deterministic JSONL: events sorted by
/// capture sequence (oldest first), spans in the `SpanRecord::to_json`
/// line format, log events as `{"level":"...","msg":"..."}` objects.
/// Empty string when nothing has been recorded.
pub fn dump() -> String {
    let mut events: Vec<(u64, Event)> = Vec::new();
    for shard in shards() {
        events.extend(lock(shard).slots.iter().cloned());
    }
    events.sort_by_key(|(seq, _)| *seq);
    let mut out = String::new();
    for (_, event) in events {
        match event {
            Event::Span(r) => out.push_str(&r.to_json()),
            Event::Log { level, msg } => {
                out.push_str(&format!(
                    "{{\"level\":\"{}\",\"msg\":\"{}\"}}",
                    level,
                    crate::span::escape_json(&msg)
                ));
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_recorder_stays_empty_and_spans_stay_inert() {
        let _g = crate::test_trace_lock();
        crate::disable();
        disable();
        let s = crate::span("fr.off");
        assert!(!s.is_recording());
        drop(s);
        record_log("warn", "dropped".to_string());
        assert_eq!(len(), 0);
        assert!(dump().is_empty());
    }

    #[test]
    fn armed_recorder_captures_spans_and_logs_with_trace_off() {
        let _g = crate::test_trace_lock();
        crate::disable();
        disable();
        enable();
        {
            let mut s = crate::span("fr.span_a");
            assert!(s.is_recording(), "armed recorder keeps spans live");
            s.field("k", 1);
        }
        record_log("error", "boom \"quoted\"".to_string());
        let text = dump();
        disable();
        assert!(text.contains("\"name\":\"fr.span_a\""));
        assert!(text.contains("{\"level\":\"error\",\"msg\":\"boom \\\"quoted\\\"\"}"));
        // Span lines precede the later log line (sequence order).
        let span_at = text.find("fr.span_a").unwrap();
        let log_at = text.find("\"level\":\"error\"").unwrap();
        assert!(span_at < log_at);
        // While trace capture was off, nothing leaked into the capture buf.
        assert!(crate::drain_capture().is_empty());
    }

    #[test]
    fn ring_overwrites_oldest_and_dump_is_sequence_sorted() {
        let _g = crate::test_trace_lock();
        crate::disable();
        disable();
        enable();
        // Overfill well past total capacity from one thread (one shard).
        for i in 0..(SHARD_CAP * 2) {
            record_log("warn", format!("ev{i}"));
        }
        let text = dump();
        disable();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), SHARD_CAP);
        // Oldest retained is the first event after overwrite.
        assert!(lines[0].contains(&format!("\"msg\":\"ev{}\"", SHARD_CAP)));
        assert!(lines[SHARD_CAP - 1].contains(&format!("\"msg\":\"ev{}\"", SHARD_CAP * 2 - 1)));
        // Strictly increasing event numbers (sequence sort).
        let nums: Vec<usize> = lines
            .iter()
            .map(|l| {
                l.split("\"msg\":\"ev")
                    .nth(1)
                    .and_then(|s| s.split('"').next())
                    .unwrap()
                    .parse()
                    .unwrap()
            })
            .collect();
        assert!(nums.windows(2).all(|w| w[0] < w[1]));
    }
}
