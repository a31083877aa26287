//! Cross-process trace stitching (`modelhub trace view`).
//!
//! Each process writes its own JSONL span file (`--trace` / `MH_TRACE`);
//! the 128-bit trace id minted by the client CLI crosses the hub wire in
//! the `mh-trace` header, so one lifecycle operation leaves correlated
//! records in several files. This module parses those files back, groups
//! spans by trace id, and stitches them into a single tree per trace.
//!
//! Span ids are only unique **within** a process, so nodes are keyed by
//! `(source file, id)`. A span whose parent id is not found in its own
//! file is a *remote* child: its parent is resolved against the other
//! files (the client span cited in the `mh-trace` header). Clocks are
//! not comparable across processes, so the client/server network gap is
//! attributed by duration: `parent.dur_us - child.dur_us` is the
//! client-observed time the request spent outside the server span
//! (network transfer + server queueing), rendered as `network+queue=`.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Mutex, OnceLock};

use crate::span::SpanRecord;

/// One span parsed back from a JSONL trace file or flight-recorder dump.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ParsedSpan {
    pub trace: u128,
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub thread: u64,
    pub start_us: u64,
    pub dur_us: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    /// Index of the source file this span came from (caller-assigned).
    pub source: usize,
}

/// Minimal scanner over the single-line JSON objects our sinks emit.
struct Scanner<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Scanner<'a> {
    fn new(s: &'a str) -> Self {
        Scanner {
            s: s.as_bytes(),
            i: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn parse_string(&mut self) -> Option<String> {
        if !self.eat(b'"') {
            return None;
        }
        let mut out = String::new();
        loop {
            let b = self.peek()?;
            self.i += 1;
            match b {
                b'"' => return Some(out),
                b'\\' => {
                    let esc = self.peek()?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4)?;
                            self.i += 4;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                        }
                        _ => return None,
                    }
                }
                _ => {
                    // Re-decode multi-byte UTF-8 starting at b.
                    let start = self.i - 1;
                    let width = utf8_width(b);
                    let chunk = self.s.get(start..start + width)?;
                    out.push_str(std::str::from_utf8(chunk).ok()?);
                    self.i = start + width;
                }
            }
        }
    }

    fn parse_uint(&mut self) -> Option<u128> {
        self.skip_ws();
        let start = self.i;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        if self.i == start {
            return None;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()?
            .parse()
            .ok()
    }

    /// Skip any JSON value (string, number, object, array, literal).
    fn skip_value(&mut self) -> Option<()> {
        self.skip_ws();
        match self.peek()? {
            b'"' => {
                self.parse_string()?;
            }
            b'{' | b'[' => {
                let (open, close) = if self.peek() == Some(b'{') {
                    (b'{', b'}')
                } else {
                    (b'[', b']')
                };
                self.i += 1;
                let mut depth = 1usize;
                while depth > 0 {
                    match self.peek()? {
                        b'"' => {
                            self.parse_string()?;
                        }
                        b if b == open => {
                            depth += 1;
                            self.i += 1;
                        }
                        b if b == close => {
                            depth -= 1;
                            self.i += 1;
                        }
                        _ => self.i += 1,
                    }
                }
            }
            _ => {
                while !matches!(self.peek(), None | Some(b',' | b'}' | b']')) {
                    self.i += 1;
                }
            }
        }
        Some(())
    }
}

fn utf8_width(b: u8) -> usize {
    match b {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// Parse one JSONL line into a span. Returns `None` for anything that is
/// not a span object (flight-recorder log events, malformed lines).
pub fn parse_line(line: &str) -> Option<ParsedSpan> {
    let mut sc = Scanner::new(line.trim());
    if !sc.eat(b'{') {
        return None;
    }
    let mut span = ParsedSpan::default();
    let mut saw_name = false;
    let mut saw_id = false;
    loop {
        if sc.eat(b'}') {
            break;
        }
        let key = sc.parse_string()?;
        if !sc.eat(b':') {
            return None;
        }
        match key.as_str() {
            "trace" => span.trace = u128::from_str_radix(&sc.parse_string()?, 16).ok()?,
            "id" => {
                span.id = sc.parse_uint()? as u64;
                saw_id = true;
            }
            "parent" => span.parent = sc.parse_uint()? as u64,
            "name" => {
                span.name = sc.parse_string()?;
                saw_name = true;
            }
            "thread" => span.thread = sc.parse_uint()? as u64,
            "start_us" => span.start_us = sc.parse_uint()? as u64,
            "dur_us" => span.dur_us = sc.parse_uint()? as u64,
            "bytes_in" => span.bytes_in = sc.parse_uint()? as u64,
            "bytes_out" => span.bytes_out = sc.parse_uint()? as u64,
            _ => sc.skip_value()?,
        }
        if !sc.eat(b',') && sc.peek() != Some(b'}') {
            return None;
        }
    }
    (saw_name && saw_id).then_some(span)
}

/// Parse a whole JSONL document, tagging each span with `source`.
/// Non-span lines (log events, blanks) are skipped.
pub fn parse_jsonl(text: &str, source: usize) -> Vec<ParsedSpan> {
    text.lines()
        .filter_map(parse_line)
        .map(|mut s| {
            s.source = source;
            s
        })
        .collect()
}

fn intern(name: &str) -> &'static str {
    static NAMES: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut set = NAMES
        .get_or_init(|| Mutex::new(HashSet::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    match set.get(name) {
        Some(s) => s,
        None => {
            let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
            set.insert(leaked);
            leaked
        }
    }
}

/// Convert parsed spans back into [`SpanRecord`]s so dump files can be fed
/// to [`crate::build_profile`] (`modelhub prof --from-dump`). Span names
/// are interned (leaked once per unique name — bounded, CLI-only).
///
/// Server spans stamp the *client's* rpc span id as their parent, and ids
/// collide across processes, so a dump can contain parent pointers that
/// resolve to unrelated local spans (even cyclically). As in
/// [`stitch`], a parent id is only trusted when that span temporally
/// encloses the child; otherwise the child becomes a root.
pub fn to_records(spans: &[ParsedSpan]) -> Vec<SpanRecord> {
    let encloses = |parent: u64, s: &ParsedSpan| {
        spans.iter().any(|p| {
            p.id == parent
                && !(p.id == s.id && p.start_us == s.start_us)
                && p.start_us <= s.start_us
                && p.start_us + p.dur_us >= s.start_us + s.dur_us
        })
    };
    spans
        .iter()
        .map(|p| SpanRecord {
            trace: p.trace,
            id: p.id,
            parent: if p.parent != 0 && encloses(p.parent, p) {
                p.parent
            } else {
                0
            },
            name: intern(&p.name),
            start_us: p.start_us,
            dur_us: p.dur_us,
            bytes_in: p.bytes_in,
            bytes_out: p.bytes_out,
            fields: Vec::new(),
            thread: p.thread,
        })
        .collect()
}

/// A node of a stitched cross-process trace tree.
#[derive(Debug, Clone)]
pub struct TraceNode {
    pub span: ParsedSpan,
    pub children: Vec<TraceNode>,
    /// Set on remote (cross-source) children: the parent-observed time not
    /// spent inside this span — network transfer plus server queueing.
    pub remote_gap_us: Option<u64>,
}

/// All spans of one trace id, stitched into root trees.
#[derive(Debug, Clone)]
pub struct TraceTree {
    pub trace: u128,
    pub roots: Vec<TraceNode>,
}

/// Group spans by trace id and stitch each group into trees. Spans with
/// no trace id are ignored (they cannot be correlated across files).
/// Trees are ordered by trace id; roots and children deterministically by
/// `(source, start_us, id)`.
pub fn stitch(spans: &[ParsedSpan]) -> Vec<TraceTree> {
    let mut by_trace: BTreeMap<u128, Vec<&ParsedSpan>> = BTreeMap::new();
    for s in spans {
        if s.trace != 0 {
            by_trace.entry(s.trace).or_default().push(s);
        }
    }
    by_trace
        .into_iter()
        .map(|(trace, group)| TraceTree {
            trace,
            roots: stitch_group(&group),
        })
        .collect()
}

fn stitch_group(group: &[&ParsedSpan]) -> Vec<TraceNode> {
    // Spans in deterministic order; nodes are addressed by index.
    let mut order: Vec<usize> = (0..group.len()).collect();
    order.sort_by_key(|&i| (group[i].source, group[i].start_us, group[i].id));

    let mut by_key: HashMap<(usize, u64), usize> = HashMap::new();
    let mut by_id: HashMap<u64, Vec<usize>> = HashMap::new();
    for &i in &order {
        by_key.entry((group[i].source, group[i].id)).or_insert(i);
        by_id.entry(group[i].id).or_default().push(i);
    }

    // parent_of[i] = (parent index, is_remote) or None for roots.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); group.len()];
    let mut remote: Vec<bool> = vec![false; group.len()];
    let mut is_child: Vec<bool> = vec![false; group.len()];
    for &i in &order {
        let s = group[i];
        if s.parent == 0 {
            continue;
        }
        // Local parent first (a span in the same file, not itself). Span
        // ids collide across processes — both sides count from 1 — so a
        // same-file id match alone is not proof of parenthood. Within one
        // file the clock IS comparable, and a real parent's interval
        // encloses its child's, so demand enclosure before trusting the
        // local match; a fake match (the id happens to exist locally but
        // belongs to the other process's numbering) fails it and falls
        // through to remote resolution.
        let local = by_key
            .get(&(s.source, s.parent))
            .copied()
            .filter(|&p| p != i)
            .filter(|&p| {
                group[p].start_us <= s.start_us
                    && group[p].start_us + group[p].dur_us >= s.start_us + s.dur_us
            });
        // … then a remote parent in any other file.
        let found = local.or_else(|| {
            by_id
                .get(&s.parent)
                .and_then(|c| c.iter().copied().find(|&p| group[p].source != s.source))
        });
        if let Some(p) = found {
            children[p].push(i);
            remote[i] = group[p].source != s.source;
            is_child[i] = true;
        }
    }

    let mut visited = vec![false; group.len()];
    let mut roots = Vec::new();
    for &i in &order {
        if !is_child[i] && !visited[i] {
            roots.push(build_node(i, group, &children, &remote, &mut visited));
        }
    }
    // Anything left unvisited sits on a parent cycle (corrupt input);
    // surface it flat rather than dropping it.
    for &i in &order {
        if !visited[i] {
            roots.push(build_node(i, group, &children, &remote, &mut visited));
        }
    }
    roots
}

fn build_node(
    i: usize,
    group: &[&ParsedSpan],
    children: &[Vec<usize>],
    remote: &[bool],
    visited: &mut [bool],
) -> TraceNode {
    visited[i] = true;
    let kids = children[i]
        .iter()
        .filter(|&&c| !visited[c])
        .copied()
        .collect::<Vec<_>>()
        .into_iter()
        .map(|c| {
            let mut node = build_node(c, group, children, remote, visited);
            if remote[c] {
                node.remote_gap_us = Some(group[i].dur_us.saturating_sub(group[c].dur_us));
            }
            node
        })
        .collect();
    TraceNode {
        span: group[i].clone(),
        children: kids,
        remote_gap_us: None,
    }
}

/// Render a stitched tree. `sources` maps source indices to display names
/// (typically the input file names); indices out of range print as `#N`.
pub fn render_trace(tree: &TraceTree, sources: &[String]) -> String {
    let mut out = format!("trace {:032x}\n", tree.trace);
    for root in &tree.roots {
        render_node(root, 1, sources, &mut out);
    }
    out
}

fn render_node(node: &TraceNode, depth: usize, sources: &[String], out: &mut String) {
    let span = &node.span;
    out.push_str(&"  ".repeat(depth));
    out.push_str(&span.name);
    out.push_str(&format!("  {}", crate::format_us(span.dur_us)));
    if span.bytes_in > 0 {
        out.push_str(&format!("  in={}", span.bytes_in));
    }
    if span.bytes_out > 0 {
        out.push_str(&format!("  out={}", span.bytes_out));
    }
    let source = sources
        .get(span.source)
        .cloned()
        .unwrap_or_else(|| format!("#{}", span.source));
    out.push_str(&format!("  [{source}]"));
    if let Some(gap) = node.remote_gap_us {
        out.push_str(&format!("  network+queue={}", crate::format_us(gap)));
    }
    out.push('\n');
    for child in &node.children {
        render_node(child, depth + 1, sources, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(source: usize, trace: u128, id: u64, parent: u64, name: &str, dur_us: u64) -> ParsedSpan {
        ParsedSpan {
            trace,
            id,
            parent,
            name: name.to_string(),
            dur_us,
            source,
            ..ParsedSpan::default()
        }
    }

    #[test]
    fn parse_roundtrips_span_record_json() {
        let r = SpanRecord {
            trace: 0xfeed,
            id: 7,
            parent: 3,
            name: "hub.request",
            start_us: 10,
            dur_us: 20,
            bytes_in: 30,
            bytes_out: 40,
            fields: vec![("endpoint", "objects \"quoted\"".to_string())],
            thread: 2,
        };
        let p = parse_line(&r.to_json()).expect("parses");
        assert_eq!(p.trace, 0xfeed);
        assert_eq!(p.id, 7);
        assert_eq!(p.parent, 3);
        assert_eq!(p.name, "hub.request");
        assert_eq!(p.start_us, 10);
        assert_eq!(p.dur_us, 20);
        assert_eq!(p.bytes_in, 30);
        assert_eq!(p.bytes_out, 40);
        assert_eq!(p.thread, 2);
    }

    #[test]
    fn non_span_lines_are_skipped() {
        assert_eq!(parse_line(""), None);
        assert_eq!(parse_line("not json"), None);
        // Flight-recorder log events have no name/id.
        assert_eq!(parse_line("{\"level\":\"warn\",\"msg\":\"x\"}"), None);
        let text = "{\"level\":\"warn\",\"msg\":\"x\"}\n{\"id\":1,\"parent\":0,\"name\":\"a\",\"thread\":1,\"start_us\":0,\"dur_us\":1,\"bytes_in\":0,\"bytes_out\":0}\n";
        assert_eq!(parse_jsonl(text, 4).len(), 1);
        assert_eq!(parse_jsonl(text, 4)[0].source, 4);
    }

    /// A flight-recorder dump where server spans carry *client* span ids
    /// as parents: ids collide with local ones and even form a 2-cycle
    /// (3→4, 4→3). `to_records` must drop the bogus parents (no local
    /// span encloses them) and `build_profile` must terminate with every
    /// request as a root.
    #[test]
    fn to_records_cuts_colliding_parent_cycles() {
        let mk = |id: u64, parent: u64, start_us: u64| ParsedSpan {
            id,
            parent,
            name: "hub.request".to_string(),
            start_us,
            dur_us: 100,
            ..ParsedSpan::default()
        };
        let spans = vec![mk(3, 4, 0), mk(4, 3, 200), mk(5, 4, 400)];
        let records = to_records(&spans);
        assert!(records.iter().all(|r| r.parent == 0), "{records:?}");
        let profile = crate::build_profile(&records);
        assert_eq!(profile.len(), 1);
        assert_eq!(profile[0].name, "hub.request");
        assert_eq!(profile[0].count, 3);
        assert!(profile[0].children.is_empty());

        // A genuine local parent — one that temporally encloses its
        // child — survives the filter.
        let nested = vec![mk(1, 0, 0), {
            let mut c = mk(2, 1, 10);
            c.dur_us = 50;
            c.name = "hub.route".to_string();
            c
        }];
        let records = to_records(&nested);
        assert_eq!(records[1].parent, 1);
    }

    #[test]
    fn stitch_merges_remote_child_and_attributes_gap() {
        // Client (source 0): dlv.pull → hub.rpc; server (source 1):
        // hub.request (remote parent = client's hub.rpc, id collides with
        // a client id on purpose) → hub.route (local child).
        const T: u128 = 0xabc;
        let spans = vec![
            ps(0, T, 1, 0, "dlv.pull", 5_000),
            ps(0, T, 2, 1, "hub.rpc", 4_000),
            ps(1, T, 2, 2, "hub.request", 3_000),
            ps(1, T, 3, 2, "hub.route", 1_000),
        ];
        let trees = stitch(&spans);
        assert_eq!(trees.len(), 1);
        let tree = &trees[0];
        assert_eq!(tree.roots.len(), 1);
        let root = &tree.roots[0];
        assert_eq!(root.span.name, "dlv.pull");
        let rpc = &root.children[0];
        assert_eq!(rpc.span.name, "hub.rpc");
        let req = &rpc.children[0];
        assert_eq!(req.span.name, "hub.request");
        assert_eq!(req.span.source, 1);
        // Gap = client rpc time minus server request time.
        assert_eq!(req.remote_gap_us, Some(1_000));
        // The server's local child resolved locally despite the id reuse.
        assert_eq!(req.children[0].span.name, "hub.route");
        assert_eq!(req.children[0].remote_gap_us, None);

        let text = render_trace(tree, &["client.jsonl".into(), "server.jsonl".into()]);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("trace "));
        assert!(lines[1].contains("dlv.pull") && lines[1].contains("[client.jsonl]"));
        assert!(lines[3].contains("hub.request") && lines[3].contains("[server.jsonl]"));
        assert!(lines[3].contains("network+queue=1.0ms"));
        // Indentation deepens along the path.
        let indent = |l: &str| l.len() - l.trim_start().len();
        assert!(indent(lines[2]) > indent(lines[1]));
        assert!(indent(lines[3]) > indent(lines[2]));
    }

    #[test]
    fn untraced_spans_are_ignored_and_traces_are_separated() {
        let spans = vec![
            ps(0, 0, 1, 0, "untraced", 10),
            ps(0, 5, 2, 0, "a", 10),
            ps(0, 6, 3, 0, "b", 10),
        ];
        let trees = stitch(&spans);
        assert_eq!(trees.len(), 2);
        assert_eq!(trees[0].trace, 5);
        assert_eq!(trees[1].trace, 6);
    }
}
