//! Item-level parser: extract functions, impl blocks, modules and `use`
//! maps from a lexed token stream.
//!
//! This is not a full Rust parser — it recovers exactly what the call
//! graph needs: for every `fn`, its qualified location (crate, module
//! path, enclosing impl type), parameter names/arity, body token range,
//! `#[cfg(test)]` / `#[test]` containment, and any `mh-audit:`
//! annotations attached to it. Brace balancing keeps the scan resilient:
//! an unexpected token never aborts the file, it just falls through.

use crate::lexer::{Ann, Directive, LexFile, Tok, Token};
use std::collections::BTreeMap;

/// One parsed function item.
#[derive(Debug, Clone)]
pub struct Func {
    /// Crate lib name (`mh_hub`), derived from the file's Cargo package.
    pub crate_name: String,
    /// Module path inside the crate (file-derived plus inline `mod`s).
    pub module: Vec<String>,
    /// Enclosing `impl` type's last path segment, if any.
    pub impl_type: Option<String>,
    /// The function's own name.
    pub name: String,
    /// Workspace-relative file and header line.
    pub file: String,
    pub line: u32,
    /// Whether the first parameter mentions `self`.
    pub has_self: bool,
    /// Parameter binding names, excluding `self`.
    pub params: Vec<String>,
    /// Token index range of the body (inside the braces); empty for
    /// bodyless trait methods.
    pub body: std::ops::Range<usize>,
    /// Inside a `#[cfg(test)]` module or marked `#[test]`.
    pub in_test: bool,
    /// Attached annotations.
    pub entry: bool,
    pub trusted: Option<String>,
    pub source: Option<String>,
}

impl Func {
    /// Human-readable qualified name, e.g. `mh_hub::server::Type::name`.
    pub fn qualified(&self) -> String {
        let mut s = self.crate_name.clone();
        for m in &self.module {
            s.push_str("::");
            s.push_str(m);
        }
        if let Some(t) = &self.impl_type {
            s.push_str("::");
            s.push_str(t);
        }
        s.push_str("::");
        s.push_str(&self.name);
        s
    }
}

/// One parsed file: tokens (shared with the passes), annotations, the
/// functions found, and the `use` alias map (local name → full path).
#[derive(Debug)]
pub struct ParsedFile {
    pub rel: String,
    pub crate_name: String,
    pub tokens: Vec<Token>,
    pub anns: Vec<Ann>,
    pub funcs: Vec<Func>,
    pub uses: BTreeMap<String, Vec<String>>,
}

fn ident_at(tokens: &[Token], i: usize) -> Option<&str> {
    match tokens.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn is_punct(tokens: &[Token], i: usize, p: &str) -> bool {
    matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Punct(q)) if *q == p)
}

/// Skip a balanced `<...>` generics group starting at `i` (which must be
/// `<`); returns the index just past the matching `>`. `>>` closes two.
fn skip_generics(tokens: &[Token], mut i: usize) -> usize {
    let mut depth: i32 = 0;
    while let Some(t) = tokens.get(i) {
        match &t.tok {
            Tok::Punct("<") => depth += 1,
            Tok::Punct(">") => {
                depth -= 1;
                if depth <= 0 {
                    return i + 1;
                }
            }
            Tok::Punct(">>") => {
                depth -= 2;
                if depth <= 0 {
                    return i + 1;
                }
            }
            Tok::Punct(";") | Tok::Open('{') => return i, // malformed; bail
            _ => {}
        }
        i += 1;
    }
    i
}

/// Find the matching close delimiter for the open delimiter at `i`;
/// returns its index (or the end of the stream when unbalanced).
pub fn matching_close(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0usize;
    let mut j = i;
    while let Some(t) = tokens.get(j) {
        match t.tok {
            Tok::Open(_) => depth += 1,
            Tok::Close(_) => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Parse parameter names from the token slice inside the fn's parens.
fn parse_params(tokens: &[Token]) -> (bool, Vec<String>) {
    let mut has_self = false;
    let mut params = Vec::new();
    let mut depth = 0usize;
    let mut start_of_param = true;
    let mut i = 0usize;
    let mut current_first_ident: Option<String> = None;
    let mut seen_colon = false;
    while i < tokens.len() {
        match &tokens[i].tok {
            Tok::Open(_) => depth += 1,
            Tok::Close(_) => depth = depth.saturating_sub(1),
            Tok::Punct(",") if depth == 0 => {
                if let Some(n) = current_first_ident.take() {
                    params.push(n);
                }
                start_of_param = true;
                seen_colon = false;
            }
            Tok::Punct(":") if depth == 0 => seen_colon = true,
            Tok::Ident(name) if depth == 0 && !seen_colon => {
                if name == "self" {
                    has_self = true;
                    current_first_ident = None;
                    start_of_param = false;
                } else if start_of_param && name != "mut" && name != "ref" {
                    current_first_ident = Some(name.clone());
                    start_of_param = false;
                }
            }
            _ => {}
        }
        i += 1;
    }
    if let Some(n) = current_first_ident.take() {
        params.push(n);
    }
    (has_self, params)
}

/// Collect use-alias entries from the tokens after the `use` keyword up
/// to the terminating `;` — maps each leaf name to its full path.
fn parse_use(tokens: &[Token], start: usize, uses: &mut BTreeMap<String, Vec<String>>) -> usize {
    // Gather tokens until `;` at depth 0.
    let mut end = start;
    let mut depth = 0usize;
    while let Some(t) = tokens.get(end) {
        match t.tok {
            Tok::Open(_) => depth += 1,
            Tok::Close(_) => depth = depth.saturating_sub(1),
            Tok::Punct(";") if depth == 0 => break,
            _ => {}
        }
        end += 1;
    }
    fn walk(
        tokens: &[Token],
        mut i: usize,
        end: usize,
        prefix: &[String],
        uses: &mut BTreeMap<String, Vec<String>>,
    ) {
        let mut path = prefix.to_vec();
        while i < end {
            match &tokens[i].tok {
                Tok::Ident(s) => {
                    path.push(s.clone());
                    i += 1;
                }
                Tok::Punct("::") => i += 1,
                Tok::Open('{') => {
                    // Split the group on top-level commas, recurse.
                    let close = matching_close(tokens, i);
                    let mut seg_start = i + 1;
                    let mut depth = 0usize;
                    let mut j = i + 1;
                    while j < close.min(end) {
                        match tokens[j].tok {
                            Tok::Open(_) => depth += 1,
                            Tok::Close(_) => depth = depth.saturating_sub(1),
                            Tok::Punct(",") if depth == 0 => {
                                walk(tokens, seg_start, j, &path, uses);
                                seg_start = j + 1;
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    walk(tokens, seg_start, close.min(end), &path, uses);
                    return;
                }
                _ => i += 1,
            }
        }
        // `as` alias: path like [.., "x", "as", "y"].
        if path.len() >= 3 && path[path.len() - 2] == "as" {
            let alias = path[path.len() - 1].clone();
            let mut real = path[..path.len() - 2].to_vec();
            if real.last().map(String::as_str) == Some("*") {
                return;
            }
            uses.insert(alias, std::mem::take(&mut real));
        } else if let Some(leaf) = path.last() {
            if leaf != "*" {
                uses.insert(leaf.clone(), path.clone());
            }
        }
    }
    walk(tokens, start, end, &[], uses);
    end
}

/// Annotations pending attachment to the next `fn` item.
#[derive(Default, Clone)]
struct PendingAnns {
    entry: bool,
    trusted: Option<String>,
    source: Option<String>,
}

/// Parse one lexed file into items.
pub fn parse(rel: &str, crate_name: &str, file_module: &[String], lexed: LexFile) -> ParsedFile {
    let LexFile { tokens, anns } = lexed;
    let mut funcs: Vec<Func> = Vec::new();
    let mut uses: BTreeMap<String, Vec<String>> = BTreeMap::new();

    // Scope stack entries: (close_index, kind).
    #[derive(Clone)]
    enum Scope {
        Mod { name: String, test: bool },
        Impl { ty: Option<String> },
    }
    let mut scopes: Vec<(usize, Scope)> = Vec::new();

    // Fn-item annotations: standalone NoPanicZone / Trusted / Source
    // anns apply to the next fn whose header line is >= ann line.
    let mut fn_anns: Vec<(u32, Directive)> = anns
        .iter()
        .filter(|a| {
            matches!(
                a.directive,
                Directive::NoPanicZone | Directive::Trusted(_) | Directive::Source(_)
            )
        })
        .map(|a| (a.line, a.directive.clone()))
        .collect();
    fn_anns.sort_by_key(|(l, _)| *l);

    let mut i = 0usize;
    let mut pending_attr_test = false; // #[cfg(test)] or #[test] seen
    while i < tokens.len() {
        // Pop closed scopes.
        while let Some((close, _)) = scopes.last() {
            if i > *close {
                scopes.pop();
            } else {
                break;
            }
        }
        match &tokens[i].tok {
            Tok::Punct("#")
                if matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Open('['))) =>
            {
                let close = matching_close(&tokens, i + 1);
                let mut has_test = false;
                for t in &tokens[i + 1..close.min(tokens.len())] {
                    if let Tok::Ident(s) = &t.tok {
                        if s == "test" {
                            has_test = true;
                        }
                    }
                }
                if has_test {
                    // #[test], #[cfg(test)], #[cfg(feature="test")]… —
                    // over-approximate: anything naming `test` marks the
                    // next item as test-only.
                    pending_attr_test = true;
                }
                i = close + 1;
                continue;
            }
            Tok::Ident(kw) if kw == "use" => {
                i = parse_use(&tokens, i + 1, &mut uses);
                continue;
            }
            Tok::Ident(kw) if kw == "mod" => {
                if let Some(name) = ident_at(&tokens, i + 1) {
                    let name = name.to_string();
                    if matches!(tokens.get(i + 2).map(|t| &t.tok), Some(Tok::Open('{'))) {
                        let close = matching_close(&tokens, i + 2);
                        let test = pending_attr_test
                            || scopes
                                .iter()
                                .any(|(_, s)| matches!(s, Scope::Mod { test: true, .. }));
                        scopes.push((close, Scope::Mod { name, test }));
                        pending_attr_test = false;
                        i += 3;
                        continue;
                    }
                }
                pending_attr_test = false;
                i += 1;
                continue;
            }
            Tok::Ident(kw) if kw == "impl" => {
                // impl [<..>] Type [for Trait]? — actually `impl Trait for Type`.
                let mut j = i + 1;
                if is_punct(&tokens, j, "<") {
                    j = skip_generics(&tokens, j);
                }
                // Collect the path up to `for`, `where` or `{`.
                let mut first_path_last: Option<String> = None;
                let mut after_for: Option<String> = None;
                let mut in_for = false;
                while let Some(t) = tokens.get(j) {
                    match &t.tok {
                        Tok::Open('{') => break,
                        Tok::Punct(";") => break,
                        Tok::Ident(s) if s == "for" => in_for = true,
                        Tok::Ident(s) if s == "where" => break,
                        Tok::Ident(s) => {
                            if in_for {
                                after_for = Some(s.clone());
                            } else {
                                first_path_last = Some(s.clone());
                            }
                        }
                        Tok::Punct("<") => {
                            j = skip_generics(&tokens, j);
                            continue;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                // `impl Trait for Type` → Type; `impl Type` → Type.
                let ty = after_for.or(first_path_last);
                if let Some(Tok::Open('{')) = tokens.get(j).map(|t| &t.tok) {
                    let close = matching_close(&tokens, j);
                    scopes.push((close, Scope::Impl { ty }));
                    i = j + 1;
                } else {
                    i = j + 1;
                }
                pending_attr_test = false;
                continue;
            }
            Tok::Ident(kw) if kw == "fn" => {
                let header_line = tokens[i].line;
                let name = match ident_at(&tokens, i + 1) {
                    Some(n) => n.to_string(),
                    None => {
                        i += 1;
                        continue;
                    }
                };
                let mut j = i + 2;
                if is_punct(&tokens, j, "<") {
                    j = skip_generics(&tokens, j);
                }
                // Params.
                let (has_self, params, params_end) =
                    if matches!(tokens.get(j).map(|t| &t.tok), Some(Tok::Open('('))) {
                        let close = matching_close(&tokens, j);
                        let (hs, ps) = parse_params(&tokens[j + 1..close.min(tokens.len())]);
                        (hs, ps, close + 1)
                    } else {
                        (false, Vec::new(), j)
                    };
                // Scan to body `{` or `;` (return type / where clause in
                // between; `->` and generics contain no braces here).
                let mut k = params_end;
                let mut body = 0..0;
                while let Some(t) = tokens.get(k) {
                    match &t.tok {
                        Tok::Open('{') => {
                            let close = matching_close(&tokens, k);
                            body = (k + 1)..close;
                            break;
                        }
                        Tok::Punct(";") => break,
                        Tok::Punct("<") => {
                            k = skip_generics(&tokens, k);
                            continue;
                        }
                        _ => {}
                    }
                    k += 1;
                }
                // Attach annotations whose line is within the span
                // [ann.line, header_line] and not yet consumed.
                let mut attached = PendingAnns::default();
                fn_anns.retain(|(line, d)| {
                    if *line <= header_line {
                        match d {
                            Directive::NoPanicZone => attached.entry = true,
                            Directive::Trusted(r) => attached.trusted = Some(r.clone()),
                            Directive::Source(r) => attached.source = Some(r.clone()),
                            _ => {}
                        }
                        false
                    } else {
                        true
                    }
                });
                let module: Vec<String> = file_module
                    .iter()
                    .cloned()
                    .chain(scopes.iter().filter_map(|(_, s)| match s {
                        Scope::Mod { name, .. } => Some(name.clone()),
                        _ => None,
                    }))
                    .collect();
                let impl_type = scopes.iter().rev().find_map(|(_, s)| match s {
                    Scope::Impl { ty } => ty.clone(),
                    _ => None,
                });
                let in_test = pending_attr_test
                    || scopes
                        .iter()
                        .any(|(_, s)| matches!(s, Scope::Mod { test: true, .. }));
                funcs.push(Func {
                    crate_name: crate_name.to_string(),
                    module,
                    impl_type,
                    name,
                    file: rel.to_string(),
                    line: header_line,
                    has_self,
                    params,
                    body: body.clone(),
                    in_test,
                    entry: attached.entry,
                    trusted: attached.trusted,
                    source: attached.source,
                });
                pending_attr_test = false;
                // Continue scanning *inside* the body too (nested fns),
                // so do not skip over it.
                i = if body.is_empty() { k + 1 } else { body.start };
                continue;
            }
            Tok::Ident(s)
                if matches!(
                    s.as_str(),
                    "struct" | "enum" | "trait" | "type" | "static" | "const" | "union"
                ) =>
            {
                // A non-fn item consumes any pending #[test]-ish attr;
                // visibility/qualifier keywords (pub, unsafe, async…)
                // fall through and keep it pending for the real item.
                pending_attr_test = false;
                i += 1;
            }
            _ => {
                i += 1;
            }
        }
    }
    ParsedFile {
        rel: rel.to_string(),
        crate_name: crate_name.to_string(),
        tokens,
        anns,
        funcs,
        uses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse("test.rs", "test_crate", &[], lex(src))
    }

    #[test]
    fn finds_free_and_impl_fns() {
        let p = parse_src(
            "fn free(a: u32, b: &str) -> bool { a > 0 }\n\
             struct S;\n\
             impl S { fn method(&self, x: usize) {} }\n\
             impl Clone for S { fn clone(&self) -> S { S } }",
        );
        let names: Vec<(String, Option<String>)> = p
            .funcs
            .iter()
            .map(|f| (f.name.clone(), f.impl_type.clone()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free".into(), None),
                ("method".into(), Some("S".into())),
                ("clone".into(), Some("S".into())),
            ]
        );
        assert_eq!(p.funcs[0].params, vec!["a", "b"]);
        assert!(!p.funcs[0].has_self);
        assert!(p.funcs[1].has_self);
        assert_eq!(p.funcs[1].params, vec!["x"]);
    }

    #[test]
    fn cfg_test_mods_and_test_fns_are_marked() {
        let p = parse_src(
            "fn prod() {}\n\
             #[cfg(test)]\nmod tests {\n  fn helper() {}\n  #[test]\n  fn case() {}\n}",
        );
        let by_name = |n: &str| p.funcs.iter().find(|f| f.name == n).map(|f| f.in_test);
        assert_eq!(by_name("prod"), Some(false));
        assert_eq!(by_name("helper"), Some(true));
        assert_eq!(by_name("case"), Some(true));
    }

    #[test]
    fn nested_fns_are_found() {
        let p = parse_src("fn outer() { fn inner(q: u8) {} inner(1); }");
        assert_eq!(p.funcs.len(), 2);
        assert_eq!(p.funcs[1].name, "inner");
    }

    #[test]
    fn annotations_attach_to_next_fn() {
        let marker = crate::lexer::MARKER;
        let p = parse_src(&format!(
            "// {marker} no_panic_zone\nfn entry() {{}}\n\
             // {marker} trusted(total: fixed-size)\nfn safe() {{}}\nfn plain() {{}}"
        ));
        assert!(p.funcs[0].entry);
        assert_eq!(p.funcs[1].trusted.as_deref(), Some("total: fixed-size"));
        assert!(!p.funcs[2].entry);
        assert!(p.funcs[2].trusted.is_none());
    }

    #[test]
    fn use_map_handles_braces_and_as() {
        let p = parse_src("use mh_compress::{compress, decompress as dec};\nuse std::io::Read;");
        assert_eq!(
            p.uses.get("dec"),
            Some(&vec!["mh_compress".to_string(), "decompress".to_string()])
        );
        assert_eq!(
            p.uses.get("compress"),
            Some(&vec!["mh_compress".to_string(), "compress".to_string()])
        );
        assert_eq!(
            p.uses.get("Read"),
            Some(&vec![
                "std".to_string(),
                "io".to_string(),
                "Read".to_string()
            ])
        );
    }

    #[test]
    fn inline_mod_paths_compose() {
        let p = parse(
            "x.rs",
            "c",
            &["filemod".into()],
            lex("mod inner { fn f() {} }"),
        );
        assert_eq!(p.funcs[0].module, vec!["filemod", "inner"]);
    }

    #[test]
    fn parser_total_on_unbalanced_input() {
        let _ = parse_src("fn broken( { ] } impl < fn");
    }
}
