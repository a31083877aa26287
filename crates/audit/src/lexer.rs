//! Hand-rolled lexer for the subset of Rust this workspace uses.
//!
//! Produces a flat token stream (identifiers, literals, punctuation,
//! delimiters) with line numbers, plus the `mh-audit:` annotations found
//! in line comments. Comment *text* never reaches the token stream, so
//! downstream rules are immune to the "raw primitive named in prose"
//! false positives the old textual lint had to special-case.
//!
//! Handled Rust surface: nested block comments, line/doc comments,
//! (byte/raw) string literals with arbitrary `#` fences, char literals
//! vs. lifetimes, numeric literals (hex/oct/bin/float/suffixed), and the
//! multi-character operators whose splitting would confuse the parser
//! (`::`, `..`, `..=`, `->`, `=>`, shifts, compound assignment).
//!
//! The lexer is total: any byte sequence produces *some* token stream
//! (unknown bytes become single-character punctuation) — a property the
//! fuzz test locks in, since the auditor must never crash on the code it
//! audits.

/// One lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (`foo`, `fn`, `self`, `r#match` → `match`).
    Ident(String),
    /// Lifetime such as `'a` (name not needed downstream).
    Lifetime,
    /// Numeric literal; `true` if it is a plain unsuffixed-or-suffixed
    /// integer (usable as a "literal divisor/length" in the passes).
    Num { int: bool },
    /// String or byte-string literal (contents dropped).
    Str,
    /// Char or byte literal.
    Char,
    /// Operator / punctuation, multi-character ops pre-joined.
    Punct(&'static str),
    /// Opening delimiter: `(`, `[` or `{`.
    Open(char),
    /// Closing delimiter: `)`, `]` or `}`.
    Close(char),
}

/// A token plus the 1-based source line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub tok: Tok,
    pub line: u32,
}

/// A parsed `mh-audit:` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Directive {
    /// `no_panic_zone` — the next `fn` is a panic-reachability entry.
    NoPanicZone,
    /// `trusted(reason)` — the next `fn` is assumed total; body and
    /// callees are not audited.
    Trusted(String),
    /// `source(reason)` — the next `fn`'s return value is attacker
    /// controlled (taint source).
    Source(String),
    /// `tainted(reason)` — locals bound on the annotated line are
    /// attacker controlled.
    Tainted(String),
    /// `allow(CODE, reason)` — waive CODE on this line (or the next,
    /// for a standalone comment).
    Allow { code: String, reason: String },
    /// Unparseable or reason-less directive — reported as A010.
    Malformed(String),
}

/// An annotation: directive, line, and whether the comment stood alone
/// (no code before it on the line) — standalone annotations apply to the
/// *next* line / item, trailing ones to their own line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ann {
    pub directive: Directive,
    pub line: u32,
    pub standalone: bool,
}

/// Lexer output for one file.
#[derive(Debug, Default)]
pub struct LexFile {
    pub tokens: Vec<Token>,
    pub anns: Vec<Ann>,
}

/// The marker introducing a directive inside a comment. Split so the
/// auditor's own sources never match it accidentally.
pub const MARKER: &str = concat!("mh-audit", ":");

const PUNCTS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "..", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<",
    ">>", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
];

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Parse the directive out of a comment body containing [`MARKER`].
fn parse_directive(comment: &str) -> Option<Directive> {
    let at = comment.find(MARKER)?;
    let rest = comment[at + MARKER.len()..].trim_start();
    let word: String = rest.chars().take_while(|c| is_ident_continue(*c)).collect();
    let after = rest[word.len()..].trim_start();
    let paren_arg = || -> Option<String> {
        let inner = after.strip_prefix('(')?;
        let end = inner.rfind(')')?;
        Some(inner[..end].trim().to_string())
    };
    Some(match word.as_str() {
        "no_panic_zone" => Directive::NoPanicZone,
        "trusted" => match paren_arg() {
            Some(r) if !r.is_empty() => Directive::Trusted(r),
            _ => Directive::Malformed("trusted requires a (reason)".into()),
        },
        "source" => match paren_arg() {
            Some(r) if !r.is_empty() => Directive::Source(r),
            _ => Directive::Malformed("source requires a (reason)".into()),
        },
        "tainted" => match paren_arg() {
            Some(r) if !r.is_empty() => Directive::Tainted(r),
            _ => Directive::Malformed("tainted requires a (reason)".into()),
        },
        "allow" => match paren_arg() {
            Some(arg) => {
                let (code, reason) = match arg.split_once(',') {
                    Some((c, r)) => (c.trim().to_string(), r.trim().to_string()),
                    None => (arg.trim().to_string(), String::new()),
                };
                // A### panic/taint/rule codes, R### concurrency codes.
                // W### (waiver hygiene) is deliberately NOT waivable: a
                // stale waiver must be deleted, not excused.
                let code_ok = code.len() == 4
                    && matches!(code.chars().next(), Some('A') | Some('R'))
                    && code[1..].chars().all(|c| c.is_ascii_digit());
                if !code_ok {
                    Directive::Malformed(format!("allow: bad finding code '{code}'"))
                } else if reason.is_empty() {
                    Directive::Malformed(format!("allow({code}) without a reason"))
                } else {
                    Directive::Allow { code, reason }
                }
            }
            None => Directive::Malformed("allow requires (CODE, reason)".into()),
        },
        other => Directive::Malformed(format!("unknown directive '{other}'")),
    })
}

/// Lex one source file. Total: never panics, any input yields tokens.
pub fn lex(src: &str) -> LexFile {
    let bytes: Vec<char> = src.chars().collect();
    let mut out = LexFile::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    // Line of the most recently emitted token — used to decide whether a
    // comment "stands alone" on its line.
    let mut last_tok_line: u32 = 0;

    macro_rules! peek {
        ($k:expr) => {
            bytes.get(i + $k).copied()
        };
    }

    while i < bytes.len() {
        let c = bytes[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if peek!(1) == Some('/') => {
                // Line comment (incl. doc comments). Collect to EOL.
                let start = i;
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                if text.contains(MARKER) {
                    if let Some(directive) = parse_directive(&text) {
                        out.anns.push(Ann {
                            directive,
                            line,
                            standalone: last_tok_line != line,
                        });
                    }
                }
            }
            '/' if peek!(1) == Some('*') => {
                // Nested block comment; annotations inside are ignored
                // (documented — directives must be line comments).
                let mut depth = 1usize;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == '/' && peek!(1) == Some('*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == '*' && peek!(1) == Some('/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            'r' | 'b' if raw_string_fence(&bytes, i).is_some() => {
                let (hashes, body_start) = match raw_string_fence(&bytes, i) {
                    Some(v) => v,
                    None => break, // unreachable; keeps this arm total
                };
                let tok_line = line;
                i = body_start;
                // Scan to closing `"` followed by `hashes` of '#'.
                'raw: while i < bytes.len() {
                    if bytes[i] == '\n' {
                        line += 1;
                    } else if bytes[i] == '"' {
                        let mut ok = true;
                        for k in 0..hashes {
                            if peek!(1 + k) != Some('#') {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            i += 1 + hashes;
                            break 'raw;
                        }
                    }
                    i += 1;
                }
                out.tokens.push(Token {
                    tok: Tok::Str,
                    line: tok_line,
                });
                last_tok_line = line;
            }
            'b' if peek!(1) == Some('\'') => {
                // Byte literal b'x'.
                let tok_line = line;
                i += 2;
                i = scan_char_body(&bytes, i);
                out.tokens.push(Token {
                    tok: Tok::Char,
                    line: tok_line,
                });
                last_tok_line = tok_line;
            }
            c if is_ident_start(c) => {
                let start = i;
                while i < bytes.len() && is_ident_continue(bytes[i]) {
                    i += 1;
                }
                let mut name: String = bytes[start..i].iter().collect();
                // `b"..."` byte string: the `b` was consumed as ident
                // start only when not followed by a quote (checked above
                // for raw/char); plain b"..." lands here with name "b".
                if (name == "b" || name == "r") && peek!(0) == Some('"') {
                    let tok_line = line;
                    i += 1;
                    i = scan_string_body(&bytes, i, &mut line);
                    out.tokens.push(Token {
                        tok: Tok::Str,
                        line: tok_line,
                    });
                    last_tok_line = line;
                    continue;
                }
                // Raw identifier `r#match`: `#` is not an ident char, so
                // the scan above stopped at the bare `r` — consume the
                // fence and take the escaped name.
                if name == "r"
                    && peek!(0) == Some('#')
                    && bytes.get(i + 1).copied().is_some_and(is_ident_start)
                {
                    i += 1;
                    let start = i;
                    while i < bytes.len() && is_ident_continue(bytes[i]) {
                        i += 1;
                    }
                    name = bytes[start..i].iter().collect();
                }
                out.tokens.push(Token {
                    tok: Tok::Ident(name),
                    line,
                });
                last_tok_line = line;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                i += 1;
                let mut is_float = false;
                while i < bytes.len() {
                    let d = bytes[i];
                    if d.is_ascii_alphanumeric() || d == '_' {
                        if d == 'e' || d == 'E' {
                            // Exponent: may be followed by sign.
                            if matches!(peek!(1), Some('+') | Some('-'))
                                && peek!(2).is_some_and(|x| x.is_ascii_digit())
                            {
                                is_float = true;
                                i += 2;
                                continue;
                            }
                        }
                        i += 1;
                    } else if d == '.' {
                        // `1..2` is range punctuation, `1.0` is a float,
                        // `1.` trailing is a float.
                        if peek!(1) == Some('.') {
                            break;
                        }
                        if peek!(1).is_some_and(is_ident_start) {
                            break; // method call on literal: 1.min(x)
                        }
                        is_float = true;
                        i += 1;
                    } else {
                        break;
                    }
                }
                let text: String = bytes[start..i].iter().collect();
                let int = !is_float && !text.ends_with("f32") && !text.ends_with("f64");
                out.tokens.push(Token {
                    tok: Tok::Num { int },
                    line,
                });
                last_tok_line = line;
            }
            '"' => {
                let tok_line = line;
                i += 1;
                i = scan_string_body(&bytes, i, &mut line);
                out.tokens.push(Token {
                    tok: Tok::Str,
                    line: tok_line,
                });
                last_tok_line = line;
            }
            '\'' => {
                // Lifetime or char literal. `'a` followed by non-quote
                // ident-continue and no closing quote right after → a
                // lifetime; otherwise a char literal.
                let is_lifetime = peek!(1).is_some_and(is_ident_start) && peek!(2) != Some('\'');
                if is_lifetime {
                    i += 1;
                    while i < bytes.len() && is_ident_continue(bytes[i]) {
                        i += 1;
                    }
                    out.tokens.push(Token {
                        tok: Tok::Lifetime,
                        line,
                    });
                } else {
                    i += 1;
                    i = scan_char_body(&bytes, i);
                    out.tokens.push(Token {
                        tok: Tok::Char,
                        line,
                    });
                }
                last_tok_line = line;
            }
            '(' | '[' | '{' => {
                out.tokens.push(Token {
                    tok: Tok::Open(c),
                    line,
                });
                last_tok_line = line;
                i += 1;
            }
            ')' | ']' | '}' => {
                out.tokens.push(Token {
                    tok: Tok::Close(c),
                    line,
                });
                last_tok_line = line;
                i += 1;
            }
            _ => {
                // Punctuation: longest multi-char operator first.
                let mut matched: Option<&'static str> = None;
                for p in PUNCTS {
                    let pc: Vec<char> = p.chars().collect();
                    if bytes[i..].starts_with(&pc) {
                        matched = Some(p);
                        break;
                    }
                }
                let (text, width): (&'static str, usize) = match matched {
                    Some(p) => (p, p.chars().count()),
                    None => (single_punct(c), 1),
                };
                out.tokens.push(Token {
                    tok: Tok::Punct(text),
                    line,
                });
                last_tok_line = line;
                i += width;
            }
        }
    }
    out
}

/// Map a single punctuation char to a static str (unknown bytes → "?").
fn single_punct(c: char) -> &'static str {
    match c {
        '+' => "+",
        '-' => "-",
        '*' => "*",
        '/' => "/",
        '%' => "%",
        '=' => "=",
        '<' => "<",
        '>' => ">",
        '!' => "!",
        '&' => "&",
        '|' => "|",
        '^' => "^",
        '~' => "~",
        '.' => ".",
        ',' => ",",
        ';' => ";",
        ':' => ":",
        '#' => "#",
        '?' => "?",
        '@' => "@",
        '$' => "$",
        _ => "?",
    }
}

/// If position `i` starts a raw (byte) string (`r"`, `r#`, `br#`…),
/// return (number of `#` fences, index of first body char).
fn raw_string_fence(bytes: &[char], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    if bytes.get(j) == Some(&'b') {
        j += 1;
    }
    if bytes.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0usize;
    while bytes.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if bytes.get(j) == Some(&'"') {
        Some((hashes, j + 1))
    } else {
        None
    }
}

/// Scan a (byte) string body starting after the opening quote; returns
/// the index after the closing quote, updating the line counter.
fn scan_string_body(bytes: &[char], mut i: usize, line: &mut u32) -> usize {
    while i < bytes.len() {
        match bytes[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Scan a char/byte literal body after the opening quote; returns the
/// index after the closing quote.
fn scan_char_body(bytes: &[char], mut i: usize) -> usize {
    while i < bytes.len() {
        match bytes[i] {
            '\\' => i += 2,
            '\'' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_do_not_tokenize() {
        assert!(idents("// parking_lot::Mutex\n/* std::sync::Mutex */").is_empty());
        assert_eq!(idents("let x = 1; // Instant::now"), vec!["let", "x"]);
    }

    #[test]
    fn nested_block_comments() {
        assert_eq!(idents("/* a /* b */ c */ after"), vec!["after"]);
    }

    #[test]
    fn raw_and_byte_strings() {
        assert_eq!(
            idents(r##"let s = r#"unwrap() "quoted""#;"##),
            vec!["let", "s"]
        );
        assert_eq!(idents(r#"let b = b"panic!";"#), vec!["let", "b"]);
    }

    #[test]
    fn lifetime_vs_char() {
        let toks: Vec<Tok> = lex("'a 'x' '\\n' b'z'")
            .tokens
            .into_iter()
            .map(|t| t.tok)
            .collect();
        assert_eq!(toks, vec![Tok::Lifetime, Tok::Char, Tok::Char, Tok::Char]);
    }

    #[test]
    fn numbers_and_ranges() {
        let toks: Vec<Tok> = lex("1..2 1.5 0xff_u32")
            .tokens
            .into_iter()
            .map(|t| t.tok)
            .collect();
        assert_eq!(
            toks,
            vec![
                Tok::Num { int: true },
                Tok::Punct(".."),
                Tok::Num { int: true },
                Tok::Num { int: false },
                Tok::Num { int: true },
            ]
        );
    }

    #[test]
    fn multi_char_puncts_join() {
        let toks: Vec<Tok> = lex("a::b ..= -> =>")
            .tokens
            .into_iter()
            .map(|t| t.tok)
            .collect();
        assert_eq!(
            toks,
            vec![
                Tok::Ident("a".into()),
                Tok::Punct("::"),
                Tok::Ident("b".into()),
                Tok::Punct("..="),
                Tok::Punct("->"),
                Tok::Punct("=>"),
            ]
        );
    }

    #[test]
    fn annotations_parse() {
        let marker = MARKER;
        let src = format!(
            "// {marker} no_panic_zone\nfn f() {{}} // {marker} allow(A001, reason here)\n// {marker} allow(A001)\n"
        );
        let lf = lex(&src);
        assert_eq!(lf.anns.len(), 3);
        assert_eq!(lf.anns[0].directive, Directive::NoPanicZone);
        assert!(lf.anns[0].standalone);
        assert_eq!(
            lf.anns[1].directive,
            Directive::Allow {
                code: "A001".into(),
                reason: "reason here".into()
            }
        );
        assert!(!lf.anns[1].standalone);
        assert!(matches!(lf.anns[2].directive, Directive::Malformed(_)));
    }

    #[test]
    fn line_numbers_track_newlines_in_strings() {
        let lf = lex("let a = \"x\ny\";\nlet b = 2;");
        let b_line = lf
            .tokens
            .iter()
            .find(|t| t.tok == Tok::Ident("b".into()))
            .map(|t| t.line);
        assert_eq!(b_line, Some(3));
    }

    #[test]
    fn lexer_is_total_on_garbage() {
        let garbage = "\u{0}\u{1}🦀 $$ @@ ''' r#\" unclosed";
        let _ = lex(garbage);
    }
}
