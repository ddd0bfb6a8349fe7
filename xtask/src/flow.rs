//! Token-level site classification feeding the call-graph rules.
//!
//! Where [`crate::callgraph`] answers "what can this function reach",
//! this module answers "what does this span of tokens *do*": which
//! sites can panic, which block or allocate, which loops they sit in,
//! and which blocking sites fail to observe a request deadline.
//! Everything operates on the scanner's token stream — the same
//! deliberate no-real-AST stance as the rest of `xtask`.

use crate::scanner::{Scanned, TokKind, Token};

/// One potentially panicking site.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// 1-based line.
    pub line: usize,
    /// What fires there: `.unwrap()`, `panic!`, `indexing`, ...
    pub what: String,
}

/// One potentially blocking / allocation-heavy site.
#[derive(Debug, Clone)]
pub struct BlockSite {
    /// 1-based line.
    pub line: usize,
    /// What blocks there: `Mutex::lock`, `sleep`, `file I/O`, ...
    pub what: String,
}

/// One blocking site that fails to observe the request deadline.
#[derive(Debug, Clone)]
pub struct DeadlineSink {
    /// Token index of the site.
    pub tok: usize,
    /// 1-based line.
    pub line: usize,
    /// What blocks there.
    pub what: String,
}

/// Panicking macros (`debug_assert*` is deliberately absent — compiled
/// out of release builds).
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Tokens that, immediately before `[`, make it an index expression:
/// an identifier (not a keyword), a closing paren/bracket. Everything
/// else (`= [..]`, `&[u8]`, `#[attr]`, `<[T; N]>`) is a literal, type,
/// or attribute.
const INDEX_PREV_KEYWORD_BLOCK: &[&str] = &[
    "return", "break", "in", "mut", "ref", "as", "move", "else", "match", "if", "while", "let",
    "dyn", "impl", "where",
];

/// Index of the delimiter closing the `(`, `[` or `{` at token `open`
/// (or the last token on imbalance).
pub fn close_delim(toks: &[Token], open: usize) -> usize {
    let (opener, closer) = match toks[open].text.as_str() {
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        _ => ("{", "}"),
    };
    let mut depth = 0usize;
    for (k, tok) in toks.iter().enumerate().skip(open) {
        if tok.text == opener {
            depth += 1;
        } else if tok.text == closer {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Argument spans (token index ranges, inclusive) of every call to
/// `name` in the stream: `name ( <span> )`.
pub fn call_spans(toks: &[Token], name: &str) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind == TokKind::Ident
            && tok.text == name
            && toks.get(i + 1).is_some_and(|t| t.text == "(")
        {
            out.push((i + 1, close_delim(toks, i + 1)));
        }
    }
    out
}

/// True when token index `i` falls inside any span.
pub fn spans_contain(spans: &[(usize, usize)], i: usize) -> bool {
    spans.iter().any(|(lo, hi)| *lo <= i && i <= *hi)
}

/// Token spans of loop bodies: `for`/`while`/`loop` braces plus the
/// argument span of `.for_each(..)` closures (the parallel iteration
/// idiom used by the engine's inner loops).
pub fn loop_spans(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Ident && (t.text == "for" || t.text == "while" || t.text == "loop")
        {
            // `for<'a>` higher-ranked binders are not loops.
            if t.text == "for" && toks.get(i + 1).is_some_and(|n| n.text == "<") {
                i += 1;
                continue;
            }
            // Scan to the body `{` at zero paren/bracket depth.
            let mut paren = 0usize;
            let mut bracket = 0usize;
            let mut j = i + 1;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "(" => paren += 1,
                    ")" => paren = paren.saturating_sub(1),
                    "[" => bracket += 1,
                    "]" => bracket = bracket.saturating_sub(1),
                    "{" if paren + bracket == 0 => break,
                    ";" if paren + bracket == 0 => {
                        // Not a loop after all (e.g. `break 'label;`).
                        j = toks.len();
                    }
                    _ => {}
                }
                j += 1;
            }
            if j < toks.len() {
                out.push((j, close_delim(toks, j)));
            }
        }
        if t.kind == TokKind::Ident
            && t.text == "for_each"
            && i > 0
            && toks[i - 1].text == "."
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
        {
            out.push((i + 1, close_delim(toks, i + 1)));
        }
        i += 1;
    }
    out
}

/// Potentially panicking sites in `span` (inclusive token range),
/// skipping `#[cfg(test)]` tokens. Every index expression counts: no
/// comment discharges one — the total forms (`.get()`, iterators,
/// destructuring) are the way to say "in range".
pub fn panic_sites(scanned: &Scanned, span: (usize, usize)) -> Vec<PanicSite> {
    let toks = &scanned.tokens;
    let mut out = Vec::new();
    for i in span.0..=span.1.min(toks.len().saturating_sub(1)) {
        let tok = &toks[i];
        if tok.in_test {
            continue;
        }
        if tok.kind == TokKind::Ident {
            if (tok.text == "unwrap" || tok.text == "expect")
                && i > 0
                && toks[i - 1].text == "."
                && toks.get(i + 1).is_some_and(|t| t.text == "(")
            {
                out.push(PanicSite {
                    line: tok.line,
                    what: format!(".{}()", tok.text),
                });
            }
            if PANIC_MACROS.contains(&tok.text.as_str())
                && toks.get(i + 1).is_some_and(|t| t.text == "!")
            {
                out.push(PanicSite {
                    line: tok.line,
                    what: format!("{}!", tok.text),
                });
            }
        }
        if tok.text == "[" && i > 0 {
            let prev = &toks[i - 1];
            let is_index = (prev.kind == TokKind::Ident
                && !INDEX_PREV_KEYWORD_BLOCK.contains(&prev.text.as_str()))
                || prev.text == ")"
                || prev.text == "]";
            if is_index {
                out.push(PanicSite {
                    line: tok.line,
                    what: "indexing".to_string(),
                });
            }
        }
    }
    out
}

/// Potentially blocking / allocation-heavy sites in `span`, skipping
/// `#[cfg(test)]` tokens. `loops` are the file's loop spans (from
/// [`loop_spans`]): `Vec::new`/`vec!` only count inside one.
pub fn blocking_sites(scanned: &Scanned, span: (usize, usize)) -> Vec<BlockSite> {
    let toks = &scanned.tokens;
    let loops = loop_spans(toks);
    let mut out = Vec::new();
    let mut push = |line: usize, what: &str| {
        out.push(BlockSite {
            line,
            what: what.to_string(),
        })
    };
    for i in span.0..=span.1.min(toks.len().saturating_sub(1)) {
        let tok = &toks[i];
        if tok.in_test || tok.kind != TokKind::Ident {
            continue;
        }
        let next_is = |s: &str| toks.get(i + 1).is_some_and(|t| t.text == s);
        let prev_is = |s: &str| i > 0 && toks[i - 1].text == s;
        match tok.text.as_str() {
            "lock" if prev_is(".") && next_is("(") => push(tok.line, "Mutex/RwLock lock"),
            "sleep" if next_is("(") => push(tok.line, "thread::sleep"),
            "join" if prev_is(".") && next_is("(") => push(tok.line, "blocking join"),
            "recv" | "recv_timeout" | "recv_deadline" if prev_is(".") && next_is("(") => {
                push(tok.line, "channel recv")
            }
            "fs" if next_is("::") || prev_is("::") => push(tok.line, "file I/O (std::fs)"),
            "File" | "OpenOptions" if next_is("::") => push(tok.line, "file I/O"),
            "read_dir" | "read_to_string" if next_is("(") => push(tok.line, "file I/O"),
            "format" if next_is("!") => push(tok.line, "format! allocation"),
            "Vec" if next_is("::")
                && toks.get(i + 2).is_some_and(|t| t.text == "new")
                && spans_contain(&loops, i) =>
            {
                push(tok.line, "Vec::new in a loop body")
            }
            "vec" if next_is("!") && spans_contain(&loops, i) => {
                push(tok.line, "vec! in a loop body")
            }
            _ => {}
        }
    }
    out
}

/// Blocking sites in `body` that do NOT observe a deadline. A sink is
/// observed when an identifier containing `deadline` appears in its
/// statement or in an enclosing loop body (the retry-loop idiom checks
/// the deadline once per iteration, not per blocking call), or when the
/// call itself is deadline-carrying (`recv_timeout`/`recv_deadline`).
/// `.lock()` and `.send(` are deliberately out of scope: bounded
/// critical sections and bounded channels are capacity questions, not
/// deadline questions.
pub fn deadline_blind_sites(scanned: &Scanned, body: (usize, usize)) -> Vec<DeadlineSink> {
    let toks = &scanned.tokens;
    let loops = loop_spans(toks);
    let names_deadline = |span: &[Token]| {
        span.iter()
            .any(|t| t.kind == TokKind::Ident && t.text.to_lowercase().contains("deadline"))
    };
    let observed = |i: usize| -> bool {
        let (lo, hi) = statement_window(toks, i);
        names_deadline(&toks[lo..hi])
            || loops
                .iter()
                .any(|(s, e)| *s <= i && i <= *e && names_deadline(&toks[*s..=*e]))
    };
    let mut out = Vec::new();
    let mut push = |tok: usize, line: usize, what: &str| {
        out.push(DeadlineSink {
            tok,
            line,
            what: what.to_string(),
        })
    };
    for i in body.0..=body.1.min(toks.len().saturating_sub(1)) {
        let tok = &toks[i];
        if tok.in_test || tok.kind != TokKind::Ident {
            continue;
        }
        let next_is = |s: &str| toks.get(i + 1).is_some_and(|t| t.text == s);
        let prev_is = |s: &str| i > 0 && toks[i - 1].text == s;
        match tok.text.as_str() {
            // `recv_timeout`/`recv_deadline` observe time by themselves.
            "recv" if prev_is(".") && next_is("(") && !observed(i) => {
                push(i, tok.line, "blocking `recv()` without a deadline")
            }
            "sleep" if next_is("(") && !observed(i) => {
                push(i, tok.line, "`sleep` without a deadline check")
            }
            "join" if prev_is(".") && next_is("(") && !observed(i) => {
                push(i, tok.line, "blocking `join()` without a deadline")
            }
            "fs" if (next_is("::") || prev_is("::")) && !observed(i) => {
                push(i, tok.line, "file I/O (std::fs) without a deadline")
            }
            "read_dir" | "read_to_string" if next_is("(") && !observed(i) => {
                push(i, tok.line, "file I/O without a deadline")
            }
            // An unbounded `loop` must either exit (`break`/`return`/
            // `?`) or observe the deadline in its body.
            "loop" if next_is("{") => {
                let lbody = &toks[i + 1..=close_delim(toks, i + 1)];
                let exits = lbody.iter().any(|t| {
                    t.text == "?"
                        || (t.kind == TokKind::Ident && (t.text == "break" || t.text == "return"))
                });
                if !exits && !names_deadline(lbody) {
                    push(i, tok.line, "unbounded `loop` with no exit or deadline check");
                }
            }
            _ => {}
        }
    }
    out
}

/// Token range of the statement containing index `i`: from the token
/// after the previous `;`/`{`/`}` up to the next one.
fn statement_window(toks: &[Token], i: usize) -> (usize, usize) {
    let is_boundary = |t: &Token| t.text == ";" || t.text == "{" || t.text == "}";
    let lo = toks[..i]
        .iter()
        .rposition(is_boundary)
        .map_or(0, |p| p + 1);
    let hi = toks[i..]
        .iter()
        .position(is_boundary)
        .map_or(toks.len(), |p| i + p);
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    #[test]
    fn loop_spans_cover_for_while_loop_and_for_each() {
        let src = "\
fn f() {
    for x in 0..3 { a(); }
    while cond() { b(); }
    loop { c(); break; }
    xs.iter().for_each(|x| d(x));
    e();
}
";
        let s = scan(src);
        let spans = loop_spans(&s.tokens);
        assert_eq!(spans.len(), 4, "{spans:?}");
        let in_loop = |name: &str| {
            let i = s.tokens.iter().position(|t| t.text == name).unwrap();
            spans_contain(&spans, i)
        };
        assert!(in_loop("a") && in_loop("b") && in_loop("c") && in_loop("d"));
        assert!(!in_loop("e"));
    }

    #[test]
    fn panic_sites_see_unwrap_macros_and_indexing() {
        let src = "\
fn f(xs: &[u32], i: usize) -> u32 {
    let a = xs.first().unwrap();
    if *a > 3 { panic!(\"no\"); }
    xs[i]
}
";
        let s = scan(src);
        let sites = panic_sites(&s, (0, s.tokens.len() - 1));
        let whats: Vec<&str> = sites.iter().map(|p| p.what.as_str()).collect();
        assert_eq!(whats, [".unwrap()", "panic!", "indexing"]);
    }

    #[test]
    fn attribute_and_slice_type_brackets_are_not_indexing() {
        let src = "#[derive(Debug)]\nfn f(xs: &[u8]) -> Vec<u8> { let v = [1, 2]; v.to_vec() }";
        let s = scan(src);
        assert!(panic_sites(&s, (0, s.tokens.len() - 1)).is_empty());
    }

    #[test]
    fn blocking_sites_catch_the_issue_list() {
        let src = "\
fn f() {
    let g = m.lock();
    thread::sleep(d);
    h.join();
    let x = rx.recv();
    let t = std::fs::read_to_string(p);
    let s = format!(\"{x:?}\");
    for i in 0..3 { let v: Vec<u32> = Vec::new(); drop(v); }
    let outside = Vec::new();
}
";
        let s = scan(src);
        let sites = blocking_sites(&s, (0, s.tokens.len() - 1));
        let whats: Vec<&str> = sites.iter().map(|b| b.what.as_str()).collect();
        assert!(whats.contains(&"Mutex/RwLock lock"));
        assert!(whats.contains(&"thread::sleep"));
        assert!(whats.contains(&"blocking join"));
        assert!(whats.contains(&"channel recv"));
        assert!(whats.iter().any(|w| w.starts_with("file I/O")));
        assert!(whats.contains(&"format! allocation"));
        assert!(whats.contains(&"Vec::new in a loop body"));
        // The out-of-loop Vec::new did not fire.
        assert_eq!(
            whats.iter().filter(|w| w.contains("Vec::new")).count(),
            1,
            "{whats:?}"
        );
    }

    #[test]
    fn deadline_blind_recv_is_flagged_and_observed_recv_is_not() {
        let blind = scan("fn f(rx: &Receiver<u32>) { let _ = rx.recv(); }");
        let sinks = deadline_blind_sites(&blind, (0, blind.tokens.len() - 1));
        assert_eq!(sinks.len(), 1, "{sinks:?}");
        assert!(sinks[0].what.contains("recv"));

        let ok = scan(
            "fn f(rx: &Receiver<u32>, deadline: Instant) { let _ = rx.recv_deadline(deadline); }",
        );
        assert!(deadline_blind_sites(&ok, (0, ok.tokens.len() - 1)).is_empty());
    }

    #[test]
    fn sleep_in_deadline_checked_loop_passes() {
        let src = "\
fn f(deadline: Instant) {
    loop {
        if Instant::now() >= deadline {
            return;
        }
        std::thread::sleep(STEP);
    }
}
";
        let s = scan(src);
        assert!(deadline_blind_sites(&s, (0, s.tokens.len() - 1)).is_empty());
    }

    #[test]
    fn unbounded_loop_without_exit_is_flagged() {
        let s = scan("fn f() { loop { spin(); } }");
        let sinks = deadline_blind_sites(&s, (0, s.tokens.len() - 1));
        assert_eq!(sinks.len(), 1, "{sinks:?}");
        assert!(sinks[0].what.contains("unbounded"));
    }
}
