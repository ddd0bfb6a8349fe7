//! Token-level dataflow approximations feeding the call-graph rules.
//!
//! Where [`crate::callgraph`] answers "what can this function reach",
//! this module answers "what does this span of tokens *do*": which
//! sites can panic, which block or allocate, which loops they sit in,
//! which atomic fields they publish or acquire, and where raw pointers
//! are manipulated. Everything operates on the scanner's token stream —
//! the same deliberate no-real-AST stance as the rest of `xtask`.

use std::collections::BTreeSet;

use crate::items::ImplBlock;
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

/// One atomic access with an explicit memory ordering.
#[derive(Debug, Clone)]
pub struct AtomicAccess {
    /// Receiver key: `(self type or "", field/variable name)`. For
    /// `self.words[i].fetch_or(..)` inside `impl AtomicBitSet` this is
    /// `("AtomicBitSet", "words")`; for a static or local receiver the
    /// qualifier is empty.
    pub key: (String, String),
    /// 1-based line.
    pub line: usize,
    /// Method name (`store`, `load`, `fetch_or`, ...).
    pub method: String,
    /// The site publishes with Release (or AcqRel) semantics.
    pub release_store: bool,
    /// The site observes with Acquire (or AcqRel/SeqCst) semantics.
    pub acquire_load: bool,
    /// True when the token sits in a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// Write-capable atomic methods (can carry Release).
const ATOMIC_WRITES: &[&str] = &[
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "fetch_nand",
    "fetch_max",
    "fetch_min",
    "fetch_update",
];

/// Read-capable atomic methods (can carry Acquire).
const ATOMIC_READS: &[&str] = &[
    "load",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "fetch_nand",
    "fetch_max",
    "fetch_min",
    "fetch_update",
];

/// Panicking macros (same list as `service-no-panic`; `debug_assert*`
/// is deliberately absent — compiled out of release builds).
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

/// Balanced-paren span starting at the `(` token `open`; returns the
/// index of the matching `)` (or the last token on imbalance).
pub fn paren_close(toks: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut k = open;
    while k < toks.len() {
        match toks[k].text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
        k += 1;
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
            out.push((i + 1, paren_close(toks, i + 1)));
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
                // Match braces to the close.
                let mut depth = 0usize;
                let mut k = j;
                while k < toks.len() {
                    match toks[k].text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                out.push((j, k.min(toks.len() - 1)));
            }
        }
        if t.kind == TokKind::Ident
            && t.text == "for_each"
            && i > 0
            && toks[i - 1].text == "."
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
        {
            out.push((i + 1, paren_close(toks, i + 1)));
        }
        i += 1;
    }
    out
}

/// Potentially panicking sites in `span` (inclusive token range),
/// skipping `#[cfg(test)]` tokens. Indexing sites are skipped when a
/// `// bounds:` comment within the six-line window above justifies the
/// in-range invariant (the same shape as `// SAFETY:`/`// ordering:`).
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
                let lo = tok.line.saturating_sub(6);
                if !scanned.comment_window_contains(lo, tok.line, "bounds:") {
                    out.push(PanicSite {
                        line: tok.line,
                        what: "unguarded indexing".to_string(),
                    });
                }
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

/// Extracts every atomic access with an explicit `Ordering::*` argument
/// from a file, with receiver keys resolved against the file's impl
/// blocks (a `self.field` receiver inside `impl T` keys as `(T, field)`).
pub fn atomic_accesses(scanned: &Scanned, impls: &[ImplBlock]) -> Vec<AtomicAccess> {
    let toks = &scanned.tokens;
    let mut out = Vec::new();
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != TokKind::Ident
            || i == 0
            || toks[i - 1].text != "."
            || toks.get(i + 1).is_none_or(|t| t.text != "(")
        {
            continue;
        }
        let is_write = ATOMIC_WRITES.contains(&tok.text.as_str());
        let is_read = ATOMIC_READS.contains(&tok.text.as_str());
        if !is_write && !is_read {
            continue;
        }
        // Orderings named inside the argument list.
        let close = paren_close(toks, i + 1);
        let mut orderings = BTreeSet::new();
        for j in i + 2..close {
            if toks[j].kind == TokKind::Ident
                && toks[j].text == "Ordering"
                && toks.get(j + 1).is_some_and(|t| t.text == "::")
            {
                if let Some(v) = toks.get(j + 2).filter(|t| t.kind == TokKind::Ident) {
                    orderings.insert(v.text.clone());
                }
            }
        }
        if orderings.is_empty() {
            // Not an atomic call (Vec::swap, HashMap ops, ...).
            continue;
        }
        let Some(key) = receiver_key(toks, i - 1, impls, tok.line) else {
            continue;
        };
        let release_store = is_write
            && (orderings.contains("Release") || orderings.contains("AcqRel"));
        let acquire_load = is_read
            && (orderings.contains("Acquire")
                || orderings.contains("AcqRel")
                || orderings.contains("SeqCst"));
        out.push(AtomicAccess {
            key,
            line: tok.line,
            method: tok.text.clone(),
            release_store,
            acquire_load,
            in_test: tok.in_test,
        });
    }
    out
}

/// Walks back from the `.` before an atomic method to the receiver's
/// field/variable name: skips one balanced `[..]` index, then reads the
/// identifier; a `self.` prefix keys it under the innermost enclosing
/// impl's type.
pub(crate) fn receiver_key(
    toks: &[Token],
    dot: usize,
    impls: &[ImplBlock],
    line: usize,
) -> Option<(String, String)> {
    let mut k = dot; // index of the `.`
    if k == 0 {
        return None;
    }
    k -= 1;
    if toks[k].text == "]" {
        // Skip the balanced index expression.
        let mut depth = 0usize;
        loop {
            match toks[k].text.as_str() {
                "]" => depth += 1,
                "[" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if k == 0 {
                return None;
            }
            k -= 1;
        }
        if k == 0 {
            return None;
        }
        k -= 1;
    }
    if toks[k].text == ")" {
        // Method-chain receiver (`x.get(i).store(..)`): unsupported;
        // the ordering-audit comment rule still covers the site.
        return None;
    }
    if toks[k].kind != TokKind::Ident {
        return None;
    }
    let field = toks[k].text.clone();
    let qual = if k >= 2 && toks[k - 1].text == "." && toks[k - 2].text == "self" {
        enclosing_impl_type(impls, line).unwrap_or_default()
    } else {
        String::new()
    };
    Some((qual, field))
}

/// Innermost impl block containing `line`.
pub(crate) fn enclosing_impl_type(impls: &[ImplBlock], line: usize) -> Option<String> {
    impls
        .iter()
        .filter(|b| b.line <= line && line <= b.end_line)
        .min_by_key(|b| b.end_line - b.line)
        .map(|b| b.type_name.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::impl_blocks;
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
        assert_eq!(whats, [".unwrap()", "panic!", "unguarded indexing"]);
    }

    #[test]
    fn bounds_comment_guards_indexing() {
        let src = "\
fn f(xs: &[u32], i: usize) -> u32 {
    // bounds: caller clamps i to xs.len() - 1 above
    xs[i]
}
";
        let s = scan(src);
        assert!(panic_sites(&s, (0, s.tokens.len() - 1)).is_empty());
    }

    #[test]
    fn attribute_and_slice_type_brackets_are_not_indexing() {
        let src = "#[derive(Debug)]\nfn f(xs: &[u8]) -> Vec<u8> { let v = [1, 2]; v.to_vec() }";
        let s = scan(src);
        assert!(panic_sites(&s, (0, s.tokens.len() - 1)).is_empty());
    }

    #[test]
    fn atomic_accesses_pair_self_fields_under_impl_type() {
        let src = "\
impl BitSet {
    fn set(&self, i: usize) {
        self.words[i >> 6].fetch_or(1, Ordering::Release);
    }
    fn get(&self, i: usize) -> bool {
        self.words[i >> 6].load(Ordering::Acquire) != 0
    }
}
";
        let s = scan(src);
        let accesses = atomic_accesses(&s, &impl_blocks(&s));
        assert_eq!(accesses.len(), 2, "{accesses:?}");
        assert!(accesses[0].release_store && !accesses[0].acquire_load);
        assert!(accesses[1].acquire_load && !accesses[1].release_store);
        assert_eq!(accesses[0].key, ("BitSet".to_string(), "words".to_string()));
        assert_eq!(accesses[0].key, accesses[1].key);
    }

    #[test]
    fn non_atomic_swap_is_ignored() {
        let s = scan("fn f(v: &mut Vec<u32>) { v.swap(0, 1); }");
        assert!(atomic_accesses(&s, &[]).is_empty());
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
}
