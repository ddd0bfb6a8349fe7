//! A minimal, dependency-free Rust token scanner.
//!
//! The lint rules need far less than a full parse: a token stream with
//! comments, strings, and char literals stripped out (so keywords inside
//! them never count), plus two pieces of context per token — whether it
//! sits inside a `#[cfg(test)]` region and the name of its enclosing
//! `fn`. This module provides exactly that. It is a deliberate
//! approximation of a real AST: token-level analysis keeps `xtask` free
//! of heavyweight parser dependencies and fast enough to run on every
//! commit. Braces and semicolons in signature position — const-generic
//! arguments (`[(); { N }]`), array-type lengths — are tracked by
//! delimiter depth so they no longer confuse the region tracker (a
//! previously documented blind spot). Item-level structure on top of
//! this stream lives in [`crate::items`].

use std::collections::BTreeMap;

/// Lexical class of a [`Token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Operator / delimiter (multi-char operators are single tokens).
    Punct,
    /// Integer literal.
    Int,
    /// Float literal (has a fractional part, exponent, or f32/f64 suffix).
    Float,
    /// String / byte-string / C-string literal (text not retained).
    Str,
    /// Char or byte-char literal (text not retained).
    Char,
    /// Lifetime (`'a`).
    Lifetime,
}

/// One lexed token with the context the rules need.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token text. Empty for [`TokKind::Str`] and [`TokKind::Char`] so
    /// literal contents can never satisfy an identifier match.
    pub text: String,
    /// String-literal contents ([`TokKind::Str`] only; empty for every
    /// other kind). Held apart from `text` so rules that inspect
    /// *declared names* — metric registrations, for instance — can read
    /// the literal without identifier matches ever seeing it.
    pub literal: String,
    /// 1-based source line.
    pub line: usize,
    /// Lexical class.
    pub kind: TokKind,
    /// True when the token is inside a `#[cfg(test)]` item's braces.
    pub in_test: bool,
    /// Name of the innermost enclosing `fn`, if any.
    pub fn_name: Option<String>,
}

/// Scan result: the token stream plus per-line comment text.
#[derive(Debug, Default)]
pub struct Scanned {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Comment text by line. Block comments contribute an entry for every
    /// line they span, so "is there a SAFETY: comment in the window"
    /// checks work uniformly.
    pub comments: BTreeMap<usize, String>,
}

impl Scanned {
    /// True if any comment on lines `lo..=hi` contains `needle`.
    pub fn comment_window_contains(&self, lo: usize, hi: usize, needle: &str) -> bool {
        self.comments
            .range(lo..=hi)
            .any(|(_, text)| text.contains(needle))
    }

    /// Lines in `lo..=hi` whose comment contains `needle` (used by the
    /// dead-annotation rule to record which marker line discharged a
    /// finding).
    pub fn comment_lines_with(&self, lo: usize, hi: usize, needle: &str) -> Vec<usize> {
        self.comments
            .range(lo..=hi)
            .filter(|(_, text)| text.contains(needle))
            .map(|(line, _)| *line)
            .collect()
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Multi-character operators recognized as single tokens, longest first.
const MULTI_PUNCT: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "..",
];

/// Lexes `src` into tokens + comments, then annotates each token with
/// its `#[cfg(test)]` / enclosing-`fn` context.
pub fn scan(src: &str) -> Scanned {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Scanned::default();
    let mut i = 0usize;
    let mut line = 1usize;

    let push_comment = |out: &mut Scanned, line: usize, text: &str| {
        let entry = out.comments.entry(line).or_default();
        if !entry.is_empty() {
            entry.push(' ');
        }
        entry.push_str(text.trim());
    };

    while i < chars.len() {
        let c = chars[i];
        // Newlines and whitespace.
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comments (incl. `///` and `//!` doc comments).
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            let start = i;
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            push_comment(&mut out, line, text.trim_start_matches('/').trim_start_matches('!'));
            continue;
        }
        // Block comments, nested per Rust rules; text is attributed to
        // every line the comment spans.
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            i += 2;
            let mut depth = 1usize;
            let mut buf = String::new();
            while i < chars.len() && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    if chars[i] == '\n' {
                        push_comment(&mut out, line, &buf);
                        buf.clear();
                        line += 1;
                    } else {
                        buf.push(chars[i]);
                    }
                    i += 1;
                }
            }
            push_comment(&mut out, line, &buf);
            continue;
        }
        // Raw strings / raw identifiers: r"..", r#".."#, r#ident.
        if c == 'r' {
            let mut j = i + 1;
            let mut hashes = 0usize;
            while chars.get(j) == Some(&'#') {
                hashes += 1;
                j += 1;
            }
            if chars.get(j) == Some(&'"') {
                i = consume_raw_string(&chars, j + 1, hashes, &mut line);
                out.tokens
                    .push(str_token(line, literal_body(&chars, j + 1, i, 1 + hashes)));
                continue;
            }
            if hashes == 1 && chars.get(j).is_some_and(|&ch| is_ident_start(ch)) {
                // Raw identifier `r#ident` — lex as the bare ident.
                let start = j;
                let mut k = j;
                while k < chars.len() && is_ident_continue(chars[k]) {
                    k += 1;
                }
                let text: String = chars[start..k].iter().collect();
                out.tokens.push(Token {
                    text,
                    literal: String::new(),
                    line,
                    kind: TokKind::Ident,
                    in_test: false,
                    fn_name: None,
                });
                i = k;
                continue;
            }
            // Plain identifier starting with `r` — fall through.
        }
        // Byte strings / byte chars / C strings: b".." br".." b'..' c"..".
        if (c == 'b' || c == 'c') && matches!(chars.get(i + 1), Some(&'"')) {
            let start = i + 2;
            i = consume_string(&chars, i + 2, &mut line);
            out.tokens
                .push(str_token(line, literal_body(&chars, start, i, 1)));
            continue;
        }
        if c == 'b' && chars.get(i + 1) == Some(&'\'') {
            i = consume_char(&chars, i + 2, &mut line);
            out.tokens.push(raw_token(TokKind::Char, line));
            continue;
        }
        if c == 'b' && chars.get(i + 1) == Some(&'r') {
            let mut j = i + 2;
            let mut hashes = 0usize;
            while chars.get(j) == Some(&'#') {
                hashes += 1;
                j += 1;
            }
            if chars.get(j) == Some(&'"') {
                i = consume_raw_string(&chars, j + 1, hashes, &mut line);
                out.tokens
                    .push(str_token(line, literal_body(&chars, j + 1, i, 1 + hashes)));
                continue;
            }
        }
        // Identifiers / keywords.
        if is_ident_start(c) {
            let start = i;
            while i < chars.len() && is_ident_continue(chars[i]) {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            out.tokens.push(Token {
                text,
                literal: String::new(),
                line,
                kind: TokKind::Ident,
                in_test: false,
                fn_name: None,
            });
            continue;
        }
        // Strings.
        if c == '"' {
            let start = i + 1;
            i = consume_string(&chars, i + 1, &mut line);
            out.tokens
                .push(str_token(line, literal_body(&chars, start, i, 1)));
            continue;
        }
        // Lifetime vs char literal.
        if c == '\'' {
            let next_is_ident = chars.get(i + 1).is_some_and(|&ch| is_ident_start(ch));
            let closes_as_char = chars.get(i + 2) == Some(&'\'');
            if next_is_ident && !closes_as_char {
                let start = i + 1;
                i += 1;
                while i < chars.len() && is_ident_continue(chars[i]) {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                out.tokens.push(Token {
                    text,
                    literal: String::new(),
                    line,
                    kind: TokKind::Lifetime,
                    in_test: false,
                    fn_name: None,
                });
            } else {
                i = consume_char(&chars, i + 1, &mut line);
                out.tokens.push(raw_token(TokKind::Char, line));
            }
            continue;
        }
        // Numbers.
        if c.is_ascii_digit() {
            let (ni, tok) = consume_number(&chars, i, line);
            i = ni;
            out.tokens.push(tok);
            continue;
        }
        // Punctuation — longest multi-char match first.
        let text = MULTI_PUNCT
            .iter()
            .find(|p| p.chars().eq(chars[i..].iter().take(p.len()).copied()))
            .map_or_else(|| c.to_string(), |p| (*p).to_string());
        i += text.chars().count();
        out.tokens.push(Token {
            text,
            literal: String::new(),
            line,
            kind: TokKind::Punct,
            in_test: false,
            fn_name: None,
        });
    }

    annotate_regions(&mut out.tokens);
    out
}

fn raw_token(kind: TokKind, line: usize) -> Token {
    Token {
        text: String::new(),
        literal: String::new(),
        line,
        kind,
        in_test: false,
        fn_name: None,
    }
}

/// A [`TokKind::Str`] token carrying its body for name-inspecting rules.
fn str_token(line: usize, literal: String) -> Token {
    Token {
        literal,
        ..raw_token(TokKind::Str, line)
    }
}

/// Extracts a literal body from `start` up to `end` (which points past
/// the closing delimiter); `trailer` is the delimiter width to strip
/// (`1` for a quote, `1 + hashes` for raw strings). An unterminated
/// literal at EOF has no trailer to strip.
fn literal_body(chars: &[char], start: usize, end: usize, trailer: usize) -> String {
    let stop = end.saturating_sub(trailer).max(start).min(chars.len());
    chars[start..stop].iter().collect()
}

/// Consumes a normal (escaped) string body starting after the opening
/// quote; returns the index past the closing quote.
fn consume_string(chars: &[char], mut i: usize, line: &mut usize) -> usize {
    while i < chars.len() {
        match chars[i] {
            '\\' => {
                // A line-continuation escape (`\` at end of line) still
                // advances the line counter; skipping it blind would
                // shift every subsequent token's reported line.
                if chars.get(i + 1) == Some(&'\n') {
                    *line += 1;
                }
                i += 2;
            }
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

/// Consumes a raw string body starting after the opening quote; the
/// terminator is `"` followed by `hashes` `#`s.
fn consume_raw_string(chars: &[char], mut i: usize, hashes: usize, line: &mut usize) -> usize {
    while i < chars.len() {
        if chars[i] == '\n' {
            *line += 1;
            i += 1;
            continue;
        }
        if chars[i] == '"' {
            let mut ok = true;
            for k in 0..hashes {
                if chars.get(i + 1 + k) != Some(&'#') {
                    ok = false;
                    break;
                }
            }
            if ok {
                return i + 1 + hashes;
            }
        }
        i += 1;
    }
    i
}

/// Consumes a char/byte-char body starting after the opening quote.
fn consume_char(chars: &[char], mut i: usize, line: &mut usize) -> usize {
    while i < chars.len() {
        match chars[i] {
            '\\' => {
                // See consume_string: count escaped newlines.
                if chars.get(i + 1) == Some(&'\n') {
                    *line += 1;
                }
                i += 2;
            }
            '\'' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Lexes a numeric literal starting at `i`; classifies Int vs Float.
fn consume_number(chars: &[char], mut i: usize, line: usize) -> (usize, Token) {
    let start = i;
    let mut is_float = false;
    // Radix prefixes never produce floats.
    if chars[i] == '0'
        && matches!(chars.get(i + 1), Some('x') | Some('o') | Some('b') | Some('X'))
    {
        i += 2;
        while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
            i += 1;
        }
    } else {
        while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '_') {
            i += 1;
        }
        // Fractional part — but not `..` (range) and not `.method()`.
        if chars.get(i) == Some(&'.')
            && chars.get(i + 1) != Some(&'.')
            && !chars.get(i + 1).is_some_and(|&ch| is_ident_start(ch))
        {
            is_float = true;
            i += 1;
            while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '_') {
                i += 1;
            }
        }
        // Exponent.
        if matches!(chars.get(i), Some('e') | Some('E')) {
            let mut j = i + 1;
            if matches!(chars.get(j), Some('+') | Some('-')) {
                j += 1;
            }
            if chars.get(j).is_some_and(|c| c.is_ascii_digit()) {
                is_float = true;
                i = j;
                while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '_') {
                    i += 1;
                }
            }
        }
        // Suffix (u64, f32, ...).
        let sfx_start = i;
        while i < chars.len() && is_ident_continue(chars[i]) {
            i += 1;
        }
        let suffix: String = chars[sfx_start..i].iter().collect();
        if suffix == "f32" || suffix == "f64" {
            is_float = true;
        }
    }
    let text: String = chars[start..i].iter().collect();
    (
        i,
        Token {
            text,
            literal: String::new(),
            line,
            kind: if is_float { TokKind::Float } else { TokKind::Int },
            in_test: false,
            fn_name: None,
        },
    )
}

/// Scope entry for the region pass: which brace opened it and why.
enum Scope {
    /// Braces of an item carrying `#[cfg(test)]`.
    Test,
    /// A `fn` body.
    Fn(String),
    /// Any other brace (impl/struct/match/block/...).
    Other,
}

/// Second pass: walk the token stream tracking brace scopes to annotate
/// every token with `in_test` and `fn_name`.
fn annotate_regions(tokens: &mut [Token]) {
    let mut stack: Vec<Scope> = Vec::new();
    // Set once `#[cfg(test)]` (or `#[cfg(... test ...)]`) is seen; the
    // next `{` opens a Test scope. Cleared by `;` (e.g. a cfg'd `use`).
    let mut pending_cfg_test = false;
    // Set after `fn name`; the next `{` opens that fn's body. Cleared by
    // `;` (trait method declarations).
    let mut pending_fn: Option<String> = None;
    // Delimiter depths inside a pending item's *signature*. A `{` in
    // const-generic or array-length position (`[(); { N }]`,
    // `-> [u8; { N + 1 }]`) must not be taken for the item's body, and
    // the `;` inside `[(); ...]` must not cancel the pending item.
    // Tracked only while a pending flag is set; reset when it clears.
    let mut sig_paren = 0usize;
    let mut sig_bracket = 0usize;
    let mut sig_angle = 0usize;
    let mut sig_brace = 0usize;

    let mut i = 0usize;
    while i < tokens.len() {
        let in_test = pending_cfg_test || stack.iter().any(|s| matches!(s, Scope::Test));
        // A pending fn claims its signature tokens too, so parameters are
        // attributed to the fn they belong to, not the enclosing scope.
        let fn_name = pending_fn.clone().or_else(|| {
            stack.iter().rev().find_map(|s| match s {
                Scope::Fn(name) => Some(name.clone()),
                _ => None,
            })
        });
        tokens[i].in_test = in_test;
        tokens[i].fn_name = fn_name.clone();

        // Attributes: scan to the matching `]`, checking for cfg(test).
        if tokens[i].text == "#" {
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|t| t.text == "!") {
                j += 1;
            }
            if tokens.get(j).is_some_and(|t| t.text == "[") {
                let mut depth = 0usize;
                let mut is_cfg = false;
                let mut has_test = false;
                let mut first_ident = true;
                while j < tokens.len() {
                    tokens[j].in_test = in_test;
                    tokens[j].fn_name = fn_name.clone();
                    match tokens[j].text.as_str() {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {
                            if tokens[j].kind == TokKind::Ident {
                                if first_ident {
                                    is_cfg = tokens[j].text == "cfg";
                                    first_ident = false;
                                } else if tokens[j].text == "test" {
                                    has_test = true;
                                }
                            }
                        }
                    }
                    j += 1;
                }
                if is_cfg && has_test {
                    pending_cfg_test = true;
                }
                i = j + 1;
                continue;
            }
        }

        let pending = pending_cfg_test || pending_fn.is_some();
        match tokens[i].text.as_str() {
            "fn" => {
                if let Some(next) = tokens.get(i + 1) {
                    if next.kind == TokKind::Ident {
                        pending_fn = Some(next.text.clone());
                    }
                }
            }
            "(" if pending => sig_paren += 1,
            ")" if pending => sig_paren = sig_paren.saturating_sub(1),
            "[" if pending => sig_bracket += 1,
            "]" if pending => sig_bracket = sig_bracket.saturating_sub(1),
            // Angle depth opens only in type position (after an ident,
            // `>`, or `::`) so a `<` comparison inside a const-expression
            // brace never inflates it; `>>` closes two levels.
            "<" if pending
                && sig_brace == 0
                && i > 0
                && (tokens[i - 1].kind == TokKind::Ident
                    || tokens[i - 1].text == ">"
                    || tokens[i - 1].text == "::") =>
            {
                sig_angle += 1;
            }
            ">" if pending && sig_brace == 0 => sig_angle = sig_angle.saturating_sub(1),
            ">>" if pending && sig_brace == 0 => sig_angle = sig_angle.saturating_sub(2),
            "{" => {
                if pending && (sig_paren + sig_bracket + sig_angle + sig_brace) > 0 {
                    // Const-expression brace inside the signature, not
                    // the item body.
                    sig_brace += 1;
                } else if pending_cfg_test {
                    stack.push(Scope::Test);
                    pending_cfg_test = false;
                    pending_fn = None;
                } else if let Some(name) = pending_fn.take() {
                    stack.push(Scope::Fn(name));
                } else {
                    stack.push(Scope::Other);
                }
            }
            "}" => {
                if sig_brace > 0 {
                    sig_brace -= 1;
                } else {
                    stack.pop();
                }
            }
            // A `;` at signature top level ends the item (trait method
            // declarations, cfg'd `use`); inside `[(); ...]` or parens it
            // is a type separator and the item is still pending.
            ";" if sig_paren + sig_bracket + sig_brace == 0 => {
                pending_cfg_test = false;
                pending_fn = None;
                sig_angle = 0;
            }
            _ => {}
        }
        if !pending_cfg_test && pending_fn.is_none() {
            sig_paren = 0;
            sig_bracket = 0;
            sig_angle = 0;
            sig_brace = 0;
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_produce_no_idents() {
        let s = scan(r#"let x = "unsafe unwrap"; // unsafe in comment"#);
        assert!(s.tokens.iter().all(|t| t.text != "unsafe"));
        assert!(s.comment_window_contains(1, 1, "unsafe"));
    }

    #[test]
    fn float_literals_are_classified() {
        let s = scan("let a = 1.5; let b = 2; let c = 3f64; let d = 1e-3; let e = x.0;");
        let kinds: Vec<TokKind> = s
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Int | TokKind::Float))
            .map(|t| t.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                TokKind::Float,
                TokKind::Int,
                TokKind::Float,
                TokKind::Float,
                TokKind::Int
            ]
        );
    }

    #[test]
    fn escaped_newline_in_string_advances_line() {
        // `\` line continuations embed a real newline in the escape
        // pair; the scanner must count it or every token after the
        // string reports a line one short per continuation.
        let src = "let s = \"a \\\n b\";\nlet t = marker;\n";
        let s = scan(src);
        let m = s.tokens.iter().find(|t| t.text == "marker").unwrap();
        assert_eq!(m.line, 3);
    }

    #[test]
    fn cfg_test_region_is_tracked() {
        let src = "fn live() { work(); }\n#[cfg(test)]\nmod tests {\n fn t() { check(); }\n}\n";
        let s = scan(src);
        let work = s.tokens.iter().find(|t| t.text == "work").unwrap();
        let check = s.tokens.iter().find(|t| t.text == "check").unwrap();
        assert!(!work.in_test);
        assert!(check.in_test);
        assert_eq!(check.fn_name.as_deref(), Some("t"));
    }

    #[test]
    fn enclosing_fn_is_innermost() {
        let src = "fn outer() { fn inner() { body(); } tail(); }";
        let s = scan(src);
        let body = s.tokens.iter().find(|t| t.text == "body").unwrap();
        let tail = s.tokens.iter().find(|t| t.text == "tail").unwrap();
        assert_eq!(body.fn_name.as_deref(), Some("inner"));
        assert_eq!(tail.fn_name.as_deref(), Some("outer"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let s = scan("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes: Vec<_> = s
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(
            s.tokens.iter().filter(|t| t.kind == TokKind::Char).count(),
            1
        );
    }

    #[test]
    fn block_comments_span_lines() {
        let s = scan("/* SAFETY:\n   spans lines */\nlet x = 1;");
        assert!(s.comment_window_contains(1, 1, "SAFETY:"));
        assert!(s.comment_window_contains(2, 2, "spans"));
    }

    #[test]
    fn raw_strings_are_opaque() {
        let s = scan(r##"let x = r#"unsafe { panic!() }"#;"##);
        assert!(s.tokens.iter().all(|t| t.text != "panic"));
    }

    #[test]
    fn const_generic_braces_do_not_confuse_regions() {
        // Regression test for the former blind spot: the brace and `;`
        // inside `[(); { N }]` used to consume the pending-fn /
        // pending-cfg(test) flags, mis-scoping everything after them.
        let src = "\
fn shaped<const N: usize>(x: [(); { N }]) -> [u8; { N + 1 }] { body(); }
#[cfg(test)]
mod tests {
    fn t(y: [(); { 2 < 3 } as usize]) { check(); }
}
fn after() { tail(); }
";
        let s = scan(src);
        let body = s.tokens.iter().find(|t| t.text == "body").unwrap();
        assert_eq!(body.fn_name.as_deref(), Some("shaped"));
        assert!(!body.in_test);
        let check = s.tokens.iter().find(|t| t.text == "check").unwrap();
        assert!(check.in_test);
        assert_eq!(check.fn_name.as_deref(), Some("t"));
        let tail = s.tokens.iter().find(|t| t.text == "tail").unwrap();
        assert!(!tail.in_test, "Test scope leaked past its closing brace");
        assert_eq!(tail.fn_name.as_deref(), Some("after"));
    }

    #[test]
    fn string_literal_contents_live_in_literal_not_text() {
        let s = scan(r###"let a = "graphbolt_total"; let b = r#"raw_name"#; let c = b"bytes";"###);
        let strs: Vec<&Token> = s.tokens.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs.len(), 3);
        assert_eq!(strs[0].literal, "graphbolt_total");
        assert_eq!(strs[1].literal, "raw_name");
        assert_eq!(strs[2].literal, "bytes");
        // `text` stays empty: identifier matches never see literal bodies.
        assert!(strs.iter().all(|t| t.text.is_empty()));
        assert!(s.tokens.iter().all(|t| t.text != "graphbolt_total"));
    }

    #[test]
    fn compound_assignment_is_one_token() {
        let s = scan("x += 1; y -= 2;");
        assert!(s.tokens.iter().any(|t| t.text == "+="));
        assert!(s.tokens.iter().any(|t| t.text == "-="));
    }
}
