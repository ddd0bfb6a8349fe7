//! Lightweight item-level parsing on top of the token scanner.
//!
//! `law-coverage` and the call graph need more structure than "does this
//! token sequence appear": they work on *items* — `impl Trait for Type`
//! blocks, with the trait, the self type and the line span of each.
//! This module recovers exactly that from the [`Scanned`] token stream,
//! staying deliberately far short of a real AST (no expressions, no
//! types beyond path head idents), plus the `check_laws::<T>`
//! registrations `law-coverage` joins against: enough structure for the
//! lint rules, zero parser dependencies.
//!
//! Recognition strategy for `impl` items: from an `impl` token, skip the
//! optional generic parameter list, then read a type path. If a `for`
//! keyword follows at angle-depth 0 (and does not itself open a
//! higher-ranked `for<'a>` binder), the item is a trait impl —
//! `impl Trait for Type` — and the first path is the trait, the second
//! the self type. `impl Trait` in return/argument *type* position
//! (`-> impl Iterator`) never has a top-level `for`, so it is never
//! mistaken for an item.

use crate::scanner::{Scanned, TokKind, Token};

/// One recognized `impl` item.
#[derive(Debug, Clone)]
pub struct ImplBlock {
    /// Last segment of the trait path (`Algorithm` for
    /// `impl core::Algorithm for T`); `None` for inherent impls.
    pub trait_name: Option<String>,
    /// Base identifier of the self type (`Foo` for `impl T for Foo<X>`).
    pub type_name: String,
    /// 1-based line of the `impl` token.
    pub line: usize,
    /// 1-based line of the closing brace.
    pub end_line: usize,
}

/// Extracts every `impl` item from a scanned file.
pub fn impl_blocks(scanned: &Scanned) -> Vec<ImplBlock> {
    let toks = &scanned.tokens;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].kind == TokKind::Ident && toks[i].text == "impl" && !in_type_position(toks, i) {
            if let Some((block, next)) = parse_impl(toks, i) {
                i = next;
                out.push(block);
                continue;
            }
        }
        i += 1;
    }
    out
}

/// True when the `impl` token at `i` is `impl Trait` in *type* position
/// (`-> impl Iterator`, `fn f(x: impl Clone)`, `Box<impl Trait>`) rather
/// than the head of an impl item. Item-position `impl` follows a brace,
/// `;`, an attribute's `]`, or `unsafe`/`default` — never an operator.
fn in_type_position(toks: &[Token], i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).and_then(|p| toks.get(p)) else {
        return false;
    };
    matches!(
        prev.text.as_str(),
        "->" | "(" | "," | ":" | "=" | "<" | "&" | "+" | "|" | ".."
    )
}

/// Attempts to parse one impl item starting at the `impl` token `i`.
/// Returns the block and the token index to resume scanning from (just
/// past the body's opening brace, so nested impls inside it are still
/// found by the caller's forward scan).
fn parse_impl(toks: &[Token], i: usize) -> Option<(ImplBlock, usize)> {
    let mut j = i + 1;
    // Optional generic parameter list on the impl itself.
    if toks.get(j).is_some_and(|t| t.text == "<") {
        j = skip_angles(toks, j)?;
    }
    // First path: the trait (or, for inherent impls, the self type).
    let (first, mut j) = parse_path(toks, j)?;
    let mut trait_name = None;
    let mut type_name = first;
    // `for` at top level separates trait from self type; `for` followed
    // by `<` is a higher-ranked binder inside the type, not a separator.
    if toks.get(j).is_some_and(|t| t.text == "for")
        && toks.get(j + 1).is_none_or(|t| t.text != "<")
    {
        let (second, k) = parse_path(toks, j + 1)?;
        trait_name = Some(type_name);
        type_name = second;
        j = k;
    }
    // Skip a where clause (and anything else) up to the body's opening
    // brace; bail at tokens that prove this is not an item after all.
    while let Some(t) = toks.get(j) {
        match t.text.as_str() {
            "{" => break,
            ";" | ")" | "]" | "}" | "=" => return None,
            "<" => j = skip_angles(toks, j)?,
            _ => j += 1,
        }
    }
    let open = j;
    toks.get(open)?;
    // Walk the body to its closing brace.
    let mut depth = 0usize;
    let mut end_line = toks[open].line;
    let mut k = open;
    while k < toks.len() {
        match toks[k].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    end_line = toks[k].line;
                    break;
                }
            }
            _ => {}
        }
        k += 1;
    }
    Some((
        ImplBlock {
            trait_name,
            type_name,
            line: toks[i].line,
            end_line,
        },
        open + 1,
    ))
}

/// Parses a type path starting at `j`: identifiers joined by `::`, each
/// optionally followed by a generic argument list, possibly preceded by
/// `&`/`mut`/lifetimes. Returns the base identifier of the last segment
/// and the index just past the path.
fn parse_path(toks: &[Token], mut j: usize) -> Option<(String, usize)> {
    // Leading reference / mutability / lifetime sigils.
    while toks
        .get(j)
        .is_some_and(|t| t.text == "&" || t.text == "mut" || t.kind == TokKind::Lifetime)
    {
        j += 1;
    }
    let mut last_ident: Option<String> = None;
    loop {
        match toks.get(j) {
            Some(t) if t.kind == TokKind::Ident && t.text != "for" && t.text != "where" => {
                last_ident = Some(t.text.clone());
                j += 1;
            }
            _ => break,
        }
        // Generic arguments of this segment.
        if toks.get(j).is_some_and(|t| t.text == "<") {
            j = skip_angles(toks, j)?;
        }
        if toks.get(j).is_some_and(|t| t.text == "::") {
            j += 1;
            continue;
        }
        break;
    }
    last_ident.map(|name| (name, j))
}

/// Skips a balanced `<...>` starting at the `<` token `j`; returns the
/// index just past the closing `>`. `>>` closes two levels (the lexer
/// emits it as one token in `Vec<Vec<T>>`).
fn skip_angles(toks: &[Token], j: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut k = j;
    while k < toks.len() {
        match toks[k].text.as_str() {
            "<" => depth += 1,
            "<<" => depth += 2,
            ">" => depth -= 1,
            ">>" => depth -= 2,
            ";" | "{" => return None,
            _ => {}
        }
        k += 1;
        if depth <= 0 {
            return Some(k);
        }
    }
    None
}

/// Collects the set of type names registered with the law harness in
/// this file: every `T` appearing as `check_laws::<T>`.
pub fn law_registrations(scanned: &Scanned) -> Vec<String> {
    let toks = &scanned.tokens;
    let mut out = Vec::new();
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind == TokKind::Ident
            && tok.text == "check_laws"
            && toks.get(i + 1).is_some_and(|t| t.text == "::")
            && toks.get(i + 2).is_some_and(|t| t.text == "<")
        {
            if let Some(name) = toks.get(i + 3).filter(|t| t.kind == TokKind::Ident) {
                out.push(name.text.clone());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    #[test]
    fn trait_impl_is_recognized() {
        let src = "\
impl Algorithm for PageRank {
    fn identity(&self) -> f64 { 0.0 }
    fn combine(&self, a: &mut f64, c: &f64) { *a += c; }
}
";
        let blocks = impl_blocks(&scan(src));
        assert_eq!(blocks.len(), 1);
        let b = &blocks[0];
        assert_eq!(b.trait_name.as_deref(), Some("Algorithm"));
        assert_eq!(b.type_name, "PageRank");
        assert_eq!(b.line, 1);
        assert_eq!(b.end_line, 4);
    }

    #[test]
    fn qualified_and_generic_paths_resolve_to_base_idents() {
        let src = "impl<'a, T: Clone> core::Algorithm for Wrapper<'a, T> { fn f(&self) {} }";
        let blocks = impl_blocks(&scan(src));
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].trait_name.as_deref(), Some("Algorithm"));
        assert_eq!(blocks[0].type_name, "Wrapper");
    }

    #[test]
    fn inherent_impl_has_no_trait() {
        let blocks = impl_blocks(&scan("impl Engine { fn run(&mut self) {} }"));
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].trait_name, None);
        assert_eq!(blocks[0].type_name, "Engine");
    }

    #[test]
    fn impl_trait_in_type_position_is_not_an_item() {
        let src = "fn iter() -> impl Iterator<Item = u32> { (0..3).map(|x| x) }";
        let blocks = impl_blocks(&scan(src));
        assert!(blocks.is_empty(), "{blocks:?}");
    }

    #[test]
    fn nested_impls_are_all_found() {
        let src = "\
impl Outer {
    fn helper(&self) {
        struct Local;
        impl Algorithm for Local { fn g(&self) {} }
    }
}
";
        let blocks = impl_blocks(&scan(src));
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[1].trait_name.as_deref(), Some("Algorithm"));
        assert_eq!(blocks[1].type_name, "Local");
    }

    #[test]
    fn where_clauses_and_nested_generics_are_skipped() {
        let src = "impl<T> Trait for Holder<Vec<Vec<T>>> where T: Into<Vec<u8>> { fn f(&self) {} }";
        let blocks = impl_blocks(&scan(src));
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].type_name, "Holder");
    }

    #[test]
    fn law_registrations_are_collected() {
        let src = "\
fn t() {
    check_laws::<PageRank>(&PageRank::default(), spec).unwrap();
    laws::check_laws::<CoEm>(&alg, spec2).unwrap();
    check_laws(&untyped, spec3); // no turbofish: not a registration
}
";
        let regs = law_registrations(&scan(src));
        assert_eq!(regs, ["PageRank", "CoEm"]);
    }
}
