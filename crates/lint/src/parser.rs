//! A lightweight recursive-descent structural parser over the
//! [`crate::lexer`] token stream.
//!
//! This is deliberately **not** a Rust grammar. The fn-scoped rule
//! (`metering-honesty`) and the workspace symbol table only need the
//! *structure* that a flat token walk cannot see:
//!
//! * items: `fn` definitions (with their `impl` target and
//!   `#[cfg(test)]` status), `struct` definitions with named fields
//!   and their type tokens, `mod`/`impl`/`trait` nesting;
//! * each fn body's tokens, closures included;
//! * nested `fn` items, which are their own fns, not part of the
//!   enclosing body.
//!
//! Everything else (expressions, patterns, generics) is passed through
//! as flat tokens. The parser never fails: unexpected input degrades to
//! flat tokens, which is the right behaviour for a linter that must
//! keep scanning a broken tree.

use crate::lexer::{Tok, TokKind};

/// Every structural item found in one file.
#[derive(Debug, Default)]
pub struct Parsed {
    /// All `fn` definitions, including methods and nested fns, in
    /// source order.
    pub fns: Vec<FnDef>,
    /// All `struct` definitions with named fields.
    pub structs: Vec<StructDef>,
}

/// One `fn` definition.
#[derive(Debug)]
pub struct FnDef {
    /// The fn's name (raw identifiers keep their `r#` sigil).
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// True when the fn sits under `#[cfg(test)]` (directly or via an
    /// enclosing test module) or carries `#[test]`.
    pub in_test: bool,
    /// The self type when this fn is defined inside an `impl` block:
    /// the last path segment of the implemented-for type (`Metrics`
    /// for `impl sim::Metrics`, and for `impl Default for Metrics`).
    pub impl_target: Option<String>,
    /// Identifier tokens of the declared return type (`-> &mut
    /// ResidentStats` yields `["mut", "ResidentStats"]`-ish; only the ident
    /// names survive). Empty for `()` returns and bodyless decls.
    pub ret_idents: Vec<String>,
    /// Token indices of the body between its outer braces, in source
    /// order, nested `fn` items excluded; empty for bodyless
    /// declarations.
    pub body: Vec<usize>,
}

/// One `struct` definition (named-field structs only; tuple and unit
/// structs contribute a name with no fields).
#[derive(Debug)]
pub struct StructDef {
    /// The struct's name.
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: u32,
    /// True when defined under `#[cfg(test)]`.
    pub in_test: bool,
    /// Named fields, in declaration order.
    pub fields: Vec<Field>,
}

/// One named struct field.
#[derive(Debug)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Identifier tokens appearing in the field's type (`Vec<u64>`
    /// yields `["Vec", "u64"]`).
    pub ty_idents: Vec<String>,
}

/// Parse one file's token stream. `in_test_mask` is
/// [`crate::rules::test_region_mask`]'s per-token verdict; the parser
/// combines it with the `#[cfg(test)]`/`#[test]` attributes it sees
/// itself on individual items.
pub fn parse(toks: &[Tok], in_test_mask: &[bool]) -> Parsed {
    let mut p = Parser {
        toks,
        mask: in_test_mask,
        out: Parsed::default(),
    };
    p.items(0, false, None);
    p.out
}

struct Parser<'a> {
    toks: &'a [Tok],
    mask: &'a [bool],
    out: Parsed,
}

impl<'a> Parser<'a> {
    fn sym(&self, i: usize, c: char) -> bool {
        self.toks.get(i).is_some_and(|t| t.is_sym(c))
    }

    fn word(&self, i: usize) -> Option<&str> {
        self.toks.get(i).and_then(|t| t.ident())
    }

    /// Parse items until the matching `}` (consumed) or EOF; returns
    /// the index just past the region.
    fn items(&mut self, mut i: usize, in_test: bool, impl_target: Option<&str>) -> usize {
        // true when a `#[cfg(test)]`/`#[test]` attribute is pending for
        // the next item
        let mut pending_test = false;
        while i < self.toks.len() {
            match &self.toks[i].kind {
                TokKind::Sym('}') => return i + 1,
                TokKind::Sym('#') if self.sym(i + 1, '[') => {
                    let (j, is_test) = self.skip_attr(i);
                    pending_test |= is_test;
                    i = j;
                }
                TokKind::Sym(';') => {
                    pending_test = false;
                    i += 1;
                }
                TokKind::Sym('{') => i = self.skip_braces(i),
                TokKind::Ident(w) => match w.as_str() {
                    "fn" if self.word(i + 1).is_some() => {
                        i = self.fn_def(i, in_test || pending_test, impl_target);
                        pending_test = false;
                    }
                    "struct" if self.word(i + 1).is_some() => {
                        i = self.struct_def(i, in_test || pending_test);
                        pending_test = false;
                    }
                    "mod" => {
                        let mut j = i + 1;
                        while j < self.toks.len() && !self.sym(j, '{') && !self.sym(j, ';') {
                            j += 1;
                        }
                        i = if self.sym(j, '{') {
                            self.items(j + 1, in_test || pending_test, None)
                        } else {
                            j + 1
                        };
                        pending_test = false;
                    }
                    "impl" => {
                        let (j, target) = self.impl_header(i);
                        i = if self.sym(j, '{') {
                            self.items(j + 1, in_test || pending_test, target.as_deref())
                        } else {
                            j + 1
                        };
                        pending_test = false;
                    }
                    "trait" => {
                        let mut j = i + 1;
                        while j < self.toks.len() && !self.sym(j, '{') && !self.sym(j, ';') {
                            j += 1;
                        }
                        i = if self.sym(j, '{') {
                            self.items(j + 1, in_test || pending_test, None)
                        } else {
                            j + 1
                        };
                        pending_test = false;
                    }
                    "extern" => {
                        // `extern "C" { … }` blocks hold fn decls;
                        // `extern crate x;` and `extern "C" fn` fall
                        // through to the next iteration
                        let mut j = i + 1;
                        if self.toks.get(j).is_some_and(|t| t.str_lit().is_some()) {
                            j += 1;
                        }
                        i = if self.sym(j, '{') {
                            self.items(j + 1, in_test || pending_test, None)
                        } else {
                            j
                        };
                    }
                    "macro_rules" => {
                        // macro_rules! name { … } — the body is token
                        // soup; skip it wholesale
                        let mut j = i + 1;
                        while j < self.toks.len() && !self.sym(j, '{') && !self.sym(j, ';') {
                            j += 1;
                        }
                        i = if self.sym(j, '{') {
                            self.skip_braces(j)
                        } else {
                            j + 1
                        };
                        pending_test = false;
                    }
                    _ => i += 1,
                },
                _ => i += 1,
            }
        }
        i
    }

    /// Skip a `#[…]` attribute starting at the `#`; returns (index past
    /// `]`, whether it marks test-only code).
    fn skip_attr(&self, i: usize) -> (usize, bool) {
        let mut j = i + 2;
        let mut bracket = 1usize;
        let mut saw_cfg = false;
        let mut saw_test = false;
        let mut saw_not = false;
        let mut idents = 0usize;
        while j < self.toks.len() && bracket > 0 {
            let a = &self.toks[j];
            if a.is_sym('[') {
                bracket += 1;
            } else if a.is_sym(']') {
                bracket -= 1;
            } else if a.is_ident("cfg") {
                saw_cfg = true;
                idents += 1;
            } else if a.is_ident("test") {
                saw_test = true;
                idents += 1;
            } else if a.is_ident("not") {
                saw_not = true;
                idents += 1;
            } else if a.ident().is_some() {
                idents += 1;
            }
            j += 1;
        }
        let cfg_test = saw_cfg && saw_test && !saw_not;
        let bare_test = saw_test && idents == 1; // `#[test]`
        (j, cfg_test || bare_test)
    }

    /// Skip a balanced `{ … }` starting at the `{`; returns the index
    /// just past the matching `}` (or EOF).
    fn skip_braces(&self, i: usize) -> usize {
        let mut depth = 0usize;
        let mut j = i;
        while j < self.toks.len() {
            if self.sym(j, '{') {
                depth += 1;
            } else if self.sym(j, '}') {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        j
    }

    /// Scan an `impl` header from the `impl` keyword to its `{`;
    /// returns (index of the `{` or terminator, the self-type name).
    fn impl_header(&self, i: usize) -> (usize, Option<String>) {
        let mut j = i + 1;
        let mut angle = 0i32;
        let mut after_for = false;
        let mut candidate: Option<&str> = None;
        while j < self.toks.len() && !self.sym(j, '{') && !self.sym(j, ';') {
            let t = &self.toks[j];
            if t.is_sym('<') {
                angle += 1;
            } else if t.is_sym('>') {
                // `->` in a bound is not a generic close
                if !(j > 0 && self.sym(j - 1, '-')) {
                    angle -= 1;
                }
            } else if angle == 0 {
                if t.is_ident("for") {
                    after_for = true;
                    candidate = None;
                } else if t.is_ident("where") {
                    break;
                } else if let Some(id) = t.ident() {
                    // track the last path segment seen (handles
                    // `sim::Metrics`); `for` resets so the for-type wins
                    let _ = after_for;
                    candidate = Some(id);
                }
            }
            j += 1;
        }
        (j, candidate.map(str::to_string))
    }

    /// Parse a fn from its `fn` keyword; returns the index past the
    /// body (or the `;`).
    fn fn_def(&mut self, i: usize, in_test: bool, impl_target: Option<&str>) -> usize {
        let line = self.toks[i].line;
        let name = self.word(i + 1).unwrap_or("").to_string();
        let in_test = in_test || self.mask.get(i).copied().unwrap_or(false);
        // scan the signature for the body `{` or the decl's `;`,
        // collecting return-type idents after the first `->`
        let mut j = i + 2;
        let mut depth = 0usize;
        let mut ret_idents = Vec::new();
        let mut in_ret = false;
        while j < self.toks.len() {
            let t = &self.toks[j];
            match t.kind {
                TokKind::Sym('(') | TokKind::Sym('[') => depth += 1,
                TokKind::Sym(')') | TokKind::Sym(']') => depth = depth.saturating_sub(1),
                TokKind::Sym('{') if depth == 0 => break,
                TokKind::Sym(';') if depth == 0 => {
                    self.out.fns.push(FnDef {
                        name,
                        line,
                        in_test,
                        impl_target: impl_target.map(str::to_string),
                        ret_idents,
                        body: Vec::new(),
                    });
                    return j + 1;
                }
                TokKind::Sym('>') if depth == 0 && self.sym(j - 1, '-') => in_ret = true,
                TokKind::Ident(ref id) if in_ret && depth == 0 => {
                    if id == "where" {
                        in_ret = false;
                    } else {
                        ret_idents.push(id.clone());
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if j >= self.toks.len() {
            return j; // malformed signature: swallow to EOF
        }
        let (body, end) = self.body(j + 1, in_test);
        self.out.fns.push(FnDef {
            name,
            line,
            in_test,
            impl_target: impl_target.map(str::to_string),
            ret_idents,
            body,
        });
        end
    }

    /// Collect a fn body's token indices, starting just *after* its
    /// `{`; returns (indices, index past the matching `}`).
    fn body(&mut self, mut i: usize, in_test: bool) -> (Vec<usize>, usize) {
        let mut out = Vec::new();
        let mut depth = 0usize;
        while i < self.toks.len() {
            match &self.toks[i].kind {
                TokKind::Sym('}') if depth == 0 => return (out, i + 1),
                TokKind::Ident(w) if w == "fn" && self.word(i + 1).is_some() => {
                    // a nested fn item: its own fn, not our body
                    i = self.fn_def(i, in_test, None);
                    continue;
                }
                TokKind::Sym('{') => depth += 1,
                TokKind::Sym('}') => depth -= 1,
                _ => {}
            }
            out.push(i);
            i += 1;
        }
        (out, i)
    }

    /// Parse a struct from its `struct` keyword; returns the index
    /// past the definition.
    fn struct_def(&mut self, i: usize, in_test: bool) -> usize {
        let line = self.toks[i].line;
        let name = self.word(i + 1).unwrap_or("").to_string();
        let in_test = in_test || self.mask.get(i).copied().unwrap_or(false);
        // skip generics/where to the body `{`, tuple `(`, or unit `;`
        let mut j = i + 2;
        let mut angle = 0i32;
        while j < self.toks.len() {
            let t = &self.toks[j];
            if t.is_sym('<') {
                angle += 1;
            } else if t.is_sym('>') && !self.sym(j - 1, '-') {
                angle -= 1;
            } else if angle == 0 && (t.is_sym('{') || t.is_sym('(') || t.is_sym(';')) {
                break;
            }
            j += 1;
        }
        let mut fields = Vec::new();
        let end = if self.sym(j, '{') {
            let end = self.skip_braces(j);
            self.named_fields(j + 1, end.saturating_sub(1), &mut fields);
            end
        } else if self.sym(j, '(') {
            // tuple struct: no named fields; skip to the `;`
            let mut depth = 0usize;
            while j < self.toks.len() {
                if self.sym(j, '(') {
                    depth += 1;
                } else if self.sym(j, ')') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            j + 1
        } else {
            j + 1
        };
        self.out.structs.push(StructDef {
            name,
            line,
            in_test,
            fields,
        });
        end
    }

    /// Collect `name: Type` fields between token indices `[from, to)`.
    fn named_fields(&self, mut i: usize, to: usize, out: &mut Vec<Field>) {
        while i < to {
            // skip attributes and visibility
            if self.sym(i, '#') && self.sym(i + 1, '[') {
                i = self.skip_attr(i).0;
                continue;
            }
            if self.word(i) == Some("pub") {
                i += 1;
                if self.sym(i, '(') {
                    while i < to && !self.sym(i, ')') {
                        i += 1;
                    }
                    i += 1;
                }
                continue;
            }
            let (Some(name), true) = (self.word(i), self.sym(i + 1, ':')) else {
                i += 1;
                continue;
            };
            // the type runs to the `,`/end at bracket+angle depth 0
            let mut j = i + 2;
            let mut depth = 0i32;
            let mut angle = 0i32;
            let mut ty_idents = Vec::new();
            while j < to {
                let t = &self.toks[j];
                match t.kind {
                    TokKind::Sym('(') | TokKind::Sym('[') | TokKind::Sym('{') => depth += 1,
                    TokKind::Sym(')') | TokKind::Sym(']') | TokKind::Sym('}') => depth -= 1,
                    TokKind::Sym('<') => angle += 1,
                    // `->` is not an angle close
                    TokKind::Sym('>') if !self.sym(j - 1, '-') => angle -= 1,
                    TokKind::Sym('>') => {}
                    TokKind::Sym(',') if depth == 0 && angle == 0 => break,
                    TokKind::Ident(ref id) => ty_idents.push(id.clone()),
                    _ => {}
                }
                j += 1;
            }
            out.push(Field {
                name: name.to_string(),
                ty_idents,
            });
            i = j + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::test_region_mask;

    fn parse_src(src: &str) -> Parsed {
        let l = lex(src);
        let mask = test_region_mask(&l.toks);
        parse(&l.toks, &mask)
    }

    #[test]
    fn fns_with_impl_targets_and_nesting() {
        let src = "
            pub fn top(x: u32) -> u64 { x as u64 }
            impl Metrics {
                fn charge(&mut self) { self.cpu += 1; }
            }
            impl fmt::Display for Fx {
                fn fmt(&self) -> String { String::new() }
            }
            mod inner {
                pub fn deep() {}
            }
        ";
        let p = parse_src(src);
        let names: Vec<(&str, Option<&str>)> = p
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.impl_target.as_deref()))
            .collect();
        assert_eq!(
            names,
            [
                ("top", None),
                ("charge", Some("Metrics")),
                ("fmt", Some("Fx")),
                ("deep", None),
            ]
        );
        assert_eq!(p.fns[0].ret_idents, ["u64"]);
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let src = "
            fn live() {}
            #[cfg(test)]
            mod tests {
                fn helper() {}
                #[test]
                fn case() {}
            }
            #[cfg(test)]
            fn standalone() {}
            #[cfg(not(test))]
            fn not_test() {}
        ";
        let p = parse_src(src);
        let flags: Vec<(&str, bool)> = p.fns.iter().map(|f| (f.name.as_str(), f.in_test)).collect();
        assert_eq!(
            flags,
            [
                ("live", false),
                ("helper", true),
                ("case", true),
                ("standalone", true),
                ("not_test", false),
            ]
        );
    }

    #[test]
    fn nested_fn_is_not_part_of_outer_body() {
        let src = "
            fn outer() {
                fn inner() { return; }
                work();
            }
        ";
        let p = parse_src(src);
        assert_eq!(p.fns.len(), 2);
        let l = lex(src);
        let outer = p.fns.iter().find(|f| f.name == "outer").unwrap();
        let idents: Vec<&str> = outer
            .body
            .iter()
            .filter_map(|&i| l.toks[i].ident())
            .collect();
        assert_eq!(idents, ["work"]);
    }

    #[test]
    fn struct_fields_with_types() {
        let src = "
            pub struct Metrics {
                pub p: usize,
                pub faults: FaultStats,
                pub io_per_module: Vec<u64>,
                map: BTreeMap<String, u64>,
            }
            struct Unit;
            struct Tuple(u32, FaultStats);
        ";
        let p = parse_src(src);
        assert_eq!(p.structs.len(), 3);
        let m = &p.structs[0];
        assert_eq!(m.name, "Metrics");
        let fields: Vec<(&str, &[String])> = m
            .fields
            .iter()
            .map(|f| (f.name.as_str(), f.ty_idents.as_slice()))
            .collect();
        assert_eq!(fields.len(), 4);
        assert_eq!(fields[1].0, "faults");
        assert_eq!(fields[1].1, ["FaultStats"]);
        assert_eq!(fields[3].0, "map");
        assert_eq!(fields[3].1, ["BTreeMap", "String", "u64"]);
        assert_eq!(p.structs[1].name, "Unit");
        assert!(p.structs[1].fields.is_empty());
    }

    #[test]
    fn bodyless_and_trait_fns() {
        let src = "
            trait T {
                fn decl(&self) -> u32;
                fn with_default(&self) -> u32 { 1 }
            }
            extern \"C\" { fn ffi(); }
        ";
        let p = parse_src(src);
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["decl", "with_default", "ffi"]);
        assert!(p.fns[0].body.is_empty());
        assert_eq!(p.fns[0].ret_idents, ["u32"]);
    }

    #[test]
    fn fn_pointer_types_are_not_defs() {
        let src = "fn takes(cb: fn(u32) -> u32) -> u32 { cb(1) }";
        let p = parse_src(src);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "takes");
    }
}
