//! Per-function concurrency facts, extracted from the token stream.
//!
//! This is the model layer under rules U1L006–U1L008: for every `fn` in a
//! file it records
//!
//! * **lock acquisitions** — `<recv>.lock()` / `.read()` / `.write()` with
//!   empty argument lists (the std / parking_lot guard constructors), each
//!   with a crate-scoped lock identity derived from the receiver path and a
//!   token-level **guard live range** (binding → end of enclosing block for
//!   `let`-bound guards, statement or scrutinee block for temporaries,
//!   truncated at `drop(guard)`);
//! * **calls** — bare `foo(..)`, `self.foo(..)` / `Self::foo(..)`, and
//!   `Type::foo(..)` sites for the approximate call graph (method calls on
//!   other receivers are dropped — see [`CallQual`]);
//! * **blocking sites** — file/socket I/O, `thread::sleep`, `.join()`,
//!   channel `recv`;
//! * **hash-ordered iteration sites** — `.iter()` / `.keys()` / … on
//!   receivers whose declared type resolves to `HashMap` / `HashSet` /
//!   `FxHashMap` / `FxHashSet` (through `Arc`/`Mutex`/`RwLock` wrappers),
//!   plus `for … in &map` loops;
//! * **wall-clock / OS-entropy sites** — `SystemTime::now`, `thread_rng`,
//!   `OsRng`, `from_entropy`, `from_os_rng`;
//! * an **output-sink mark** — whether the signature or body mentions trace
//!   emission (`TraceRecord`, `record*` sink methods), `DriverReport`,
//!   `EngineReport`, or JSON bench output (`json!`, `serde_json`, `emit`).
//!
//! Everything is token-level and approximate; DESIGN.md §12 catalogs the
//! known false-negative classes (guards returned from functions, guards
//! reborrowed through locals, iteration over collections typed in another
//! file).

use crate::lexer::TokenKind;
use crate::model::{matching_brace, FnSpan, SourceFile};

/// Lock-guard constructor methods: empty-argument `.lock()` / `.read()` /
/// `.write()`.
const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write"];

/// Method-chain links that pass a guard through unchanged (std poisoning
/// adapters); a binding fed through only these still holds the guard.
const GUARD_CHAIN: &[&str] = &["unwrap", "expect"];

/// Idents that mark a function as feeding trace/report/JSON output.
const SINK_TYPE_IDENTS: &[&str] = &["TraceRecord", "DriverReport", "EngineReport", "FaultFold"];

/// Sink *method* calls (trace emission and bench JSON output).
const SINK_CALL_IDENTS: &[&str] = &["record", "emit", "serde_json"];

/// Hash-ordered collection type names (std and the vendored fxhash).
const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

/// Transparent wrappers to look through when resolving a declared type.
const TYPE_WRAPPERS: &[&str] = &[
    "Arc", "Rc", "Box", "Mutex", "RwLock", "RefCell", "Cell", "Option",
];

/// Iteration methods whose visit order follows the hasher.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// One lock acquisition.
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// Crate-scoped lock identity, e.g. `u1-trace/stripes[]`.
    pub lock: String,
    /// Receiver text for diagnostics, e.g. `self.stripes[_].lock()`.
    pub display: String,
    /// Token index of the acquisition method ident.
    pub tok: usize,
    pub line: usize,
    pub col: usize,
    /// Binding name when `let`-bound (`None` for temporaries and
    /// `match`/`if let` scrutinees).
    pub guard_name: Option<String>,
    /// Live range of the guard, as an inclusive token range.
    pub live_first: usize,
    pub live_last: usize,
}

/// How a call site is qualified; drives name resolution in the call graph.
/// Method calls on anything other than a bare `self` receiver are *not*
/// recorded — with no type information they overwhelmingly hit std
/// collection methods (`push`, `len`, `insert`), and resolving those by
/// name to same-named workspace fns floods the graph with bogus edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallQual {
    /// `foo(..)` — resolves to free functions named `foo`.
    Bare,
    /// `self.foo(..)` / `Self::foo(..)` — resolves within the caller's
    /// `impl` block (same crate, same owner type).
    SelfMethod,
    /// `Type::foo(..)` — resolves to `foo` in any `impl Type`.
    Typed(String),
}

/// A call site the graph can resolve.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub name: String,
    pub qual: CallQual,
    pub tok: usize,
    pub line: usize,
}

/// A blocking operation site (I/O, sleep, join, channel recv).
#[derive(Debug, Clone)]
pub struct BlockingSite {
    pub what: &'static str,
    pub tok: usize,
    pub line: usize,
    pub col: usize,
}

/// A hash-ordered iteration site.
#[derive(Debug, Clone)]
pub struct IterSite {
    /// Receiver text, e.g. `self.views.read().values()`.
    pub display: String,
    pub tok: usize,
    pub line: usize,
    pub col: usize,
}

/// A wall-clock / OS-entropy site.
#[derive(Debug, Clone)]
pub struct EntropySite {
    pub what: &'static str,
    pub tok: usize,
    pub line: usize,
    pub col: usize,
}

/// All facts for one function.
#[derive(Debug, Clone)]
pub struct FnFacts {
    pub name: String,
    /// Enclosing `impl` type, for `self.method()` call resolution.
    pub owner: Option<String>,
    /// Index into `SourceFile::fns`.
    pub fn_idx: usize,
    pub acquisitions: Vec<Acquisition>,
    pub calls: Vec<CallSite>,
    pub blocking: Vec<BlockingSite>,
    pub hash_iters: Vec<IterSite>,
    pub entropy: Vec<EntropySite>,
    /// Signature or body mentions a trace/report/JSON sink.
    pub sink_mark: bool,
}

/// Facts for every function in a file.
#[derive(Debug, Default)]
pub struct FileFacts {
    pub fns: Vec<FnFacts>,
}

pub fn extract(file: &SourceFile) -> FileFacts {
    let field_names = hash_field_names(file);
    let fns = file
        .fns
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let names = hash_names_for_fn(file, f, &field_names);
            extract_fn(file, i, f, &names)
        })
        .collect();
    FileFacts { fns }
}

fn extract_fn(file: &SourceFile, fn_idx: usize, f: &FnSpan, hash_names: &[String]) -> FnFacts {
    let toks = &file.tokens;
    let last = f.body.last_tok.min(toks.len().saturating_sub(1));
    let mut facts = FnFacts {
        name: f.name.clone(),
        owner: f.owner.clone(),
        fn_idx,
        acquisitions: Vec::new(),
        calls: Vec::new(),
        blocking: Vec::new(),
        hash_iters: Vec::new(),
        entropy: Vec::new(),
        sink_mark: false,
    };

    // Sink mark: scan the whole item (signature + body) so `-> DriverReport`
    // return types count.
    for i in f.header_tok..=last {
        let Some(name) = toks[i].kind.ident() else {
            continue;
        };
        if SINK_TYPE_IDENTS.contains(&name) {
            facts.sink_mark = true;
            break;
        }
        let called = toks.get(i + 1).is_some_and(|t| t.kind.is_punct('('))
            || (toks.get(i + 1).is_some_and(|t| t.kind.is_punct('!'))
                && toks.get(i + 2).is_some_and(|t| t.kind.is_punct('(')));
        if (SINK_CALL_IDENTS.contains(&name) && called) || name == "serde_json" {
            facts.sink_mark = true;
            break;
        }
        // `json!({...})` macro (u1-bench experiments).
        if name == "json" && toks.get(i + 1).is_some_and(|t| t.kind.is_punct('!')) {
            facts.sink_mark = true;
            break;
        }
    }

    for i in f.body.first_tok..=last {
        if file.is_test_tok(i) {
            continue;
        }
        let Some(name) = toks[i].kind.ident() else {
            continue;
        };
        let next_is_open = toks.get(i + 1).is_some_and(|t| t.kind.is_punct('('));
        let prev_is_dot = i > 0 && toks[i - 1].kind.is_punct('.');

        // Calls, for the approximate call graph: bare `foo(..)`,
        // `self.foo(..)` / `Self::foo(..)`, and `Type::foo(..)`. Method
        // calls on other receivers are deliberately dropped (see
        // [`CallQual`]). Keyword heads of expressions (`if (..)`) never lex
        // as calls in this codebase's style; filter the obvious ones anyway.
        if next_is_open
            && !matches!(
                name,
                "if" | "while" | "for" | "match" | "loop" | "return" | "fn" | "Some" | "Ok" | "Err"
            )
            && !(i > 0 && toks[i - 1].kind.is_ident("fn"))
        {
            let qual = if prev_is_dot {
                if i >= 2 && toks[i - 2].kind.is_ident("self") {
                    Some(CallQual::SelfMethod)
                } else {
                    None // method on an unknown-typed receiver
                }
            } else if i >= 2 && toks[i - 1].kind.is_punct(':') && toks[i - 2].kind.is_punct(':') {
                match toks.get(i.wrapping_sub(3)).and_then(|t| t.kind.ident()) {
                    Some("Self") => Some(CallQual::SelfMethod),
                    Some(t) => Some(CallQual::Typed(t.to_string())),
                    None => None,
                }
            } else {
                Some(CallQual::Bare)
            };
            if let Some(qual) = qual {
                facts.calls.push(CallSite {
                    name: name.to_string(),
                    qual,
                    tok: i,
                    line: toks[i].line,
                });
            }
        }

        // Lock acquisitions: `<recv>.{lock,read,write}()` with no args.
        if prev_is_dot
            && ACQUIRE_METHODS.contains(&name)
            && next_is_open
            && toks.get(i + 2).is_some_and(|t| t.kind.is_punct(')'))
        {
            if let Some(acq) = acquisition_at(file, f, i, name) {
                facts.acquisitions.push(acq);
            }
        }

        // Blocking sites.
        if let Some(site) = blocking_at(file, i, name) {
            facts.blocking.push(site);
        }

        // Hash-ordered iteration: `<recv>.iter()`-family where some receiver
        // segment is hash-typed, or the receiver is a Hash* type directly.
        if prev_is_dot && ITER_METHODS.contains(&name) && next_is_open {
            let (segs, display) = receiver_chain(file, i);
            let hashy = segs
                .iter()
                .any(|s| hash_names.iter().any(|h| h == s) || HASH_TYPES.contains(&s.as_str()));
            if hashy {
                facts.hash_iters.push(IterSite {
                    display: format!("{display}.{name}()"),
                    tok: i,
                    line: toks[i].line,
                    col: toks[i].col,
                });
            }
        }

        // `for pat in [&][mut] <expr>` where the expr references a
        // hash-typed name *without* an explicit iteration method (those are
        // caught above). The expr runs from `in` to the loop `{`.
        if name == "in" && !prev_is_dot {
            if let Some(site) = for_loop_iter(file, i, hash_names) {
                facts.hash_iters.push(site);
            }
        }

        // Wall-clock / OS-entropy.
        if let Some(site) = entropy_at(file, i, name) {
            facts.entropy.push(site);
        }
    }

    facts
}

/// Builds the acquisition record for the `.lock()`/`.read()`/`.write()`
/// method ident at token `i`.
fn acquisition_at(file: &SourceFile, f: &FnSpan, i: usize, method: &str) -> Option<Acquisition> {
    let toks = &file.tokens;
    let (segs, display) = receiver_chain(file, i);
    if segs.is_empty() {
        return None;
    }
    let crate_tag = file.crate_name.as_deref().unwrap_or("ws");
    let lock = format!("{crate_tag}/{}", segs.join("."));
    let body_last = f.body.last_tok.min(toks.len().saturating_sub(1));

    // Where does the receiver expression start? (First token of the chain.)
    let recv_first = receiver_first_tok(file, i);

    // Classify the statement this acquisition sits in.
    let after_close = i + 3; // token after `()`
    let (guard_name, live_first, live_last) =
        classify_range(file, f, recv_first, i, after_close, body_last);

    Some(Acquisition {
        lock,
        display: format!("{display}.{method}()"),
        tok: i,
        line: toks[i].line,
        col: toks[i].col,
        guard_name,
        live_first,
        live_last,
    })
}

/// Determines the guard's binding (if any) and its token live range.
fn classify_range(
    file: &SourceFile,
    f: &FnSpan,
    recv_first: usize,
    _acq_tok: usize,
    after_close: usize,
    body_last: usize,
) -> (Option<String>, usize, usize) {
    let toks = &file.tokens;

    // `match <recv>.lock()` / `if let P = <recv>.lock()` / `while let …`:
    // the guard lives through the following brace block (scrutinee
    // temporaries extend for `match`; conservative for `if let`, where an
    // over-long range can only add edges that an `allow` documents).
    if recv_first > 0 && toks[recv_first - 1].kind.is_ident("match") {
        if let Some(open) = (after_close..=body_last).find(|&k| toks[k].kind.is_punct('{')) {
            return (None, recv_first, matching_brace(toks, open).min(body_last));
        }
    }
    // `let _ = <recv>.lock()` drops the guard immediately — fall through to
    // the temporary classification.
    if let Some((name, stmt_kind)) = let_binding_before(file, recv_first).filter(|(n, _)| n != "_")
    {
        // The binding only receives the *guard* when the chain after `()` is
        // empty or guard-preserving (`.unwrap()`, `.expect(..)`, `?`).
        let mut k = after_close;
        let mut is_guard = true;
        loop {
            match toks.get(k).map(|t| &t.kind) {
                Some(TokenKind::Punct(';')) => break,
                Some(TokenKind::Punct('?')) => k += 1,
                Some(TokenKind::Punct('.')) => {
                    let m = toks.get(k + 1).and_then(|t| t.kind.ident());
                    let open = toks.get(k + 2).is_some_and(|t| t.kind.is_punct('('));
                    if m.is_some_and(|m| GUARD_CHAIN.contains(&m)) && open {
                        // Skip over `name ( … )`.
                        let close = matching_paren(toks, k + 2).min(body_last);
                        k = close + 1;
                    } else {
                        is_guard = false;
                        break;
                    }
                }
                _ => {
                    is_guard = false;
                    break;
                }
            }
        }
        if is_guard && stmt_kind == StmtKind::Let {
            // Live range: binding statement → end of enclosing block, or
            // `drop(name)`.
            let stmt_end = k; // the `;`
            let block_end = enclosing_block_end(toks, stmt_end, body_last);
            let end = drop_site(toks, &name, stmt_end, block_end).unwrap_or(block_end);
            return (Some(name), recv_first, end);
        }
        if is_guard && stmt_kind == StmtKind::IfLet {
            // `if let Ok(g) = m.lock()` — guard covers the if-block.
            if let Some(open) = (after_close..=body_last).find(|&k2| toks[k2].kind.is_punct('{')) {
                return (
                    Some(name),
                    recv_first,
                    matching_brace(toks, open).min(body_last),
                );
            }
        }
    }

    // Temporary: lives to the end of the statement; if the statement is a
    // `for`/`match` head, the scrutinee temporary lives through the block.
    let stmt_head = statement_head(toks, recv_first, f.body.first_tok);
    let mut depth: i64 = 0;
    let mut k = after_close;
    while k <= body_last {
        match toks[k].kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
            TokenKind::Punct('{') => {
                if depth <= 0 {
                    // Block opens at statement depth: `for`/`match` heads
                    // keep the temporary alive through it.
                    if matches!(stmt_head.as_deref(), Some("for") | Some("match")) {
                        return (None, recv_first, matching_brace(toks, k).min(body_last));
                    }
                    return (None, recv_first, k.saturating_sub(1));
                }
                depth += 1;
            }
            TokenKind::Punct('}') => {
                if depth <= 0 {
                    return (None, recv_first, k.saturating_sub(1));
                }
                depth -= 1;
            }
            TokenKind::Punct(';') if depth <= 0 => return (None, recv_first, k),
            _ => {}
        }
        k += 1;
    }
    (None, recv_first, body_last)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StmtKind {
    Let,
    IfLet,
}

/// If the tokens directly before `recv_first` are `let [mut] NAME =` or
/// `if/while let PAT =`, returns the bound name and statement kind.
fn let_binding_before(file: &SourceFile, recv_first: usize) -> Option<(String, StmtKind)> {
    let toks = &file.tokens;
    if recv_first < 2 || !toks[recv_first - 1].kind.is_punct('=') {
        return None;
    }
    // Walk back over the pattern: `let mut name =` or `let Ok(mut name) =`
    // (if-let / while-let). Collect the last ident in the pattern as the
    // binding.
    let mut j = recv_first - 2;
    let mut last_ident: Option<String> = None;
    let mut steps = 0;
    loop {
        match &toks[j].kind {
            TokenKind::Ident(id) if id == "let" => {
                let kind = if j > 0
                    && (toks[j - 1].kind.is_ident("if") || toks[j - 1].kind.is_ident("while"))
                {
                    StmtKind::IfLet
                } else {
                    StmtKind::Let
                };
                return last_ident.map(|n| (n, kind));
            }
            TokenKind::Ident(id) => {
                if id != "mut" && !id.chars().next().is_some_and(char::is_uppercase) {
                    last_ident.get_or_insert_with(|| id.clone());
                }
            }
            TokenKind::Punct('(')
            | TokenKind::Punct(')')
            | TokenKind::Punct(',')
            | TokenKind::Punct('_') => {}
            _ => return None,
        }
        if j == 0 || steps > 12 {
            return None;
        }
        j -= 1;
        steps += 1;
    }
}

/// First token of the statement containing `from` (token after the previous
/// `;`, `{`, or `}` at the same nesting), used to see `for`/`match` heads.
fn statement_head(toks: &[crate::lexer::Token], from: usize, body_first: usize) -> Option<String> {
    let mut depth: i64 = 0;
    let mut j = from;
    while j > body_first {
        j -= 1;
        match toks[j].kind {
            TokenKind::Punct(')') | TokenKind::Punct(']') => depth += 1,
            TokenKind::Punct('(') | TokenKind::Punct('[') => depth -= 1,
            TokenKind::Punct(';') | TokenKind::Punct('{') | TokenKind::Punct('}') if depth <= 0 => {
                return toks
                    .get(j + 1)
                    .and_then(|t| t.kind.ident())
                    .map(str::to_string);
            }
            _ => {}
        }
    }
    toks.get(body_first + 1)
        .and_then(|t| t.kind.ident())
        .map(str::to_string)
}

/// Token index of the `)` closing the block that contains `from` (scanning
/// forward from `from`), bounded by the fn body end.
fn enclosing_block_end(toks: &[crate::lexer::Token], from: usize, body_last: usize) -> usize {
    let mut depth: i64 = 0;
    let mut k = from;
    while k <= body_last {
        match toks[k].kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                if depth == 0 {
                    return k;
                }
                depth -= 1;
            }
            _ => {}
        }
        k += 1;
    }
    body_last
}

/// Finds `drop ( name )` between `from` and `to`; returns the token index of
/// the closing paren when present.
fn drop_site(toks: &[crate::lexer::Token], name: &str, from: usize, to: usize) -> Option<usize> {
    for k in from..to.saturating_sub(3) {
        if toks[k].kind.is_ident("drop")
            && toks[k + 1].kind.is_punct('(')
            && toks[k + 2].kind.is_ident(name)
            && toks[k + 3].kind.is_punct(')')
        {
            return Some(k + 3);
        }
    }
    None
}

fn matching_paren(toks: &[crate::lexer::Token], open: usize) -> usize {
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.kind {
            TokenKind::Punct('(') => depth += 1,
            TokenKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    toks.len().saturating_sub(1)
}

/// Walks the receiver chain backwards from the method ident at `i`
/// (`self.stripes[x].lock()` → segments `["stripes[]"]`, display
/// `self.stripes[_]`). `self` is consumed but not emitted. Method-call
/// segments render as `name()`; index groups as `name[]`.
fn receiver_chain(file: &SourceFile, i: usize) -> (Vec<String>, String) {
    let toks = &file.tokens;
    let mut segs: Vec<String> = Vec::new();
    let mut saw_self = false;
    // i-1 is the `.`; walk from i-2.
    let mut j = i.checked_sub(2);
    while let Some(mut k) = j {
        // Optional index group `… [ … ]`.
        let mut suffix = String::new();
        if toks[k].kind.is_punct(']') {
            let open = backward_match(toks, k, '[', ']');
            if open == 0 {
                break;
            }
            suffix = "[]".to_string();
            k = open - 1;
        } else if toks[k].kind.is_punct(')') {
            let open = backward_match(toks, k, '(', ')');
            if open == 0 {
                break;
            }
            suffix = "()".to_string();
            k = open - 1;
        }
        match toks[k].kind.ident() {
            Some("self") => {
                saw_self = true;
                break;
            }
            Some(name) => {
                segs.push(format!("{name}{suffix}"));
                // Continue over `.` or `::`.
                if k >= 1 && toks[k - 1].kind.is_punct('.') {
                    j = k.checked_sub(2);
                    continue;
                }
                if k >= 2 && toks[k - 1].kind.is_punct(':') && toks[k - 2].kind.is_punct(':') {
                    j = k.checked_sub(3);
                    continue;
                }
                break;
            }
            None => break,
        }
    }
    segs.reverse();
    let mut display = String::new();
    if saw_self {
        display.push_str("self");
    }
    for s in &segs {
        if !display.is_empty() {
            display.push('.');
        }
        display.push_str(&s.replace("[]", "[_]"));
    }
    (segs, display)
}

/// First token of the receiver chain feeding the method ident at `i`.
fn receiver_first_tok(file: &SourceFile, i: usize) -> usize {
    let toks = &file.tokens;
    let mut first = i;
    let mut j = i.checked_sub(2);
    while let Some(mut k) = j {
        if toks[k].kind.is_punct(']') {
            let open = backward_match(toks, k, '[', ']');
            if open == 0 {
                break;
            }
            k = open.saturating_sub(1);
        } else if toks[k].kind.is_punct(')') {
            let open = backward_match(toks, k, '(', ')');
            if open == 0 {
                break;
            }
            k = open.saturating_sub(1);
        }
        match toks[k].kind.ident() {
            Some(_) => {
                first = k;
                if k >= 2 && toks[k - 1].kind.is_punct('.') {
                    j = k.checked_sub(2);
                } else if k >= 3 && toks[k - 1].kind.is_punct(':') && toks[k - 2].kind.is_punct(':')
                {
                    j = k.checked_sub(3);
                } else {
                    break;
                }
            }
            None => break,
        }
    }
    first
}

/// Matching open bracket for the close bracket at `close`, scanning back.
fn backward_match(
    toks: &[crate::lexer::Token],
    close: usize,
    open_ch: char,
    close_ch: char,
) -> usize {
    let mut depth = 0i64;
    let mut k = close;
    loop {
        if toks[k].kind.is_punct(close_ch) {
            depth += 1;
        } else if toks[k].kind.is_punct(open_ch) {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
        if k == 0 {
            return 0;
        }
        k -= 1;
    }
}

/// Classifies the ident at `i` as a blocking operation, if it is one.
fn blocking_at(file: &SourceFile, i: usize, name: &str) -> Option<BlockingSite> {
    let toks = &file.tokens;
    let prev_is_dot = i > 0 && toks[i - 1].kind.is_punct('.');
    let next_is_open = toks.get(i + 1).is_some_and(|t| t.kind.is_punct('('));
    let empty_args = next_is_open && toks.get(i + 2).is_some_and(|t| t.kind.is_punct(')'));
    let site = |what: &'static str| {
        Some(BlockingSite {
            what,
            tok: i,
            line: toks[i].line,
            col: toks[i].col,
        })
    };
    match name {
        // `thread::sleep(..)` / `std::thread::sleep(..)`.
        "sleep" if next_is_open && path_seg_is(file, i, "thread") => site("thread::sleep"),
        // Thread / scope join: `.join()` with no arguments (`slice.join(sep)`
        // always has one).
        "join" if prev_is_dot && empty_args => site(".join()"),
        // Channel receive.
        "recv" if prev_is_dot && empty_args => site(".recv()"),
        "recv_timeout" if prev_is_dot && next_is_open => site(".recv_timeout(..)"),
        // File open/create.
        "open" | "create" if path_seg_is(file, i, "File") => site("File open/create"),
        "OpenOptions" => site("OpenOptions"),
        // Socket constructors / accept.
        "TcpStream" | "TcpListener" | "UdpSocket" => site("socket I/O"),
        "accept" if prev_is_dot && empty_args => site(".accept()"),
        // Stream-level reads/writes and fsync.
        "read_to_string" | "read_to_end" | "read_exact" | "write_all" | "sync_all"
        | "sync_data"
            if prev_is_dot && next_is_open =>
        {
            site("stream I/O")
        }
        // Writer flush: empty-arg `.flush()`. (TraceSink::flush is also
        // caught here on purpose — DirSink flushes real files.)
        "flush" if prev_is_dot && empty_args => site(".flush()"),
        _ => None,
    }
}

/// True when the path segment before ident `i` (over `::`) equals `seg`.
fn path_seg_is(file: &SourceFile, i: usize, seg: &str) -> bool {
    let toks = &file.tokens;
    i >= 3
        && toks[i - 1].kind.is_punct(':')
        && toks[i - 2].kind.is_punct(':')
        && toks[i - 3].kind.is_ident(seg)
}

/// Classifies the ident at `i` as a wall-clock / OS-entropy source.
fn entropy_at(file: &SourceFile, i: usize, name: &str) -> Option<EntropySite> {
    let toks = &file.tokens;
    let site = |what: &'static str| {
        Some(EntropySite {
            what,
            tok: i,
            line: toks[i].line,
            col: toks[i].col,
        })
    };
    match name {
        "now" if path_seg_is(file, i, "SystemTime") => site("SystemTime::now"),
        "thread_rng" => site("thread_rng"),
        "OsRng" => site("OsRng"),
        "from_entropy" | "from_os_rng" => site("OS-entropy RNG seeding"),
        _ => None,
    }
}

/// `for pat in <expr> {` where `<expr>` mentions a hash-typed name and no
/// explicit iteration method (those are reported at the method site).
fn for_loop_iter(file: &SourceFile, in_tok: usize, hash_names: &[String]) -> Option<IterSite> {
    let toks = &file.tokens;
    // Only `for … in`: scan back for the `for` on a short leash.
    let mut j = in_tok;
    let mut found_for = false;
    for _ in 0..10 {
        if j == 0 {
            break;
        }
        j -= 1;
        if toks[j].kind.is_ident("for") {
            found_for = true;
            break;
        }
        if matches!(toks[j].kind, TokenKind::Punct(';') | TokenKind::Punct('{')) {
            break;
        }
    }
    if !found_for {
        return None;
    }
    let mut k = in_tok + 1;
    let mut depth = 0i64;
    let mut hashy_tok: Option<usize> = None;
    let mut has_method_call = false;
    let mut display = String::new();
    while let Some(t) = toks.get(k) {
        match &t.kind {
            TokenKind::Punct('{') if depth == 0 => break,
            TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
            TokenKind::Ident(id) => {
                if hash_names.iter().any(|h| h == id) {
                    hashy_tok.get_or_insert(k);
                }
                if toks.get(k + 1).is_some_and(|t| t.kind.is_punct('(')) {
                    has_method_call = true;
                }
                if !display.is_empty() {
                    display.push('.');
                }
                display.push_str(id);
            }
            _ => {}
        }
        k += 1;
        if k > in_tok + 40 {
            break;
        }
    }
    // Method calls in the expr (`.iter()`, `.lock()`, …) are handled by the
    // method-site detector; only bare `&map` loops are reported here.
    let h = hashy_tok?;
    if has_method_call {
        return None;
    }
    Some(IterSite {
        display: format!("for _ in {display}"),
        tok: h,
        line: toks[h].line,
        col: toks[h].col,
    })
}

/// Names declared *outside* any `fn` item (struct/enum fields, consts)
/// whose type resolves to a hash-ordered collection. Field names apply
/// file-wide (`self.views` in any method).
fn hash_field_names(file: &SourceFile) -> Vec<String> {
    let toks = &file.tokens;
    let mut names: Vec<String> = Vec::new();
    for i in 0..toks.len() {
        if file
            .fns
            .iter()
            .any(|f| (f.header_tok..=f.body.last_tok).contains(&i))
        {
            continue;
        }
        let Some(name) = toks[i].kind.ident() else {
            continue;
        };
        let colon = toks.get(i + 1).is_some_and(|t| t.kind.is_punct(':'))
            && !toks.get(i + 2).is_some_and(|t| t.kind.is_punct(':'))
            && !(i > 0 && toks[i - 1].kind.is_punct(':'));
        if colon && type_is_hashy(toks, i + 2) && !names.iter().any(|x| x == name) {
            names.push(name.to_string());
        }
    }
    names
}

/// Names visible in one function whose declared type resolves to a
/// hash-ordered collection: the file-level field names, plus this
/// function's `name: [&mut] [wrappers<]Hash{Map,Set}…` params and
/// annotations, constructor bindings (`= HashMap::new()` /
/// `FxHashMap::default()` / turbofish collect), and one level of guard
/// propagation (`let g = <hash>.lock()` / `.read()` / `.write()` /
/// `.clone()`). Scoping is per-fn so a `counts: &HashMap` param in one
/// function does not poison a same-named `&BTreeMap` param in the next.
fn hash_names_for_fn(file: &SourceFile, f: &FnSpan, field_names: &[String]) -> Vec<String> {
    let toks = &file.tokens;
    let last = f.body.last_tok.min(toks.len().saturating_sub(1));
    let mut names: Vec<String> = field_names.to_vec();
    let push = |n: &str, names: &mut Vec<String>| {
        if !names.iter().any(|x| x == n) {
            names.push(n.to_string());
        }
    };

    for i in f.header_tok..=last {
        let Some(name) = toks[i].kind.ident() else {
            continue;
        };
        // `name : <type>` — single colon (not `::`).
        let colon = toks.get(i + 1).is_some_and(|t| t.kind.is_punct(':'))
            && !toks.get(i + 2).is_some_and(|t| t.kind.is_punct(':'))
            && !(i > 0 && toks[i - 1].kind.is_punct(':'));
        if colon && type_is_hashy(toks, i + 2) {
            push(name, &mut names);
        }
        // `let [mut] name = <ctor>` — constructor or turbofish collect.
        if name == "let" {
            if let Some((bind, rhs)) = let_name_and_rhs(toks, i) {
                if rhs_is_hashy(toks, rhs) {
                    push(&bind, &mut names);
                }
            }
        }
    }

    // One propagation round: `let g = <hash-name>…lock()/read()/write()/
    // clone()` chains re-typed as hashy (guards and clones of maps).
    for i in f.body.first_tok..=last {
        if !toks[i].kind.is_ident("let") {
            continue;
        }
        let Some((bind, rhs)) = let_name_and_rhs(toks, i) else {
            continue;
        };
        let mut k = rhs;
        let mut refs_hash = false;
        let mut only_guard_chain = true;
        while let Some(t) = toks.get(k) {
            match &t.kind {
                TokenKind::Punct(';') => break,
                TokenKind::Ident(id) => {
                    if names.iter().any(|h| h == id) {
                        refs_hash = true;
                    } else if toks.get(k + 1).is_some_and(|t| t.kind.is_punct('('))
                        && !matches!(
                            id.as_str(),
                            "lock"
                                | "read"
                                | "write"
                                | "clone"
                                | "borrow"
                                | "borrow_mut"
                                | "unwrap"
                                | "expect"
                                | "as_ref"
                                | "as_mut"
                        )
                    {
                        only_guard_chain = false;
                    }
                }
                _ => {}
            }
            k += 1;
            if k > rhs + 30 {
                break;
            }
        }
        if refs_hash && only_guard_chain {
            push(&bind, &mut names);
        }
    }

    names
}

/// For a `let` at token `i`, the bound name and the first RHS token.
fn let_name_and_rhs(toks: &[crate::lexer::Token], i: usize) -> Option<(String, usize)> {
    let mut j = i + 1;
    if toks.get(j).is_some_and(|t| t.kind.is_ident("mut")) {
        j += 1;
    }
    let name = toks.get(j)?.kind.ident()?.to_string();
    // Optional `: Type` annotation — skip to `=` at angle depth 0.
    let mut k = j + 1;
    let mut angle = 0i64;
    while let Some(t) = toks.get(k) {
        match t.kind {
            TokenKind::Punct('<') => angle += 1,
            TokenKind::Punct('>') => angle -= 1,
            TokenKind::Punct('=') if angle <= 0 => return Some((name, k + 1)),
            TokenKind::Punct(';') | TokenKind::Punct('{') => return None,
            _ => {}
        }
        k += 1;
        if k > i + 40 {
            return None;
        }
    }
    None
}

/// Resolves a type starting at `start`, looking through `&`, `mut`, and
/// transparent wrappers: is the outermost collection hash-ordered?
fn type_is_hashy(toks: &[crate::lexer::Token], start: usize) -> bool {
    let mut k = start;
    let mut hops = 0;
    loop {
        hops += 1;
        if hops > 12 {
            return false;
        }
        match toks.get(k).map(|t| &t.kind) {
            Some(TokenKind::Punct('&')) | Some(TokenKind::Lifetime) => k += 1,
            Some(TokenKind::Ident(id)) if id == "mut" => k += 1,
            Some(TokenKind::Ident(id)) if HASH_TYPES.contains(&id.as_str()) => return true,
            // descend into `Wrapper<…`
            Some(TokenKind::Ident(id))
                if TYPE_WRAPPERS.contains(&id.as_str())
                    && toks.get(k + 1).is_some_and(|t| t.kind.is_punct('<')) =>
            {
                k += 2;
            }
            // Path prefix `a::b::C` — skip over `seg ::`.
            Some(TokenKind::Ident(_))
                if toks.get(k + 1).is_some_and(|t| t.kind.is_punct(':'))
                    && toks.get(k + 2).is_some_and(|t| t.kind.is_punct(':')) =>
            {
                k += 3;
            }
            _ => return false,
        }
    }
}

/// Does the RHS starting at `rhs` construct a hash collection?
fn rhs_is_hashy(toks: &[crate::lexer::Token], rhs: usize) -> bool {
    let mut k = rhs;
    while let Some(t) = toks.get(k) {
        match &t.kind {
            TokenKind::Punct(';') => return false,
            TokenKind::Ident(id) if HASH_TYPES.contains(&id.as_str()) => return true,
            _ => {}
        }
        k += 1;
        if k > rhs + 25 {
            return false;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SourceFile;

    fn facts_of(src: &str) -> FileFacts {
        extract(&SourceFile::parse("crates/u1-x/src/lib.rs", src))
    }

    #[test]
    fn let_bound_guard_lives_to_block_end() {
        let src = r#"
fn f(&self) {
    let g = self.table.lock();
    step_one();
    step_two();
}
"#;
        let f = &facts_of(src).fns[0];
        assert_eq!(f.acquisitions.len(), 1);
        let a = &f.acquisitions[0];
        assert_eq!(a.lock, "u1-x/table");
        assert_eq!(a.guard_name.as_deref(), Some("g"));
        // Both calls fall inside the live range.
        for c in f.calls.iter().filter(|c| c.name.starts_with("step")) {
            assert!(
                (a.live_first..=a.live_last).contains(&c.tok),
                "{c:?} outside {a:?}"
            );
        }
    }

    #[test]
    fn temporary_guard_ends_at_statement() {
        let src = r#"
fn f(&self) {
    let n = self.table.lock().len();
    after();
}
"#;
        let f = &facts_of(src).fns[0];
        let a = &f.acquisitions[0];
        assert_eq!(a.guard_name, None, "chained `.len()` consumes the guard");
        let after = f.calls.iter().find(|c| c.name == "after").unwrap();
        assert!(!(a.live_first..=a.live_last).contains(&after.tok));
    }

    #[test]
    fn std_guard_chain_unwrap_and_question_mark_still_bind() {
        let src = r#"
fn f(&self) -> Result<(), E> {
    let g = self.table.lock().unwrap();
    let h = self.other.lock()?;
    touch();
    Ok(())
}
"#;
        let f = &facts_of(src).fns[0];
        assert_eq!(f.acquisitions.len(), 2);
        assert_eq!(f.acquisitions[0].guard_name.as_deref(), Some("g"));
        assert_eq!(f.acquisitions[1].guard_name.as_deref(), Some("h"));
        let touch = f.calls.iter().find(|c| c.name == "touch").unwrap();
        assert!((f.acquisitions[1].live_first..=f.acquisitions[1].live_last).contains(&touch.tok));
    }

    #[test]
    fn drop_truncates_live_range() {
        let src = r#"
fn f(&self) {
    let g = self.table.lock();
    early();
    drop(g);
    late();
}
"#;
        let f = &facts_of(src).fns[0];
        let a = &f.acquisitions[0];
        let early = f.calls.iter().find(|c| c.name == "early").unwrap();
        let late = f.calls.iter().find(|c| c.name == "late").unwrap();
        assert!((a.live_first..=a.live_last).contains(&early.tok));
        assert!(!(a.live_first..=a.live_last).contains(&late.tok));
    }

    #[test]
    fn nested_closure_is_inside_live_range() {
        let src = r#"
fn f(&self) {
    let g = self.outer.lock();
    items.for_each(|i| {
        let h = self.inner.lock();
    });
}
"#;
        let f = &facts_of(src).fns[0];
        assert_eq!(f.acquisitions.len(), 2);
        let (a, b) = (&f.acquisitions[0], &f.acquisitions[1]);
        assert!((a.live_first..=a.live_last).contains(&b.tok));
    }

    #[test]
    fn raw_ident_receiver_resolves() {
        let src = "fn f(&self) { let g = self.r#type.lock(); use_it(); }\n";
        let f = &facts_of(src).fns[0];
        assert_eq!(f.acquisitions[0].lock, "u1-x/type");
        assert_eq!(f.acquisitions[0].guard_name.as_deref(), Some("g"));
    }

    #[test]
    fn indexed_and_method_receivers_get_stable_ids() {
        let src = r#"
fn f(&self) {
    let a = self.stripes[i].lock();
    let b = self.shard(user).write();
    let c = self.faults.read();
}
"#;
        let locks: Vec<String> = facts_of(src).fns[0]
            .acquisitions
            .iter()
            .map(|a| a.lock.clone())
            .collect();
        assert_eq!(locks, vec!["u1-x/stripes[]", "u1-x/shard()", "u1-x/faults"]);
    }

    #[test]
    fn match_scrutinee_guard_covers_match_block() {
        let src = r#"
fn f(&self) {
    let down = match self.faults.lock() {
        Ok(g) => inspect(g),
        Err(p) => recover(p),
    };
    outside();
}
"#;
        let f = &facts_of(src).fns[0];
        let a = &f.acquisitions[0];
        let inspect = f.calls.iter().find(|c| c.name == "inspect").unwrap();
        let outside = f.calls.iter().find(|c| c.name == "outside").unwrap();
        assert!((a.live_first..=a.live_last).contains(&inspect.tok));
        assert!(!(a.live_first..=a.live_last).contains(&outside.tok));
    }

    #[test]
    fn for_scrutinee_temporary_lives_through_loop() {
        let src = r#"
fn f(&self) {
    for x in self.table.lock().iter() {
        body(x);
    }
}
"#;
        let f = &facts_of(src).fns[0];
        let a = &f.acquisitions[0];
        let body = f.calls.iter().find(|c| c.name == "body").unwrap();
        assert!((a.live_first..=a.live_last).contains(&body.tok));
    }

    #[test]
    fn blocking_sites_and_sinks_detected() {
        let src = r#"
fn f(&self) -> DriverReport {
    std::thread::sleep(d);
    handle.join();
    rx.recv();
    let f = File::open(path);
    w.write_all(buf);
    w.flush();
    report
}
"#;
        let f = &facts_of(src).fns[0];
        let whats: Vec<&str> = f.blocking.iter().map(|b| b.what).collect();
        assert_eq!(
            whats,
            vec![
                "thread::sleep",
                ".join()",
                ".recv()",
                "File open/create",
                "stream I/O",
                ".flush()"
            ]
        );
        assert!(f.sink_mark, "return type names DriverReport");
    }

    #[test]
    fn str_join_with_args_is_not_blocking() {
        let src = "fn f() { let s = parts.join(sep); }\n";
        assert!(facts_of(src).fns[0].blocking.is_empty());
    }

    #[test]
    fn hash_iteration_through_wrappers_and_guards() {
        let src = r#"
struct S { views: RwLock<HashMap<u32, Load>>, names: Vec<String> }
fn f(&self) {
    for v in self.views.read().values() { use_it(v); }
    let m = self.views.read();
    for (k, v) in m.iter() { use_it(v); }
    for n in self.names.iter() { use_it(n); }
}
"#;
        let f = &facts_of(src).fns[0];
        assert_eq!(f.hash_iters.len(), 2, "{:?}", f.hash_iters);
    }

    #[test]
    fn vec_of_hash_stripes_is_not_flagged_at_vec_level() {
        let src = r#"
struct S { shards: Vec<Mutex<HashMap<u64, Row>>> }
fn f(&self) {
    let n: usize = self.shards.iter().map(|s| s.lock().len()).sum();
}
"#;
        // `Vec<…>` iteration is deterministic; outermost-type resolution
        // must not mark `shards` hashy.
        assert!(facts_of(src).fns[0].hash_iters.is_empty());
    }

    #[test]
    fn bare_for_over_map_reference_is_flagged() {
        let src = r#"
fn f() {
    let mut m = HashMap::new();
    for (k, v) in &m { use_it(k, v); }
}
"#;
        let f = &facts_of(src).fns[0];
        assert_eq!(f.hash_iters.len(), 1);
    }

    #[test]
    fn entropy_sites_detected() {
        let src = r#"
fn f() {
    let t = SystemTime::now();
    let mut rng = thread_rng();
    let r2 = SmallRng::from_entropy();
    let fine = SmallRng::seed_from_u64(7);
}
"#;
        let whats: Vec<&str> = facts_of(src).fns[0]
            .entropy
            .iter()
            .map(|e| e.what)
            .collect();
        assert_eq!(
            whats,
            vec!["SystemTime::now", "thread_rng", "OS-entropy RNG seeding"]
        );
    }
}
