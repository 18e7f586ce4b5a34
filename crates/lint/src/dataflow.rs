//! The dataflow-lite layer: conservative intra-function taint tracking
//! over the [`crate::syntax`] tree.
//!
//! The model mechanizes the PR 8 review post-mortems:
//!
//! - **Sources.** A value decoded from untrusted bytes is *tainted*:
//!   `u32::from_le_bytes(...)`, `Buf`-style `get_u32_le()` reads,
//!   cursor reads named after their width (`c.u32("rows")`). A JSON
//!   number (`as_f64()`/`as_u64()`) is *float-tainted*; it becomes a
//!   tainted length the moment it is cast to an integer type (pure
//!   float statistics never trip the length rules).
//! - **Propagation.** Taint flows through `let` bindings, assignments,
//!   arithmetic, casts, `.max()`, method chains, tuple/array
//!   construction and container pushes. `.len()` of a materialized
//!   container is *clean* — the bytes were already paid for.
//! - **Clearing.** `checked_*`/`saturating_*`/`min`/`clamp` return
//!   clean values. A comparison guard whose block diverges (early
//!   `return`/`break`/panic) clears every variable mentioned in the
//!   comparison *and, transitively, the variables it was derived
//!   from* — so `if need != c.remaining() { return Err(...) }` clears
//!   `rows` and `count` when `need` was computed from them. Equality
//!   against a bare literal (`rows == 0`) clears nothing: it excludes
//!   one value, it does not bound the other 2^64.
//! - **Sinks.** `Vec::with_capacity(n)` / `vec![x; n]` /
//!   `reserve(n)` / `resize(n, …)` with a tainted `n`, slice indexing
//!   with a tainted index, and raw `*`/`+`/`<<` arithmetic on tainted
//!   operands each emit an event the rules turn into diagnostics.
//!
//! Everything is intra-function and flow-insensitive across branches
//! (both arms of an `if` are walked in order against one environment).
//! The bias is deliberate: unknown calls do *not* propagate taint and
//! opaque expressions are clean, so the analysis under-approximates —
//! a finding is worth reading, and the fixture suite plus the
//! self-host run keep the false-positive rate at zero on this
//! workspace.

use crate::source::SourceFile;
use crate::syntax::{Arm, Block, Expr, Stmt};
use std::collections::{BTreeMap, BTreeSet};

/// What kind of sink an event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A tainted length reached an allocation sink
    /// (`with_capacity` / `vec![x; n]` / `reserve` / `resize`).
    Alloc,
    /// A tainted index reached a slice/array indexing site.
    Index,
    /// Raw `*`, `+` or `<<` (or their compound-assign forms) on a
    /// tainted operand.
    Arith,
}

/// One sink hit, anchored at a token.
#[derive(Debug, Clone)]
pub struct Event {
    /// Which sink fired.
    pub kind: EventKind,
    /// Token index to anchor the diagnostic at.
    pub tok: usize,
    /// Short description of the sink (`Vec::with_capacity`, `*`, …).
    pub what: String,
}

/// Runs the taint analysis over every function in `file`, returning
/// all sink events in source order.
pub fn analyze(file: &SourceFile) -> Vec<Event> {
    let syntax = file.syntax();
    let mut events = Vec::new();
    for f in &syntax.fns {
        if let Some(body) = &f.body {
            let mut ctx = Ctx {
                vars: BTreeMap::new(),
                events: &mut events,
            };
            ctx.walk_block(body);
        }
    }
    events.sort_by_key(|e| e.tok);
    events
}

/// What the analysis knows about one evaluated expression.
#[derive(Debug, Default, Clone)]
struct Eval {
    /// Carries a length decoded from untrusted input.
    tainted: bool,
    /// Carries an untrusted JSON/float number (taints on int cast).
    float: bool,
    /// Local variables this value was computed from (guard clearing
    /// follows these edges backwards).
    mentions: BTreeSet<String>,
}

impl Eval {
    fn clean() -> Eval {
        Eval::default()
    }

    fn join(mut self, other: Eval) -> Eval {
        self.tainted |= other.tainted;
        self.float |= other.float;
        self.mentions.extend(other.mentions);
        self
    }
}

/// Per-variable state.
#[derive(Debug, Default, Clone)]
struct VarState {
    tainted: bool,
    float: bool,
    /// Variables the current value was derived from (recorded even for
    /// clean values: `checked_mul` launders taint but a guard on its
    /// result still vouches for the inputs).
    origins: BTreeSet<String>,
}

struct Ctx<'a> {
    vars: BTreeMap<String, VarState>,
    events: &'a mut Vec<Event>,
}

/// Method names that read integers out of an untrusted byte stream.
fn is_byte_read(name: &str) -> bool {
    // Little-endian cursor reads (`cn_tensor::io`'s private reader):
    // get_u8 / get_u32_le / get_f32_le / …
    if let Some(rest) = name.strip_prefix("get_") {
        let rest = rest
            .strip_suffix("_le")
            .or_else(|| rest.strip_suffix("_be"))
            .unwrap_or(rest);
        let mut chars = rest.chars();
        return matches!(chars.next(), Some('u' | 'i' | 'f'))
            && chars.as_str().parse::<u32>().is_ok();
    }
    // Width-named cursor reads: `c.u32("rows")`, `c.u64("len")`.
    matches!(name, "u8" | "u16" | "u32" | "u64" | "u128" | "usize")
}

/// Associated functions that decode integers from raw bytes.
fn is_bytes_decode(name: &str) -> bool {
    matches!(name, "from_le_bytes" | "from_be_bytes" | "from_ne_bytes")
}

/// Methods whose result is a bounded/clean value.
fn is_clearing_method(name: &str) -> bool {
    name.starts_with("checked_")
        || name.starts_with("saturating_")
        || name.starts_with("wrapping_")
        || name.starts_with("overflowing_")
        || matches!(name, "min" | "clamp" | "rem_euclid")
}

/// Methods that measure something already materialized (paying for the
/// bytes happened earlier, so the result is a trusted length).
fn is_measure_method(name: &str) -> bool {
    matches!(
        name,
        "len" | "capacity" | "remaining" | "count" | "is_empty"
    )
}

/// Integer types whose cast target turns a float-tainted JSON number
/// into a tainted length.
fn is_int_type(ty: &str) -> bool {
    matches!(
        ty,
        "u8" | "u16"
            | "u32"
            | "u64"
            | "u128"
            | "usize"
            | "i8"
            | "i16"
            | "i32"
            | "i64"
            | "i128"
            | "isize"
    )
}

impl<'a> Ctx<'a> {
    fn walk_block(&mut self, b: &Block) {
        for stmt in &b.stmts {
            match stmt {
                Stmt::Let { binds, init } => {
                    let ev = match init {
                        Some(e) => self.eval(e),
                        None => Eval::clean(),
                    };
                    for name in binds {
                        self.vars.insert(
                            name.clone(),
                            VarState {
                                tainted: ev.tainted,
                                float: ev.float,
                                origins: ev.mentions.clone(),
                            },
                        );
                    }
                }
                Stmt::Expr(e) => {
                    let _ = self.eval(e);
                }
            }
        }
    }

    /// Evaluates an expression: emits sink events found inside it and
    /// returns its taint summary.
    fn eval(&mut self, e: &Expr) -> Eval {
        match e {
            Expr::Path { segs, .. } => {
                if segs.len() == 1 {
                    let name = &segs[0];
                    let mut ev = Eval::clean();
                    ev.mentions.insert(name.clone());
                    if let Some(v) = self.vars.get(name) {
                        ev.tainted = v.tainted;
                        ev.float = v.float;
                    }
                    ev
                } else {
                    Eval::clean()
                }
            }
            Expr::Lit { .. } | Expr::Opaque { .. } => Eval::clean(),
            Expr::Tuple { items }
            | Expr::Array { items, .. }
            | Expr::StructLit { fields: items } => items
                .iter()
                .map(|x| self.eval(x))
                .fold(Eval::clean(), Eval::join),
            Expr::Call { callee, args } => self.eval_call(callee, args),
            Expr::Method {
                recv,
                name,
                name_tok,
                args,
            } => self.eval_method(recv, name, *name_tok, args),
            Expr::Field { recv, name } => {
                // `self.at`-style fields are tracked as flat keys.
                if let Some(key) = field_key(recv, name) {
                    let mut ev = Eval::clean();
                    ev.mentions.insert(key.clone());
                    if let Some(v) = self.vars.get(&key) {
                        ev.tainted = v.tainted;
                        ev.float = v.float;
                    }
                    ev
                } else {
                    self.eval(recv)
                }
            }
            Expr::Index { recv, index, tok } => {
                let r = self.eval(recv);
                let idx = self.eval(index);
                if idx.tainted {
                    self.events.push(Event {
                        kind: EventKind::Index,
                        tok: *tok,
                        what: "slice index".to_string(),
                    });
                }
                // An element of a tainted container is tainted.
                r.join(idx)
            }
            Expr::MacroCall {
                name,
                name_tok,
                args,
                repeat,
            } => self.eval_macro(name, *name_tok, args, *repeat),
            Expr::Binary {
                op,
                op_tok,
                lhs,
                rhs,
            } => self.eval_binary(op, *op_tok, lhs, rhs),
            Expr::Unary { expr } | Expr::Ref { expr } | Expr::Try { expr } => self.eval(expr),
            Expr::Cast { expr, ty } => {
                let inner = self.eval(expr);
                let mut ev = inner.clone();
                if is_int_type(ty) {
                    ev.tainted = inner.tainted || inner.float;
                    ev.float = false;
                }
                ev
            }
            Expr::Closure { params, body } => {
                // Params shadow; evaluate the body for sinks on captured
                // variables, then restore the shadowed states.
                let saved: Vec<(String, Option<VarState>)> = params
                    .iter()
                    .map(|p| (p.clone(), self.vars.remove(p)))
                    .collect();
                let ev = self.eval(body);
                for (name, state) in saved {
                    match state {
                        Some(s) => {
                            self.vars.insert(name, s);
                        }
                        None => {
                            self.vars.remove(&name);
                        }
                    }
                }
                ev
            }
            Expr::If { cond, then, els } => {
                let cond_ev = self.eval(cond);
                if let Expr::LetCond { binds, expr } = cond.as_ref() {
                    let scrut = self.eval(expr);
                    self.bind_all(binds, &scrut);
                }
                self.walk_block(then);
                let mut out = Eval::clean();
                if let Some(e) = els {
                    out = self.eval(e);
                }
                // Apply guard clearing to the code *after* the if.
                if block_diverges(then) {
                    self.clear_guarded(cond);
                }
                out.mentions.extend(cond_ev.mentions);
                out
            }
            Expr::LetCond { binds, expr } => {
                let scrut = self.eval(expr);
                self.bind_all(binds, &scrut);
                Eval::clean()
            }
            Expr::Match { head, arms } => {
                let h = self.eval(head);
                let mut out = Eval::clean();
                for Arm { binds, body } in arms {
                    self.bind_all(binds, &h);
                    out = out.join(self.eval(body));
                }
                out
            }
            Expr::Loop {
                binds, head, body, ..
            } => {
                if let Some(h) = head {
                    let hv = self.eval(h);
                    if let Expr::LetCond { binds: lb, expr } = h.as_ref() {
                        let scrut = self.eval(expr);
                        self.bind_all(lb, &scrut);
                    }
                    // `for` patterns bind elements of the iterated value.
                    self.bind_all(binds, &hv);
                }
                self.walk_block(body);
                Eval::clean()
            }
            Expr::Return { value } | Expr::Jump { value } => {
                if let Some(v) = value {
                    let _ = self.eval(v);
                }
                Eval::clean()
            }
            Expr::Block(b) => {
                self.walk_block(b);
                // The block's value is its trailing expression's; the
                // walk above evaluated it, so re-derive cheaply from the
                // last statement's shape.
                match b.stmts.last() {
                    Some(Stmt::Expr(e)) => self.summarize(e),
                    _ => Eval::clean(),
                }
            }
        }
    }

    /// Taint summary of an already-walked expression, without emitting
    /// events again. Only binding-level lookups matter here.
    fn summarize(&mut self, e: &Expr) -> Eval {
        match e {
            Expr::Path { segs, .. } if segs.len() == 1 => {
                let mut ev = Eval::clean();
                ev.mentions.insert(segs[0].clone());
                if let Some(v) = self.vars.get(&segs[0]) {
                    ev.tainted = v.tainted;
                    ev.float = v.float;
                }
                ev
            }
            _ => Eval::clean(),
        }
    }

    fn bind_all(&mut self, binds: &[String], ev: &Eval) {
        for name in binds {
            self.vars.insert(
                name.clone(),
                VarState {
                    tainted: ev.tainted,
                    float: ev.float,
                    origins: ev.mentions.clone(),
                },
            );
        }
    }

    fn eval_call(&mut self, callee: &Expr, args: &[Expr]) -> Eval {
        let arg_evs: Vec<Eval> = args.iter().map(|a| self.eval(a)).collect();
        let joined = arg_evs.iter().cloned().fold(Eval::clean(), Eval::join);
        let (last, last_tok) = match callee {
            Expr::Path { segs, last_tok, .. } => {
                (segs.last().map(String::as_str).unwrap_or(""), *last_tok)
            }
            _ => {
                let _ = self.eval(callee);
                ("", 0)
            }
        };
        if is_bytes_decode(last) {
            let mut ev = joined;
            ev.tainted = true;
            return ev;
        }
        if last == "with_capacity" {
            if let Some(first) = arg_evs.first() {
                if first.tainted {
                    self.events.push(Event {
                        kind: EventKind::Alloc,
                        tok: last_tok,
                        what: "with_capacity".to_string(),
                    });
                }
            }
            return Eval {
                tainted: false,
                float: false,
                mentions: joined.mentions,
            };
        }
        // Conversions propagate; unknown free functions do not (the
        // false-positive dial: an unmodelled helper is assumed to
        // validate its inputs).
        if matches!(last, "from" | "try_from" | "usize" | "u64" | "u32") {
            return joined;
        }
        Eval {
            tainted: false,
            float: false,
            mentions: joined.mentions,
        }
    }

    fn eval_method(&mut self, recv: &Expr, name: &str, name_tok: usize, args: &[Expr]) -> Eval {
        let recv_ev = self.eval(recv);
        let arg_evs: Vec<Eval> = args.iter().map(|a| self.eval(a)).collect();
        let args_joined = arg_evs.iter().cloned().fold(Eval::clean(), Eval::join);
        let mut mentions = recv_ev.mentions.clone();
        mentions.extend(args_joined.mentions.clone());

        if is_byte_read(name) {
            return Eval {
                tainted: true,
                float: name.contains('f') && name.starts_with("get_"),
                mentions,
            };
        }
        if matches!(name, "as_f64") {
            return Eval {
                tainted: false,
                float: true,
                mentions,
            };
        }
        if matches!(name, "as_u64" | "as_i64" | "as_usize") {
            return Eval {
                tainted: true,
                float: false,
                mentions,
            };
        }
        if is_clearing_method(name) || is_measure_method(name) {
            return Eval {
                tainted: false,
                float: false,
                mentions,
            };
        }
        if matches!(name, "reserve" | "reserve_exact" | "resize" | "resize_with") {
            if arg_evs.first().map(|a| a.tainted).unwrap_or(false) {
                self.events.push(Event {
                    kind: EventKind::Alloc,
                    tok: name_tok,
                    what: name.to_string(),
                });
            }
            return Eval::clean();
        }
        if matches!(
            name,
            "push" | "insert" | "extend" | "extend_from_slice" | "push_str" | "append"
        ) {
            // Pushing a tainted value taints the container variable.
            if args_joined.tainted {
                if let Some(key) = receiver_key(recv) {
                    let entry = self.vars.entry(key).or_default();
                    entry.tainted = true;
                    entry.origins.extend(args_joined.mentions.clone());
                }
            }
            return Eval::clean();
        }
        // Default: method results inherit receiver and argument taint
        // (`dims.iter().product()`, `.max(1)`, `.ok_or(...)?`).
        Eval {
            tainted: recv_ev.tainted || args_joined.tainted,
            float: recv_ev.float || args_joined.float,
            mentions,
        }
    }

    fn eval_macro(&mut self, name: &str, name_tok: usize, args: &[Expr], repeat: bool) -> Eval {
        let arg_evs: Vec<Eval> = args.iter().map(|a| self.eval(a)).collect();
        let joined = arg_evs.iter().cloned().fold(Eval::clean(), Eval::join);
        if name == "vec" && repeat && arg_evs.len() == 2 && arg_evs[1].tainted {
            self.events.push(Event {
                kind: EventKind::Alloc,
                tok: name_tok,
                what: "vec![_; n]".to_string(),
            });
        }
        if name.starts_with("assert") || name.starts_with("debug_assert") {
            // `assert!(n <= cap)` bounds like a diverging guard.
            for a in args {
                self.clear_guarded(a);
            }
            return Eval::clean();
        }
        joined
    }

    fn eval_binary(&mut self, op: &str, op_tok: usize, lhs: &Expr, rhs: &Expr) -> Eval {
        let l = self.eval(lhs);
        let r = self.eval(rhs);
        // Compound assignment and plain assignment write through.
        if op == "="
            || op.len() == 2 && op.ends_with('=') && !matches!(op, "==" | "!=" | "<=" | ">=")
            || matches!(op, "<<=" | ">>=")
        {
            if matches!(op, "*=" | "+=" | "<<=") && (l.tainted || r.tainted) {
                self.events.push(Event {
                    kind: EventKind::Arith,
                    tok: op_tok,
                    what: op.to_string(),
                });
            }
            let new_taint = if op == "=" {
                r.clone()
            } else {
                l.clone().join(r.clone())
            };
            if let Some(key) = assign_target_key(lhs) {
                self.vars.insert(
                    key,
                    VarState {
                        tainted: new_taint.tainted,
                        float: new_taint.float,
                        origins: new_taint.mentions.clone(),
                    },
                );
            }
            return Eval::clean();
        }
        if matches!(op, "==" | "!=" | "<" | "<=" | ">" | ">=" | "&&" | "||") {
            // Comparisons produce booleans; mentions survive for guard
            // clearing.
            return Eval {
                tainted: false,
                float: false,
                mentions: l.mentions.into_iter().chain(r.mentions).collect(),
            };
        }
        if matches!(op, "*" | "+" | "<<") && (l.tainted || r.tainted) {
            self.events.push(Event {
                kind: EventKind::Arith,
                tok: op_tok,
                what: op.to_string(),
            });
        }
        l.join(r)
    }

    /// Clears every variable vouched for by a bounding comparison in
    /// `cond`, transitively through recorded derivation origins.
    fn clear_guarded(&mut self, cond: &Expr) {
        let mut names = BTreeSet::new();
        collect_bounding_mentions(cond, &mut names);
        let mut queue: Vec<String> = names.into_iter().collect();
        let mut seen = BTreeSet::new();
        while let Some(name) = queue.pop() {
            if !seen.insert(name.clone()) {
                continue;
            }
            if let Some(v) = self.vars.get_mut(&name) {
                v.tainted = false;
                v.float = false;
                for origin in v.origins.clone() {
                    queue.push(origin);
                }
            }
        }
    }
}

/// Key for a `self.field` / `x.field` receiver or assignment target.
fn field_key(recv: &Expr, name: &str) -> Option<String> {
    match recv {
        Expr::Path { segs, .. } if segs.len() == 1 => Some(format!("{}.{}", segs[0], name)),
        _ => None,
    }
}

/// The variable key a method receiver refers to, if it is a simple
/// local or `x.field` place.
fn receiver_key(recv: &Expr) -> Option<String> {
    match recv {
        Expr::Path { segs, .. } if segs.len() == 1 => Some(segs[0].clone()),
        Expr::Field { recv, name } => field_key(recv, name),
        Expr::Ref { expr } | Expr::Unary { expr } => receiver_key(expr),
        _ => None,
    }
}

/// The variable key an assignment writes, if it is a simple place.
fn assign_target_key(lhs: &Expr) -> Option<String> {
    receiver_key(lhs)
}

/// Whether a block's top level diverges: `return`, `break`, `continue`
/// or a panicking macro.
fn block_diverges(b: &Block) -> bool {
    b.stmts.iter().any(|s| match s {
        Stmt::Expr(Expr::Return { .. }) | Stmt::Expr(Expr::Jump { .. }) => true,
        Stmt::Expr(Expr::MacroCall { name, .. }) => {
            matches!(
                name.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented" | "bail"
            )
        }
        _ => false,
    })
}

/// Collects variables mentioned in *bounding* comparisons inside a
/// guard condition: any relational comparison, or an equality whose
/// sides are not bare literals (`need != c.remaining()` bounds `need`;
/// `rows == 0` bounds nothing).
fn collect_bounding_mentions(cond: &Expr, out: &mut BTreeSet<String>) {
    match cond {
        Expr::Binary { op, lhs, rhs, .. } => match *op {
            "<" | "<=" | ">" | ">=" => {
                collect_mentions(lhs, out);
                collect_mentions(rhs, out);
            }
            "==" | "!=" if !is_literal(lhs) && !is_literal(rhs) => {
                collect_mentions(lhs, out);
                collect_mentions(rhs, out);
            }
            "&&" | "||" => {
                collect_bounding_mentions(lhs, out);
                collect_bounding_mentions(rhs, out);
            }
            _ => {}
        },
        Expr::Unary { expr } => collect_bounding_mentions(expr, out),
        // A method-call condition (`x.is_empty()`) bounds nothing.
        _ => {}
    }
}

/// All simple variable names syntactically inside `e`.
fn collect_mentions(e: &Expr, out: &mut BTreeSet<String>) {
    crate::syntax::visit(e, &mut |x| match x {
        Expr::Path { segs, .. } if segs.len() == 1 => {
            out.insert(segs[0].clone());
        }
        Expr::Field { recv, name } => {
            if let Some(key) = field_key(recv, name) {
                out.insert(key);
            }
        }
        _ => {}
    });
}

fn is_literal(e: &Expr) -> bool {
    matches!(e, Expr::Lit { .. } | Expr::Unary { .. })
        && match e {
            Expr::Unary { expr } => is_literal(expr),
            _ => true,
        }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events_for(src: &str) -> Vec<Event> {
        let file = SourceFile::parse("crates/net/src/fake.rs", src);
        analyze(&file)
    }

    fn kinds(src: &str) -> Vec<EventKind> {
        events_for(src).iter().map(|e| e.kind).collect()
    }

    #[test]
    fn decoded_length_reaching_with_capacity_fires() {
        let src = "fn decode(b: &[u8]) {\n\
                   let rows = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize;\n\
                   let v: Vec<f32> = Vec::with_capacity(rows);\n\
                   }\n";
        assert_eq!(kinds(src), [EventKind::Alloc]);
    }

    #[test]
    fn taint_propagates_through_arithmetic_and_bindings() {
        let src = "fn f(c: &mut Cursor) {\n\
                   let n = c.u32(\"n\")? as usize;\n\
                   let m = n + 8;\n\
                   let v = vec![0u8; m];\n\
                   }\n";
        // The `+` itself and the vec! sink both fire.
        assert_eq!(kinds(src), [EventKind::Arith, EventKind::Alloc]);
    }

    #[test]
    fn get_u32_le_is_a_source_and_reserve_a_sink() {
        let src = "fn f(buf: &mut B, out: &mut Vec<u8>) {\n\
                   let len = buf.get_u32_le() as usize;\n\
                   out.reserve(len);\n\
                   }\n";
        assert_eq!(kinds(src), [EventKind::Alloc]);
    }

    /// The `cn_tensor::io` shape: a private `Reader<'_>` cursor over a
    /// byte slice, read through `get_*_le` methods.
    #[test]
    fn slice_reader_reads_are_sources_and_remaining_guard_clears() {
        let unguarded = "fn read(buf: &mut Reader<'_>) -> Result<Tensor> {\n\
                         let count = buf.get_u32_le() as usize;\n\
                         let mut data = Vec::with_capacity(count);\n\
                         Ok(t)\n\
                         }\n";
        assert_eq!(kinds(unguarded), [EventKind::Alloc]);
        let guarded = "fn read(buf: &mut Reader<'_>) -> Result<Tensor> {\n\
                       let count = buf.get_u32_le() as usize;\n\
                       let need = count.checked_mul(4).ok_or_else(|| bad())?;\n\
                       if buf.remaining() < need { return Err(bad()); }\n\
                       let mut data = Vec::with_capacity(count);\n\
                       Ok(t)\n\
                       }\n";
        assert!(kinds(guarded).is_empty(), "{:?}", events_for(guarded));
    }

    #[test]
    fn diverging_comparison_guard_clears() {
        let src = "fn f(b: &mut B) {\n\
                   let n = b.get_u64_le() as usize;\n\
                   if n > MAX { return; }\n\
                   let v = Vec::with_capacity(n);\n\
                   }\n";
        assert!(kinds(src).is_empty());
    }

    #[test]
    fn equality_against_literal_zero_does_not_clear() {
        let src = "fn f(b: &mut B) {\n\
                   let n = b.get_u64_le() as usize;\n\
                   if n == 0 { return; }\n\
                   let v = Vec::with_capacity(n);\n\
                   }\n";
        assert_eq!(kinds(src), [EventKind::Alloc]);
    }

    #[test]
    fn checked_chain_guard_clears_transitively() {
        // The PR 8 frame.rs shape: the guard compares `need`, which was
        // derived from rows/count via checked ops; all three clear.
        let src = "fn f(c: &mut Cursor) -> Result<(), E> {\n\
                   let rows = c.u32(\"rows\")? as usize;\n\
                   let count = c.u32(\"count\")? as usize;\n\
                   let need = rows.checked_add(count).and_then(|w| w.checked_mul(4)).ok_or(bad())?;\n\
                   if need != c.remaining() { return Err(bad()); }\n\
                   let classes = Vec::with_capacity(rows);\n\
                   let vals = Vec::with_capacity(count);\n\
                   Ok(())\n\
                   }\n";
        assert!(kinds(src).is_empty(), "{:?}", events_for(src));
    }

    #[test]
    fn unchecked_multiply_on_decoded_length_fires() {
        let src = "fn f(c: &mut Cursor) -> Result<(), E> {\n\
                   let n = c.u64(\"n\")? as usize;\n\
                   if n * 4 > c.remaining() { return Err(bad()); }\n\
                   Ok(())\n\
                   }\n";
        assert_eq!(kinds(src), [EventKind::Arith]);
    }

    #[test]
    fn checked_mul_produces_clean_value_without_clearing_inputs() {
        // checked_mul bounds nothing about `n` itself: without a
        // comparison guard the allocation still fires.
        let src = "fn f(b: &mut B) {\n\
                   let n = b.get_u32_le() as usize;\n\
                   let bytes = n.checked_mul(4).unwrap();\n\
                   let v = Vec::with_capacity(n);\n\
                   }\n";
        assert_eq!(kinds(src), [EventKind::Alloc]);
    }

    #[test]
    fn len_of_materialized_container_is_clean() {
        let src = "fn f(items: &[Item]) {\n\
                   let v = Vec::with_capacity(items.len());\n\
                   }\n";
        assert!(kinds(src).is_empty());
    }

    #[test]
    fn container_push_taints_container_product() {
        let src = "fn f(b: &mut B) {\n\
                   let mut dims = Vec::new();\n\
                   let d = b.get_u64_le() as usize;\n\
                   dims.push(d);\n\
                   let count = dims.iter().product::<usize>();\n\
                   let v = Vec::with_capacity(count);\n\
                   }\n";
        assert_eq!(kinds(src), [EventKind::Alloc]);
    }

    #[test]
    fn tainted_slice_index_fires() {
        let src = "fn f(b: &mut B, data: &[f32]) {\n\
                   let at = b.get_u32_le() as usize;\n\
                   let x = data[at];\n\
                   }\n";
        assert_eq!(kinds(src), [EventKind::Index]);
    }

    #[test]
    fn json_float_taints_only_after_integer_cast() {
        let pure_float = "fn f(v: &Value) {\n\
                          let mean = v.as_f64().unwrap();\n\
                          let scaled = mean * 2.0;\n\
                          }\n";
        assert!(kinds(pure_float).is_empty());
        let as_len = "fn f(v: &Value) {\n\
                      let n = v.as_f64().unwrap() as usize;\n\
                      let buf = Vec::with_capacity(n);\n\
                      }\n";
        assert_eq!(kinds(as_len), [EventKind::Alloc]);
    }

    #[test]
    fn relational_guard_on_float_clears_before_cast() {
        // The cn-bench req_u64 shape: fract/negative checks vouch for
        // the number before the cast.
        let src = "fn f(v: &Value) -> Result<u64, E> {\n\
                   let num = v.as_f64().ok_or(bad())?;\n\
                   if num < 0.0 || num.fract() != 0.0 { return Err(bad()); }\n\
                   Ok(num as u64)\n\
                   }\n";
        assert!(kinds(src).is_empty());
    }

    #[test]
    fn assert_bounds_like_a_guard() {
        let src = "fn f(b: &mut B, cap: usize) {\n\
                   let n = b.get_u32_le() as usize;\n\
                   assert!(n <= cap);\n\
                   let v = Vec::with_capacity(n);\n\
                   }\n";
        assert!(kinds(src).is_empty());
    }

    #[test]
    fn sink_inside_closure_sees_captured_taint() {
        let src = "fn f(b: &mut B) {\n\
                   let n = b.get_u32_le() as usize;\n\
                   let make = || Vec::with_capacity(n);\n\
                   }\n";
        assert_eq!(kinds(src), [EventKind::Alloc]);
    }

    #[test]
    fn saturating_mul_result_is_clean() {
        let src = "fn f(b: &mut B) {\n\
                   let d = b.get_u64_le() as usize;\n\
                   let mut numel = 1usize;\n\
                   numel = numel.saturating_mul(d.max(1));\n\
                   let v = Vec::with_capacity(numel);\n\
                   }\n";
        assert!(kinds(src).is_empty());
    }

    #[test]
    fn compound_assign_multiply_fires() {
        let src = "fn f(b: &mut B) {\n\
                   let mut len = b.get_u32_le() as usize;\n\
                   len *= 4;\n\
                   }\n";
        assert_eq!(kinds(src), [EventKind::Arith]);
    }
}
