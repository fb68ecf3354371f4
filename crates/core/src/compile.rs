//! Compiler: AST → bytecode.
//!
//! Three stages:
//!
//! 1. **Assignment conversion** — variables that are both mutated (`set!`)
//!    and captured by a nested lambda are rewritten into one-element vectors
//!    (heap boxes), so flat-closure capture-by-value preserves sharing.
//! 2. **Closure conversion** — lexical references resolve to local slots,
//!    transitive capture chains (upvalues), or global slots.
//! 3. **Code generation** — a straightforward stack-machine translation.

use crate::ast::{is_primitive, primitive_arity, Expr, Program};
use crate::bytecode::{Bytecode, CaptureSrc, Function, Instr};
use crate::diag::{BitcError, Result};
use std::collections::{HashMap, HashSet};

// ---------------------------------------------------------------------------
// Assignment conversion
// ---------------------------------------------------------------------------

fn collect_mutated(e: &Expr, out: &mut HashSet<String>) {
    match e {
        Expr::SetBang(x, v) => {
            out.insert(x.clone());
            collect_mutated(v, out);
        }
        Expr::If(a, b, c) => {
            collect_mutated(a, out);
            collect_mutated(b, out);
            collect_mutated(c, out);
        }
        Expr::Let(binds, body) => {
            for (_, b) in binds {
                collect_mutated(b, out);
            }
            collect_mutated(body, out);
        }
        Expr::Lambda(_, body) => collect_mutated(body, out),
        Expr::Apply(h, args) => {
            collect_mutated(h, out);
            for a in args {
                collect_mutated(a, out);
            }
        }
        Expr::Begin(es) | Expr::While(_, es) => {
            if let Expr::While(c, _) = e {
                collect_mutated(c, out);
            }
            for x in es {
                collect_mutated(x, out);
            }
        }
        Expr::MakeVector(a, b) | Expr::VectorRef(a, b) => {
            collect_mutated(a, out);
            collect_mutated(b, out);
        }
        Expr::VectorSet(a, b, c) => {
            collect_mutated(a, out);
            collect_mutated(b, out);
            collect_mutated(c, out);
        }
        Expr::VectorLen(v) => collect_mutated(v, out),
        Expr::Int(_) | Expr::Bool(_) | Expr::Unit | Expr::Var(_) => {}
    }
}

fn free_vars(e: &Expr, bound: &mut Vec<String>, out: &mut HashSet<String>) {
    match e {
        Expr::Var(x) => {
            if !bound.contains(x) && !is_primitive(x) {
                out.insert(x.clone());
            }
        }
        Expr::SetBang(x, v) => {
            if !bound.contains(x) {
                out.insert(x.clone());
            }
            free_vars(v, bound, out);
        }
        Expr::If(a, b, c) => {
            free_vars(a, bound, out);
            free_vars(b, bound, out);
            free_vars(c, bound, out);
        }
        Expr::Let(binds, body) => {
            for (_, b) in binds {
                free_vars(b, bound, out);
            }
            let n = binds.len();
            for (x, _) in binds {
                bound.push(x.clone());
            }
            free_vars(body, bound, out);
            bound.truncate(bound.len() - n);
        }
        Expr::Lambda(params, body) => {
            let n = params.len();
            for p in params {
                bound.push(p.clone());
            }
            free_vars(body, bound, out);
            bound.truncate(bound.len() - n);
        }
        Expr::Apply(h, args) => {
            free_vars(h, bound, out);
            for a in args {
                free_vars(a, bound, out);
            }
        }
        Expr::Begin(es) => {
            for x in es {
                free_vars(x, bound, out);
            }
        }
        Expr::While(c, es) => {
            free_vars(c, bound, out);
            for x in es {
                free_vars(x, bound, out);
            }
        }
        Expr::MakeVector(a, b) | Expr::VectorRef(a, b) => {
            free_vars(a, bound, out);
            free_vars(b, bound, out);
        }
        Expr::VectorSet(a, b, c) => {
            free_vars(a, bound, out);
            free_vars(b, bound, out);
            free_vars(c, bound, out);
        }
        Expr::VectorLen(v) => free_vars(v, bound, out),
        Expr::Int(_) | Expr::Bool(_) | Expr::Unit => {}
    }
}

fn collect_captured(e: &Expr, out: &mut HashSet<String>) {
    match e {
        Expr::Lambda(_, body) => {
            let mut bound = Vec::new();
            // Free variables of the whole lambda are captured names.
            free_vars(e, &mut bound, out);
            collect_captured(body, out);
        }
        Expr::If(a, b, c) => {
            collect_captured(a, out);
            collect_captured(b, out);
            collect_captured(c, out);
        }
        Expr::Let(binds, body) => {
            for (_, b) in binds {
                collect_captured(b, out);
            }
            collect_captured(body, out);
        }
        Expr::Apply(h, args) => {
            collect_captured(h, out);
            for a in args {
                collect_captured(a, out);
            }
        }
        Expr::Begin(es) => {
            for x in es {
                collect_captured(x, out);
            }
        }
        Expr::While(c, es) => {
            collect_captured(c, out);
            for x in es {
                collect_captured(x, out);
            }
        }
        Expr::SetBang(_, v) => collect_captured(v, out),
        Expr::MakeVector(a, b) | Expr::VectorRef(a, b) => {
            collect_captured(a, out);
            collect_captured(b, out);
        }
        Expr::VectorSet(a, b, c) => {
            collect_captured(a, out);
            collect_captured(b, out);
            collect_captured(c, out);
        }
        Expr::VectorLen(v) => collect_captured(v, out),
        Expr::Int(_) | Expr::Bool(_) | Expr::Unit | Expr::Var(_) => {}
    }
}

fn box_expr(e: Expr) -> Expr {
    Expr::MakeVector(Box::new(Expr::Int(1)), Box::new(e))
}

fn rewrite(e: &Expr, boxed: &HashSet<String>) -> Expr {
    match e {
        Expr::Var(x) if boxed.contains(x) => {
            Expr::VectorRef(Box::new(Expr::Var(x.clone())), Box::new(Expr::Int(0)))
        }
        Expr::SetBang(x, v) if boxed.contains(x) => Expr::VectorSet(
            Box::new(Expr::Var(x.clone())),
            Box::new(Expr::Int(0)),
            Box::new(rewrite(v, boxed)),
        ),
        Expr::SetBang(x, v) => Expr::SetBang(x.clone(), Box::new(rewrite(v, boxed))),
        Expr::Let(binds, body) => Expr::Let(
            binds
                .iter()
                .map(|(x, b)| {
                    let rb = rewrite(b, boxed);
                    if boxed.contains(x) {
                        (x.clone(), box_expr(rb))
                    } else {
                        (x.clone(), rb)
                    }
                })
                .collect(),
            Box::new(rewrite(body, boxed)),
        ),
        Expr::Lambda(params, body) => {
            let new_body = rewrite(body, boxed);
            // Boxed parameters get re-bound to boxes on entry.
            let boxed_params: Vec<&String> = params.iter().filter(|p| boxed.contains(*p)).collect();
            let body = if boxed_params.is_empty() {
                new_body
            } else {
                Expr::Let(
                    boxed_params
                        .iter()
                        .map(|p| ((*p).clone(), box_expr(Expr::Var((*p).clone()))))
                        .collect(),
                    Box::new(new_body),
                )
            };
            Expr::Lambda(params.clone(), Box::new(body))
        }
        Expr::If(a, b, c) => Expr::If(
            Box::new(rewrite(a, boxed)),
            Box::new(rewrite(b, boxed)),
            Box::new(rewrite(c, boxed)),
        ),
        Expr::Apply(h, args) => Expr::Apply(
            Box::new(rewrite(h, boxed)),
            args.iter().map(|a| rewrite(a, boxed)).collect(),
        ),
        Expr::Begin(es) => Expr::Begin(es.iter().map(|x| rewrite(x, boxed)).collect()),
        Expr::While(c, es) => Expr::While(
            Box::new(rewrite(c, boxed)),
            es.iter().map(|x| rewrite(x, boxed)).collect(),
        ),
        Expr::MakeVector(a, b) => {
            Expr::MakeVector(Box::new(rewrite(a, boxed)), Box::new(rewrite(b, boxed)))
        }
        Expr::VectorRef(a, b) => {
            Expr::VectorRef(Box::new(rewrite(a, boxed)), Box::new(rewrite(b, boxed)))
        }
        Expr::VectorSet(a, b, c) => Expr::VectorSet(
            Box::new(rewrite(a, boxed)),
            Box::new(rewrite(b, boxed)),
            Box::new(rewrite(c, boxed)),
        ),
        Expr::VectorLen(v) => Expr::VectorLen(Box::new(rewrite(v, boxed))),
        other => other.clone(),
    }
}

/// Rewrites mutated-and-captured variables into heap boxes.
#[must_use]
pub fn assignment_convert(e: &Expr) -> Expr {
    let mut mutated = HashSet::new();
    collect_mutated(e, &mut mutated);
    let mut captured = HashSet::new();
    collect_captured(e, &mut captured);
    let boxed: HashSet<String> = mutated.intersection(&captured).cloned().collect();
    if boxed.is_empty() {
        e.clone()
    } else {
        rewrite(e, &boxed)
    }
}

// ---------------------------------------------------------------------------
// Closure conversion + code generation
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct FnCtx {
    func_index: usize,
    scopes: Vec<HashMap<String, u16>>,
    n_locals: usize,
    captures: Vec<(String, CaptureSrc)>,
    code: Vec<Instr>,
}

#[derive(Debug, Clone, Copy)]
enum Resolved {
    Local(u16),
    Capture(u16),
    Global(u16),
}

/// The compiler.
#[derive(Debug, Default)]
pub struct Compiler {
    functions: Vec<Option<Function>>,
    stack: Vec<FnCtx>,
    globals: HashMap<String, u16>,
    natives: Vec<String>,
    native_arity: HashMap<String, usize>,
}

impl Compiler {
    fn ctx(&mut self) -> &mut FnCtx {
        self.stack.last_mut().expect("inside a function")
    }

    fn emit(&mut self, i: Instr) {
        self.ctx().code.push(i);
    }

    fn new_local(&mut self, name: &str) -> u16 {
        let ctx = self.ctx();
        let slot = u16::try_from(ctx.n_locals).expect("local slots fit u16");
        ctx.n_locals += 1;
        ctx.scopes
            .last_mut()
            .expect("scope open")
            .insert(name.to_owned(), slot);
        slot
    }

    fn resolve_at(&mut self, depth: usize, name: &str) -> Option<Resolved> {
        for scope in self.stack[depth].scopes.iter().rev() {
            if let Some(&slot) = scope.get(name) {
                return Some(Resolved::Local(slot));
            }
        }
        // Existing capture in this frame?
        if let Some(pos) = self.stack[depth]
            .captures
            .iter()
            .position(|(n, _)| n == name)
        {
            return Some(Resolved::Capture(u16::try_from(pos).expect("fits")));
        }
        if depth == 0 {
            return self.globals.get(name).copied().map(Resolved::Global);
        }
        match self.resolve_at(depth - 1, name)? {
            Resolved::Local(slot) => {
                self.stack[depth]
                    .captures
                    .push((name.to_owned(), CaptureSrc::Local(slot)));
                Some(Resolved::Capture(
                    u16::try_from(self.stack[depth].captures.len() - 1).expect("fits"),
                ))
            }
            Resolved::Capture(idx) => {
                self.stack[depth]
                    .captures
                    .push((name.to_owned(), CaptureSrc::Capture(idx)));
                Some(Resolved::Capture(
                    u16::try_from(self.stack[depth].captures.len() - 1).expect("fits"),
                ))
            }
            Resolved::Global(g) => Some(Resolved::Global(g)),
        }
    }

    fn resolve(&mut self, name: &str) -> Option<Resolved> {
        self.resolve_at(self.stack.len() - 1, name)
    }

    fn primitive_instr(name: &str) -> Option<Instr> {
        Some(match name {
            "+" => Instr::Add,
            "-" => Instr::Sub,
            "*" => Instr::Mul,
            "div" => Instr::Div,
            "mod" => Instr::Mod,
            "<" => Instr::Lt,
            "<=" => Instr::Le,
            ">" => Instr::Gt,
            ">=" => Instr::Ge,
            "=" => Instr::Eq,
            "!=" => Instr::Ne,
            "and" => Instr::And,
            "or" => Instr::Or,
            "not" => Instr::Not,
            _ => return None,
        })
    }

    fn compile_expr(&mut self, e: &Expr) -> Result<()> {
        match e {
            Expr::Int(n) => self.emit(Instr::Const(*n)),
            Expr::Bool(b) => self.emit(Instr::ConstBool(*b)),
            Expr::Unit => self.emit(Instr::ConstUnit),
            Expr::Var(name) => match self.resolve(name) {
                Some(Resolved::Local(s)) => self.emit(Instr::LoadLocal(s)),
                Some(Resolved::Capture(c)) => self.emit(Instr::LoadCapture(c)),
                Some(Resolved::Global(g)) => self.emit(Instr::LoadGlobal(g)),
                None if is_primitive(name) => {
                    return Err(BitcError::compile(format!(
                        "primitive {name} is not first-class; wrap it in a lambda"
                    )))
                }
                None => {
                    return Err(BitcError::compile(format!("unbound variable {name}")));
                }
            },
            Expr::If(c, t, f) => {
                self.compile_expr(c)?;
                let jfalse_at = self.ctx().code.len();
                self.emit(Instr::JumpIfFalse(0));
                self.compile_expr(t)?;
                let jend_at = self.ctx().code.len();
                self.emit(Instr::Jump(0));
                let else_start = self.ctx().code.len();
                self.compile_expr(f)?;
                let end = self.ctx().code.len();
                self.ctx().code[jfalse_at] =
                    Instr::JumpIfFalse(i32::try_from(else_start - jfalse_at - 1).expect("fits"));
                self.ctx().code[jend_at] =
                    Instr::Jump(i32::try_from(end - jend_at - 1).expect("fits"));
            }
            Expr::Let(binds, body) => {
                // Parallel let: evaluate all initializers, then bind.
                for (_, init) in binds {
                    self.compile_expr(init)?;
                }
                self.ctx().scopes.push(HashMap::new());
                let slots: Vec<u16> = binds.iter().map(|(x, _)| self.new_local(x)).collect();
                for &slot in slots.iter().rev() {
                    self.emit(Instr::StoreLocal(slot));
                }
                self.compile_expr(body)?;
                self.ctx().scopes.pop();
            }
            Expr::Lambda(params, body) => {
                let func_index = self.functions.len();
                self.functions.push(None);
                let mut scope = HashMap::new();
                for (i, p) in params.iter().enumerate() {
                    scope.insert(p.clone(), u16::try_from(i).expect("fits"));
                }
                self.stack.push(FnCtx {
                    func_index,
                    scopes: vec![scope],
                    n_locals: params.len(),
                    captures: Vec::new(),
                    code: Vec::new(),
                });
                self.compile_expr(body)?;
                self.emit(Instr::Ret);
                let mut ctx = self.stack.pop().expect("pushed above");
                mark_tail_calls(&mut ctx.code);
                let captures: Vec<CaptureSrc> = ctx.captures.iter().map(|(_, s)| *s).collect();
                self.functions[func_index] = Some(Function {
                    name: format!("<lambda{func_index}>"),
                    arity: params.len(),
                    n_locals: ctx.n_locals,
                    code: ctx.code,
                });
                debug_assert_eq!(ctx.func_index, func_index);
                self.emit(Instr::MakeClosure {
                    func: u16::try_from(func_index).expect("fits"),
                    captures,
                });
            }
            Expr::Apply(head, args) => {
                if let Expr::Var(name) = &**head {
                    let shadowed = self.resolve(name).is_some();
                    if !shadowed {
                        if let Some(instr) = Self::primitive_instr(name) {
                            let arity = primitive_arity(name).expect("primitive");
                            if args.len() != arity {
                                return Err(BitcError::compile(format!(
                                    "primitive {name} expects {arity} arguments, got {}",
                                    args.len()
                                )));
                            }
                            for a in args {
                                self.compile_expr(a)?;
                            }
                            self.emit(instr);
                            return Ok(());
                        }
                        if let Some(&arity) = self.native_arity.get(name) {
                            if args.len() != arity {
                                return Err(BitcError::compile(format!(
                                    "native {name} expects {arity} arguments, got {}",
                                    args.len()
                                )));
                            }
                            for a in args {
                                self.compile_expr(a)?;
                            }
                            let idx = self
                                .natives
                                .iter()
                                .position(|n| n == name)
                                .expect("native registered");
                            self.emit(Instr::CallNative {
                                idx: u16::try_from(idx).expect("fits"),
                                nargs: u8::try_from(args.len()).expect("fits"),
                            });
                            return Ok(());
                        }
                    }
                }
                self.compile_expr(head)?;
                for a in args {
                    self.compile_expr(a)?;
                }
                self.emit(Instr::Call(
                    u8::try_from(args.len()).expect("arity fits u8"),
                ));
            }
            Expr::Begin(es) => {
                for (i, x) in es.iter().enumerate() {
                    self.compile_expr(x)?;
                    if i != es.len() - 1 {
                        self.emit(Instr::Pop);
                    }
                }
            }
            Expr::SetBang(name, value) => {
                self.compile_expr(value)?;
                match self.resolve(name) {
                    Some(Resolved::Local(s)) => self.emit(Instr::StoreLocal(s)),
                    Some(Resolved::Global(g)) => self.emit(Instr::StoreGlobal(g)),
                    Some(Resolved::Capture(_)) => {
                        return Err(BitcError::compile(format!(
                        "internal: set! of captured variable {name} survived assignment conversion"
                    )))
                    }
                    None => {
                        return Err(BitcError::compile(format!(
                            "set! of unbound variable {name}"
                        )))
                    }
                }
                self.emit(Instr::ConstUnit);
            }
            Expr::While(cond, body) => {
                let loop_start = self.ctx().code.len();
                self.compile_expr(cond)?;
                let jfalse_at = self.ctx().code.len();
                self.emit(Instr::JumpIfFalse(0));
                for x in body {
                    self.compile_expr(x)?;
                    self.emit(Instr::Pop);
                }
                let jback_at = self.ctx().code.len();
                self.emit(Instr::Jump(
                    i32::try_from(loop_start).expect("fits")
                        - i32::try_from(jback_at).expect("fits")
                        - 1,
                ));
                let end = self.ctx().code.len();
                self.ctx().code[jfalse_at] =
                    Instr::JumpIfFalse(i32::try_from(end - jfalse_at - 1).expect("fits"));
                self.emit(Instr::ConstUnit);
            }
            Expr::MakeVector(n, init) => {
                self.compile_expr(n)?;
                self.compile_expr(init)?;
                self.emit(Instr::VecNew);
            }
            Expr::VectorRef(v, i) => {
                self.compile_expr(v)?;
                self.compile_expr(i)?;
                self.emit(Instr::VecGet);
            }
            Expr::VectorSet(v, i, x) => {
                self.compile_expr(v)?;
                self.compile_expr(i)?;
                self.compile_expr(x)?;
                self.emit(Instr::VecSet);
            }
            Expr::VectorLen(v) => {
                self.compile_expr(v)?;
                self.emit(Instr::VecLen);
            }
        }
        Ok(())
    }
}

/// Rewrites `Call; Ret` into `TailCall; Ret` so tail recursion runs in
/// constant stack space. Indices are unchanged (the `Ret` stays as an
/// unreachable landing pad), so no jump fixup is needed.
fn mark_tail_calls(code: &mut [Instr]) {
    for i in 0..code.len().saturating_sub(1) {
        if let (Instr::Call(n), Instr::Ret) = (&code[i], &code[i + 1]) {
            code[i] = Instr::TailCall(*n);
        }
    }
}

/// Compiles a program, with `natives` available as `(name arity)` built-ins
/// callable by name.
///
/// # Errors
///
/// Returns [`BitcError::Compile`] for unbound names or arity violations.
pub fn compile_program_with_natives(p: &Program, natives: &[(&str, usize)]) -> Result<Bytecode> {
    let mut compiler = Compiler {
        natives: natives.iter().map(|(n, _)| (*n).to_owned()).collect(),
        native_arity: natives.iter().map(|(n, a)| ((*n).to_owned(), *a)).collect(),
        ..Compiler::default()
    };
    // Entry function placeholder at index 0.
    compiler.functions.push(None);
    compiler.stack.push(FnCtx {
        func_index: 0,
        scopes: vec![HashMap::new()],
        n_locals: 0,
        captures: Vec::new(),
        code: Vec::new(),
    });
    // Globals for defs (slots assigned up front so recursion resolves).
    for (i, def) in p.defs.iter().enumerate() {
        compiler
            .globals
            .insert(def.name.clone(), u16::try_from(i).expect("fits"));
    }
    for def in &p.defs {
        let converted = assignment_convert(&def.expr);
        compiler.compile_expr(&converted)?;
        let g = compiler.globals[&def.name];
        compiler.emit(Instr::StoreGlobal(g));
    }
    let main = assignment_convert(&p.main);
    compiler.compile_expr(&main)?;
    compiler.emit(Instr::Ret);
    let mut ctx = compiler.stack.pop().expect("entry frame");
    mark_tail_calls(&mut ctx.code);
    compiler.functions[0] = Some(Function {
        name: "<main>".into(),
        arity: 0,
        n_locals: ctx.n_locals,
        code: ctx.code,
    });
    Ok(Bytecode {
        functions: compiler
            .functions
            .into_iter()
            .map(|f| f.expect("all functions finished"))
            .collect(),
        natives: compiler.natives,
    })
}

/// Compiles a program with no natives.
///
/// # Errors
///
/// Returns [`BitcError::Compile`] for unbound names or arity violations.
pub fn compile_program(p: &Program) -> Result<Bytecode> {
    compile_program_with_natives(p, &[])
}

/// Convenience used across tests and benches: parse + typecheck + compile.
///
/// # Errors
///
/// Returns the first pipeline error.
pub fn compile_source(src: &str) -> Result<Bytecode> {
    let p = crate::parser::parse_program(src)?;
    crate::infer::infer_program(&p)?;
    compile_program(&p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_program};

    #[test]
    fn assignment_conversion_boxes_mutated_captures() {
        let e = parse_expr("(let ((n 0)) (begin ((lambda (u) (set! n 5)) (unit)) n))").unwrap();
        let converted = assignment_convert(&e);
        let s = converted.to_string();
        assert!(
            s.contains("(make-vector 1 0)"),
            "binding must be boxed: {s}"
        );
        assert!(
            s.contains("(vec-set! n 0 5)"),
            "set! must become vec-set!: {s}"
        );
        assert!(
            s.contains("(vec-ref n 0)"),
            "reads must become vec-ref: {s}"
        );
    }

    #[test]
    fn assignment_conversion_leaves_pure_code_alone() {
        let e = parse_expr("(let ((x 1)) (+ x 2))").unwrap();
        assert_eq!(assignment_convert(&e), e);
    }

    #[test]
    fn unmutated_captures_stay_unboxed() {
        let e = parse_expr("(let ((n 1)) (lambda (x) (+ x n)))").unwrap();
        assert_eq!(assignment_convert(&e), e);
    }

    #[test]
    fn compiles_arithmetic_to_stack_ops() {
        let bc = compile_source("(+ 1 (* 2 3))").unwrap();
        assert_eq!(
            bc.functions[0].code,
            vec![
                Instr::Const(1),
                Instr::Const(2),
                Instr::Const(3),
                Instr::Mul,
                Instr::Add,
                Instr::Ret
            ]
        );
    }

    #[test]
    fn compiles_if_with_relative_jumps() {
        let bc = compile_source("(if #t 1 2)").unwrap();
        let code = &bc.functions[0].code;
        assert!(matches!(code[1], Instr::JumpIfFalse(2)));
        assert!(matches!(code[3], Instr::Jump(1)));
    }

    #[test]
    fn lambdas_become_functions_with_captures() {
        let bc = compile_source("(let ((n 3)) ((lambda (x) (+ x n)) 4))").unwrap();
        assert_eq!(bc.functions.len(), 2);
        let makes_closure = bc.functions[0]
            .code
            .iter()
            .any(|i| matches!(i, Instr::MakeClosure { captures, .. } if captures.len() == 1));
        assert!(makes_closure, "{}", bc.disassemble());
    }

    #[test]
    fn defines_become_globals() {
        let bc = compile_source("(define one 1) (+ one 1)").unwrap();
        let code = &bc.functions[0].code;
        assert!(code.contains(&Instr::StoreGlobal(0)));
        assert!(code.contains(&Instr::LoadGlobal(0)));
    }

    #[test]
    fn unbound_variable_is_a_compile_error() {
        let p = parse_program("missing").unwrap();
        assert!(compile_program(&p).is_err());
    }

    #[test]
    fn first_class_primitive_is_rejected_with_hint() {
        let p = parse_program("(let ((f +)) (f 1 2))").unwrap();
        let err = compile_program(&p).unwrap_err();
        assert!(err.to_string().contains("wrap it in a lambda"));
    }

    #[test]
    fn native_calls_compile_to_call_native() {
        let p = parse_program("(host-add 1 2)").unwrap();
        let bc = compile_program_with_natives(&p, &[("host-add", 2)]).unwrap();
        assert!(bc.functions[0]
            .code
            .contains(&Instr::CallNative { idx: 0, nargs: 2 }));
    }

    #[test]
    fn native_arity_is_checked() {
        let p = parse_program("(host-add 1)").unwrap();
        assert!(compile_program_with_natives(&p, &[("host-add", 2)]).is_err());
    }

    #[test]
    fn transitive_captures_chain_through_frames() {
        // innermost lambda reaches two frames up.
        let bc = compile_source("(let ((a 1)) ((lambda (x) ((lambda (y) (+ (+ x y) a)) 2)) 3))")
            .unwrap();
        // Inner function must have two captures (x and a).
        let inner = bc
            .functions
            .iter()
            .find(|f| f.arity == 1 && f.code.len() > 4)
            .expect("inner fn");
        let _ = inner;
        let has_two_capture_closure = bc
            .functions
            .iter()
            .flat_map(|f| &f.code)
            .any(|i| matches!(i, Instr::MakeClosure { captures, .. } if captures.len() == 2));
        assert!(has_two_capture_closure, "{}", bc.disassemble());
    }
}
