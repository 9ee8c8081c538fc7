//! Compilation of Monitor IR methods to a flat instruction list.
//!
//! The VM needs resumable execution (a thread suspends mid-method at `wait`
//! and at lock acquisition), so each method is compiled to straight-line
//! instructions with explicit jumps; a thread's whole continuation is then
//! just a program counter.
//!
//! Fields and locals are resolved to slots here, so a VM state holds them
//! as plain vectors and a snapshot copies no names. The names stay in the
//! slot tables ([`CompiledComponent::field_names`],
//! [`CompiledMethod::locals`]) for lookups, fault messages and trace
//! events.

use std::collections::HashMap;

use jcc_model::ast::{Block, Component, Expr, LValue, LockRef, Method, Stmt, Type};

use crate::value::{CExpr, Value};

/// Index of a lock within a compiled component. Lock 0 is always `this`.
pub type LockIdx = usize;

/// One VM instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Acquire `lock` (blocking). Fires T1/T2. `path` is `Some` for explicit
    /// `synchronized` blocks (coverage site), `None` for the implicit
    /// acquisition of a synchronized method.
    EnterSync {
        /// Which lock.
        lock: LockIdx,
        /// Site path for explicit blocks.
        path: Option<Vec<usize>>,
    },
    /// Release `lock`. Fires T4 on final release.
    ExitSync {
        /// Which lock.
        lock: LockIdx,
        /// Site path for explicit blocks.
        path: Option<Vec<usize>>,
    },
    /// Java `wait` on `lock`: fires T3, suspends; wake-up fires T5 then T2.
    Wait {
        /// Which lock.
        lock: LockIdx,
        /// Site path (always present; `wait` is a statement).
        path: Vec<usize>,
    },
    /// Java `notify`/`notifyAll` on `lock`.
    Notify {
        /// Which lock.
        lock: LockIdx,
        /// Wake all waiters?
        all: bool,
        /// Site path.
        path: Vec<usize>,
    },
    /// Assign the value of an expression to a field.
    StoreField {
        /// Field slot.
        field: usize,
        /// Right-hand side.
        value: CExpr,
    },
    /// Assign the value of an expression to a local.
    StoreLocal {
        /// Local slot.
        local: usize,
        /// Right-hand side.
        value: CExpr,
    },
    /// Evaluate `cond`; jump to `target` when it is false.
    JumpIfFalse {
        /// The condition.
        cond: CExpr,
        /// Instruction index to jump to.
        target: usize,
    },
    /// Unconditional jump.
    Jump {
        /// Instruction index to jump to.
        target: usize,
    },
    /// Evaluate the return value (before any lock releases) into the
    /// thread's return register.
    EvalRet {
        /// The value expression, if the method returns one.
        value: Option<CExpr>,
    },
    /// Finish the method call. The return register holds the result.
    Ret,
}

/// True when `e` is a literal the evaluator cannot fail on and that reads
/// no shared fields.
fn is_literal(e: &CExpr) -> bool {
    matches!(e, CExpr::Lit(_))
}

impl Instr {
    /// True when executing this instruction touches only the running
    /// thread's own frame — no lock, wait set, or shared field is read or
    /// written, and the instruction cannot fault. Such a step commutes
    /// with every step of every other thread, which is what the
    /// explorer's ample-set reduction relies on: expanding only this step
    /// from a state cannot hide a deadlock, fault or livelock that some
    /// interleaving would otherwise reach.
    pub fn is_thread_local(&self) -> bool {
        match self {
            Instr::Jump { .. } | Instr::Ret | Instr::EvalRet { value: None } => true,
            Instr::EvalRet { value: Some(e) } | Instr::StoreLocal { value: e, .. } => {
                is_literal(e)
            }
            // Only a literal-`bool` condition: any other expression may
            // read fields or fault on a type error, both of which are
            // visible to other threads or to the verdict.
            Instr::JumpIfFalse {
                cond: CExpr::Lit(Value::Bool(_)),
                ..
            } => true,
            _ => false,
        }
    }
}

/// A compiled method.
#[derive(Debug, Clone)]
pub struct CompiledMethod {
    /// Method name.
    pub name: String,
    /// Parameter names in order (values supplied per call).
    pub params: Vec<String>,
    /// Local slot names: the parameters in order (they take slots
    /// `0..params.len()`), then every other local the body names.
    pub locals: Vec<String>,
    /// Parameter types in order.
    pub param_types: Vec<Type>,
    /// Declared return type.
    pub ret: Option<Type>,
    /// Whether the receiver's monitor wraps the whole body.
    pub synchronized: bool,
    /// The instruction stream.
    pub code: Vec<Instr>,
}

/// A compiled component: initial field values, lock table and methods.
#[derive(Debug, Clone)]
pub struct CompiledComponent {
    /// Component name.
    pub name: String,
    /// Initial field values (field name → value); field slot `i` is
    /// `fields[i]`.
    pub fields: Vec<(String, Value)>,
    /// Field slot names: the declared fields in order, then any field
    /// the methods name without a declaration (only an unvalidated
    /// component has one), which starts unassigned.
    pub field_names: Vec<String>,
    /// Lock names; index 0 is `this`.
    pub locks: Vec<String>,
    /// Compiled methods in declaration order.
    pub methods: Vec<CompiledMethod>,
}

impl CompiledComponent {
    /// Find a compiled method by name.
    pub fn method(&self, name: &str) -> Option<&CompiledMethod> {
        self.methods.iter().find(|m| m.name == name)
    }

    /// Index of a method by name.
    pub fn method_index(&self, name: &str) -> Option<usize> {
        self.methods.iter().position(|m| m.name == name)
    }

    /// The slot a field name resolves to (the last declaration wins, as
    /// for a map built from the declarations in order).
    pub(crate) fn field_slot(&self, name: &str) -> Option<usize> {
        self.field_names.iter().rposition(|n| n == name)
    }
}

/// A name → slot table, in first-seen order. Declaring a name again gives
/// it a new slot, and lookups find the newest.
#[derive(Debug, Default)]
pub(crate) struct Slots {
    /// Slot names, by slot.
    pub(crate) names: Vec<String>,
    index: HashMap<String, usize>,
}

impl Slots {
    /// Give `name` a new slot.
    pub(crate) fn declare(&mut self, name: &str) -> usize {
        self.names.push(name.to_string());
        let slot = self.names.len() - 1;
        self.index.insert(name.to_string(), slot);
        slot
    }

    /// The slot of `name`, declaring it on first use.
    pub(crate) fn slot(&mut self, name: &str) -> usize {
        match self.index.get(name) {
            Some(&slot) => slot,
            None => self.declare(name),
        }
    }
}

/// Resolve `e`'s fields and locals to slots.
pub(crate) fn resolve_expr(e: &Expr, fields: &mut Slots, locals: &mut Slots) -> CExpr {
    match e {
        Expr::Int(n) => CExpr::Lit(Value::Int(*n)),
        Expr::Bool(b) => CExpr::Lit(Value::Bool(*b)),
        Expr::Str(s) => CExpr::Lit(Value::Str(s.clone())),
        Expr::Var(name) => CExpr::Local(locals.slot(name)),
        Expr::Field(name) => CExpr::Field(fields.slot(name)),
        Expr::Unary(op, inner) => CExpr::Unary(*op, Box::new(resolve_expr(inner, fields, locals))),
        Expr::Binary(op, a, b) => CExpr::Binary(
            *op,
            Box::new(resolve_expr(a, fields, locals)),
            Box::new(resolve_expr(b, fields, locals)),
        ),
        Expr::Call(builtin, args) => CExpr::Call(
            *builtin,
            args.iter()
                .map(|a| resolve_expr(a, fields, locals))
                .collect(),
        ),
    }
}

/// Compilation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A field initializer was not a constant expression.
    NonConstantInitializer {
        /// The field.
        field: String,
    },
    /// A lock reference did not resolve.
    UnknownLock {
        /// The lock name.
        name: String,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::NonConstantInitializer { field } => {
                write!(f, "field `{field}` initializer is not constant")
            }
            CompileError::UnknownLock { name } => write!(f, "unknown lock `{name}`"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Compile a component. The component should already pass
/// [`jcc_model::validate`] (except for deliberately seeded mutants, which
/// are still compilable).
pub fn compile(component: &Component) -> Result<CompiledComponent, CompileError> {
    let mut locks = vec!["this".to_string()];
    locks.extend(component.locks.iter().cloned());
    let lock_index: HashMap<&str, usize> = locks
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();

    let mut fields = Vec::with_capacity(component.fields.len());
    let mut field_slots = Slots::default();
    for f in &component.fields {
        let value = const_eval(&f.init).ok_or_else(|| CompileError::NonConstantInitializer {
            field: f.name.clone(),
        })?;
        fields.push((f.name.clone(), value));
        field_slots.declare(&f.name);
    }

    let mut methods = Vec::with_capacity(component.methods.len());
    for m in &component.methods {
        methods.push(compile_method(m, &lock_index, &mut field_slots)?);
    }
    Ok(CompiledComponent {
        name: component.name.clone(),
        fields,
        field_names: field_slots.names,
        locks,
        methods,
    })
}

fn const_eval(e: &Expr) -> Option<Value> {
    match e {
        Expr::Int(n) => Some(Value::Int(*n)),
        Expr::Bool(b) => Some(Value::Bool(*b)),
        Expr::Str(s) => Some(Value::Str(s.clone())),
        Expr::Unary(jcc_model::ast::UnOp::Neg, inner) => match const_eval(inner)? {
            Value::Int(n) => Some(Value::Int(-n)),
            _ => None,
        },
        _ => None,
    }
}

struct MethodCompiler<'a> {
    code: Vec<Instr>,
    lock_index: &'a HashMap<&'a str, usize>,
    fields: &'a mut Slots,
    locals: Slots,
    /// Explicit sync blocks currently open (for compiling `return`).
    sync_stack: Vec<(LockIdx, Vec<usize>)>,
    synchronized: bool,
}

impl MethodCompiler<'_> {
    fn resolve(&self, lock: &LockRef) -> Result<LockIdx, CompileError> {
        match lock {
            LockRef::This => Ok(0),
            LockRef::Named(n) => self
                .lock_index
                .get(n.as_str())
                .copied()
                .ok_or_else(|| CompileError::UnknownLock { name: n.clone() }),
        }
    }

    fn emit(&mut self, i: Instr) -> usize {
        self.code.push(i);
        self.code.len() - 1
    }

    fn expr(&mut self, e: &Expr) -> CExpr {
        resolve_expr(e, self.fields, &mut self.locals)
    }

    fn compile_block(&mut self, block: &Block, path: &mut Vec<usize>) -> Result<(), CompileError> {
        for (i, stmt) in block.iter().enumerate() {
            path.push(i);
            self.compile_stmt(stmt, path)?;
            path.pop();
        }
        Ok(())
    }

    fn compile_stmt(&mut self, stmt: &Stmt, path: &mut Vec<usize>) -> Result<(), CompileError> {
        match stmt {
            Stmt::Wait { lock } => {
                let lock = self.resolve(lock)?;
                self.emit(Instr::Wait {
                    lock,
                    path: path.clone(),
                });
            }
            Stmt::Notify { lock } => {
                let lock = self.resolve(lock)?;
                self.emit(Instr::Notify {
                    lock,
                    all: false,
                    path: path.clone(),
                });
            }
            Stmt::NotifyAll { lock } => {
                let lock = self.resolve(lock)?;
                self.emit(Instr::Notify {
                    lock,
                    all: true,
                    path: path.clone(),
                });
            }
            Stmt::Assign { target, value } => {
                let value = self.expr(value);
                match target {
                    LValue::Field(name) => {
                        let field = self.fields.slot(name);
                        self.emit(Instr::StoreField { field, value });
                    }
                    LValue::Local(name) => {
                        let local = self.locals.slot(name);
                        self.emit(Instr::StoreLocal { local, value });
                    }
                }
            }
            Stmt::Local { name, init, .. } => {
                let value = self.expr(init);
                let local = self.locals.slot(name);
                self.emit(Instr::StoreLocal { local, value });
            }
            Stmt::Skip => {}
            Stmt::While { cond, body } => {
                let header = self.code.len();
                let cond = self.expr(cond);
                let jif = self.emit(Instr::JumpIfFalse {
                    cond,
                    target: usize::MAX,
                });
                self.compile_block(body, path)?;
                self.emit(Instr::Jump { target: header });
                let after = self.code.len();
                if let Instr::JumpIfFalse { target, .. } = &mut self.code[jif] {
                    *target = after;
                }
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let cond = self.expr(cond);
                let jif = self.emit(Instr::JumpIfFalse {
                    cond,
                    target: usize::MAX,
                });
                self.compile_block(then_branch, path)?;
                if else_branch.is_empty() {
                    let after = self.code.len();
                    if let Instr::JumpIfFalse { target, .. } = &mut self.code[jif] {
                        *target = after;
                    }
                } else {
                    let jend = self.emit(Instr::Jump { target: usize::MAX });
                    let else_start = self.code.len();
                    if let Instr::JumpIfFalse { target, .. } = &mut self.code[jif] {
                        *target = else_start;
                    }
                    // Else-branch paths use the offset convention.
                    for (j, s) in else_branch.iter().enumerate() {
                        path.push(jcc_model::ast::ELSE_OFFSET + j);
                        self.compile_stmt(s, path)?;
                        path.pop();
                    }
                    let after = self.code.len();
                    if let Instr::Jump { target } = &mut self.code[jend] {
                        *target = after;
                    }
                }
            }
            Stmt::Synchronized { lock, body } => {
                let lock_idx = self.resolve(lock)?;
                let site = path.clone();
                self.emit(Instr::EnterSync {
                    lock: lock_idx,
                    path: Some(site.clone()),
                });
                self.sync_stack.push((lock_idx, site.clone()));
                self.compile_block(body, path)?;
                self.sync_stack.pop();
                self.emit(Instr::ExitSync {
                    lock: lock_idx,
                    path: Some(site),
                });
            }
            Stmt::Return(value) => {
                let value = value.as_ref().map(|v| self.expr(v));
                self.emit(Instr::EvalRet { value });
                // Release explicit blocks inner → outer, then the method
                // monitor, then finish.
                let exits: Vec<(LockIdx, Vec<usize>)> =
                    self.sync_stack.iter().rev().cloned().collect();
                for (lock, site) in exits {
                    self.emit(Instr::ExitSync {
                        lock,
                        path: Some(site),
                    });
                }
                if self.synchronized {
                    self.emit(Instr::ExitSync { lock: 0, path: None });
                }
                self.emit(Instr::Ret);
            }
        }
        Ok(())
    }
}

fn compile_method(
    method: &Method,
    lock_index: &HashMap<&str, usize>,
    fields: &mut Slots,
) -> Result<CompiledMethod, CompileError> {
    let mut locals = Slots::default();
    for p in &method.params {
        locals.declare(&p.name);
    }
    let mut mc = MethodCompiler {
        code: Vec::new(),
        lock_index,
        fields,
        locals,
        sync_stack: Vec::new(),
        synchronized: method.synchronized,
    };
    if method.synchronized {
        mc.emit(Instr::EnterSync { lock: 0, path: None });
    }
    let mut path = Vec::new();
    mc.compile_block(&method.body, &mut path)?;
    // Implicit return at the end of the body.
    mc.emit(Instr::EvalRet { value: None });
    if method.synchronized {
        mc.emit(Instr::ExitSync { lock: 0, path: None });
    }
    mc.emit(Instr::Ret);
    Ok(CompiledMethod {
        name: method.name.clone(),
        params: method.params.iter().map(|p| p.name.clone()).collect(),
        locals: mc.locals.names,
        param_types: method.params.iter().map(|p| p.ty).collect(),
        ret: method.ret,
        synchronized: method.synchronized,
        code: mc.code,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcc_model::examples;

    #[test]
    fn producer_consumer_compiles() {
        let c = examples::producer_consumer();
        let cc = compile(&c).unwrap();
        assert_eq!(cc.name, "ProducerConsumer");
        assert_eq!(cc.locks, vec!["this"]);
        assert_eq!(cc.fields.len(), 3);
        assert_eq!(cc.fields[0], ("contents".to_string(), Value::Str(String::new())));
        let receive = cc.method("receive").unwrap();
        assert!(receive.synchronized);
        // Starts by entering the monitor, ends with Ret.
        assert!(matches!(receive.code[0], Instr::EnterSync { lock: 0, .. }));
        assert!(matches!(receive.code.last(), Some(Instr::Ret)));
        // Contains exactly one Wait and one Notify(all).
        let waits = receive
            .code
            .iter()
            .filter(|i| matches!(i, Instr::Wait { .. }))
            .count();
        assert_eq!(waits, 1);
        let notifies = receive
            .code
            .iter()
            .filter(|i| matches!(i, Instr::Notify { all: true, .. }))
            .count();
        assert_eq!(notifies, 1);
    }

    #[test]
    fn while_compiles_to_backward_jump() {
        let c = examples::producer_consumer();
        let cc = compile(&c).unwrap();
        let receive = cc.method("receive").unwrap();
        // Find the JumpIfFalse of the wait loop and the Jump back.
        let jif_pos = receive
            .code
            .iter()
            .position(|i| matches!(i, Instr::JumpIfFalse { .. }))
            .unwrap();
        let jump = receive
            .code
            .iter()
            .find_map(|i| match i {
                Instr::Jump { target } => Some(*target),
                _ => None,
            })
            .unwrap();
        assert_eq!(jump, jif_pos, "loop jumps back to its header");
        // JumpIfFalse target is past the Jump.
        if let Instr::JumpIfFalse { target, .. } = &receive.code[jif_pos] {
            assert!(*target > jif_pos);
        }
    }

    #[test]
    fn return_releases_locks_in_order() {
        let src = r#"
            class R {
              lock a;
              var n: int = 0;
              synchronized fn m() -> int {
                synchronized (a) {
                  return n;
                }
              }
            }
        "#;
        let c = jcc_model::parse_component(src).unwrap();
        let cc = compile(&c).unwrap();
        let code = &cc.method("m").unwrap().code;
        // …EvalRet, ExitSync(a), ExitSync(this), Ret…
        let evalret = code
            .iter()
            .position(|i| matches!(i, Instr::EvalRet { value: Some(_) }))
            .unwrap();
        assert!(matches!(code[evalret + 1], Instr::ExitSync { lock: 1, .. }));
        assert!(
            matches!(code[evalret + 2], Instr::ExitSync { lock: 0, path: None })
        );
        assert!(matches!(code[evalret + 3], Instr::Ret));
    }

    #[test]
    fn named_locks_indexed_after_this() {
        let c = examples::lock_order_deadlock();
        let cc = compile(&c).unwrap();
        assert_eq!(cc.locks, vec!["this", "a", "b"]);
        let fwd = cc.method("forward").unwrap();
        let enters: Vec<usize> = fwd
            .code
            .iter()
            .filter_map(|i| match i {
                Instr::EnterSync { lock, .. } => Some(*lock),
                _ => None,
            })
            .collect();
        assert_eq!(enters, vec![1, 2]);
        let bwd = cc.method("backward").unwrap();
        let enters: Vec<usize> = bwd
            .code
            .iter()
            .filter_map(|i| match i {
                Instr::EnterSync { lock, .. } => Some(*lock),
                _ => None,
            })
            .collect();
        assert_eq!(enters, vec![2, 1]);
    }

    #[test]
    fn if_else_paths_use_offset_convention() {
        let src = r#"
            class B {
              var ready: bool = false;
              synchronized fn m() {
                if (ready) { notify; } else { notifyAll; }
              }
            }
        "#;
        let c = jcc_model::parse_component(src).unwrap();
        let cc = compile(&c).unwrap();
        let code = &cc.method("m").unwrap().code;
        let notify_paths: Vec<(bool, Vec<usize>)> = code
            .iter()
            .filter_map(|i| match i {
                Instr::Notify { all, path, .. } => Some((*all, path.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(notify_paths.len(), 2);
        assert_eq!(notify_paths[0], (false, vec![0, 0]));
        assert_eq!(
            notify_paths[1],
            (true, vec![0, jcc_model::ast::ELSE_OFFSET])
        );
    }

    #[test]
    fn nonconstant_initializer_rejected() {
        // Hand-build a component whose field initializer is a call.
        let mut c = examples::producer_consumer();
        c.fields[0].init = jcc_model::ast::Expr::Call(
            jcc_model::ast::Builtin::Len,
            vec![jcc_model::ast::Expr::Str("x".into())],
        );
        assert!(matches!(
            compile(&c),
            Err(CompileError::NonConstantInitializer { .. })
        ));
    }

    #[test]
    fn all_corpus_and_mutants_compile() {
        for (_name, c) in examples::corpus() {
            compile(&c).unwrap();
            for (_m, mutant) in jcc_model::mutate::all_mutants(&c) {
                compile(&mutant).unwrap();
            }
        }
    }
}
