//! Runtime values and expression evaluation.

use std::fmt;

use jcc_model::ast::{BinOp, Builtin, Type, UnOp};

/// A runtime value of the Monitor IR.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// Boolean.
    Bool(bool),
    /// Immutable string.
    Str(String),
}

impl Value {
    /// The IR type of this value.
    pub fn ty(&self) -> Type {
        match self {
            Value::Int(_) => Type::Int,
            Value::Bool(_) => Type::Bool,
            Value::Str(_) => Type::Str,
        }
    }

    /// The default value of a type (used by fault-injected early returns).
    pub fn default_of(ty: Type) -> Value {
        match ty {
            Type::Int => Value::Int(0),
            Type::Bool => Value::Bool(false),
            Type::Str => Value::Str(String::new()),
        }
    }

    /// Extract an integer, or a runtime error.
    pub fn as_int(&self) -> Result<i64, EvalError> {
        match self {
            Value::Int(n) => Ok(*n),
            other => Err(EvalError::new(format!("expected int, got {other}"))),
        }
    }

    /// Extract a boolean, or a runtime error.
    pub fn as_bool(&self) -> Result<bool, EvalError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(EvalError::new(format!("expected bool, got {other}"))),
        }
    }

    /// Extract a string slice, or a runtime error.
    pub fn as_str(&self) -> Result<&str, EvalError> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(EvalError::new(format!("expected str, got {other}"))),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

/// A runtime evaluation error (division by zero, index out of bounds, …) —
/// the VM marks the executing thread as faulted, mirroring a Java runtime
/// exception propagating out of the component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError {
    /// Human-readable description.
    pub message: String,
}

impl EvalError {
    /// Construct an error.
    pub fn new(message: impl Into<String>) -> Self {
        EvalError {
            message: message.into(),
        }
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for EvalError {}

/// An expression whose variables were resolved to slots at compile time
/// (see [`crate::compile`]): what the VM evaluates. The slot tables keep
/// the names, for error messages and trace events.
#[derive(Debug, Clone, PartialEq)]
pub enum CExpr {
    /// A literal.
    Lit(Value),
    /// A local or parameter of the executing frame, by slot.
    Local(usize),
    /// A component field, by slot.
    Field(usize),
    /// Unary operator.
    Unary(UnOp, Box<CExpr>),
    /// Binary operator.
    Binary(BinOp, Box<CExpr>, Box<CExpr>),
    /// Builtin call.
    Call(Builtin, Vec<CExpr>),
}

impl CExpr {
    /// Visit the field slots this expression reads, in evaluation order
    /// (left to right, depth first) — the order the VM logs them.
    pub(crate) fn for_each_field(&self, f: &mut impl FnMut(usize)) {
        match self {
            CExpr::Field(slot) => f(*slot),
            CExpr::Unary(_, e) => e.for_each_field(f),
            CExpr::Binary(_, a, b) => {
                a.for_each_field(f);
                b.for_each_field(f);
            }
            CExpr::Call(_, args) => {
                for a in args {
                    a.for_each_field(f);
                }
            }
            CExpr::Lit(_) | CExpr::Local(_) => {}
        }
    }
}

/// The variable environment an expression is evaluated in. A `None` slot
/// is a variable not (yet) assigned; reading it is a runtime error.
#[derive(Debug)]
pub struct Env<'a> {
    /// Component fields (shared state), by slot.
    pub fields: &'a [Option<Value>],
    /// Field names, by slot.
    pub field_names: &'a [String],
    /// Locals and parameters of the executing frame, by slot.
    pub locals: &'a [Option<Value>],
    /// Local names, by slot.
    pub local_names: &'a [String],
}

/// Evaluate `expr` in `env`.
pub fn eval(expr: &CExpr, env: &Env<'_>) -> Result<Value, EvalError> {
    match expr {
        CExpr::Lit(v) => Ok(v.clone()),
        CExpr::Local(slot) => env.locals[*slot]
            .clone()
            .ok_or_else(|| EvalError::new(format!("undefined local `{}`", env.local_names[*slot]))),
        CExpr::Field(slot) => env.fields[*slot]
            .clone()
            .ok_or_else(|| EvalError::new(format!("undefined field `{}`", env.field_names[*slot]))),
        CExpr::Unary(op, e) => {
            let v = eval(e, env)?;
            match op {
                UnOp::Neg => Ok(Value::Int(
                    v.as_int()?
                        .checked_neg()
                        .ok_or_else(|| EvalError::new("integer overflow in negation"))?,
                )),
                UnOp::Not => Ok(Value::Bool(!v.as_bool()?)),
            }
        }
        CExpr::Binary(op, a, b) => eval_binary(*op, a, b, env),
        CExpr::Call(builtin, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, env)?);
            }
            eval_builtin(*builtin, &vals)
        }
    }
}

fn eval_binary(op: BinOp, a: &CExpr, b: &CExpr, env: &Env<'_>) -> Result<Value, EvalError> {
    // Short-circuit operators first.
    match op {
        BinOp::And => {
            return Ok(Value::Bool(
                eval(a, env)?.as_bool()? && eval(b, env)?.as_bool()?,
            ))
        }
        BinOp::Or => {
            return Ok(Value::Bool(
                eval(a, env)?.as_bool()? || eval(b, env)?.as_bool()?,
            ))
        }
        _ => {}
    }
    let va = eval(a, env)?;
    let vb = eval(b, env)?;
    let int_op = |f: fn(i64, i64) -> Option<i64>| -> Result<Value, EvalError> {
        let x = va.as_int()?;
        let y = vb.as_int()?;
        f(x, y)
            .map(Value::Int)
            .ok_or_else(|| EvalError::new(format!("arithmetic fault in {x} {} {y}", op.symbol())))
    };
    let cmp_op = |f: fn(&i64, &i64) -> bool| -> Result<Value, EvalError> {
        Ok(Value::Bool(f(&va.as_int()?, &vb.as_int()?)))
    };
    match op {
        BinOp::Add => int_op(i64::checked_add),
        BinOp::Sub => int_op(i64::checked_sub),
        BinOp::Mul => int_op(i64::checked_mul),
        BinOp::Div => int_op(|x, y| if y == 0 { None } else { x.checked_div(y) }),
        BinOp::Mod => int_op(|x, y| if y == 0 { None } else { x.checked_rem(y) }),
        BinOp::Lt => cmp_op(|x, y| x < y),
        BinOp::Le => cmp_op(|x, y| x <= y),
        BinOp::Gt => cmp_op(|x, y| x > y),
        BinOp::Ge => cmp_op(|x, y| x >= y),
        BinOp::Eq => {
            if va.ty() != vb.ty() {
                return Err(EvalError::new("== on mismatched types"));
            }
            Ok(Value::Bool(va == vb))
        }
        BinOp::Ne => {
            if va.ty() != vb.ty() {
                return Err(EvalError::new("!= on mismatched types"));
            }
            Ok(Value::Bool(va != vb))
        }
        BinOp::And | BinOp::Or => unreachable!("handled above"),
    }
}

fn eval_builtin(builtin: Builtin, args: &[Value]) -> Result<Value, EvalError> {
    match builtin {
        Builtin::Len => Ok(Value::Int(args[0].as_str()?.chars().count() as i64)),
        Builtin::CharAt => {
            let s = args[0].as_str()?;
            let i = args[1].as_int()?;
            let ch = usize::try_from(i)
                .ok()
                .and_then(|i| s.chars().nth(i))
                .ok_or_else(|| {
                    EvalError::new(format!("string index {i} out of bounds for {s:?}"))
                })?;
            Ok(Value::Str(ch.to_string()))
        }
        Builtin::Concat => {
            let mut s = args[0].as_str()?.to_string();
            s.push_str(args[1].as_str()?);
            Ok(Value::Str(s))
        }
        Builtin::ToStr => Ok(Value::Str(args[0].as_int()?.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{resolve_expr, Slots};
    use jcc_model::ast::{Builtin, Expr};

    /// Resolve `expr` against the given fields and locals (names it uses
    /// beyond those get unassigned slots) and evaluate it.
    fn ev_in(
        expr: &Expr,
        fields: &[(&str, Value)],
        locals: &[(&str, Value)],
    ) -> Result<Value, EvalError> {
        let (mut fs, mut ls) = (Slots::default(), Slots::default());
        let mut fv: Vec<Option<Value>> = Vec::new();
        for (name, v) in fields {
            fs.declare(name);
            fv.push(Some(v.clone()));
        }
        let mut lv: Vec<Option<Value>> = Vec::new();
        for (name, v) in locals {
            ls.declare(name);
            lv.push(Some(v.clone()));
        }
        let c = resolve_expr(expr, &mut fs, &mut ls);
        fv.resize(fs.names.len(), None);
        lv.resize(ls.names.len(), None);
        let env = Env {
            fields: &fv,
            field_names: &fs.names,
            locals: &lv,
            local_names: &ls.names,
        };
        eval(&c, &env)
    }

    fn ev(expr: &Expr) -> Result<Value, EvalError> {
        ev_in(expr, &[], &[])
    }

    #[test]
    fn literals() {
        assert_eq!(ev(&Expr::Int(3)).unwrap(), Value::Int(3));
        assert_eq!(ev(&Expr::Bool(true)).unwrap(), Value::Bool(true));
        assert_eq!(
            ev(&Expr::Str("x".into())).unwrap(),
            Value::Str("x".into())
        );
    }

    #[test]
    fn arithmetic_and_comparison() {
        let e = Expr::Binary(
            BinOp::Add,
            Box::new(Expr::Int(2)),
            Box::new(Expr::Binary(BinOp::Mul, Box::new(Expr::Int(3)), Box::new(Expr::Int(4)))),
        );
        assert_eq!(ev(&e).unwrap(), Value::Int(14));
        let lt = Expr::Binary(BinOp::Lt, Box::new(Expr::Int(1)), Box::new(Expr::Int(2)));
        assert_eq!(ev(&lt).unwrap(), Value::Bool(true));
    }

    #[test]
    fn division_by_zero_faults() {
        let e = Expr::Binary(BinOp::Div, Box::new(Expr::Int(1)), Box::new(Expr::Int(0)));
        assert!(ev(&e).is_err());
        let e = Expr::Binary(BinOp::Mod, Box::new(Expr::Int(1)), Box::new(Expr::Int(0)));
        assert!(ev(&e).is_err());
    }

    #[test]
    fn overflow_faults() {
        let e = Expr::Binary(
            BinOp::Add,
            Box::new(Expr::Int(i64::MAX)),
            Box::new(Expr::Int(1)),
        );
        assert!(ev(&e).is_err());
    }

    #[test]
    fn short_circuit_and() {
        // false && (1/0 == 0) must not fault.
        let e = Expr::Binary(
            BinOp::And,
            Box::new(Expr::Bool(false)),
            Box::new(Expr::Binary(
                BinOp::Eq,
                Box::new(Expr::Binary(
                    BinOp::Div,
                    Box::new(Expr::Int(1)),
                    Box::new(Expr::Int(0)),
                )),
                Box::new(Expr::Int(0)),
            )),
        );
        assert_eq!(ev(&e).unwrap(), Value::Bool(false));
    }

    #[test]
    fn fields_and_locals_resolve() {
        let fields = [("f", Value::Int(10))];
        let locals = [("x", Value::Int(32))];
        let e = Expr::Binary(
            BinOp::Add,
            Box::new(Expr::Field("f".into())),
            Box::new(Expr::Var("x".into())),
        );
        assert_eq!(ev_in(&e, &fields, &locals).unwrap(), Value::Int(42));
        let ghost = ev_in(&Expr::Var("ghost".into()), &fields, &locals).unwrap_err();
        assert_eq!(ghost.message, "undefined local `ghost`");
        let ghost = ev_in(&Expr::Field("ghost".into()), &fields, &locals).unwrap_err();
        assert_eq!(ghost.message, "undefined field `ghost`");
    }

    #[test]
    fn builtins() {
        let len = Expr::Call(Builtin::Len, vec![Expr::Str("abc".into())]);
        assert_eq!(ev(&len).unwrap(), Value::Int(3));
        let at = Expr::Call(
            Builtin::CharAt,
            vec![Expr::Str("abc".into()), Expr::Int(1)],
        );
        assert_eq!(ev(&at).unwrap(), Value::Str("b".into()));
        let oob = Expr::Call(
            Builtin::CharAt,
            vec![Expr::Str("abc".into()), Expr::Int(5)],
        );
        assert!(ev(&oob).is_err());
        let neg = Expr::Call(
            Builtin::CharAt,
            vec![Expr::Str("abc".into()), Expr::Int(-1)],
        );
        assert!(ev(&neg).is_err());
        let cc = Expr::Call(
            Builtin::Concat,
            vec![Expr::Str("ab".into()), Expr::Str("cd".into())],
        );
        assert_eq!(ev(&cc).unwrap(), Value::Str("abcd".into()));
        let ts = Expr::Call(Builtin::ToStr, vec![Expr::Int(-7)]);
        assert_eq!(ev(&ts).unwrap(), Value::Str("-7".into()));
    }

    #[test]
    fn value_helpers() {
        assert_eq!(Value::default_of(Type::Int), Value::Int(0));
        assert_eq!(Value::default_of(Type::Bool), Value::Bool(false));
        assert_eq!(Value::default_of(Type::Str), Value::Str(String::new()));
        assert_eq!(Value::Int(1).ty(), Type::Int);
        assert!(Value::Bool(true).as_int().is_err());
        assert!(Value::Int(1).as_bool().is_err());
        assert!(Value::Int(1).as_str().is_err());
        assert_eq!(Value::Str("q".into()).to_string(), "\"q\"");
    }

    #[test]
    fn eq_requires_same_type() {
        let e = Expr::Binary(
            BinOp::Eq,
            Box::new(Expr::Int(1)),
            Box::new(Expr::Bool(true)),
        );
        assert!(ev(&e).is_err());
    }
}
