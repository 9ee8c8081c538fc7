//! Monitor IR → Java source, for the subset `components::gen` emits, and
//! class renaming for corpus copies.

use jcc_core::model::ast::{BinOp, Block, Component, Expr, LValue, LockRef, Stmt, Type, UnOp};

fn ty(t: Type) -> &'static str {
    match t {
        Type::Int => "int",
        Type::Bool => "boolean",
        Type::Str => "String",
    }
}

fn lock(l: &LockRef) -> &str {
    match l {
        LockRef::This => "this",
        LockRef::Named(n) => n,
    }
}

/// The receiver prefix of a monitor call: bare on the implicit monitor.
fn recv(l: &LockRef) -> String {
    match l {
        LockRef::This => String::new(),
        LockRef::Named(n) => format!("{n}."),
    }
}

fn expr(e: &Expr) -> String {
    match e {
        Expr::Int(v) => v.to_string(),
        Expr::Bool(b) => b.to_string(),
        Expr::Var(n) | Expr::Field(n) => n.clone(),
        Expr::Unary(UnOp::Neg, x) => format!("-{}", expr(x)),
        Expr::Unary(UnOp::Not, x) => format!("!{}", expr(x)),
        Expr::Binary(op, a, b) => {
            let sym = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Mod => "%",
                BinOp::Eq => "==",
                BinOp::Ne => "!=",
                BinOp::Lt => "<",
                BinOp::Le => "<=",
                BinOp::Gt => ">",
                BinOp::Ge => ">=",
                BinOp::And => "&&",
                BinOp::Or => "||",
            };
            let wrap = |x: &Expr| match x {
                Expr::Binary(..) => format!("({})", expr(x)),
                _ => expr(x),
            };
            format!("{} {sym} {}", wrap(a), wrap(b))
        }
        Expr::Str(_) | Expr::Call(..) => {
            panic!("string expressions are outside the rendered subset")
        }
    }
}

fn block(b: &Block, depth: usize, out: &mut String) {
    let pad = "    ".repeat(depth);
    for s in b {
        match s {
            Stmt::While { cond, body } => {
                out.push_str(&format!("{pad}while ({}) {{\n", expr(cond)));
                block(body, depth + 1, out);
                out.push_str(&format!("{pad}}}\n"));
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                out.push_str(&format!("{pad}if ({}) {{\n", expr(cond)));
                block(then_branch, depth + 1, out);
                if else_branch.is_empty() {
                    out.push_str(&format!("{pad}}}\n"));
                } else {
                    out.push_str(&format!("{pad}}} else {{\n"));
                    block(else_branch, depth + 1, out);
                    out.push_str(&format!("{pad}}}\n"));
                }
            }
            Stmt::Wait { lock: l } => out.push_str(&format!("{pad}{}wait();\n", recv(l))),
            Stmt::Notify { lock: l } => out.push_str(&format!("{pad}{}notify();\n", recv(l))),
            Stmt::NotifyAll { lock: l } => out.push_str(&format!("{pad}{}notifyAll();\n", recv(l))),
            Stmt::Assign { target, value } => {
                let name = match target {
                    LValue::Field(n) | LValue::Local(n) => n,
                };
                out.push_str(&format!("{pad}{name} = {};\n", expr(value)));
            }
            Stmt::Local { name, ty: t, init } => {
                out.push_str(&format!("{pad}{} {name} = {};\n", ty(*t), expr(init)))
            }
            Stmt::Return(None) => out.push_str(&format!("{pad}return;\n")),
            Stmt::Return(Some(e)) => out.push_str(&format!("{pad}return {};\n", expr(e))),
            Stmt::Synchronized { lock: l, body } => {
                out.push_str(&format!("{pad}synchronized ({}) {{\n", lock(l)));
                block(body, depth + 1, out);
                out.push_str(&format!("{pad}}}\n"));
            }
            Stmt::Skip => panic!("skip is outside the rendered subset"),
        }
    }
}

/// Render `c` as a Java class named `class_name`. `header` is emitted as
/// leading `//` comment lines.
pub fn render(c: &Component, class_name: &str, header: &str) -> String {
    let mut out = String::new();
    for line in header.lines() {
        out.push_str(&format!("// {line}\n"));
    }
    out.push_str(&format!("public class {class_name} {{\n"));
    for l in &c.locks {
        out.push_str(&format!("    private final Object {l} = new Object();\n"));
    }
    for f in &c.fields {
        out.push_str(&format!(
            "    private {} {} = {};\n",
            ty(f.ty),
            f.name,
            expr(&f.init)
        ));
    }
    for m in &c.methods {
        let params: Vec<String> = m
            .params
            .iter()
            .map(|p| format!("{} {}", ty(p.ty), p.name))
            .collect();
        out.push_str(&format!(
            "\n    public {}{} {}({}) {{\n",
            if m.synchronized { "synchronized " } else { "" },
            m.ret.map_or("void", ty),
            m.name,
            params.join(", ")
        ));
        block(&m.body, 2, &mut out);
        out.push_str("    }\n");
    }
    out.push_str("}\n");
    out
}

/// Replace every whole-word occurrence of `from` with `to`.
pub fn rename_word(src: &str, from: &str, to: &str) -> String {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '$';
    let mut out = String::with_capacity(src.len() + 16);
    let mut rest = src;
    while let Some(pos) = rest.find(from) {
        let before_ok = rest[..pos].chars().next_back().is_none_or(|c| !is_ident(c));
        let after = &rest[pos + from.len()..];
        let after_ok = after.chars().next().is_none_or(|c| !is_ident(c));
        out.push_str(&rest[..pos]);
        out.push_str(if before_ok && after_ok { to } else { from });
        rest = after;
    }
    out.push_str(rest);
    out
}

/// Lines of code as `jcc check` counts them: non-blank lines that do not
/// start a comment. Counted here, from the definition, to check the
/// figure the program reports.
pub fn loc(src: &str) -> usize {
    src.lines()
        .filter(|l| {
            let t = l.trim();
            !t.is_empty() && !t.starts_with("//") && !t.starts_with('*') && !t.starts_with("/*")
        })
        .count()
}
