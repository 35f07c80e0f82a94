//! A textual surface syntax for `GEL(Ω,Θ)` expressions.
//!
//! The grammar mirrors the paper's notation as closely as ASCII allows:
//!
//! ```text
//! expr  := 'lab' INT '(' var ')'            // lab0(x1)       — Lab_j(x_i)
//!        | 'labvec' INT '(' var ')'         // labvec3(x1)    — full ℝ^d label
//!        | 'E' '(' var ',' var ')'          // E(x1,x2)
//!        | '1[' var ('=' | '!=') var ']'    // 1[x1=x2]
//!        | 'const' '[' NUM {',' NUM} ']'    // const[1,0]
//!        | FUNC '(' expr {',' expr} ')'     // relu(e), concat(e,f), …
//!        | AGG '_' '{' var {',' var} '}' '(' expr [ '|' expr ] ')'
//!                                           // sum_{x2}(e | E(x1,x2))
//! var   := 'x' INT                          // 1-based
//! FUNC  := 'relu' | 'sigmoid' | 'tanh' | 'sign' | 'step' | 'id'
//!        | 'clipped_relu' | 'concat' | 'add' | 'mul'
//!        | 'scale' '[' NUM ']' | 'proj' '[' INT ',' INT ']'
//!        | 'hash' '[' INT ']'
//! AGG   := 'sum' | 'mean' | 'max' | 'min'
//! ```
//!
//! `linear` functions carry weight matrices and are built
//! programmatically (see [`crate::ast::build`] and
//! [`crate::architectures`]); they have no textual form.

use std::fmt;

use gel_tensor::Activation;

use crate::ast::{build, CmpOp, Expr};
use crate::func::{Agg, Func};
use crate::table::Var;

/// Deepest accepted expression nesting (the root is depth 0), shared
/// by this parser and gel-serve's binary decoder: it bounds their
/// recursion, so crafted input is refused with an error instead of
/// overflowing the stack.
pub const MAX_EXPR_DEPTH: usize = 512;

/// A parse error with byte position and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input.
    pub pos: usize,
    /// Human-readable message.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses a `GEL(Ω,Θ)` expression; the result is validated
/// ([`Expr::validate`]) before being returned. Nesting deeper than
/// [`MAX_EXPR_DEPTH`] is a parse error.
pub fn parse(input: &str) -> Result<Expr, ParseError> {
    let mut p = Parser { s: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let e = p.expr()?;
    p.skip_ws();
    if p.pos != p.s.len() {
        return Err(p.err("trailing input"));
    }
    e.validate().map_err(|te| ParseError { pos: 0, msg: te.to_string() })?;
    Ok(e)
}

struct Parser<'a> {
    s: &'a [u8],
    pos: usize,
    /// Nesting depth of the expression being parsed.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError { pos: self.pos, msg: msg.to_string() }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.s.len() && self.s[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), ParseError> {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", c as char)))
        }
    }

    fn try_eat(&mut self, c: u8) -> bool {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> String {
        self.skip_ws();
        let start = self.pos;
        while self
            .peek()
            .map(|c| {
                c.is_ascii_alphabetic()
                    || c == b'_' && {
                        // Stop an identifier before '_{' which begins aggregation vars.
                        self.s.get(self.pos + 1) != Some(&b'{')
                    }
            })
            .unwrap_or(false)
        {
            self.pos += 1;
        }
        String::from_utf8_lossy(&self.s[start..self.pos]).into_owned()
    }

    fn integer(&mut self) -> Result<usize, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while self.peek().map(|c| c.is_ascii_digit()).unwrap_or(false) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err("expected an integer"));
        }
        std::str::from_utf8(&self.s[start..self.pos])
            .unwrap()
            .parse()
            .map_err(|_| self.err("integer out of range"))
    }

    fn number(&mut self) -> Result<f64, ParseError> {
        self.skip_ws();
        let start = self.pos;
        if self.peek() == Some(b'-') || self.peek() == Some(b'+') {
            self.pos += 1;
        }
        while self
            .peek()
            .map(|c| {
                c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'-' || c == b'+'
            })
            .unwrap_or(false)
        {
            // Only allow sign after an exponent marker.
            if (self.s[self.pos] == b'-' || self.s[self.pos] == b'+')
                && (self.pos == 0 || !matches!(self.s.get(self.pos - 1), Some(b'e') | Some(b'E')))
            {
                break;
            }
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err("expected a number"));
        }
        std::str::from_utf8(&self.s[start..self.pos])
            .unwrap()
            .parse()
            .map_err(|_| self.err("malformed number"))
    }

    fn var(&mut self) -> Result<Var, ParseError> {
        self.skip_ws();
        if self.peek() != Some(b'x') {
            return Err(self.err("expected a variable like x1"));
        }
        self.pos += 1;
        let i = self.integer()?;
        if i == 0 || i > u8::MAX as usize {
            return Err(self.err("variable index out of range (1-based)"));
        }
        Ok(i as Var)
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        if self.depth > MAX_EXPR_DEPTH {
            return Err(self.err(&format!("expression nested deeper than {MAX_EXPR_DEPTH}")));
        }
        self.depth += 1;
        let e = self.expr_body();
        self.depth -= 1;
        e
    }

    fn expr_body(&mut self) -> Result<Expr, ParseError> {
        self.skip_ws();
        // 1[...] equality atom.
        if self.peek() == Some(b'1') && self.s.get(self.pos + 1) == Some(&b'[') {
            self.pos += 2;
            let a = self.var()?;
            self.skip_ws();
            let op = if self.try_eat(b'=') {
                CmpOp::Eq
            } else if self.peek() == Some(b'!') && self.s.get(self.pos + 1) == Some(&b'=') {
                self.pos += 2;
                CmpOp::Ne
            } else {
                return Err(self.err("expected '=' or '!='"));
            };
            let b = self.var()?;
            self.eat(b']')?;
            return Ok(Expr::Cmp { a, op, b });
        }

        let name = self.ident();
        if name.is_empty() {
            return Err(self.err("expected an expression"));
        }
        match name.as_str() {
            "E" => {
                self.eat(b'(')?;
                let from = self.var()?;
                self.eat(b',')?;
                let to = self.var()?;
                self.eat(b')')?;
                Ok(Expr::Edge { from, to })
            }
            "lab" => {
                let j = self.integer()?;
                self.eat(b'(')?;
                let var = self.var()?;
                self.eat(b')')?;
                Ok(Expr::Label { j, var })
            }
            "labvec" => {
                let dim = self.integer()?;
                self.eat(b'(')?;
                let var = self.var()?;
                self.eat(b')')?;
                Ok(Expr::LabelVec { var, dim })
            }
            "const" => {
                self.eat(b'[')?;
                let mut values = vec![self.number()?];
                while self.try_eat(b',') {
                    values.push(self.number()?);
                }
                self.eat(b']')?;
                Ok(Expr::Const { values })
            }
            "sum" | "mean" | "max" | "min" => {
                let agg = match name.as_str() {
                    "sum" => Agg::Sum,
                    "mean" => Agg::Mean,
                    "max" => Agg::Max,
                    _ => Agg::Min,
                };
                self.eat(b'_')?;
                self.eat(b'{')?;
                let mut over = vec![self.var()?];
                while self.try_eat(b',') {
                    over.push(self.var()?);
                }
                self.eat(b'}')?;
                self.eat(b'(')?;
                let value = self.expr()?;
                let guard = if self.try_eat(b'|') { Some(self.expr()?) } else { None };
                self.eat(b')')?;
                Ok(build::agg_over(agg, over, value, guard))
            }
            "relu" | "sigmoid" | "tanh" | "sign" | "step" | "id" | "clipped_relu" => {
                let act = match name.as_str() {
                    "relu" => Activation::ReLU,
                    "sigmoid" => Activation::Sigmoid,
                    "tanh" => Activation::Tanh,
                    "sign" => Activation::Sign,
                    "step" => Activation::Step,
                    "clipped_relu" => Activation::ClippedReLU,
                    _ => Activation::Identity,
                };
                let args = self.args()?;
                Ok(Expr::Apply { func: Func::Act(act), args })
            }
            "concat" => {
                let args = self.args()?;
                Ok(Expr::Apply { func: Func::Concat, args })
            }
            "add" | "mul" => {
                let args = self.args()?;
                if args.is_empty() {
                    return Err(self.err("add/mul need at least one argument"));
                }
                let dim = args[0].dim();
                let func = if name == "add" {
                    Func::Add { arity: args.len(), dim }
                } else {
                    Func::Mul { arity: args.len(), dim }
                };
                Ok(Expr::Apply { func, args })
            }
            "scale" => {
                self.eat(b'[')?;
                let s = self.number()?;
                self.eat(b']')?;
                let args = self.args()?;
                Ok(Expr::Apply { func: Func::Scale(s), args })
            }
            "proj" => {
                self.eat(b'[')?;
                let start = self.integer()?;
                self.eat(b',')?;
                let len = self.integer()?;
                self.eat(b']')?;
                let args = self.args()?;
                Ok(Expr::Apply { func: Func::Proj { start, len }, args })
            }
            "hash" => {
                self.eat(b'[')?;
                let seed = self.integer()? as u64;
                self.eat(b']')?;
                let args = self.args()?;
                Ok(Expr::Apply { func: Func::Hash { seed }, args })
            }
            other => Err(self.err(&format!("unknown function or form {other:?}"))),
        }
    }

    fn args(&mut self) -> Result<Vec<Expr>, ParseError> {
        self.eat(b'(')?;
        let mut args = vec![self.expr()?];
        while self.try_eat(b',') {
            args.push(self.expr()?);
        }
        self.eat(b')')?;
        Ok(args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::build::*;
    use crate::eval::eval;
    use gel_graph::families::star;

    #[test]
    fn parses_atoms() {
        assert_eq!(parse("lab0(x1)").unwrap(), lab(0, 1));
        assert_eq!(parse("E(x1,x2)").unwrap(), edge(1, 2));
        assert_eq!(parse("1[x1=x2]").unwrap(), eq(1, 2));
        assert_eq!(parse("1[x1!=x2]").unwrap(), ne(1, 2));
        assert_eq!(parse("const[1,0,2.5]").unwrap(), constant(vec![1.0, 0.0, 2.5]));
        assert_eq!(parse("labvec3(x2)").unwrap(), lab_vec(2, 3));
    }

    #[test]
    fn parses_mpnn_layer() {
        let e = parse("relu(add(lab0(x1), sum_{x2}(lab0(x2) | E(x1,x2))))").unwrap();
        let expect = relu(add2(lab(0, 1), nbr_agg(Agg::Sum, 1, 2, lab(0, 2))));
        assert_eq!(e, expect);
    }

    #[test]
    fn parses_multi_var_aggregation() {
        let e = parse("sum_{x1,x2,x3}(mul(E(x1,x2), E(x2,x3), E(x1,x3)))").unwrap();
        assert!(e.free_vars().is_empty());
        assert_eq!(e.all_vars().len(), 3);
    }

    #[test]
    fn display_parse_roundtrip() {
        let exprs = [
            "lab0(x1)",
            "sum_{x2}(lab0(x2) | E(x1,x2))",
            "mean_{x1}(mul(lab0(x1),lab0(x1)))",
            "concat(lab0(x1),lab1(x1))",
            "hash[7](lab0(x1))",
        ];
        for s in exprs {
            let e = parse(s).unwrap();
            let back = parse(&e.to_string()).unwrap();
            assert_eq!(e, back, "roundtrip failed for {s}");
        }
    }

    #[test]
    fn parsed_expression_evaluates() {
        let g = star(3);
        let e = parse("sum_{x2}(const[1] | E(x1,x2))").unwrap();
        let t = eval(&e, &g);
        assert_eq!(t.cell(&[0]), &[3.0]);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("frobnicate(x1)").is_err());
        assert!(parse("lab0(y1)").is_err());
        assert!(parse("sum_{}(lab0(x1))").is_err());
        assert!(parse("lab0(x1) extra").is_err());
        assert!(parse("E(x1,x1)").is_err(), "validation rejects repeated vars");
        assert!(parse("1[x1<x2]").is_err());
    }

    #[test]
    fn rejects_zero_variable() {
        assert!(parse("lab0(x0)").is_err());
    }

    /// About 6000 nested aggregations (~60 KB) overflow a 2 MiB stack —
    /// what gel-serve gives each connection thread — without the depth
    /// cap; with it they are a parse error. A nest at the cap parses.
    #[test]
    fn nesting_past_the_depth_cap_is_an_error() {
        let nest = |d: usize| format!("{}lab0(x1){}", "sum_{x1}(".repeat(d), ")".repeat(d));
        let text = nest(6000);
        let res = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse(&text).map(|_| ()))
            .unwrap()
            .join()
            .expect("parser overflowed its stack");
        assert!(res.unwrap_err().msg.contains("deeper than"));
        assert!(parse(&nest(MAX_EXPR_DEPTH)).is_ok());
        assert!(parse(&nest(MAX_EXPR_DEPTH + 1)).is_err());
    }

    #[test]
    fn whitespace_insensitive() {
        let a = parse("sum_{x2}(lab0(x2)|E(x1,x2))").unwrap();
        let b = parse("  sum_{ x2 } ( lab0( x2 )  |  E( x1 , x2 ) ) ").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn negative_and_scientific_numbers() {
        assert_eq!(parse("const[-1.5,2e3]").unwrap(), constant(vec![-1.5, 2000.0]));
        let e = parse("scale[-0.5](lab0(x1))").unwrap();
        assert_eq!(e.dim(), 1);
    }
}
