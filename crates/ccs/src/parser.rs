//! A small recursive-descent parser for star expressions.
//!
//! Grammar (standard regular-expression precedence: `*` binds tightest, then
//! `.`, then `+`):
//!
//! ```text
//! expr    := term   ('+' term)*
//! term    := factor ('.' factor)*
//! factor  := atom '*'*
//! atom    := '0' | IDENT | '(' expr ')'
//! IDENT   := [A-Za-z_][A-Za-z0-9_]*       (except the literal "0")
//! ```
//!
//! Nesting is bounded by [`MAX_DEPTH`]: every node the parser builds has a
//! depth, the number of open parentheses around it plus its height in the
//! syntax tree (an atom has height one; `+`, `.` and `*` add one to the
//! height of their operands, so left-deep chains and `*` runs count too).
//! A deeper input is an [`ExprError`], which bounds both the parser's
//! recursion and every later walk of the tree it returns.

use std::error::Error;
use std::fmt;

use crate::StarExpr;

/// The deepest expression [`parse`] accepts.  A node's depth is the number
/// of parentheses open around it plus its syntax-tree height: an atom has
/// height one, and `+`, `.` and `*` add one to their operands' height, so
/// left-deep chains and `*` runs count as much as parentheses.
pub const MAX_DEPTH: usize = 256;

/// A parsed subexpression with its syntax-tree height.
type Parsed = (StarExpr, usize);

/// Errors produced while parsing a star expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExprError {
    /// Byte offset of the problem in the input.
    pub position: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at offset {}: {}",
            self.position, self.message
        )
    }
}

impl Error for ExprError {}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    /// Parentheses open around the current position.
    parens: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input: input.as_bytes(),
            pos: 0,
            parens: 0,
        }
    }

    fn error(&self, message: &str) -> ExprError {
        ExprError {
            position: self.pos,
            message: message.to_owned(),
        }
    }

    /// Rejects a node of syntax-tree height `height` at the current
    /// parenthesis depth if it would nest past [`MAX_DEPTH`].
    fn check_depth(&self, height: usize) -> Result<(), ExprError> {
        if self.parens + height > MAX_DEPTH {
            return Err(self.error(&format!("expression nested deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn node(&self, expr: StarExpr, height: usize) -> Result<Parsed, ExprError> {
        self.check_depth(height)?;
        Ok((expr, height))
    }

    fn skip_ws(&mut self) {
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.input.get(self.pos).copied()
    }

    fn expr(&mut self) -> Result<Parsed, ExprError> {
        let (mut left, mut height) = self.term()?;
        while self.peek() == Some(b'+') {
            self.pos += 1;
            let (right, h) = self.term()?;
            (left, height) = self.node(left.union(right), 1 + height.max(h))?;
        }
        Ok((left, height))
    }

    fn term(&mut self) -> Result<Parsed, ExprError> {
        let (mut left, mut height) = self.factor()?;
        // Juxtaposition of atoms is not allowed; concatenation needs an
        // explicit dot, matching the paper's `·`.
        while self.peek() == Some(b'.') {
            self.pos += 1;
            let (right, h) = self.factor()?;
            (left, height) = self.node(left.concat(right), 1 + height.max(h))?;
        }
        Ok((left, height))
    }

    fn factor(&mut self) -> Result<Parsed, ExprError> {
        let (mut atom, mut height) = self.atom()?;
        while self.peek() == Some(b'*') {
            self.pos += 1;
            (atom, height) = self.node(atom.star(), height + 1)?;
        }
        Ok((atom, height))
    }

    fn atom(&mut self) -> Result<Parsed, ExprError> {
        match self.peek() {
            Some(b'(') => {
                // This '(' plus the atom it must enclose: reject before
                // recursing, so a run of '(' never descends past the bound.
                self.check_depth(2)?;
                self.pos += 1;
                self.parens += 1;
                let (inner, height) = self.expr()?;
                if self.peek() != Some(b')') {
                    return Err(self.error("expected ')'"));
                }
                self.pos += 1;
                self.parens -= 1;
                Ok((inner, height))
            }
            Some(b'0') => {
                self.pos += 1;
                self.node(StarExpr::Empty, 1)
            }
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => {
                let start = self.pos;
                while self.pos < self.input.len()
                    && (self.input[self.pos].is_ascii_alphanumeric()
                        || self.input[self.pos] == b'_')
                {
                    self.pos += 1;
                }
                let name = std::str::from_utf8(&self.input[start..self.pos])
                    .expect("ASCII identifier is valid UTF-8");
                self.node(StarExpr::action(name), 1)
            }
            Some(_) => Err(self.error("expected '0', an action name, or '('")),
            None => Err(self.error("unexpected end of input")),
        }
    }
}

/// Parses a star expression.
///
/// # Errors
///
/// Returns [`ExprError`] describing the first syntax error, or naming
/// [`MAX_DEPTH`] if the expression nests deeper than that.
pub fn parse(input: &str) -> Result<StarExpr, ExprError> {
    let mut p = Parser::new(input);
    let (e, _) = p.expr()?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.error("trailing input after expression"));
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precedence_star_binds_tightest() {
        assert_eq!(
            parse("a.b*").unwrap(),
            StarExpr::action("a").concat(StarExpr::action("b").star())
        );
        assert_eq!(
            parse("(a.b)*").unwrap(),
            StarExpr::action("a").concat(StarExpr::action("b")).star()
        );
    }

    #[test]
    fn precedence_concat_over_union() {
        assert_eq!(
            parse("a.b + c").unwrap(),
            StarExpr::action("a")
                .concat(StarExpr::action("b"))
                .union(StarExpr::action("c"))
        );
    }

    #[test]
    fn union_and_concat_are_left_associative() {
        assert_eq!(
            parse("a + b + c").unwrap(),
            StarExpr::action("a")
                .union(StarExpr::action("b"))
                .union(StarExpr::action("c"))
        );
        assert_eq!(
            parse("a.b.c").unwrap(),
            StarExpr::action("a")
                .concat(StarExpr::action("b"))
                .concat(StarExpr::action("c"))
        );
    }

    #[test]
    fn empty_and_identifiers() {
        assert_eq!(parse("0").unwrap(), StarExpr::Empty);
        assert_eq!(
            parse("coin_inserted").unwrap(),
            StarExpr::action("coin_inserted")
        );
        assert_eq!(parse("  a  ").unwrap(), StarExpr::action("a"));
    }

    #[test]
    fn double_star_parses() {
        assert_eq!(parse("a**").unwrap(), StarExpr::action("a").star().star());
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for bad in [
            "", "+", "a +", "(a", "a)", "a..b", "a b", "*a", "a.+b", "1abc",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    /// The four shapes a hostile input nests with, each `depth` levels
    /// deep: a `*` run, a `.` chain, a `+` chain and nested parentheses.
    fn deep_shapes(depth: usize) -> [String; 4] {
        let chain = |op: &str| vec!["a"; depth].join(op);
        [
            format!("a{}", "*".repeat(depth - 1)),
            chain("."),
            chain("+"),
            format!("{}a{}", "(".repeat(depth - 1), ")".repeat(depth - 1)),
        ]
    }

    #[test]
    fn nesting_is_bounded_by_max_depth() {
        for (accepted, rejected) in deep_shapes(MAX_DEPTH)
            .into_iter()
            .zip(deep_shapes(MAX_DEPTH + 1))
        {
            let head = &accepted[..accepted.len().min(8)];
            assert!(parse(&accepted).is_ok(), "{head}… at MAX_DEPTH");
            let err = parse(&rejected).unwrap_err();
            assert!(
                err.message
                    .contains(&format!("deeper than {MAX_DEPTH} levels")),
                "{head}… at MAX_DEPTH + 1: {err}"
            );
        }
    }

    #[test]
    fn nesting_counts_parentheses_and_operators_together() {
        // Half the budget in parentheses, half in a `*` run inside them.
        let half = MAX_DEPTH / 2;
        let nested = |stars: usize| {
            format!(
                "{}a{}{}",
                "(".repeat(half),
                "*".repeat(stars),
                ")".repeat(half)
            )
        };
        assert!(parse(&nested(MAX_DEPTH - half - 1)).is_ok());
        assert!(parse(&nested(MAX_DEPTH - half)).is_err());
    }

    #[test]
    fn unclosed_parentheses_far_past_the_bound_are_rejected() {
        let err = parse(&"(".repeat(20_000)).unwrap_err();
        assert!(err.message.contains("deeper than"), "{err}");
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse("a + )").unwrap_err();
        assert_eq!(err.position, 4);
        assert!(err.to_string().contains("offset 4"));
    }
}
