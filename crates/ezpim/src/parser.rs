//! The textual ezpim language.
//!
//! A small, line-oriented language with the control semantics the paper's
//! ezpim exposes. Statements inside bodies are either Table II assembly
//! lines (reusing the `mpu-isa` parser) or structured constructs:
//!
//! ```text
//! # options pricing stub
//! ensemble h0.v0 h1.v0 {
//!     init0 r4
//!     while r0 > r1 {
//!         sub r0 r2 r0
//!     }
//!     if r0 == r1 {
//!         add r0 r1 r2
//!     } else {
//!         sub r0 r1 r2
//!     }
//!     for r5 < r6 {
//!         add r0 r1 r0
//!     }
//!     call sqrt
//! }
//! move h0 -> h1 {
//!     memcpy v0.r0 -> v0.r1
//! }
//! send mpu3 {
//!     move h0 -> h2 {
//!         memcpy v0.r0 -> v1.r0
//!     }
//! }
//! recv mpu2
//! sync
//! sub sqrt {
//!     add r0 r0 r1
//! }
//! ```
//!
//! Conditions are `rA == rB`, `rA > rB`, `rA < rB`, and
//! `rA ~= rB skip rC` (fuzzy). `for rC < rL` is the counted loop with
//! counter `rC` and limit `rL`.

use crate::builder::{Body, Cond, EzProgram};
use mpu_isa::{Instruction, RegId};
use std::fmt;

/// Deepest nesting of `while`/`for`/`if` blocks [`parse`] accepts. Parsing
/// and lowering recurse once per level, so unbounded nesting could
/// exhaust the stack; deeper input is a [`ParseError`] instead.
pub const MAX_NESTING: usize = 64;

/// Error parsing ezpim source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// One-based source line.
    pub line: usize,
    /// Problem description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ezpim line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone)]
enum Stmt {
    Instr(Instruction),
    While(Cond, Vec<Stmt>),
    For(RegId, RegId, Vec<Stmt>),
    If(Cond, Vec<Stmt>, Option<Vec<Stmt>>),
    Call(String),
}

#[derive(Debug, Clone)]
struct MemcpyLine {
    src_vrf: u16,
    rs: RegId,
    dst_vrf: u16,
    rd: RegId,
}

/// One move block inside a `send` construct: RFH pairs + memcpy lines.
type SendMoveBlock = (Vec<(u16, u16)>, Vec<MemcpyLine>);

#[derive(Debug, Clone)]
enum Top {
    Ensemble(Vec<(u16, u16)>, Vec<Stmt>),
    Move(Vec<(u16, u16)>, Vec<MemcpyLine>),
    Send(u16, Vec<SendMoveBlock>),
    Recv(u16),
    Sync,
    Sub(String, Vec<Stmt>),
}

struct Lines<'a> {
    lines: Vec<(usize, &'a str)>,
    pos: usize,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Self {
        let lines = text
            .lines()
            .enumerate()
            .filter_map(|(i, raw)| {
                let body = raw.split('#').next().unwrap_or("").trim();
                if body.is_empty() {
                    None
                } else {
                    Some((i + 1, body))
                }
            })
            .collect();
        Self { lines, pos: 0 }
    }

    fn peek(&self) -> Option<(usize, &'a str)> {
        self.lines.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<(usize, &'a str)> {
        let item = self.peek();
        if item.is_some() {
            self.pos += 1;
        }
        item
    }

    /// Line number of the last content line — where "unexpected end of
    /// input" errors point (instead of a meaningless line 0).
    fn last_line(&self) -> usize {
        self.lines.last().map_or(0, |(ln, _)| *ln)
    }
}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError { line, message: message.into() }
}

fn parse_reg(line: usize, tok: &str) -> Result<RegId, ParseError> {
    let digits = tok
        .strip_prefix('r')
        .ok_or_else(|| err(line, format!("expected register like `r0`, found `{tok}`")))?;
    let index = digits.parse::<u16>().map_err(|_| {
        err(line, format!("register index in `{tok}` is not a number (expected `r0`..`r63`)"))
    })?;
    if index > RegId::MAX {
        return Err(err(line, format!("register `{tok}` out of range (r0..r{})", RegId::MAX)));
    }
    Ok(RegId(index))
}

fn parse_u16(line: usize, tok: &str, prefix: &str) -> Result<u16, ParseError> {
    let digits = tok
        .strip_prefix(prefix)
        .ok_or_else(|| err(line, format!("expected `{prefix}N`, found `{tok}`")))?;
    digits
        .parse::<u16>()
        .map_err(|_| err(line, format!("`{prefix}` index in `{tok}` is not a number")))
}

/// Parses `h0.v1` into an `(rfh, vrf)` pair.
fn parse_member(line: usize, tok: &str) -> Result<(u16, u16), ParseError> {
    let (h, v) =
        tok.split_once('.').ok_or_else(|| err(line, format!("expected `hN.vM`, found `{tok}`")))?;
    Ok((parse_u16(line, h, "h")?, parse_u16(line, v, "v")?))
}

/// Parses `v0.r1` into a `(vrf, reg)` pair.
fn parse_vrf_reg(line: usize, tok: &str) -> Result<(u16, RegId), ParseError> {
    let (v, r) =
        tok.split_once('.').ok_or_else(|| err(line, format!("expected `vN.rM`, found `{tok}`")))?;
    Ok((parse_u16(line, v, "v")?, parse_reg(line, r)?))
}

fn parse_cond(line: usize, toks: &[&str]) -> Result<Cond, ParseError> {
    match toks {
        [a, "==", b] => Ok(Cond::Eq(parse_reg(line, a)?, parse_reg(line, b)?)),
        [a, ">", b] => Ok(Cond::Gt(parse_reg(line, a)?, parse_reg(line, b)?)),
        [a, "<", b] => Ok(Cond::Lt(parse_reg(line, a)?, parse_reg(line, b)?)),
        [a, "~=", b, "skip", c] => {
            Ok(Cond::Fuzzy(parse_reg(line, a)?, parse_reg(line, b)?, parse_reg(line, c)?))
        }
        _ => Err(err(line, format!("unrecognized condition `{}`", toks.join(" ")))),
    }
}

/// Rejects multi-step instructions whose destination aliases a source at
/// the statement's own line — the builder would reject them anyway (see
/// [`crate::EzError::RegisterAliasing`]), but only with the enclosing
/// construct's location.
fn check_aliasing(line: usize, instr: &Instruction) -> Result<(), ParseError> {
    use mpu_isa::BinaryOp;
    if let Instruction::Binary { op, rs, rt, rd } = instr {
        let multi_step = matches!(
            op,
            BinaryOp::Mul | BinaryOp::Mac | BinaryOp::QDiv | BinaryOp::QRDiv | BinaryOp::RDiv
        );
        if multi_step && (rd == rs || rd == rt) {
            return Err(err(
                line,
                format!("{} destination r{} aliases a source register", instr.mnemonic(), rd.0),
            ));
        }
    }
    Ok(())
}

/// Parses statements until the matching `}`; returns `(stmts, saw_else)`.
/// `depth` counts the blocks already open around this one.
fn parse_body(lines: &mut Lines<'_>, depth: usize) -> Result<(Vec<Stmt>, bool), ParseError> {
    let mut stmts = Vec::new();
    let nested = |lines: &mut Lines<'_>, ln: usize| {
        if depth == MAX_NESTING {
            return Err(err(ln, format!("blocks nested deeper than {MAX_NESTING} levels")));
        }
        parse_body(lines, depth + 1)
    };
    loop {
        let (ln, text) = lines
            .next()
            .ok_or_else(|| err(lines.last_line(), "unexpected end of input: missing `}`"))?;
        if text == "}" {
            return Ok((stmts, false));
        }
        if text == "} else {" {
            return Ok((stmts, true));
        }
        let toks: Vec<&str> = text.split_whitespace().collect();
        match toks.as_slice() {
            ["while", rest @ .., "{"] => {
                let cond = parse_cond(ln, rest)?;
                let (body, saw_else) = nested(lines, ln)?;
                if saw_else {
                    return Err(err(ln, "`else` is not valid after `while`"));
                }
                stmts.push(Stmt::While(cond, body));
            }
            ["for", counter, "<", limit, "{"] => {
                let c = parse_reg(ln, counter)?;
                let l = parse_reg(ln, limit)?;
                let (body, saw_else) = nested(lines, ln)?;
                if saw_else {
                    return Err(err(ln, "`else` is not valid after `for`"));
                }
                stmts.push(Stmt::For(c, l, body));
            }
            ["if", rest @ .., "{"] => {
                let cond = parse_cond(ln, rest)?;
                let (then, saw_else) = nested(lines, ln)?;
                let otherwise = if saw_else {
                    let (els, nested_else) = nested(lines, ln)?;
                    if nested_else {
                        return Err(err(ln, "dangling `else`"));
                    }
                    Some(els)
                } else {
                    None
                };
                stmts.push(Stmt::If(cond, then, otherwise));
            }
            ["call", name] => stmts.push(Stmt::Call(name.to_string())),
            _ => {
                let instr: Instruction = text.parse().map_err(|m: String| err(ln, m))?;
                check_aliasing(ln, &instr)?;
                stmts.push(Stmt::Instr(instr));
            }
        }
    }
}

/// Parses `memcpy vA.rB -> vC.rD` lines until `}`.
fn parse_move_body(lines: &mut Lines<'_>) -> Result<Vec<MemcpyLine>, ParseError> {
    let mut copies = Vec::new();
    loop {
        let (ln, text) = lines
            .next()
            .ok_or_else(|| err(lines.last_line(), "unexpected end of input in move block"))?;
        if text == "}" {
            return Ok(copies);
        }
        let toks: Vec<&str> = text.split_whitespace().collect();
        match toks.as_slice() {
            ["memcpy", src, "->", dst] => {
                let (src_vrf, rs) = parse_vrf_reg(ln, src)?;
                let (dst_vrf, rd) = parse_vrf_reg(ln, dst)?;
                copies.push(MemcpyLine { src_vrf, rs, dst_vrf, rd });
            }
            _ => return Err(err(ln, format!("expected `memcpy vN.rM -> vN.rM`, got `{text}`"))),
        }
    }
}

fn parse_move_header(line: usize, toks: &[&str]) -> Result<Vec<(u16, u16)>, ParseError> {
    // move h0 -> h1 [, h2 -> h3 ...] {
    let inner = &toks[1..toks.len() - 1]; // strip `move` and `{`
    let mut pairs = Vec::new();
    for chunk in inner.split(|t| *t == ",") {
        match chunk {
            [src, "->", dst] => {
                pairs.push((parse_u16(line, src, "h")?, parse_u16(line, dst, "h")?))
            }
            _ => return Err(err(line, "expected `move hA -> hB { ... }`")),
        }
    }
    if pairs.is_empty() {
        return Err(err(line, "move block needs at least one RFH pair"));
    }
    Ok(pairs)
}

fn parse_top(lines: &mut Lines<'_>) -> Result<Vec<(usize, Top)>, ParseError> {
    let mut tops: Vec<(usize, Top)> = Vec::new();
    while let Some((ln, text)) = lines.next() {
        let toks: Vec<&str> = text.split_whitespace().collect();
        match toks.as_slice() {
            ["ensemble", members @ .., "{"] => {
                let members = members
                    .iter()
                    .map(|m| parse_member(ln, m.trim_end_matches(',')))
                    .collect::<Result<Vec<_>, _>>()?;
                if members.is_empty() {
                    return Err(err(ln, "ensemble needs at least one hN.vM member"));
                }
                let (body, saw_else) = parse_body(lines, 0)?;
                if saw_else {
                    return Err(err(ln, "dangling `else`"));
                }
                tops.push((ln, Top::Ensemble(members, body)));
            }
            ["move", .., "{"] => {
                let pairs = parse_move_header(ln, &toks)?;
                let copies = parse_move_body(lines)?;
                tops.push((ln, Top::Move(pairs, copies)));
            }
            ["send", mpu, "{"] => {
                let dst = parse_u16(ln, mpu, "mpu")?;
                let mut moves = Vec::new();
                loop {
                    let (ln2, t2) = lines
                        .next()
                        .ok_or_else(|| err(ln, "unexpected end of input in send block"))?;
                    if t2 == "}" {
                        break;
                    }
                    let toks2: Vec<&str> = t2.split_whitespace().collect();
                    match toks2.as_slice() {
                        ["move", .., "{"] => {
                            let pairs = parse_move_header(ln2, &toks2)?;
                            let copies = parse_move_body(lines)?;
                            moves.push((pairs, copies));
                        }
                        _ => return Err(err(ln2, "send blocks contain only move blocks")),
                    }
                }
                tops.push((ln, Top::Send(dst, moves)));
            }
            ["recv", mpu] => tops.push((ln, Top::Recv(parse_u16(ln, mpu, "mpu")?))),
            ["sync"] => tops.push((ln, Top::Sync)),
            ["sub", name, "{"] => {
                let (body, saw_else) = parse_body(lines, 0)?;
                if saw_else {
                    return Err(err(ln, "dangling `else`"));
                }
                tops.push((ln, Top::Sub(name.to_string(), body)));
            }
            _ => return Err(err(ln, format!("unrecognized top-level statement `{text}`"))),
        }
    }
    Ok(tops)
}

fn emit_stmts(b: &mut Body<'_>, stmts: &[Stmt]) {
    for stmt in stmts {
        match stmt {
            Stmt::Instr(i) => {
                b.op(*i);
            }
            Stmt::While(cond, body) => {
                b.while_loop(*cond, |b| emit_stmts(b, body));
            }
            Stmt::For(counter, limit, body) => {
                b.for_loop(*counter, *limit, |b| emit_stmts(b, body));
            }
            Stmt::If(cond, then, None) => {
                b.if_then(*cond, |b| emit_stmts(b, then));
            }
            Stmt::If(cond, then, Some(els)) => {
                b.if_else(*cond, |b| emit_stmts(b, then), |b| emit_stmts(b, els));
            }
            Stmt::Call(name) => {
                b.call(name);
            }
        }
    }
}

/// Parses ezpim source text into an [`EzProgram`] (call
/// [`EzProgram::assemble`] for the binary).
///
/// # Errors
///
/// Returns a [`ParseError`] locating the first malformed line, or a
/// wrapped [`EzError`] from lowering (e.g. mask-pool exhaustion).
pub fn parse(text: &str) -> Result<EzProgram, ParseError> {
    let mut lines = Lines::new(text);
    let tops = parse_top(&mut lines)?;
    let mut ez = EzProgram::new();
    for (ln, top) in &tops {
        match top {
            Top::Ensemble(members, body) => {
                ez.ensemble(members, |b| emit_stmts(b, body))
                    .map_err(|e| err(*ln, e.to_string()))?;
            }
            Top::Move(pairs, copies) => {
                ez.transfer(pairs, |t| {
                    for c in copies {
                        t.memcpy(c.src_vrf, c.rs, c.dst_vrf, c.rd);
                    }
                });
            }
            Top::Send(dst, moves) => {
                ez.send(*dst, |s| {
                    for (pairs, copies) in moves {
                        s.transfer(pairs, |t| {
                            for c in copies {
                                t.memcpy(c.src_vrf, c.rs, c.dst_vrf, c.rd);
                            }
                        });
                    }
                });
            }
            Top::Recv(src) => {
                ez.recv(*src);
            }
            Top::Sync => {
                ez.sync();
            }
            Top::Sub(name, body) => {
                ez.subroutine(name, |b| emit_stmts(b, body))
                    .map_err(|e| err(*ln, e.to_string()))?;
            }
        }
    }
    Ok(ez)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_language_example_parses_and_assembles() {
        let src = "\
# demo program
ensemble h0.v0 h1.v0 {
    INIT0 r4
    while r0 > r1 {
        SUB r0 r2 r0
    }
    if r0 == r1 {
        ADD r0 r1 r2
    } else {
        SUB r0 r1 r2
    }
    call sqrt
}
move h0 -> h1 {
    memcpy v0.r0 -> v0.r1
}
send mpu3 {
    move h0 -> h2 {
        memcpy v0.r0 -> v1.r0
    }
}
recv mpu2
sync
sub sqrt {
    ADD r0 r0 r1
}
";
        let ez = parse(src).expect("parse");
        let program = ez.assemble().expect("assemble");
        let text = program.to_string();
        assert!(text.contains("JUMP_COND"));
        assert!(text.contains("SEND mpu3"));
        assert!(text.contains("RECV mpu2"));
        assert!(program.len() > 20);
        // The ezpim source is dramatically shorter than the binary — the
        // Table IV effect.
        assert!(src.lines().count() < program.len());
    }

    #[test]
    fn for_loop_syntax() {
        let ez = parse("ensemble h0.v0 {\n for r5 < r6 {\n INC r0 r0\n }\n}").unwrap();
        let p = ez.assemble().unwrap();
        assert!(p.to_string().contains("CMPLT r5 r6"));
    }

    #[test]
    fn fuzzy_condition_syntax() {
        let ez = parse("ensemble h0.v0 {\n if r0 ~= r1 skip r2 {\n NOP\n }\n}").unwrap();
        let p = ez.assemble().unwrap();
        assert!(p.to_string().contains("FUZZY r0 r1 r2"));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("ensemble h0.v0 {\n BOGUS r1\n}").unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse("frobnicate").unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn missing_brace_reported() {
        let e = parse("ensemble h0.v0 {\n NOP\n").unwrap_err();
        assert!(e.message.contains("missing `}`"));
    }

    #[test]
    fn while_with_else_rejected() {
        let e =
            parse("ensemble h0.v0 {\n while r0 > r1 {\n NOP\n } else {\n NOP\n }\n}").unwrap_err();
        assert!(e.message.contains("not valid after `while`"));
    }

    #[test]
    fn multi_pair_move() {
        let ez = parse("move h0 -> h1 , h2 -> h3 {\n memcpy v0.r0 -> v0.r0\n}").unwrap();
        let p = ez.assemble().unwrap();
        let text = p.to_string();
        assert!(text.contains("MOVE h0 h1"));
        assert!(text.contains("MOVE h2 h3"));
    }

    #[test]
    fn send_rejects_non_move_content() {
        let e = parse("send mpu1 {\n NOP\n}").unwrap_err();
        assert!(e.message.contains("only move blocks"));
    }

    #[test]
    fn register_token_errors_are_specific() {
        // Missing `r` prefix.
        let e = parse("ensemble h0.v0 {\n while x0 > r1 {\n NOP\n }\n}").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("expected register"), "{}", e.message);
        // Non-numeric index.
        let e = parse("ensemble h0.v0 {\n if r0 == rX {\n NOP\n }\n}").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("not a number"), "{}", e.message);
        // Out-of-range index.
        let e = parse("ensemble h0.v0 {\n if r64 == r0 {\n NOP\n }\n}").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("out of range"), "{}", e.message);
    }

    #[test]
    fn member_token_errors_are_specific() {
        let e = parse("ensemble h0.q0 {\n NOP\n}").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("expected `v"), "{}", e.message);
        let e = parse("ensemble hX.v0 {\n NOP\n}").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("not a number"), "{}", e.message);
        let e = parse("ensemble h0v0 {\n NOP\n}").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("hN.vM"), "{}", e.message);
    }

    #[test]
    fn mpu_token_errors_carry_lines() {
        let e = parse("sync\nrecv mpuX").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("not a number"), "{}", e.message);
        let e = parse("send pu3 {\n}").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("expected `mpuN`"), "{}", e.message);
    }

    #[test]
    fn eof_errors_point_at_the_last_line() {
        let e = parse("ensemble h0.v0 {\n NOP\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("missing `}`"), "{}", e.message);
        let e = parse("move h0 -> h1 {\n memcpy v0.r0 -> v0.r1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("move block"), "{}", e.message);
    }

    #[test]
    fn malformed_memcpy_reports_its_line() {
        let e = parse("move h0 -> h1 {\n memcpy v0.rX -> v0.r1\n}").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("not a number"), "{}", e.message);
        let e = parse("move h0 -> h1 {\n memcpy v0.r0 v0.r1\n}").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("memcpy"), "{}", e.message);
    }

    #[test]
    fn aliasing_reports_the_statement_line() {
        let e = parse("ensemble h0.v0 {\n NOP\n MUL r0 r1 r0\n}").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("aliases"), "{}", e.message);
    }

    #[test]
    fn lowering_errors_carry_the_construct_line() {
        // Mask-pool exhaustion: three nested masked constructs exceed the
        // two-level pool; the error points at the ensemble header (the
        // construct whose lowering failed), not line 0.
        let src = "\
sync
ensemble h0.v0 {
    while r0 > r1 {
        while r2 > r3 {
            while r4 > r5 {
                NOP
            }
        }
    }
}
";
        let e = parse(src).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("mask register pool exhausted"), "{}", e.message);
    }

    /// `depth` nested `kind` blocks inside one ensemble.
    fn nested(kind: &str, depth: usize) -> String {
        format!(
            "ensemble h0.v0 {{\n{}{}}}\n",
            format!("{kind} {{\n").repeat(depth),
            "}\n".repeat(depth)
        )
    }

    #[test]
    fn block_nesting_is_bounded() {
        // Within the limit the parser accepts the nesting (lowering may
        // still reject it, e.g. when the mask register pool runs dry).
        assert!(parse(&nested("while r0 > r1", 2)).is_ok());
        if let Err(e) = parse(&nested("while r0 > r1", MAX_NESTING)) {
            assert!(!e.message.contains("nested deeper than"), "{}", e.message);
        }
        let e = parse(&nested("while r0 > r1", MAX_NESTING + 1)).unwrap_err();
        assert_eq!(e.line, MAX_NESTING + 2, "the first block past the limit (after the header)");
        assert!(e.message.contains("nested deeper than"), "{}", e.message);
        // ~3 MB of nested `if`s: a typed error, not a stack overflow.
        let e = parse(&nested("if r0 > r1", 200_000)).unwrap_err();
        assert!(e.message.contains("nested deeper than"), "{}", e.message);
    }
}
