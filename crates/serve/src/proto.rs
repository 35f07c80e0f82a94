//! The `gel-serve` wire protocol: length-prefixed frames with a
//! compact binary payload encoding.
//!
//! ## Framing
//!
//! Every message is one frame: a little-endian `u32` payload length
//! followed by that many payload bytes. The length must lie in
//! `1..=`[`MAX_FRAME_LEN`]; a header outside that range is a protocol
//! error detected *before* any buffer is reserved, so a hostile
//! 4-byte header can never make the server allocate gigabytes. The
//! first payload byte is the message tag; request tags occupy
//! `0x01..=0x7f` and response tags `0x81..=0xff`, so a stream cannot
//! confuse the two directions.
//!
//! ## Payload encoding
//!
//! Fixed-width integers are little-endian; `f64`s travel as their IEEE
//! bit patterns (`to_bits`/`from_bits`), which is what makes response
//! tables *bit*-identical to an in-process [`gel_lang::EvalEngine`]
//! run rather than merely close. Strings are UTF-8 with a `u32` length
//! prefix. Every variable-length field is validated against the bytes
//! actually remaining in the frame — and against its own semantic cap
//! — before a single element is reserved (see [`Cur::reserve_cap`]).
//!
//! ## Expressions
//!
//! GEL expressions travel in two forms:
//!
//! * **Text** ([`Request::EvalText`]): the surface syntax of
//!   [`gel_lang::parser`], convenient for hand-driven sessions.
//! * **Binary AST** ([`Request::Eval`]): a recursive encoding that
//!   preserves [`Expr::Shared`] boundaries as definition/backreference
//!   pairs. The WL-simulation expressions of E4/E9 materialize `O(L)`
//!   distinct nodes for `L` rounds but *print* exponentially (display
//!   unfolds sharing); the binary form keeps them `O(L)` on the wire,
//!   and round-trips every expression exactly (`decode ∘ encode = id`,
//!   property-tested in `tests/proto.rs`). Decoding enforces
//!   [`MAX_EXPR_DEPTH`] and [`MAX_EXPR_NODES`] so adversarial nesting
//!   can neither overflow the stack nor balloon memory.

use std::fmt;
use std::sync::Arc;

use gel_graph::{Graph, GraphBuilder, Vertex};
use gel_lang::ast::{CmpOp, Expr};
use gel_lang::func::{Agg, Func};
use gel_tensor::{Activation, Matrix};

/// Hard ceiling on one frame's payload length (16 MiB). Checked
/// against the header before the payload buffer is reserved.
pub const MAX_FRAME_LEN: usize = 1 << 24;

/// Longest accepted graph name.
pub const MAX_NAME_LEN: usize = 255;

/// Longest accepted free-form string (expression text, report text,
/// error messages).
pub const MAX_TEXT_LEN: usize = 1 << 20;

/// Most vertices a registered graph may have.
pub const MAX_GRAPH_VERTICES: usize = 1 << 20;

/// Largest accepted label dimension.
pub const MAX_LABEL_DIM: usize = 1 << 12;

/// Most nodes (shared definitions included) in one binary expression.
pub const MAX_EXPR_NODES: usize = 1 << 17;

/// Most expressions one [`Request::EvalBatch`] may carry.
pub const MAX_BATCH_EXPRS: usize = 256;

/// Deepest accepted expression nesting — bounds decoder recursion so
/// crafted input cannot overflow the stack. The text parser shares the
/// cap, so [`Request::EvalText`] is bounded the same way.
pub use gel_lang::MAX_EXPR_DEPTH;

/// A malformed frame or payload. Decoding never panics and never
/// reserves memory past the frame's real length; it reports one of
/// these instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Human-readable description of the first violation found.
    pub msg: String,
}

impl ProtoError {
    fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.msg)
    }
}

impl std::error::Error for ProtoError {}

/// Structured error classes carried by [`Response::Error`] frames. A
/// request that fails keeps the connection alive — the client sees a
/// typed error frame, never a dropped socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// Malformed payload inside a well-delimited frame.
    Protocol = 1,
    /// The expression text did not parse.
    Parse = 2,
    /// The expression is ill-typed or does not fit the graph
    /// (label atom out of range, label-vector dimension mismatch).
    Analyze = 3,
    /// No graph registered under the requested name.
    UnknownGraph = 4,
    /// Admission control rejected the request: the server is at its
    /// in-flight capacity. Retry later; nothing was evaluated.
    Busy = 5,
    /// The corpus registry is at capacity and the name is new.
    RegistryFull = 6,
    /// The request is structurally valid but exceeds a server limit
    /// (result table too large, graph too big).
    TooLarge = 7,
}

impl ErrorCode {
    fn from_u16(v: u16) -> Result<Self, ProtoError> {
        Ok(match v {
            1 => Self::Protocol,
            2 => Self::Parse,
            3 => Self::Analyze,
            4 => Self::UnknownGraph,
            5 => Self::Busy,
            6 => Self::RegistryFull,
            7 => Self::TooLarge,
            other => return Err(ProtoError::new(format!("unknown error code {other}"))),
        })
    }
}

/// Server statistics returned by [`Response::Stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsReply {
    /// Graphs currently registered.
    pub graphs: u64,
    /// Engines currently resident in the plan cache.
    pub plans: u64,
    /// Eval requests that found a cached engine for their
    /// `(dag_hash, shape)` key.
    pub cache_hits: u64,
    /// Eval requests that had to build (and lower) a fresh engine.
    pub cache_misses: u64,
    /// Engines evicted by the LRU policy.
    pub evictions: u64,
    /// Requests served over the lifetime of the server (errors
    /// included, admission rejections excluded).
    pub requests: u64,
    /// Eval requests rejected by admission control.
    pub rejected: u64,
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Registers `graph` under `name` in the corpus registry,
    /// replacing any previous graph of that name.
    RegisterGraph {
        /// Registry key (≤ [`MAX_NAME_LEN`] bytes).
        name: String,
        /// The graph, shipped in full.
        graph: Graph,
    },
    /// Removes the named graph.
    UnregisterGraph {
        /// Registry key.
        name: String,
    },
    /// Lists registered graph names (sorted).
    ListGraphs,
    /// Evaluates a binary-encoded expression on a registered graph.
    Eval {
        /// Registry key of the target graph.
        graph: String,
        /// The expression (sharing preserved).
        expr: Expr,
    },
    /// Evaluates an expression in surface syntax on a registered
    /// graph.
    EvalText {
        /// Registry key of the target graph.
        graph: String,
        /// Expression text for [`gel_lang::parser::parse`].
        text: String,
    },
    /// Runs the paper's recipe on an expression: fragment, width, WL
    /// upper bound ([`gel_lang::analysis::analyze`]).
    Analyze {
        /// The expression (sharing preserved).
        expr: Expr,
    },
    /// Requests server statistics.
    Stats,
    /// Evaluates several expressions on one registered graph in a
    /// single round-trip. The graph resolves once; each expression
    /// goes through the same per-key plan-cache checkout as a lone
    /// [`Request::Eval`]. The first failing expression aborts the
    /// batch with its typed error — partial results are never sent.
    EvalBatch {
        /// Registry key of the target graph.
        graph: String,
        /// Expressions, ≤ [`MAX_BATCH_EXPRS`] of them.
        exprs: Vec<Expr>,
    },
}

/// How one embedding table's cells travel in a [`Response::Tables`]
/// frame (and, for the sparse form, in [`Response::TableSparse`]).
#[derive(Debug, Clone, PartialEq)]
pub enum TableData {
    /// Row-major `n^p · d` values.
    Dense(Vec<f64>),
    /// Sparse form: strictly ascending flat cell indices and their
    /// `nnz · d` stored values; absent cells are zero rows. This is
    /// what lets a large-`n`, low-`nnz` result fit a frame that its
    /// dense form would blow past.
    Sparse {
        /// Flat cell indices, strictly ascending, each `< n^p`.
        coords: Vec<u64>,
        /// `coords.len() · d` values, exact bit patterns.
        values: Vec<f64>,
    },
}

/// One embedding table inside a [`Response::Tables`] batch reply.
#[derive(Debug, Clone, PartialEq)]
pub struct WireTable {
    /// Free variables, ascending.
    pub vars: Vec<u8>,
    /// Output dimension `d`.
    pub dim: u32,
    /// Vertex count `n` of the graph.
    pub n: u32,
    /// The cells, dense or sparse.
    pub data: TableData,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// The graph was registered.
    Registered {
        /// Vertex count as stored.
        n: u32,
        /// Directed arc count as stored (after deduplication).
        arcs: u64,
    },
    /// The graph was removed.
    Unregistered,
    /// Reply to [`Request::ListGraphs`].
    Graphs {
        /// Registered names, sorted ascending.
        names: Vec<String>,
    },
    /// An embedding table — the full denotation `ξ_φ(G)`.
    Table {
        /// Free variables, ascending.
        vars: Vec<u8>,
        /// Output dimension `d`.
        dim: u32,
        /// Vertex count `n` of the graph.
        n: u32,
        /// Row-major cells, `n^p · d` values, exact bit patterns.
        data: Vec<f64>,
    },
    /// A textual analysis report.
    Report {
        /// `ExpressivenessReport` rendering.
        text: String,
    },
    /// Server statistics.
    Stats(StatsReply),
    /// A structured failure; the connection stays open.
    Error {
        /// Failure class.
        code: ErrorCode,
        /// Human-readable detail.
        msg: String,
    },
    /// A sparse embedding table: the denotation's nonzero cells only.
    /// Sent when the engine kept the result sparse and its dense form
    /// would exceed the server's result cap.
    TableSparse {
        /// Free variables, ascending.
        vars: Vec<u8>,
        /// Output dimension `d`.
        dim: u32,
        /// Vertex count `n` of the graph.
        n: u32,
        /// Flat cell indices, strictly ascending, each `< n^p`.
        coords: Vec<u64>,
        /// `coords.len() · d` values, exact bit patterns.
        values: Vec<f64>,
    },
    /// Reply to [`Request::EvalBatch`]: one table per expression, in
    /// request order, each independently dense or sparse.
    Tables {
        /// The per-expression results.
        tables: Vec<WireTable>,
    },
}

// --- primitive cursor ---------------------------------------------------

/// Bounds-checked read cursor over one frame's payload.
struct Cur<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(b: &'a [u8]) -> Self {
        Self { b, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.b.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.remaining() < n {
            return Err(ProtoError::new(format!(
                "truncated frame: need {n} more bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Validates a wire-declared element count against both a semantic
    /// cap and the bytes actually left in the frame, *before* the
    /// caller reserves anything. This is the single choke point that
    /// keeps adversarial length fields from over-allocating.
    fn reserve_cap(
        &self,
        count: usize,
        elem_bytes: usize,
        cap: usize,
        what: &str,
    ) -> Result<(), ProtoError> {
        if count > cap {
            return Err(ProtoError::new(format!("{what} count {count} exceeds cap {cap}")));
        }
        let need = count
            .checked_mul(elem_bytes)
            .ok_or_else(|| ProtoError::new(format!("{what} length overflows")))?;
        if need > self.remaining() {
            return Err(ProtoError::new(format!(
                "{what} claims {need} bytes but only {} remain in the frame",
                self.remaining()
            )));
        }
        Ok(())
    }

    fn string(&mut self, cap: usize, what: &str) -> Result<String, ProtoError> {
        let len = self.u32()? as usize;
        self.reserve_cap(len, 1, cap, what)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ProtoError::new(format!("{what} is not valid UTF-8")))
    }

    fn f64s(&mut self, count: usize, cap: usize, what: &str) -> Result<Vec<f64>, ProtoError> {
        self.reserve_cap(count, 8, cap, what)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.pos != self.b.len() {
            return Err(ProtoError::new(format!(
                "{} trailing bytes after message",
                self.b.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

// --- expression codec ---------------------------------------------------

const EX_LABEL: u8 = 1;
const EX_LABELVEC: u8 = 2;
const EX_EDGE: u8 = 3;
const EX_CMP: u8 = 4;
const EX_CONST: u8 = 5;
const EX_APPLY: u8 = 6;
const EX_AGG: u8 = 7;
const EX_SHARED_DEF: u8 = 8;
const EX_SHARED_REF: u8 = 9;

const FN_LINEAR: u8 = 1;
const FN_ACT: u8 = 2;
const FN_CONCAT: u8 = 3;
const FN_ADD: u8 = 4;
const FN_MUL: u8 = 5;
const FN_SCALE: u8 = 6;
const FN_PROJ: u8 = 7;
const FN_HASH: u8 = 8;

fn act_to_u8(a: Activation) -> u8 {
    match a {
        Activation::Identity => 0,
        Activation::ReLU => 1,
        Activation::Sigmoid => 2,
        Activation::Tanh => 3,
        Activation::Sign => 4,
        Activation::Step => 5,
        Activation::ClippedReLU => 6,
    }
}

fn act_from_u8(v: u8) -> Result<Activation, ProtoError> {
    Ok(match v {
        0 => Activation::Identity,
        1 => Activation::ReLU,
        2 => Activation::Sigmoid,
        3 => Activation::Tanh,
        4 => Activation::Sign,
        5 => Activation::Step,
        6 => Activation::ClippedReLU,
        other => return Err(ProtoError::new(format!("unknown activation {other}"))),
    })
}

fn agg_to_u8(a: Agg) -> u8 {
    match a {
        Agg::Sum => 0,
        Agg::Mean => 1,
        Agg::Max => 2,
        Agg::Min => 3,
    }
}

fn agg_from_u8(v: u8) -> Result<Agg, ProtoError> {
    Ok(match v {
        0 => Agg::Sum,
        1 => Agg::Mean,
        2 => Agg::Max,
        3 => Agg::Min,
        other => return Err(ProtoError::new(format!("unknown aggregator {other}"))),
    })
}

fn encode_func(f: &Func, out: &mut Vec<u8>) {
    match f {
        Func::Linear { weights, bias } => {
            out.push(FN_LINEAR);
            put_u32(out, weights.rows() as u32);
            put_u32(out, weights.cols() as u32);
            for &w in weights.data() {
                put_f64(out, w);
            }
            put_u32(out, bias.len() as u32);
            for &b in bias {
                put_f64(out, b);
            }
        }
        Func::Act(a) => {
            out.push(FN_ACT);
            out.push(act_to_u8(*a));
        }
        Func::Concat => out.push(FN_CONCAT),
        Func::Add { arity, dim } => {
            out.push(FN_ADD);
            put_u16(out, *arity as u16);
            put_u32(out, *dim as u32);
        }
        Func::Mul { arity, dim } => {
            out.push(FN_MUL);
            put_u16(out, *arity as u16);
            put_u32(out, *dim as u32);
        }
        Func::Scale(s) => {
            out.push(FN_SCALE);
            put_f64(out, *s);
        }
        Func::Proj { start, len } => {
            out.push(FN_PROJ);
            put_u32(out, *start as u32);
            put_u32(out, *len as u32);
        }
        Func::Hash { seed } => {
            out.push(FN_HASH);
            put_u64(out, *seed);
        }
    }
}

fn decode_func(cur: &mut Cur) -> Result<Func, ProtoError> {
    Ok(match cur.u8()? {
        FN_LINEAR => {
            let rows = cur.u32()? as usize;
            let cols = cur.u32()? as usize;
            cur.reserve_cap(rows.max(1), 8 * cols.max(1), MAX_TEXT_LEN, "linear weights")?;
            let data = cur.f64s(
                rows.checked_mul(cols)
                    .ok_or_else(|| ProtoError::new("linear weight size overflows"))?,
                MAX_TEXT_LEN,
                "linear weights",
            )?;
            let blen = cur.u32()? as usize;
            let bias = cur.f64s(blen, MAX_TEXT_LEN, "linear bias")?;
            Func::Linear { weights: Matrix::from_vec(rows, cols, data), bias }
        }
        FN_ACT => Func::Act(act_from_u8(cur.u8()?)?),
        FN_CONCAT => Func::Concat,
        FN_ADD => {
            let arity = cur.u16()? as usize;
            let dim = cur.u32()? as usize;
            Func::Add { arity, dim }
        }
        FN_MUL => {
            let arity = cur.u16()? as usize;
            let dim = cur.u32()? as usize;
            Func::Mul { arity, dim }
        }
        FN_SCALE => Func::Scale(cur.f64()?),
        FN_PROJ => {
            let start = cur.u32()? as usize;
            let len = cur.u32()? as usize;
            Func::Proj { start, len }
        }
        FN_HASH => Func::Hash { seed: cur.u64()? },
        other => return Err(ProtoError::new(format!("unknown function tag {other}"))),
    })
}

/// State threaded through one expression encoding: shared-node
/// definitions already emitted, keyed by `Arc` pointer.
struct ExprEnc {
    shared: std::collections::HashMap<*const Expr, u32>,
}

fn encode_expr_inner(e: &Expr, enc: &mut ExprEnc, out: &mut Vec<u8>) {
    match e {
        Expr::Label { j, var } => {
            out.push(EX_LABEL);
            put_u32(out, *j as u32);
            out.push(*var);
        }
        Expr::LabelVec { var, dim } => {
            out.push(EX_LABELVEC);
            out.push(*var);
            put_u32(out, *dim as u32);
        }
        Expr::Edge { from, to } => {
            out.push(EX_EDGE);
            out.push(*from);
            out.push(*to);
        }
        Expr::Cmp { a, op, b } => {
            out.push(EX_CMP);
            out.push(*a);
            out.push(if *op == CmpOp::Eq { 0 } else { 1 });
            out.push(*b);
        }
        Expr::Const { values } => {
            out.push(EX_CONST);
            put_u32(out, values.len() as u32);
            for &v in values {
                put_f64(out, v);
            }
        }
        Expr::Apply { func, args } => {
            out.push(EX_APPLY);
            encode_func(func, out);
            put_u16(out, args.len() as u16);
            for a in args {
                encode_expr_inner(a, enc, out);
            }
        }
        Expr::Aggregate { agg, over, value, guard } => {
            out.push(EX_AGG);
            out.push(agg_to_u8(*agg));
            out.push(over.len() as u8);
            out.extend_from_slice(over);
            out.push(u8::from(guard.is_some()));
            encode_expr_inner(value, enc, out);
            if let Some(g) = guard {
                encode_expr_inner(g, enc, out);
            }
        }
        Expr::Shared(rc) => {
            let p = Arc::as_ptr(rc);
            if let Some(&idx) = enc.shared.get(&p) {
                out.push(EX_SHARED_REF);
                put_u32(out, idx);
            } else {
                out.push(EX_SHARED_DEF);
                encode_expr_inner(rc, enc, out);
                let idx = enc.shared.len() as u32;
                enc.shared.insert(p, idx);
            }
        }
    }
}

/// Encodes `e` into `out` (appending), preserving [`Expr::Shared`]
/// structure: each distinct shared node is emitted once and
/// back-referenced afterwards, so WL-simulation DAGs stay linear on
/// the wire.
pub fn encode_expr(e: &Expr, out: &mut Vec<u8>) {
    let mut enc = ExprEnc { shared: std::collections::HashMap::new() };
    encode_expr_inner(e, &mut enc, out);
}

/// State threaded through one expression decoding.
struct ExprDec {
    shared: Vec<Arc<Expr>>,
    nodes: usize,
}

fn decode_expr_inner(cur: &mut Cur, dec: &mut ExprDec, depth: usize) -> Result<Expr, ProtoError> {
    if depth > MAX_EXPR_DEPTH {
        return Err(ProtoError::new(format!("expression deeper than {MAX_EXPR_DEPTH}")));
    }
    dec.nodes += 1;
    if dec.nodes > MAX_EXPR_NODES {
        return Err(ProtoError::new(format!("expression larger than {MAX_EXPR_NODES} nodes")));
    }
    Ok(match cur.u8()? {
        EX_LABEL => {
            let j = cur.u32()? as usize;
            let var = cur.u8()?;
            Expr::Label { j, var }
        }
        EX_LABELVEC => {
            let var = cur.u8()?;
            let dim = cur.u32()? as usize;
            Expr::LabelVec { var, dim }
        }
        EX_EDGE => {
            let from = cur.u8()?;
            let to = cur.u8()?;
            Expr::Edge { from, to }
        }
        EX_CMP => {
            let a = cur.u8()?;
            let op = match cur.u8()? {
                0 => CmpOp::Eq,
                1 => CmpOp::Ne,
                other => return Err(ProtoError::new(format!("unknown comparison {other}"))),
            };
            let b = cur.u8()?;
            Expr::Cmp { a, op, b }
        }
        EX_CONST => {
            let len = cur.u32()? as usize;
            Expr::Const { values: cur.f64s(len, MAX_TEXT_LEN, "const values")? }
        }
        EX_APPLY => {
            let func = decode_func(cur)?;
            let argc = cur.u16()? as usize;
            // One byte is the smallest possible argument encoding.
            cur.reserve_cap(argc, 1, MAX_EXPR_NODES, "apply args")?;
            let mut args = Vec::with_capacity(argc);
            for _ in 0..argc {
                args.push(decode_expr_inner(cur, dec, depth + 1)?);
            }
            Expr::Apply { func, args }
        }
        EX_AGG => {
            let agg = agg_from_u8(cur.u8()?)?;
            let over_len = cur.u8()? as usize;
            let over = cur.take(over_len)?.to_vec();
            let has_guard = cur.u8()?;
            let value = Box::new(decode_expr_inner(cur, dec, depth + 1)?);
            let guard = match has_guard {
                0 => None,
                1 => Some(Box::new(decode_expr_inner(cur, dec, depth + 1)?)),
                other => return Err(ProtoError::new(format!("bad guard flag {other}"))),
            };
            Expr::Aggregate { agg, over, value, guard }
        }
        EX_SHARED_DEF => {
            let inner = decode_expr_inner(cur, dec, depth + 1)?;
            let rc = Arc::new(inner);
            dec.shared.push(Arc::clone(&rc));
            Expr::Shared(rc)
        }
        EX_SHARED_REF => {
            let idx = cur.u32()? as usize;
            let rc = dec.shared.get(idx).ok_or_else(|| {
                ProtoError::new(format!("shared backreference {idx} before its definition"))
            })?;
            Expr::Shared(Arc::clone(rc))
        }
        other => return Err(ProtoError::new(format!("unknown expression tag {other}"))),
    })
}

/// Decodes one expression from the cursor position. The result is
/// structurally identical to what [`encode_expr`] consumed, shared
/// nodes included; it is *not* semantically validated — the server
/// runs [`gel_lang::check_against_graph`] before evaluating.
fn decode_expr(cur: &mut Cur) -> Result<Expr, ProtoError> {
    let mut dec = ExprDec { shared: Vec::new(), nodes: 0 };
    decode_expr_inner(cur, &mut dec, 0)
}

// --- graph codec --------------------------------------------------------

fn encode_graph(g: &Graph, out: &mut Vec<u8>) {
    put_u32(out, g.num_vertices() as u32);
    put_u32(out, g.label_dim() as u32);
    put_u32(out, g.num_arcs() as u32);
    for (u, v) in g.arcs() {
        put_u32(out, u);
        put_u32(out, v);
    }
    for &l in g.labels_flat() {
        put_f64(out, l);
    }
}

fn decode_graph(cur: &mut Cur) -> Result<Graph, ProtoError> {
    let n = cur.u32()? as usize;
    if n > MAX_GRAPH_VERTICES {
        return Err(ProtoError::new(format!("graph has {n} vertices, cap {MAX_GRAPH_VERTICES}")));
    }
    let dim = cur.u32()? as usize;
    if dim == 0 || dim > MAX_LABEL_DIM {
        return Err(ProtoError::new(format!("label dimension {dim} outside 1..={MAX_LABEL_DIM}")));
    }
    let arcs = cur.u32()? as usize;
    cur.reserve_cap(arcs, 8, MAX_FRAME_LEN / 8, "arcs")?;
    let mut b = GraphBuilder::with_label_dim(n, dim);
    for _ in 0..arcs {
        let u = cur.u32()? as usize;
        let v = cur.u32()? as usize;
        if u >= n || v >= n {
            return Err(ProtoError::new(format!("arc ({u},{v}) out of range for n={n}")));
        }
        b.add_arc(u as Vertex, v as Vertex);
    }
    let labels = cur.f64s(
        n.checked_mul(dim).ok_or_else(|| ProtoError::new("label block overflows"))?,
        MAX_FRAME_LEN / 8,
        "labels",
    )?;
    for v in 0..n {
        b.set_label(v as Vertex, &labels[v * dim..(v + 1) * dim]);
    }
    Ok(b.build())
}

// --- message codec ------------------------------------------------------

const RQ_PING: u8 = 0x01;
const RQ_REGISTER: u8 = 0x02;
const RQ_UNREGISTER: u8 = 0x03;
const RQ_LIST: u8 = 0x04;
const RQ_EVAL: u8 = 0x05;
const RQ_EVAL_TEXT: u8 = 0x06;
const RQ_ANALYZE: u8 = 0x07;
const RQ_STATS: u8 = 0x08;
const RQ_EVAL_BATCH: u8 = 0x09;

const RS_PONG: u8 = 0x81;
const RS_REGISTERED: u8 = 0x82;
const RS_UNREGISTERED: u8 = 0x83;
const RS_GRAPHS: u8 = 0x84;
const RS_TABLE: u8 = 0x85;
const RS_REPORT: u8 = 0x86;
const RS_STATS: u8 = 0x87;
const RS_ERROR: u8 = 0x88;
const RS_TABLE_SPARSE: u8 = 0x89;
const RS_TABLES: u8 = 0x8a;

/// Sub-tags for [`WireTable`] entries inside a [`Response::Tables`]
/// payload.
const TB_DENSE: u8 = 0;
const TB_SPARSE: u8 = 1;

/// Encodes the shared `(vars, dim, n)` head of any table body.
fn put_table_head(out: &mut Vec<u8>, vars: &[u8], dim: u32, n: u32) {
    out.push(vars.len() as u8);
    out.extend_from_slice(vars);
    put_u32(out, dim);
    put_u32(out, n);
}

/// Encodes a sparse cell block: `u64` nnz, the coordinates, then the
/// `nnz · dim` values.
fn put_sparse_cells(out: &mut Vec<u8>, coords: &[u64], values: &[f64]) {
    put_u64(out, coords.len() as u64);
    for &c in coords {
        put_u64(out, c);
    }
    for &v in values {
        put_f64(out, v);
    }
}

/// Decodes and validates a sparse cell block for a table with the
/// given shape: nnz capped against the frame, coordinates strictly
/// ascending and in range for `n^p`, values exactly `nnz · dim` long.
/// Corruption yields a [`ProtoError`], never a panic — the invariants
/// checked here are exactly what `EmbeddingTable::from_sparse_parts`
/// would assert on.
fn sparse_cells(
    cur: &mut Cur,
    p: usize,
    dim: usize,
    n: u32,
) -> Result<(Vec<u64>, Vec<f64>), ProtoError> {
    let nnz = usize::try_from(cur.u64()?)
        .map_err(|_| ProtoError::new("sparse table nnz overflows this platform"))?;
    cur.reserve_cap(nnz, 8, MAX_FRAME_LEN / 8, "sparse coords")?;
    let cells = (u128::from(n)).pow(p as u32);
    let mut coords = Vec::with_capacity(nnz);
    let mut prev: Option<u64> = None;
    for _ in 0..nnz {
        let c = cur.u64()?;
        if u128::from(c) >= cells {
            return Err(ProtoError::new(format!("sparse coord {c} out of range for n={n}^{p}")));
        }
        if prev.is_some_and(|last| last >= c) {
            return Err(ProtoError::new("sparse coords not strictly ascending"));
        }
        prev = Some(c);
        coords.push(c);
    }
    let vlen =
        nnz.checked_mul(dim).ok_or_else(|| ProtoError::new("sparse value block overflows"))?;
    let values = cur.f64s(vlen, MAX_FRAME_LEN / 8, "sparse values")?;
    Ok((coords, values))
}

fn encode_wire_table(t: &WireTable, out: &mut Vec<u8>) {
    match &t.data {
        TableData::Dense(data) => {
            out.push(TB_DENSE);
            put_table_head(out, &t.vars, t.dim, t.n);
            put_u64(out, data.len() as u64);
            for &v in data {
                put_f64(out, v);
            }
        }
        TableData::Sparse { coords, values } => {
            out.push(TB_SPARSE);
            put_table_head(out, &t.vars, t.dim, t.n);
            put_sparse_cells(out, coords, values);
        }
    }
}

fn decode_wire_table(cur: &mut Cur) -> Result<WireTable, ProtoError> {
    let sub = cur.u8()?;
    let p = cur.u8()? as usize;
    let vars = cur.take(p)?.to_vec();
    let dim = cur.u32()?;
    let n = cur.u32()?;
    let data = match sub {
        TB_DENSE => {
            let len = usize::try_from(cur.u64()?)
                .map_err(|_| ProtoError::new("table length overflows this platform"))?;
            TableData::Dense(cur.f64s(len, MAX_FRAME_LEN / 8, "table data")?)
        }
        TB_SPARSE => {
            let (coords, values) = sparse_cells(cur, p, dim as usize, n)?;
            TableData::Sparse { coords, values }
        }
        other => return Err(ProtoError::new(format!("unknown table sub-tag {other}"))),
    };
    Ok(WireTable { vars, dim, n, data })
}

fn name_string(cur: &mut Cur) -> Result<String, ProtoError> {
    cur.string(MAX_NAME_LEN, "name")
}

/// Encodes `req` as one payload (no frame header) into `out`,
/// clearing it first.
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    out.clear();
    match req {
        Request::Ping => out.push(RQ_PING),
        Request::RegisterGraph { name, graph } => {
            out.push(RQ_REGISTER);
            put_string(out, name);
            encode_graph(graph, out);
        }
        Request::UnregisterGraph { name } => {
            out.push(RQ_UNREGISTER);
            put_string(out, name);
        }
        Request::ListGraphs => out.push(RQ_LIST),
        Request::Eval { graph, expr } => {
            out.push(RQ_EVAL);
            put_string(out, graph);
            encode_expr(expr, out);
        }
        Request::EvalText { graph, text } => {
            out.push(RQ_EVAL_TEXT);
            put_string(out, graph);
            put_string(out, text);
        }
        Request::Analyze { expr } => {
            out.push(RQ_ANALYZE);
            encode_expr(expr, out);
        }
        Request::Stats => out.push(RQ_STATS),
        Request::EvalBatch { graph, exprs } => {
            out.push(RQ_EVAL_BATCH);
            put_string(out, graph);
            put_u32(out, exprs.len() as u32);
            for e in exprs {
                encode_expr(e, out);
            }
        }
    }
}

/// Decodes one request payload. Fails (never panics) on truncation,
/// trailing bytes, unknown tags, or any cap violation.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    let mut cur = Cur::new(payload);
    let req = match cur.u8()? {
        RQ_PING => Request::Ping,
        RQ_REGISTER => {
            let name = name_string(&mut cur)?;
            let graph = decode_graph(&mut cur)?;
            Request::RegisterGraph { name, graph }
        }
        RQ_UNREGISTER => Request::UnregisterGraph { name: name_string(&mut cur)? },
        RQ_LIST => Request::ListGraphs,
        RQ_EVAL => {
            let graph = name_string(&mut cur)?;
            let expr = decode_expr(&mut cur)?;
            Request::Eval { graph, expr }
        }
        RQ_EVAL_TEXT => {
            let graph = name_string(&mut cur)?;
            let text = cur.string(MAX_TEXT_LEN, "expression text")?;
            Request::EvalText { graph, text }
        }
        RQ_ANALYZE => Request::Analyze { expr: decode_expr(&mut cur)? },
        RQ_STATS => Request::Stats,
        RQ_EVAL_BATCH => {
            let graph = name_string(&mut cur)?;
            let count = cur.u32()? as usize;
            // One byte is the smallest possible expression encoding.
            cur.reserve_cap(count, 1, MAX_BATCH_EXPRS, "batch expressions")?;
            let mut exprs = Vec::with_capacity(count);
            for _ in 0..count {
                exprs.push(decode_expr(&mut cur)?);
            }
            Request::EvalBatch { graph, exprs }
        }
        other => return Err(ProtoError::new(format!("unknown request tag {other:#04x}"))),
    };
    cur.finish()?;
    Ok(req)
}

/// Encodes `resp` as one payload (no frame header) into `out`,
/// clearing it first.
pub fn encode_response(resp: &Response, out: &mut Vec<u8>) {
    out.clear();
    match resp {
        Response::Pong => out.push(RS_PONG),
        Response::Registered { n, arcs } => {
            out.push(RS_REGISTERED);
            put_u32(out, *n);
            put_u64(out, *arcs);
        }
        Response::Unregistered => out.push(RS_UNREGISTERED),
        Response::Graphs { names } => {
            out.push(RS_GRAPHS);
            put_u32(out, names.len() as u32);
            for n in names {
                put_string(out, n);
            }
        }
        Response::Table { vars, dim, n, data } => {
            out.push(RS_TABLE);
            out.push(vars.len() as u8);
            out.extend_from_slice(vars);
            put_u32(out, *dim);
            put_u32(out, *n);
            put_u64(out, data.len() as u64);
            for &v in data {
                put_f64(out, v);
            }
        }
        Response::Report { text } => {
            out.push(RS_REPORT);
            put_string(out, text);
        }
        Response::Stats(s) => {
            out.push(RS_STATS);
            for v in [
                s.graphs,
                s.plans,
                s.cache_hits,
                s.cache_misses,
                s.evictions,
                s.requests,
                s.rejected,
            ] {
                put_u64(out, v);
            }
        }
        Response::Error { code, msg } => {
            out.push(RS_ERROR);
            put_u16(out, *code as u16);
            put_string(out, msg);
        }
        Response::TableSparse { vars, dim, n, coords, values } => {
            out.push(RS_TABLE_SPARSE);
            put_table_head(out, vars, *dim, *n);
            put_sparse_cells(out, coords, values);
        }
        Response::Tables { tables } => {
            out.push(RS_TABLES);
            put_u32(out, tables.len() as u32);
            for t in tables {
                encode_wire_table(t, out);
            }
        }
    }
}

/// Decodes one response payload with the same guarantees as
/// [`decode_request`].
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    let mut cur = Cur::new(payload);
    let resp = match cur.u8()? {
        RS_PONG => Response::Pong,
        RS_REGISTERED => {
            let n = cur.u32()?;
            let arcs = cur.u64()?;
            Response::Registered { n, arcs }
        }
        RS_UNREGISTERED => Response::Unregistered,
        RS_GRAPHS => {
            let count = cur.u32()? as usize;
            // Each name costs at least its 4-byte length prefix.
            cur.reserve_cap(count, 4, MAX_FRAME_LEN / 4, "graph names")?;
            let mut names = Vec::with_capacity(count);
            for _ in 0..count {
                names.push(name_string(&mut cur)?);
            }
            Response::Graphs { names }
        }
        RS_TABLE => {
            let p = cur.u8()? as usize;
            let vars = cur.take(p)?.to_vec();
            let dim = cur.u32()?;
            let n = cur.u32()?;
            let len = cur.u64()?;
            let len = usize::try_from(len)
                .map_err(|_| ProtoError::new("table length overflows this platform"))?;
            let data = cur.f64s(len, MAX_FRAME_LEN / 8, "table data")?;
            Response::Table { vars, dim, n, data }
        }
        RS_REPORT => Response::Report { text: cur.string(MAX_TEXT_LEN, "report")? },
        RS_STATS => Response::Stats(StatsReply {
            graphs: cur.u64()?,
            plans: cur.u64()?,
            cache_hits: cur.u64()?,
            cache_misses: cur.u64()?,
            evictions: cur.u64()?,
            requests: cur.u64()?,
            rejected: cur.u64()?,
        }),
        RS_ERROR => {
            let code = ErrorCode::from_u16(cur.u16()?)?;
            let msg = cur.string(MAX_TEXT_LEN, "error message")?;
            Response::Error { code, msg }
        }
        RS_TABLE_SPARSE => {
            let p = cur.u8()? as usize;
            let vars = cur.take(p)?.to_vec();
            let dim = cur.u32()?;
            let n = cur.u32()?;
            let (coords, values) = sparse_cells(&mut cur, p, dim as usize, n)?;
            Response::TableSparse { vars, dim, n, coords, values }
        }
        RS_TABLES => {
            let count = cur.u32()? as usize;
            // Each entry costs at least its sub-tag + head bytes.
            cur.reserve_cap(count, 1, MAX_BATCH_EXPRS, "batch tables")?;
            let mut tables = Vec::with_capacity(count);
            for _ in 0..count {
                tables.push(decode_wire_table(&mut cur)?);
            }
            Response::Tables { tables }
        }
        other => return Err(ProtoError::new(format!("unknown response tag {other:#04x}"))),
    };
    cur.finish()?;
    Ok(resp)
}

// --- framing ------------------------------------------------------------

/// Writes `payload` as one frame (`u32` length header + bytes).
pub fn write_frame(w: &mut impl std::io::Write, payload: &[u8]) -> std::io::Result<()> {
    debug_assert!(!payload.is_empty() && payload.len() <= MAX_FRAME_LEN);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// What [`read_frame`] produced.
pub enum FrameRead {
    /// A complete frame; the payload is in the caller's buffer.
    Frame,
    /// The peer closed the connection cleanly before a header.
    Eof,
    /// The header violates the framing rules (zero or oversized
    /// length). The stream is desynchronized; the caller must close it
    /// after reporting the error.
    Malformed(ProtoError),
}

/// Reads one frame into `buf` (cleared and reused across calls — the
/// steady-state read path performs no allocations once the buffer has
/// grown to the session's largest frame). The length header is
/// validated against [`MAX_FRAME_LEN`] *before* any reservation.
pub fn read_frame(r: &mut impl std::io::Read, buf: &mut Vec<u8>) -> std::io::Result<FrameRead> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut header[filled..])? {
            0 if filled == 0 => return Ok(FrameRead::Eof),
            0 => return Ok(FrameRead::Malformed(ProtoError::new("connection died mid-header"))),
            k => filled += k,
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len == 0 || len > MAX_FRAME_LEN {
        return Ok(FrameRead::Malformed(ProtoError::new(format!(
            "frame length {len} outside 1..={MAX_FRAME_LEN}"
        ))));
    }
    buf.clear();
    buf.resize(len, 0);
    match r.read_exact(buf) {
        Ok(()) => Ok(FrameRead::Frame),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
            Ok(FrameRead::Malformed(ProtoError::new("connection died mid-payload")))
        }
        Err(e) => Err(e),
    }
}
