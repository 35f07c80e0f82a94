//! Shared-DAG bombs over the wire. A doubling DAG — `x ↦ x + x` nested
//! 64 times over one shared node per level — is a frame of a few
//! hundred bytes whose unfolding has 2^64 leaves. The server's
//! pre-flight, evaluation and analysis must all answer it, and its
//! `Concat` and indicator-product variants, in time linear in the
//! distinct nodes. The client socket has a read deadline, so a server
//! that unfolds the DAG fails the test instead of hanging it. Deeply
//! nested expression *text* is the other bomb: the parser's depth cap
//! must refuse it before it overflows a connection thread's stack.

use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::time::Duration;

use gel_graph::families::cycle;
use gel_graph::GraphBuilder;
use gel_lang::ast::build::{agg_over, apply, edge, lab, share};
use gel_lang::{analyze, Agg, Expr, Func};
use gel_serve::proto::{
    decode_request, decode_response, encode_request, read_frame, write_frame, ErrorCode, FrameRead,
    Request, Response, TableData, WireTable, MAX_FRAME_LEN,
};
use gel_serve::{Client, ClientError, ServeOptions, Server};

const DEPTH: usize = 64;

/// `x ↦ x + x` nested `depth` times over `share(leaf)`.
fn doubling(leaf: Expr, depth: usize) -> Expr {
    let mut cur = share(leaf);
    for _ in 0..depth {
        cur = share(apply(Func::Add { arity: 2, dim: 1 }, vec![cur.clone(), cur]));
    }
    cur
}

/// A raw protocol connection whose reads give up after a deadline.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    fn open(server: &Server) -> Conn {
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        Conn {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: BufWriter::new(stream),
            buf: Vec::new(),
        }
    }

    fn call(&mut self, req: &Request) -> Response {
        let mut payload = Vec::new();
        encode_request(req, &mut payload);
        // The bomb is small and inside every decoder cap. (Not compared
        // with `==`: the derived `PartialEq` unfolds shared nodes.)
        assert!(payload.len() < 4096 && payload.len() <= MAX_FRAME_LEN, "{} B", payload.len());
        decode_request(&payload).expect("the bomb passes the decoder");
        write_frame(&mut self.writer, &payload).unwrap();
        match read_frame(&mut self.reader, &mut self.buf) {
            Ok(FrameRead::Frame) => decode_response(&self.buf).unwrap(),
            Ok(_) => panic!("connection closed without a reply"),
            Err(e) => panic!("no reply before the read deadline: {e}"),
        }
    }
}

#[test]
fn doubling_dag_bomb_is_answered_in_linear_time() {
    let server = Server::bind(ServeOptions::default()).unwrap();
    // One vertex labelled 1.0: the bomb's only cell is 2^64, exact in
    // an f64.
    server.register_graph("one", GraphBuilder::new(1).build()).unwrap();
    let mut conn = Conn::open(&server);
    let bomb = doubling(lab(0, 1), DEPTH);
    let want = 2f64.powi(DEPTH as i32);

    let resp = conn.call(&Request::Eval { graph: "one".into(), expr: bomb.clone() });
    assert_eq!(resp, Response::Table { vars: vec![1], dim: 1, n: 1, data: vec![want] });

    let resp = conn.call(&Request::EvalBatch {
        graph: "one".into(),
        exprs: vec![bomb.clone(), doubling(lab(0, 1), 3)],
    });
    let table = |v: f64| WireTable { vars: vec![1], dim: 1, n: 1, data: TableData::Dense(vec![v]) };
    assert_eq!(resp, Response::Tables { tables: vec![table(want), table(8.0)] });

    // The report equals a shallow copy's: every depth has the same
    // fragment, width and free variables.
    let resp = conn.call(&Request::Analyze { expr: bomb });
    let text = analyze(&doubling(lab(0, 1), 2)).to_string();
    assert!(text.contains("MPNN"), "{text}");
    assert_eq!(resp, Response::Report { text });

    // A bad atom at the bottom of the bomb is a typed error, and the
    // connection keeps serving.
    let resp = conn.call(&Request::Eval { graph: "one".into(), expr: doubling(lab(3, 1), DEPTH) });
    match resp {
        Response::Error { code: ErrorCode::Analyze, msg } => assert!(msg.contains("lab3"), "{msg}"),
        other => panic!("expected an Analyze error, got {other:?}"),
    }

    // `Concat` doubles the dimension per level: 2^40 is refused by the
    // result cap before any table is allocated, and 2^64 does not fit
    // a dimension at all.
    let concat_doubling = |depth| {
        let mut cur = share(lab(0, 1));
        for _ in 0..depth {
            cur = share(apply(Func::Concat, vec![cur.clone(), cur]));
        }
        cur
    };
    for (depth, want) in [(40, ErrorCode::TooLarge), (DEPTH, ErrorCode::Analyze)] {
        let resp = conn.call(&Request::Eval { graph: "one".into(), expr: concat_doubling(depth) });
        assert!(matches!(&resp, Response::Error { code, .. } if *code == want), "{resp:?}");
    }
    // Nor does a cell count past `u128`: 4^64 rows of dimension 2^63.
    server.register_graph("four", GraphBuilder::new(4).build()).unwrap();
    let open = apply(Func::Concat, (1..=64).map(|v| lab(0, v)).collect());
    let expr = apply(Func::Concat, vec![open, concat_doubling(DEPTH - 1)]);
    let resp = conn.call(&Request::Eval { graph: "four".into(), expr });
    assert!(matches!(&resp, Response::Error { code: ErrorCode::TooLarge, .. }), "{resp:?}");

    // A product of 2^64 copies of one edge atom, summed over both
    // variables on a graph large enough for the sum-product
    // elimination plan: it counts the 128 arcs of the 64-cycle.
    server.register_graph("c64", cycle(64)).unwrap();
    let mut product = share(edge(1, 2));
    for _ in 0..DEPTH {
        product = share(apply(Func::Mul { arity: 2, dim: 1 }, vec![product.clone(), product]));
    }
    let expr = agg_over(Agg::Sum, vec![1, 2], product, None);
    let resp = conn.call(&Request::Eval { graph: "c64".into(), expr });
    assert_eq!(resp, Response::Table { vars: vec![], dim: 1, n: 64, data: vec![128.0] });

    let resp = conn.call(&Request::Ping);
    assert_eq!(resp, Response::Pong);
    server.shutdown();
}

/// About 6000 nested aggregations: ~60 KB, inside `EvalText`'s 1 MiB
/// cap, and deep enough to overflow a connection thread's 2 MiB stack —
/// aborting the whole server — if the parser recursed without a cap.
#[test]
fn nested_text_is_refused_with_a_parse_error() {
    let server = Server::bind(ServeOptions::default()).unwrap();
    server.register_graph("one", GraphBuilder::new(1).build()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let text = format!("{}lab0(x1){}", "sum_{x1}(".repeat(6000), ")".repeat(6000));
    match client.eval_text("one", &text) {
        Err(ClientError::Server { code: ErrorCode::Parse, msg }) => {
            assert!(msg.contains("deeper than"), "{msg}")
        }
        other => panic!("expected a Parse error, got {other:?}"),
    }
    let (_, _, _, data) = client.eval_text("one", "sum_{x1}(lab0(x1))").unwrap();
    assert_eq!(data, vec![1.0]);
    server.shutdown();
}
