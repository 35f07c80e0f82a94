//! `gel` — command-line access to the embedding language and the
//! WL toolbox.
//!
//! ```text
//! gel analyze '<expr>'                  # the recipe: fragment + WL bound
//! gel eval '<expr>' <graph>             # evaluate on a graph
//! gel wl <graph> <graph> [max_k]        # compare graphs up to k-WL
//! gel hom <pattern> <target>            # homomorphism count
//! gel dot <graph>                       # Graphviz export
//! ```
//!
//! Graph specs: `cycle:6`, `petersen`, `shrikhande`, `rook`, `cfi-k4`,
//! `er:20:0.3:7`, `tree:10:3`, `file:graph.el` (see `gelib::spec`).

use gelib::lang::{analyze, check_against_graph, parse, EvalEngine};
use gelib::spec::parse_graph_spec;
use gelib::wl::{cached_cr_equivalent, distinguishing_level};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = run(&args);
    if let Err(e) = result {
        eprintln!("error: {e}");
        eprintln!();
        eprintln!("usage:");
        eprintln!("  gel analyze '<expr>'");
        eprintln!("  gel eval '<expr>' <graph-spec>");
        eprintln!("  gel wl <graph-spec> <graph-spec> [max_k]");
        eprintln!("  gel hom <pattern-spec> <target-spec>");
        eprintln!("  gel dot <graph-spec>");
        std::process::exit(1);
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args {
        [cmd, expr] if cmd == "analyze" => {
            let e = parse(expr).map_err(|e| e.to_string())?;
            println!("expression: {e}");
            println!("recipe:     {}", analyze(&e));
            Ok(())
        }
        [cmd, expr, spec] if cmd == "eval" => {
            let e = parse(expr).map_err(|e| e.to_string())?;
            let g = parse_graph_spec(spec)?;
            check_against_graph(&e, &g).map_err(|e| e.to_string())?;
            let mut engine = EvalEngine::new();
            let table = engine.try_eval(&e, &g).map_err(|e| e.to_string())?;
            match table.vars().len() {
                0 => println!("value: {:?}", table.value()),
                1 => {
                    for v in g.vertices() {
                        println!("v{v}: {:?}", table.cell(&[v]));
                    }
                }
                p => println!(
                    "{p}-vertex embedding with {} cells (dimension {})",
                    table.num_cells(),
                    table.dim()
                ),
            }
            Ok(())
        }
        [cmd, a, b, rest @ ..] if cmd == "wl" => {
            let max_k: usize = match rest {
                [] => 3,
                [k] => k.parse().map_err(|_| "bad max_k".to_string())?,
                _ => return Err("too many arguments".into()),
            };
            let g = parse_graph_spec(a)?;
            let h = parse_graph_spec(b)?;
            println!("isomorphic: {}", gelib::graph::are_isomorphic(&g, &h));
            println!("CR-equivalent: {}", cached_cr_equivalent(&g, &h));
            match distinguishing_level(&g, &h, max_k) {
                Some(k) => println!("first separated at: {k}-WL"),
                None => println!("not separated up to {max_k}-WL"),
            }
            Ok(())
        }
        [cmd, p, t] if cmd == "hom" => {
            let pat = parse_graph_spec(p)?;
            let tgt = parse_graph_spec(t)?;
            let count = gelib::hom::hom_count_with(&mut EvalEngine::new(), &pat, &tgt)
                .map_err(|e| e.to_string())?;
            println!("hom({p}, {t}) = {count}");
            Ok(())
        }
        [cmd, spec] if cmd == "dot" => {
            let g = parse_graph_spec(spec)?;
            print!("{}", gelib::graph::io::to_dot(&g, "g"));
            Ok(())
        }
        _ => Err("unknown or incomplete command".into()),
    }
}
