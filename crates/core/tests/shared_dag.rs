//! Memoized DAG observers against the unfolded tree. Every observer
//! that memoizes at `Expr::Shared` boundaries must answer exactly as it
//! does on the expression's deep copy with no sharing left, including
//! which error it reports first. On a tree with no `Shared` node the
//! memo is never consulted, so the deep copy runs the plain recursion
//! and serves as the oracle.

use gel_graph::families::cycle;
use gel_graph::{Graph, GraphBuilder};
use gel_lang::ast::build::{
    agg_over, apply, constant, edge, global_agg, lab, lab_vec, nbr_agg, relu, share,
};
use gel_lang::random_expr::{random_mpnn_vertex, RandomExprConfig};
use gel_lang::wl_sim::{cr_expr, cr_graph_expr, k_wl_graph_expr};
use gel_lang::{
    analyze, check_against_graph, expr_dag_hash, is_mpnn, try_eval, Agg, EvalError, Expr, Func,
    TypeError,
};
use gel_tensor::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The deep copy of `e` with every `Shared` wrapper removed.
fn unshare(e: &Expr) -> Expr {
    match e {
        Expr::Shared(rc) => unshare(rc),
        Expr::Apply { func, args } => {
            Expr::Apply { func: func.clone(), args: args.iter().map(unshare).collect() }
        }
        Expr::Aggregate { agg, over, value, guard } => Expr::Aggregate {
            agg: *agg,
            over: over.clone(),
            value: Box::new(unshare(value)),
            guard: guard.as_ref().map(|g| Box::new(unshare(g))),
        },
        leaf => leaf.clone(),
    }
}

fn has_shared(e: &Expr) -> bool {
    match e {
        Expr::Shared(_) => true,
        Expr::Apply { args, .. } => args.iter().any(has_shared),
        Expr::Aggregate { value, guard, .. } => {
            has_shared(value) || guard.as_deref().is_some_and(has_shared)
        }
        _ => false,
    }
}

/// Three-vertex graphs with label dimensions 1 to 3, so `lab_j` and
/// `lab_vec` atoms are in range on some and out of range on others.
fn graphs() -> Vec<Graph> {
    (1..=3)
        .map(|d| {
            let mut b = GraphBuilder::with_label_dim(3, d);
            b.add_arc(0, 1).add_arc(1, 0).add_arc(1, 2).add_arc(2, 1);
            b.build()
        })
        .collect()
}

/// Every memoized observer on `e` against the same observer on its
/// unfolding.
fn assert_observes_like_unfolding(e: &Expr, graphs: &[Graph]) {
    let u = unshare(e);
    assert!(!has_shared(&u));
    assert_eq!(e.validate(), u.validate(), "validate");
    if u.validate().is_ok() {
        assert_eq!(e.dim(), u.dim(), "dim");
        assert_eq!(expr_dag_hash(e), u.structural_hash(), "dag hash");
    }
    assert_eq!(e.free_vars(), u.free_vars(), "free_vars");
    assert_eq!(e.all_vars(), u.all_vars(), "all_vars");
    assert_eq!(analyze(e), analyze(&u), "analyze");
    assert_eq!(is_mpnn(e), is_mpnn(&u), "is_mpnn");
    for g in graphs {
        assert_eq!(
            check_against_graph(e, g),
            check_against_graph(&u, g),
            "label dim {}",
            g.label_dim()
        );
    }
}

/// `Concat(s, s)` nested `depth` times over `share(base)`: `2^depth`
/// copies of `base` in the unfolding, `depth + 1` shared nodes.
fn concat_doubling(base: Expr, depth: usize) -> Expr {
    let mut cur = share(base);
    for _ in 0..depth {
        cur = share(apply(Func::Concat, vec![cur.clone(), cur]));
    }
    cur
}

#[test]
fn wl_simulation_dags_observe_like_their_unfolding() {
    let gs = graphs();
    for rounds in 0..=4 {
        for e in [cr_expr(2, rounds), cr_graph_expr(2, rounds)] {
            assert!(e.validate().is_ok());
            assert_observes_like_unfolding(&e, &gs);
        }
    }
    let e = k_wl_graph_expr(2, 2, 1);
    assert_observes_like_unfolding(&e, &gs);
    // Not vacuous: the label walk rejects every graph but the one the
    // expression was built for.
    let checks: Vec<_> = gs.iter().map(|g| check_against_graph(&e, g)).collect();
    assert_eq!(checks[1], Ok(2));
    assert_eq!(checks[0], Err(EvalError::LabelVecDim { declared: 2, label_dim: 1 }));
}

#[test]
fn planted_errors_report_the_same_first_error() {
    let linear = Func::Linear { weights: Matrix::zeros(3, 2), bias: vec![0.0; 2] };
    let planted: Vec<(Expr, TypeError)> = vec![
        (edge(1, 1), TypeError::RepeatedVariable(1)),
        (lab(0, 0), TypeError::ZeroVariable),
        (
            apply(linear.clone(), vec![lab(0, 1)]),
            TypeError::FuncDimension { func: linear.name(), d_in: 1 },
        ),
        (agg_over(Agg::Sum, vec![2, 2], lab(0, 2), None), TypeError::BadAggregationVars),
        (
            agg_over(Agg::Sum, vec![2], share(lab(0, 1)), Some(share(lab_vec(2, 3)))),
            TypeError::GuardDimension(3),
        ),
    ];
    let gs = graphs();
    for (bad, want) in &planted {
        // Deep inside a shared subtree, behind a later error that is
        // not shared: the shared one comes first.
        let base = apply(Func::Concat, vec![lab(0, 1), nbr_agg(Agg::Sum, 1, 2, bad.clone())]);
        let e = apply(Func::Concat, vec![concat_doubling(base, 6), edge(2, 2)]);
        assert_eq!(e.validate(), Err(want.clone()));
        assert_observes_like_unfolding(&e, &gs);
        // The other order: the unshared error comes first.
        let base = apply(Func::Concat, vec![lab(0, 1), bad.clone()]);
        let e = apply(Func::Concat, vec![edge(2, 2), concat_doubling(base, 6)]);
        assert_eq!(e.validate(), Err(TypeError::RepeatedVariable(2)));
        assert_observes_like_unfolding(&e, &gs);
    }

    // Out-of-range label atoms: the first in walk order wins, and a
    // type error anywhere beats every label error.
    let lab_index = concat_doubling(apply(Func::Concat, vec![lab(0, 1), lab(5, 1)]), 6);
    let lab_vec_dim = concat_doubling(relu(lab_vec(1, 4)), 6);
    let g = &gs[1];
    let e = apply(Func::Concat, vec![lab_index.clone(), lab_vec_dim.clone()]);
    assert_eq!(check_against_graph(&e, g), Err(EvalError::LabelIndex { j: 5, label_dim: 2 }));
    assert_observes_like_unfolding(&e, &gs);
    let e = apply(Func::Concat, vec![lab_vec_dim.clone(), lab_index.clone()]);
    assert_eq!(
        check_against_graph(&e, g),
        Err(EvalError::LabelVecDim { declared: 4, label_dim: 2 })
    );
    assert_observes_like_unfolding(&e, &gs);
    let e = apply(Func::Concat, vec![lab_index, lab_vec_dim, concat_doubling(lab(0, 0), 3)]);
    assert_eq!(check_against_graph(&e, g), Err(EvalError::Type(TypeError::ZeroVariable)));
    assert_observes_like_unfolding(&e, &gs);
}

#[test]
fn doubling_dag_observes_and_evaluates_like_its_unfolding() {
    // x ↦ x + x, twelve times, over one shared node per level.
    let mut cur = share(lab(0, 1));
    for _ in 0..12 {
        cur = share(apply(Func::Add { arity: 2, dim: 1 }, vec![cur.clone(), cur]));
    }
    let closed = global_agg(Agg::Max, 1, cur.clone());
    let gs = graphs();
    for e in [&cur, &closed] {
        assert_observes_like_unfolding(e, &gs);
    }
    let g = &gs[0];
    let t = try_eval(&closed, g).unwrap();
    assert_eq!(t.data(), &[4096.0]);
    assert_eq!(t.data(), try_eval(&unshare(&closed), g).unwrap().data());
}

#[test]
fn shared_indicator_products_evaluate_like_their_unfolding() {
    // E(x1,x2) · E(x1,x2) · …, 2^8 factors over one shared node per
    // level, summed over both variables: the sum-product elimination
    // plan (large enough on 64 vertices) counts the arcs once.
    let mut cur = share(edge(1, 2));
    for _ in 0..8 {
        cur = share(apply(Func::Mul { arity: 2, dim: 1 }, vec![cur.clone(), cur]));
    }
    let e = agg_over(Agg::Sum, vec![1, 2], cur, None);
    let g = cycle(64);
    let t = try_eval(&e, &g).unwrap();
    assert_eq!(t.data(), &[128.0]);
    let unfolded = try_eval(&unshare(&e), &g).unwrap();
    assert_eq!(
        t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        unfolded.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
}

/// Wraps each sub-expression of `e` in `Shared` with probability ½.
fn share_randomly(e: &Expr, rng: &mut StdRng) -> Expr {
    let inner = match e {
        Expr::Apply { func, args } => Expr::Apply {
            func: func.clone(),
            args: args.iter().map(|a| share_randomly(a, rng)).collect(),
        },
        Expr::Aggregate { agg, over, value, guard } => Expr::Aggregate {
            agg: *agg,
            over: over.clone(),
            value: Box::new(share_randomly(value, rng)),
            guard: guard.as_ref().map(|g| Box::new(share_randomly(g, rng))),
        },
        leaf => leaf.clone(),
    };
    if rng.gen_bool(0.5) {
        share(inner)
    } else {
        inner
    }
}

/// Replaces the `k`-th label atom (pre-order, counted from 0) with
/// `bad`; leaves `e` as it is when it has fewer label atoms.
fn plant(e: &Expr, k: &mut isize, bad: &Expr) -> Expr {
    match e {
        Expr::Label { .. } | Expr::LabelVec { .. } => {
            *k -= 1;
            if *k == -1 {
                bad.clone()
            } else {
                e.clone()
            }
        }
        Expr::Apply { func, args } => Expr::Apply {
            func: func.clone(),
            args: args.iter().map(|a| plant(a, k, bad)).collect(),
        },
        Expr::Aggregate { agg, over, value, guard } => Expr::Aggregate {
            agg: *agg,
            over: over.clone(),
            value: Box::new(plant(value, k, bad)),
            guard: guard.as_ref().map(|g| Box::new(plant(g, k, bad))),
        },
        other => other.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random MPNN expressions, randomly shared and repeated, with an
    /// ill-typed or out-of-range atom planted at a random label
    /// position: the DAG observers agree with the unfolded ones.
    #[test]
    fn random_shared_dags_observe_like_their_unfolding(seed in 0u64..5_000, which in 0usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let e = random_mpnn_vertex(&RandomExprConfig::default(), &mut rng);
        let bad = [lab(7, 1), lab(0, 0), lab_vec(1, 5), constant(vec![1.0, 2.0])][which].clone();
        let mut k = rng.gen_range(0..4);
        let planted = plant(&e, &mut k, &bad);
        let s = share_randomly(&planted, &mut rng);
        let dag = apply(Func::Concat, vec![s.clone(), lab(1, 2), s]);
        let gs = graphs();
        let u = unshare(&dag);
        prop_assert_eq!(dag.validate(), u.validate());
        prop_assert_eq!(dag.free_vars(), u.free_vars());
        prop_assert_eq!(dag.all_vars(), u.all_vars());
        prop_assert_eq!(analyze(&dag), analyze(&u));
        for g in &gs {
            prop_assert_eq!(check_against_graph(&dag, g), check_against_graph(&u, g));
        }
    }
}
