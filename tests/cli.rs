//! The `gel` command line reports bad input as an error (exit code 1
//! and a message), never as a panic (exit code 101).

use std::process::{Command, Output};

fn gel(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gel")).args(args).output().expect("gel runs")
}

fn assert_error(out: &Output, message: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with(&format!("error: {message}")), "{stderr}");
}

#[test]
fn eval_with_an_out_of_range_label_is_an_error() {
    let out = gel(&["eval", "lab3(x1)", "cycle:4"]);
    assert_error(&out, "lab3 out of range for label dimension 1");
    // Tables whose cell ids overflow are plan errors, not panics: a
    // product over 16 variables on 16 vertices needs 16^16 = 2^64
    // cells, and a max over 13 variables on 32 vertices sweeps 2^65.
    let vars = |from: usize, to: usize, f: &dyn Fn(usize) -> String| {
        (from..=to).map(f).collect::<Vec<_>>().join(",")
    };
    let product = format!(
        "sum_{{{}}}(mul({}))",
        vars(2, 16, &|i| format!("x{i}")),
        vars(1, 16, &|i| format!("lab0(x{i})"))
    );
    let out = gel(&["eval", &product, "cycle:16"]);
    assert_error(&out, "plan needs a 16-variable intermediate table over 16 vertices");
    let max = format!("max_{{{}}}(lab0(x2))", vars(2, 14, &|i| format!("x{i}")));
    let out = gel(&["eval", &max, "cycle:32"]);
    assert_error(&out, "plan needs a 13-variable intermediate table over 32 vertices");
}

#[test]
fn hom_with_a_pattern_past_the_variable_range_is_an_error() {
    let out = gel(&["hom", "path:256", "cycle:4"]);
    assert_error(&out, "pattern needs 256 variables");
}

#[test]
fn hom_with_a_pattern_too_wide_to_eliminate_is_an_error() {
    // K12 has induced width 11: its elimination joins 12 variables,
    // and 50^12 cell ids overflow the engine's keys.
    let out = gel(&["hom", "complete:12", "cycle:50"]);
    assert_error(&out, "plan needs a 12-variable intermediate table over 50 vertices");
}
