//! Reproduces Table 2 of the AutoQ paper (verification of quantum algorithms
//! against pre/post-conditions) at laptop scale.
//!
//! Usage: `cargo run --release -p autoq-bench --bin table2 [--large]`
//!
//! The default parameters keep every row under a few seconds; `--large`
//! scales the families up (closer to the paper's server-scale parameters,
//! at the price of minutes of runtime).
//!
//! The Hybrid column evaluates one-state inputs of composition-encoded
//! gates on a hash-consed DAG (`autoq_core::composition`, *The one-state
//! path*); the Composition column is the paper's setting.

use autoq_bench::table2::{bv_row, grover_all_row, grover_single_row, mc_toffoli_row, Table2Row};

fn main() {
    let large = std::env::args().any(|arg| arg == "--large");

    let bv_sizes: Vec<u32> = if large {
        vec![20, 40, 60, 80, 95]
    } else {
        vec![8, 12, 16, 20]
    };
    let grover_single_sizes: Vec<u32> = if large { vec![2, 3, 4, 5] } else { vec![2, 3] };
    let mct_sizes: Vec<u32> = if large {
        vec![4, 6, 8, 10, 12]
    } else {
        vec![3, 4, 5, 6]
    };
    let grover_all_sizes: Vec<u32> = if large { vec![2, 3, 4] } else { vec![2, 3] };

    println!("# Table 2 — verification against pre- and post-conditions");
    println!();
    println!(
        "Hybrid applies a composition-encoded gate whose input holds one quantum state \
         on a hash-consed DAG instead of the tagged ladder, a deviation from the paper's \
         Hybrid setting; the Composition column keeps the paper's ladder for every gate."
    );
    println!();
    println!("{}", Table2Row::markdown_header());

    let mut rows: Vec<Table2Row> = Vec::new();
    for n in bv_sizes {
        rows.push(bv_row(n));
        println!("{}", rows.last().unwrap().to_markdown());
    }
    for m in grover_single_sizes {
        rows.push(grover_single_row(m, None));
        println!("{}", rows.last().unwrap().to_markdown());
    }
    for m in mct_sizes {
        rows.push(mc_toffoli_row(m));
        println!("{}", rows.last().unwrap().to_markdown());
    }
    for m in grover_all_sizes {
        rows.push(grover_all_row(m, None));
        println!("{}", rows.last().unwrap().to_markdown());
    }

    println!();
    let violations = rows.iter().filter(|r| !r.verified).count();
    let hybrid_never_slower = rows
        .iter()
        .filter(|r| r.hybrid_analysis > r.composition_analysis)
        .count();
    println!(
        "Rows: {} | specification violations: {violations}",
        rows.len()
    );
    println!(
        "Rows where Hybrid was slower than Composition: {hybrid_never_slower} (the paper reports Hybrid is consistently faster)"
    );
}
