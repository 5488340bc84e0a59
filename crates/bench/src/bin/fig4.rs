//! Fig. 4 — mean prediction-error rates of the energy model for EP, FT and
//! CG on SystemG across parallelism levels.
//!
//! The paper reports 6.64 % (EP), 4.99 % (FT) and 8.31 % (CG) over
//! p ∈ {1, 2, 4, 8, 16, 32, 64, 128} at class B; the expectation for the
//! reproduction is the same *order* — single-digit mean errors with CG the
//! hardest (the paper blames its memory model; ours errs the same way via
//! the flat-`tm` approximation and contention/imbalance).
//!
//! Usage: `cargo run --release -p bench --bin fig4 [--class A|B] [--pmax N]`

use bench::{cg_closure, ep_closure, ft_closure, world_g, ALPHA_CG, ALPHA_EP, ALPHA_FT};
use isoee::calibrate::measured_machine_params;
use isoee::validate::validate_kernel;
use npb::Class;

fn parse_args() -> (Class, usize) {
    let mut class = Class::B;
    let mut pmax = 128usize;
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--class" => {
                i += 1;
                class = match args.get(i).map(String::as_str) {
                    Some("S") => Class::S,
                    Some("W") => Class::W,
                    Some("A") => Class::A,
                    Some("B") | None => Class::B,
                    Some(other) => panic!("unknown class {other}"),
                };
            }
            "--pmax" => {
                i += 1;
                pmax = args
                    .get(i)
                    .expect("--pmax needs a value")
                    .parse()
                    .expect("pmax must be an integer");
            }
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }
    (class, pmax)
}

fn main() {
    let (class, pmax) = parse_args();
    let ps: Vec<usize> = (0..)
        .map(|k| 1usize << k)
        .take_while(|&p| p <= pmax)
        .collect();
    println!("== Fig. 4: average prediction error on SystemG (class {class:?}, p = {ps:?}) ==\n");

    let mut means = Vec::new();
    // (name, world, validation)
    let jobs: Vec<(&str, f64)> = vec![("EP", ALPHA_EP), ("FT", ALPHA_FT), ("CG", ALPHA_CG)];
    for (name, alpha) in jobs {
        let w = world_g(2.8e9, alpha);
        let mach = measured_machine_params(&w);
        let summary = match name {
            "EP" => validate_kernel(&w, &mach, name, &ps, ep_closure(class)),
            "FT" => validate_kernel(&w, &mach, name, &ps, ft_closure(class)),
            "CG" => validate_kernel(&w, &mach, name, &ps, cg_closure(class)),
            _ => unreachable!(),
        };
        println!("{name}:");
        for pt in &summary.points {
            println!(
                "  p={:<4} predicted {:>12.1} J   measured {:>12.1} J   error {:+6.2}%",
                pt.p,
                pt.predicted_j.raw(),
                pt.measured_j.raw(),
                pt.error_pct()
            );
        }
        println!(
            "  mean |error| = {:.2}%   (paper: EP 6.64%, FT 4.99%, CG 8.31%)\n",
            summary.mean_abs_error_pct()
        );
        means.push((name, summary.mean_abs_error_pct()));
    }

    println!("summary:");
    for (name, m) in &means {
        println!("  {name:<3} {m:.2}%");
    }
    let overall = means.iter().map(|(_, m)| m).sum::<f64>() / means.len() as f64;
    println!("  overall mean |error| = {overall:.2}%  (paper: ~5%)");
}
