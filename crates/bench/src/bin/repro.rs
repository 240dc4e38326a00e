//! `repro` — regenerate every table and figure of the MemFS paper.
//!
//! ```text
//! cargo run -p memfs-bench --release --bin repro -- all
//! cargo run -p memfs-bench --release --bin repro -- fig4 tab1
//! ```

use memfs_bench::{help_text, is_artifact, ARTIFACTS};
use memfs_mtc::experiments::{envelope_figs, fig3, memory, scaling, table2};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", help_text());
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    let mut wanted: Vec<&str> = Vec::new();
    for arg in &args {
        if arg == "all" {
            wanted = ARTIFACTS.iter().map(|(n, _)| *n).collect();
            break;
        }
        if !is_artifact(arg) {
            eprintln!("unknown artifact {arg:?}\n");
            eprint!("{}", help_text());
            std::process::exit(2);
        }
        wanted.push(arg);
    }

    for name in wanted {
        println!("==================================================================");
        println!("== {name}");
        println!("==================================================================");
        run(name);
        println!();
    }
}

fn run(name: &str) {
    match name {
        "fig3a" => {
            let rows = fig3::run_fig3a(64 << 20);
            print!("{}", fig3::render_fig3a(&rows));
        }
        "fig3b" => {
            let rows = fig3::run_fig3b(64 << 20);
            print!("{}", fig3::render_fig3b(&rows));
        }
        "fig4" | "fig5" => {
            let rows = envelope_figs::run_envelope_sweep();
            let bandwidth = name == "fig4";
            for &file in &envelope_figs::FILE_SIZES {
                print!("{}", envelope_figs::render_envelope(&rows, file, bandwidth));
                println!();
            }
        }
        "fig6" => {
            let rows = envelope_figs::run_metadata_sweep();
            print!("{}", envelope_figs::render_metadata(&rows));
        }
        "tab1" => {
            let t = envelope_figs::run_table1();
            print!("{}", envelope_figs::render_table1(&t));
        }
        "tab2" => {
            let rows = table2::run_table2();
            print!("{}", table2::render_table2(&rows));
        }
        "fig7" => {
            let rows = scaling::run_fig7();
            print!("{}", scaling::render_scaling(&rows));
        }
        "fig8" => {
            let rows = scaling::run_fig8();
            print!("{}", scaling::render_scaling(&rows));
        }
        "fig9" | "tab3" => {
            let rows = memory::run_fig9_table3();
            if name == "fig9" {
                print!("{}", memory::render_fig9(&rows));
            } else {
                print!("{}", memory::render_table3(&rows));
            }
        }
        "fig10" => {
            let rows = scaling::run_fig10();
            print!("{}", scaling::render_scaling(&rows));
        }
        "fig11" => {
            let rows = scaling::run_fig11();
            print!("{}", scaling::render_scaling(&rows));
        }
        "fig12" | "fig13" => {
            let rows = scaling::run_fig12_13();
            let keep = if name == "fig12" { "fig12" } else { "fig13" };
            let rows: Vec<_> = rows.into_iter().filter(|r| r.figure == keep).collect();
            print!("{}", scaling::render_scaling(&rows));
        }
        "fig14" | "fig15" => {
            let rows = scaling::run_fig14_15();
            let keep = if name == "fig14" { "fig14" } else { "fig15" };
            let rows: Vec<_> = rows.into_iter().filter(|r| r.figure == keep).collect();
            print!("{}", scaling::render_scaling(&rows));
        }
        "fig16" => {
            let rows = envelope_figs::run_fig16();
            print!("{}", envelope_figs::render_fig16(&rows));
        }
        "montage12" => {
            let (memfs, amfs) = memory::run_montage12_crash(64);
            println!("Montage 12x12 on 64 DAS4 nodes:");
            println!(
                "  MemFS: {}",
                memfs
                    .failed
                    .as_deref()
                    .map(|e| format!("FAILED ({e})"))
                    .unwrap_or_else(|| format!(
                        "completed; aggregate peak {:.1} GB",
                        memfs.aggregate_peak as f64 / 1e9
                    ))
            );
            println!(
                "  AMFS : {}",
                amfs.failed
                    .as_deref()
                    .map(|e| format!("FAILED ({e})"))
                    .unwrap_or_else(|| "completed (paper expects a crash!)".to_string())
            );
        }
        other => unreachable!("unvalidated artifact {other}"),
    }
}
