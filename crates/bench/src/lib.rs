//! Experiment harness regenerating every table and figure of the dCAM paper.
//!
//! Each binary in `src/bin/` reproduces one artifact:
//!
//! | binary              | paper artifact |
//! |---------------------|----------------|
//! | `table2`            | Table 2 (+ Fig. 8 scatter points) |
//! | `table3`            | Table 3 (+ Fig. 9 series) |
//! | `fig10`             | Fig. 10 — Dr-acc vs number of permutations `k` |
//! | `fig11`             | Fig. 11 — C-acc / Dr-acc / `n_g/k` coupling |
//! | `fig12_convergence` | Fig. 12(c) — epochs & time to 90% of best loss |
//! | `fig13_usecase`     | Fig. 13 — surgeon-skills use case |
//!
//! Criterion benches in `benches/` cover the timing panels:
//! `fig12_training` (training time per epoch vs `|T|` and `D`) and
//! `fig12_dcam` (dCAM computation time vs `D`, `|T|`, `k`).
//!
//! All binaries accept `--quick` (default) or `--full`, print the table to
//! stdout and write machine-readable JSON under `results/`.

pub mod attribution;
pub mod harness;

pub use attribution::{attribution_for, dr_acc_of_method};
pub use harness::{parse_scale, write_json, RunScale};
