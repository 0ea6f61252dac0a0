//! The Newton solver's compiled stamps must be invisible: on every golden
//! design under `examples/`, expanded as CMOS and as MTCMOS at W/L 10,
//! the system [`NewtonSolver::linearize`] gathers from values-only stamps
//! is the one `assemble` → `assemble_into` → `permute_symmetric_into`
//! produces, bit for bit (`to_bits`, so a `-0.0` must survive as
//! `-0.0`), and so is its right-hand side. `assemble` itself is pinned
//! to the pre-lowering reference assembly by the solver's unit tests.
//!
//! The solver is driven the way `dc.rs` and `tran.rs` drive it: the RCM
//! order comes from the first DC pattern, and the mode sequence is DC →
//! forced-IC DC → transient backward Euler → transient trapezoidal, with
//! a fresh iterate at every step. Then the shape changes under the
//! solver's stamp map: a capacitor list with a moved terminal, a shorter
//! one, the original again, and forced-IC DC after the transient. Each
//! must rebuild the map; gathering stale stamps would put values in the
//! wrong slots. (The initial conditions themselves are the borrowed
//! circuit's, so they cannot change under a solver.) The switch from
//! backward Euler to trapezoidal, and the second iterate of every mode,
//! must not rebuild it: they gather values only.

use mtcmos_suite::fe::parse_str;
use mtcmos_suite::netlist::expand::{expand, ExpandOptions};
use mtcmos_suite::netlist::logic::Logic;
use mtcmos_suite::num::prng::Xoshiro256pp;
use mtcmos_suite::num::sparse::{SparseRows, Triplets};
use mtcmos_suite::spice::circuit::Circuit;
use mtcmos_suite::spice::solver::{
    assemble, branch_indices, collect_dyn_caps, CapState, Integrator, NewtonSolver, StampMode,
};
use std::path::PathBuf;

fn golden_files() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut files: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("examples/ is readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "mtk"))
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (
                name,
                std::fs::read_to_string(&p).expect("golden is readable"),
            )
        })
        .collect();
    files.sort();
    assert!(
        files.len() >= 5,
        "expected the golden set, found {}",
        files.len()
    );
    files
}

fn bits(m: &SparseRows) -> Vec<Vec<(usize, u64)>> {
    m.pattern()
        .iter()
        .enumerate()
        .map(|(r, cols)| cols.iter().map(|&c| (c, m.get(r, c).to_bits())).collect())
        .collect()
}

fn vec_bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// An iterate with node voltages spread over (and past) the rails and
/// small branch currents, so MOSFETs land in every region, including
/// exact cutoff at 0 V.
fn random_iterate(rng: &mut Xoshiro256pp, circuit: &Circuit, vdd: f64) -> Vec<f64> {
    let n_nodes = circuit.node_count() - 1;
    (0..circuit.unknown_count())
        .map(|i| match (i < n_nodes, rng.next_index(4)) {
            (true, 0) => 0.0,
            (true, _) => rng.next_f64_in(-0.2, vdd + 0.2),
            (false, _) => rng.next_f64_in(-1e-3, 1e-3),
        })
        .collect()
}

#[test]
fn stamp_map_scatter_is_bit_identical_to_assemble_and_permute() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x57A3_9A11);
    for (file, src) in golden_files() {
        let design = parse_str(&src, &file).unwrap_or_else(|e| panic!("{file}: {e}"));
        let zeros = vec![Logic::Zero; design.netlist.primary_inputs().len()];
        let settled = design.netlist.evaluate(&zeros).expect("settles");
        for (tag, opts) in [
            ("cmos", ExpandOptions::cmos()),
            ("mtcmos", ExpandOptions::mtcmos(10.0)),
        ] {
            let label = format!("{file}/{tag}");
            let mut ex = expand(&design.netlist, &design.tech, &opts)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            ex.apply_initial_state(&settled);
            let c = &ex.circuit;
            let n = c.unknown_count();
            let branches = branch_indices(c);
            let caps = collect_dyn_caps(c);
            assert!(caps.len() > 1, "{label}: too few caps to reshape");
            // The same list with one terminal moved to another node, and
            // the list without its first entry.
            let mut moved = caps.clone();
            moved[0].a = caps
                .iter()
                .map(|cap| cap.a)
                .find(|&a| a != caps[0].a && a != caps[0].b && !a.is_ground())
                .expect("a second capacitive node");
            let shorter = caps[1..].to_vec();
            let cap_states: Vec<CapState> = (0..caps.len())
                .map(|_| CapState {
                    v: rng.next_f64_in(-ex.vdd, ex.vdd),
                    i: rng.next_f64_in(-1e-4, 1e-4),
                })
                .collect();
            let tran = |method, caps| StampMode::Tran {
                t: 1e-10,
                dt: 2e-11,
                gmin: 1e-12,
                method,
                caps,
                cap_states: &cap_states,
            };
            let dc = |force_ics| StampMode::Dc {
                gmin: 1e-12,
                force_ics,
            };
            // Each mode with the stamp maps it builds: only the
            // integrator switch keeps the map.
            let modes = [
                ("dc", dc(false), 1),
                ("dc-ic", dc(true), 1),
                ("tran-be", tran(Integrator::BackwardEuler, &caps), 1),
                ("tran-trap", tran(Integrator::Trapezoidal, &caps), 0),
                ("moved terminal", tran(Integrator::Trapezoidal, &moved), 1),
                ("shorter list", tran(Integrator::Trapezoidal, &shorter), 1),
                ("original list", tran(Integrator::Trapezoidal, &caps), 1),
                ("dc-ic again", dc(true), 1),
            ];

            let mut solver = NewtonSolver::new(c);
            for (mode_tag, mode, builds) in modes {
                let here = format!("{label}/{mode_tag}");
                let before = solver.stamp_map_builds();
                for x in [vec![0.0; n], random_iterate(&mut rng, c, ex.vdd)] {
                    let (got, got_rhs, pos) = solver.linearize(&x, mode);
                    let mut t = Triplets::new(n);
                    let mut rhs = vec![0.0; n];
                    assemble(c, &x, mode, &branches, &mut t, &mut rhs);
                    let mut rows = SparseRows::empty(n);
                    let mut want = SparseRows::empty(n);
                    t.assemble_into(&mut rows);
                    rows.permute_symmetric_into(pos, &mut want);
                    assert_eq!(bits(got), bits(&want), "{here}: permuted matrix differs");
                    assert_eq!(vec_bits(got_rhs), vec_bits(&rhs), "{here}: rhs differs");
                }
                let built = solver.stamp_map_builds() - before;
                assert_eq!(built, builds, "{here}: stamp maps built");
            }
        }
    }
}
