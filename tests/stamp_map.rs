//! The Newton solver's stamp map must be invisible: on every golden
//! design under `examples/`, expanded as CMOS and as MTCMOS at W/L 10,
//! scattering stamps through a cached [`StampMap`] yields the permuted
//! matrix that `assemble_into` + `permute_symmetric_into` produce, bit for
//! bit (`to_bits`, so a `-0.0` must survive as `-0.0`).
//!
//! The maps are driven the way `NewtonSolver` drives them: the RCM order
//! comes from the first DC pattern, a map is rebuilt only when the
//! triplet `(row, col)` sequence changes, and each map then scatters a
//! second, unrelated iterate. The mode sequence is DC → forced-IC DC →
//! transient backward Euler → transient trapezoidal.

use mtcmos_suite::fe::parse_str;
use mtcmos_suite::netlist::expand::{expand, ExpandOptions};
use mtcmos_suite::netlist::logic::Logic;
use mtcmos_suite::num::ordering::reverse_cuthill_mckee;
use mtcmos_suite::num::prng::Xoshiro256pp;
use mtcmos_suite::num::sparse::{SparseRows, StampMap, Triplets};
use mtcmos_suite::spice::circuit::Circuit;
use mtcmos_suite::spice::solver::{
    assemble, branch_indices, collect_dyn_caps, CapState, Integrator, StampMode,
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
            let cap_states: Vec<CapState> = (0..caps.len())
                .map(|_| CapState {
                    v: rng.next_f64_in(-ex.vdd, ex.vdd),
                    i: rng.next_f64_in(-1e-4, 1e-4),
                })
                .collect();
            let tran = |method| StampMode::Tran {
                t: 1e-10,
                dt: 2e-11,
                gmin: 1e-12,
                method,
                caps: &caps,
                cap_states: &cap_states,
            };
            let modes = [
                (
                    "dc",
                    StampMode::Dc {
                        gmin: 1e-12,
                        force_ics: false,
                    },
                ),
                (
                    "dc-ic",
                    StampMode::Dc {
                        gmin: 1e-12,
                        force_ics: true,
                    },
                ),
                ("tran-be", tran(Integrator::BackwardEuler)),
                ("tran-trap", tran(Integrator::Trapezoidal)),
            ];
            let stamp = |mode, x: &[f64]| {
                let mut t = Triplets::new(n);
                let mut rhs = vec![0.0; n];
                assemble(c, x, mode, &branches, &mut t, &mut rhs);
                t
            };

            let first = stamp(modes[0].1, &vec![0.0; n]);
            let order = reverse_cuthill_mckee(&first.to_rows().symmetric_adjacency());
            let mut pos = vec![0; n];
            for (k, &o) in order.iter().enumerate() {
                pos[o] = k;
            }
            let mut cached: Option<(StampMap, SparseRows)> = None;
            let mut rebuilds = Vec::new();
            for (mode_tag, mode) in modes {
                let here = format!("{label}/{mode_tag}");
                for x in [vec![0.0; n], random_iterate(&mut rng, c, ex.vdd)] {
                    let t = stamp(mode, &x);
                    let mut want = SparseRows::empty(n);
                    let mut rows = SparseRows::empty(n);
                    t.assemble_into(&mut rows);
                    rows.permute_symmetric_into(&pos, &mut want);
                    match &mut cached {
                        Some((map, perm)) if map.matches(&t) => map.scatter(&t, perm),
                        _ => {
                            rebuilds.push(mode_tag);
                            cached = Some(StampMap::new(&t, &pos));
                        }
                    }
                    let (_, got) = cached.as_ref().expect("map just built");
                    assert_eq!(bits(got), bits(&want), "{here}: permuted matrix differs");
                }
            }
            // Forced ICs add diagonal stamps (every golden has ICs), so
            // the second mode rebuilds. Companions to ground can repeat
            // the IC keys exactly, so the transient may or may not; the
            // integrator switch changes only values and never does.
            assert_eq!(rebuilds[..2], ["dc", "dc-ic"], "{label}: map rebuilds");
            assert!(!rebuilds.contains(&"tran-trap"), "{label}: {rebuilds:?}");
        }
    }
}
