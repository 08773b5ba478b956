//! Lane-vectorisation smoke test: the fixed-width lane loops of the pair
//! kernels and of the stirring driver are only a win if the compiler actually
//! emits packed-double SIMD for them, and they go scalar silently — one branch
//! in a kernel shape function or one closure that stops inlining is enough.
//! This test disassembles the **real kernels** out of its own binary: starting
//! from the symbol of each entry point it follows direct calls to every
//! function the entry point reaches (the row dispatch `reduce_row_blocks`, its
//! portable block body, its `block_avx2` instantiations), and demands
//!
//! * packed `sqrtpd` in the portable-tier code (SSE2 `xmm`),
//! * packed `vsqrtpd` in **every** `block_avx2` instantiation the entry point
//!   reaches (open and periodic), on `ymm` registers in at least one of them,
//! * and next to each of them packed `divpd` / `vdivpd` where the lane loop
//!   still divides per pair: IAD (`dw_shape(q) / r`) and momentum (`1 / r`,
//!   the viscosity's `μ` and `Π`). Density and grad-h evaluate their shapes
//!   at `q = r · (1/h)` and divide once per row, so their loops hold none.
//!
//! Every pair loop takes one square root per pair, so scalar-only `sqrtsd`
//! (or `divsd` where a divide is required) means the loop did not vectorise.
//! The stirring loop (`TurbulenceDriver::apply`) takes neither: its mode loop
//! is complex products, so it must hold packed `mulpd` in the portable tier
//! and packed `vmulpd` on `ymm` in every `block_avx2` instantiation it
//! reaches. The cell sweep (`find_neighbors_cells`) must reach exactly two
//! `block_avx2` instantiations, one per boundary, and every
//! `scan_cells_avx512` it reaches must hold `vpcompressd` and the union
//! test's two masked `vcmppd` — code no AVX2-only host runs, checked on any
//! x86-64 host. CI runs this in release (`cargo test --release -p sphsim
//! --test simd_lanes`); debug builds skip — `opt-level=0` never vectorises
//! and that is not a regression. The disassembly holds both tiers whatever CPU runs the
//! test, so the `ymm` half needs no AVX2 host.

use sphsim::init::lattice_cube;
use sphsim::physics::density::compute_density;
use sphsim::physics::eos::apply_eos;
use sphsim::physics::gradh::compute_gradh;
use sphsim::physics::iad::compute_div_curl;
use sphsim::physics::momentum::{compute_momentum_energy, MomentumScratch};
use sphsim::physics::neighbors::find_neighbors;
use sphsim::physics::turbulence::TurbulenceDriver;
use sphsim::Boundary;
use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

/// `objdump -d` output cut into functions: symbol → instruction lines.
fn functions(asm: &str) -> BTreeMap<&str, Vec<&str>> {
    let mut out = BTreeMap::new();
    let mut current = None;
    for line in asm.lines() {
        if let Some(symbol) = line.strip_suffix(">:").and_then(|l| l.split_once(" <")).map(|(_, s)| s) {
            current = Some(out.entry(symbol).or_insert_with(Vec::new));
        } else if let Some(body) = &mut current {
            body.push(line);
        }
    }
    out
}

/// Every function reachable from `root` through direct `call`/`jmp` targets
/// (`<symbol>` with no `+offset`), `root` included.
fn reachable<'a>(functions: &BTreeMap<&'a str, Vec<&'a str>>, root: &'a str) -> BTreeSet<&'a str> {
    let mut seen = BTreeSet::from([root]);
    let mut stack = vec![root];
    while let Some(symbol) = stack.pop() {
        for line in &functions[symbol] {
            let target = line.rsplit_once('<').and_then(|(_, t)| t.strip_suffix('>'));
            if let Some((&target, _)) = target.and_then(|t| functions.get_key_value(t)) {
                if seen.insert(target) {
                    stack.push(target);
                }
            }
        }
    }
    seen
}

/// The disassembly of this test binary, or `None` (with the reason printed)
/// where the opcode check cannot mean anything.
fn own_disassembly() -> Option<String> {
    if cfg!(debug_assertions) {
        eprintln!("skipping: debug build never vectorises");
        return None;
    }
    if !cfg!(target_arch = "x86_64") {
        eprintln!("skipping: packed-double opcode check is x86_64-specific");
        return None;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let Ok(dump) = Command::new("objdump").args(["-d", "--no-show-raw-insn"]).arg(&exe).output() else {
        eprintln!("skipping: objdump not available");
        return None;
    };
    assert!(dump.status.success(), "objdump failed on {}", exe.display());
    Some(String::from_utf8_lossy(&dump.stdout).into_owned())
}

/// How many instructions `op` on a `reg` operand `symbol` holds. An
/// instruction line reads `address: mnemonic operands`; SSE2 spells the
/// packed forms without the `v` prefix, so the mnemonic must match whole.
fn count(functions: &BTreeMap<&str, Vec<&str>>, symbol: &str, op: &str, reg: &str) -> usize {
    functions[symbol]
        .iter()
        .filter(|l| l.split_whitespace().nth(1) == Some(op) && l.contains(reg))
        .count()
}

fn has(functions: &BTreeMap<&str, Vec<&str>>, symbol: &str, op: &str, reg: &str) -> bool {
    count(functions, symbol, op, reg) > 0
}

/// The functions `entry` (a fragment of its mangled `sphsim` symbol) reaches.
fn reached_from<'a>(functions: &BTreeMap<&'a str, Vec<&'a str>>, entry: &str) -> BTreeSet<&'a str> {
    let root = functions
        .keys()
        .find(|s| s.starts_with("_ZN6sphsim") && s.contains(entry))
        .unwrap_or_else(|| panic!("{entry}: symbol present in disassembly (it was just called)"));
    reachable(functions, root)
}

/// The functions `entry` reaches, split into its `block_avx2` instantiations
/// and the rest.
fn tiers<'a>(functions: &BTreeMap<&'a str, Vec<&'a str>>, entry: &str) -> (Vec<&'a str>, Vec<&'a str>) {
    reached_from(functions, entry).iter().partition(|s| s.contains("block_avx2"))
}

#[test]
fn pair_kernel_lane_loops_compile_to_packed_double_simd() {
    // Run the four kernels: keeps them in this binary and sanity-checks them.
    let mut p = lattice_cube(6, 1.0, 1.0, 1.3);
    let nl = find_neighbors(&mut p);
    compute_density(&mut p, &nl, None);
    apply_eos(&mut p, None);
    compute_gradh(&mut p, &nl, None);
    compute_div_curl(&mut p, &nl, None);
    compute_momentum_energy(&mut p, &nl, &mut MomentumScratch::default(), None);
    assert!(p.rho.iter().chain(&p.omega).chain(&p.ax).all(|v| v.is_finite()));

    let Some(asm) = own_disassembly() else { return };
    let functions = functions(&asm);
    let has = |symbol: &str, op: &str, reg: &str| has(&functions, symbol, op, reg);
    for (entry, divides) in [
        ("compute_density", false),
        ("compute_gradh", false),
        ("compute_div_curl", true),
        ("compute_momentum_energy", true),
    ] {
        let (mut avx2, portable) = tiers(&functions, entry);
        // A pair loop takes a square root per pair; the momentum kernel's
        // prefactor fill (three divides per *row*, same dispatch) takes none
        // and is not a lane loop.
        avx2.retain(|s| has(s, "vsqrtsd", "%xmm") || has(s, "vsqrtpd", "mm"));

        let packed = |s: &str, sqrt: &str, div: &str, reg: &str| has(s, sqrt, reg) && (!divides || has(s, div, reg));
        assert!(
            portable.iter().any(|s| packed(s, "sqrtpd", "divpd", "%xmm")),
            "{entry}: no packed sqrtpd (+ divpd: {divides}) in the portable-tier code — the lane loop \
             compiled to scalar code (functions reached: {portable:?})"
        );
        // Every AVX2 instantiation (open and periodic) must hold the lane loop
        // in packed VEX form — proof that the kernel closure was compiled into
        // it — and the kernel must reach the full 256-bit width in at least
        // one of them. (Which width the vectoriser picks per instantiation is
        // its cost model's call: the open density loop, the cheapest body,
        // stays two-wide under rustc 1.95.)
        assert!(
            !avx2.is_empty(),
            "{entry}: reaches no block_avx2 instantiation of its pair loop — the row dispatch lost its AVX2 tier"
        );
        for symbol in &avx2 {
            assert!(
                packed(symbol, "vsqrtpd", "vdivpd", "mm"),
                "{entry}: {symbol} has no packed vsqrtpd (+ vdivpd: {divides}) — the kernel closure is \
                 no longer compiled into the AVX2 instantiation:\n{}",
                functions[symbol].join("\n")
            );
        }
        assert!(
            avx2.iter().any(|s| packed(s, "vsqrtpd", "vdivpd", "%ymm")),
            "{entry}: no AVX2 instantiation runs vsqrtpd (+ vdivpd: {divides}) on ymm registers — the \
             lane loop is nowhere four doubles wide (instantiations: {avx2:?})"
        );
    }
}

#[test]
fn stirring_lane_loop_compiles_to_packed_double_simd() {
    // Run the driver: keeps `apply` in this binary and sanity-checks it.
    let mut p = lattice_cube(6, 1.0, 1.0, 1.3);
    let n = p.len();
    TurbulenceDriver::new(1.0, 0.8, 42).apply(&mut p, n, 0.25, None);
    assert!(p.ax.iter().chain(&p.ay).chain(&p.az).all(|v| v.is_finite()));
    assert!(p.ax.iter().any(|&a| a != 0.0));

    let Some(asm) = own_disassembly() else { return };
    let functions = functions(&asm);
    let entry = "TurbulenceDriver5apply17h";
    let (avx2, mut portable) = tiers(&functions, entry);
    // The per-call mode rotations (out of line) multiply packed too.
    portable.retain(|s| !s.contains("TurbulenceDriver9rotations"));
    // No square root marks the lane loop, and a loop gone scalar keeps a few
    // packed multiplies (the powers, a partial SLP group): packed must be
    // the majority of the multiplies where the loop lives.
    let mostly = |s: &str, packed: &str, scalar: &str| {
        let (p, s) = (count(&functions, s, packed, "mm"), count(&functions, s, scalar, "%xmm"));
        p > s
    };
    assert!(
        portable
            .iter()
            .any(|s| has(&functions, s, "mulpd", "%xmm") && mostly(s, "mulpd", "mulsd")),
        "{entry}: no portable-tier function multiplies mostly packed (mulpd over mulsd) — the mode loop \
         compiled to scalar code (functions reached: {portable:?})"
    );
    assert!(
        !avx2.is_empty(),
        "{entry}: reaches no block_avx2 instantiation — the row dispatch lost its AVX2 tier"
    );
    for symbol in &avx2 {
        assert!(
            has(&functions, symbol, "vmulpd", "%ymm") && mostly(symbol, "vmulpd", "vmulsd"),
            "{entry}: {symbol} does not multiply mostly packed with vmulpd on ymm — the mode loop is \
             not four doubles wide in the AVX2 instantiation:\n{}",
            functions[symbol].join("\n")
        );
    }
}

#[test]
fn cell_sweep_compiles_once_per_boundary_with_a_compress_store_scan() {
    // Sweep an open and a periodic set: keeps both instantiations in this
    // binary and sanity-checks them.
    let mut open = lattice_cube(6, 1.0, 1.0, 1.3);
    let mut periodic = lattice_cube(6, 1.0, 1.0, 0.9);
    periodic.boundary = Boundary::unit_box();
    for p in [&mut open, &mut periodic] {
        let nl = find_neighbors(p);
        assert!(nl.total_entries() > 11 * nl.len());
    }

    let Some(asm) = own_disassembly() else { return };
    let functions = functions(&asm);
    let entry = "20find_neighbors_cells17h";
    let reached = reached_from(&functions, entry);
    let named = |name: &str| reached.iter().copied().filter(|s| s.contains(name)).collect::<Vec<_>>();
    // The sweep is compiled once per boundary (open, periodic) and SIMD tier:
    // a second compile-time fork doubles the runner's AVX2 instantiations.
    let avx2 = named("10block_avx2");
    assert_eq!(
        avx2.len(),
        2,
        "{entry}: reaches {} AVX2 sweep instantiations, not one per boundary: {avx2:?}",
        avx2.len()
    );
    // The AVX-512 scan runs only on a host that has it; its code is here on
    // any x86-64 host. Each instantiation must pack the kept ids with
    // `vpcompressd` and take the union test as two compares under the lane
    // mask of the run's tail (`d² ≤ r_i²`, `d² ≤ r_j²`).
    let avx512 = named("17scan_cells_avx512");
    assert!(!avx512.is_empty(), "{entry}: reaches no scan_cells_avx512");
    for symbol in &avx512 {
        let masked_compares = functions[symbol]
            .iter()
            .filter(|l| {
                let mnemonic = l.split_whitespace().nth(1).unwrap_or("");
                mnemonic.starts_with("vcmp") && mnemonic.ends_with("pd") && l.contains("{%k")
            })
            .count();
        assert!(
            has(&functions, symbol, "vpcompressd", "mm") && masked_compares >= 2,
            "{entry}: {symbol} lacks vpcompressd or two masked vcmppd ({masked_compares}) — the \
             compress-store scan or its masked union test is gone:\n{}",
            functions[symbol].join("\n")
        );
    }
}
