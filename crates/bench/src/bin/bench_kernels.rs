//! Kernel and end-to-end benchmarks for the CPU hot path, with a
//! regression gate.
//!
//! Measures the layers the ADMM iteration spends its time in:
//!
//! * CSR SpMV;
//! * `Aᵀx`, scatter kernel vs. the cached gather transpose;
//! * the reduced-KKT operator apply (Eq. 3);
//! * a full Jacobi-preconditioned PCG solve, a fresh iterate and workspace
//!   per call vs. a reused workspace (both `pcg_with`);
//! * the symmetric permutation of eqqp_0400's KKT matrix under AMD, a
//!   sort of every entry vs. the counting sort `SymmetricPermutation::new`
//!   runs;
//! * the structure search of §4.2 on control_0040's `P`/`A`/`Aᵀ` string at
//!   `C = 16`, a copy of the quadratic greedy scheduler and hash-map LZW
//!   it replaced vs. `search_structures`;
//! * end-to-end PCG-backend solves of the largest control/lasso suite
//!   instances;
//! * a telemetry-overhead check: the disabled-tracing solve path may cost
//!   at most 2% more than the default-settings baseline path (asserted
//!   in-process, same host, median of interleaved pairs), the traced path
//!   reported.
//!
//! Output is a flat JSON map written to `BENCH_kernels.json`. With
//! `--check`, the run instead compares its dimensionless `speedup_*`
//! metrics against that committed baseline and fails when one falls below
//! 75% of its recorded value (a 25% regression band — raw nanosecond
//! metrics are recorded for inspection but not gated, since CI hosts
//! differ). A baseline speedup this build does not measure is skipped.

use std::process::ExitCode;
use std::time::Instant;

use std::collections::HashMap;

use rsqp_bench::median;
use rsqp_encode::{
    search_structures, Alphabet, MacStructure, SparsityString, StructureSet, DOLLAR,
};
use rsqp_linsys::{
    amd_ordering, inverse_permutation, pcg_with, KktMatrix, LinearOperator, PcgSettings,
    PcgWorkspace, ReducedKktOp, SymmetricPermutation,
};
use rsqp_problems::{generate, Domain};
use rsqp_solver::{LinSysKind, QpProblem, Settings, Solver};
use rsqp_sparse::{CooMatrix, CscMatrix, CsrMatrix, TransposeCache};

/// Baseline/output location, relative to the workspace root CI runs from.
const BASELINE: &str = "BENCH_kernels.json";
/// Gate: a speedup metric may not fall below this fraction of baseline.
const TOLERANCE: f64 = 0.75;
/// Gate: the disabled-telemetry solve may not cost more than this fraction
/// over the default-settings baseline path (same process, same host,
/// median ratio of interleaved pairs — so the band can be tight). Running
/// faster is not a regression.
const TRACE_OVERHEAD_TOLERANCE: f64 = 0.02;

struct Options {
    check: bool,
    quick: bool,
    update: bool,
}

fn parse_args() -> Options {
    let mut o = Options { check: false, quick: false, update: false };
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--check" => o.check = true,
            "--quick" => o.quick = true,
            "--update" => o.update = true,
            other => panic!("unknown option {other} (expected --check / --quick / --update)"),
        }
    }
    o
}

/// Deterministic xorshift64* generator (the bench must not depend on an
/// RNG crate).
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Random sparse matrix with ~`per_row` entries per row.
fn random_csr(nrows: usize, ncols: usize, per_row: usize, rng: &mut Rng) -> CsrMatrix {
    let mut coo = CooMatrix::new(nrows, ncols);
    for i in 0..nrows {
        for _ in 0..per_row {
            coo.push(i, rng.below(ncols), rng.next_f64());
        }
    }
    coo.to_csr()
}

/// Diagonally dominant PSD band matrix (a well-conditioned `P`).
fn band_psd(n: usize, rng: &mut Rng) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 4.0 + rng.next_f64().abs());
        if i + 1 < n {
            let v = 0.5 * rng.next_f64();
            coo.push(i, i + 1, v);
            coo.push(i + 1, i, v);
        }
    }
    coo.to_csr()
}

/// `PᵀMP`'s upper triangle by sorting every entry's permuted `(column,
/// row, source slot)` triple, the reference the counting sort of
/// `SymmetricPermutation::new` replaced (the same arrays, slower).
fn sorted_symperm(upper: &CscMatrix, perm: &[usize]) -> CscMatrix {
    let n = perm.len();
    let new_of = inverse_permutation(perm).expect("a permutation");
    let mut entries = Vec::with_capacity(upper.nnz());
    for j in 0..n {
        for &i in upper.col(j).0 {
            let (a, b) = (new_of[i], new_of[j]);
            entries.push((a.max(b), a.min(b), entries.len()));
        }
    }
    entries.sort_unstable();
    let mut colptr = vec![0; n + 1];
    for &(col, _, _) in &entries {
        colptr[col + 1] += 1;
    }
    for j in 0..n {
        colptr[j + 1] += colptr[j];
    }
    let rowidx = entries.iter().map(|e| e.1).collect();
    let data = entries.iter().map(|e| upper.data()[e.2]).collect();
    CscMatrix::from_raw_parts(n, n, colptr, rowidx, data).expect("a valid permuted pattern")
}

/// `search_structures` as it ran before the word-parallel scheduler and
/// the trie LZW: the same candidates and forward selection, each trial
/// scheduled by re-checking every window (the same sets, slower).
fn reference_search(s: &SparsityString, s_target: usize) -> StructureSet {
    let alphabet = s.alphabet();
    let sample = if s.len() <= 60_000 {
        s.clone()
    } else {
        let sources = s.sources()[..60_000].to_vec();
        let nnz = sources.iter().map(|p| p.count).sum();
        SparsityString::from_parts(alphabet, s.chars()[..60_000].to_vec(), sources, nnz)
    };
    let mut pool: Vec<MacStructure> = Vec::new();
    for idx in 0..alphabet.num_letters() {
        let letter = b'a' + idx as u8;
        let k = alphabet.c() / alphabet.width(letter);
        if k >= 2 {
            pool.push(MacStructure::new(&vec![letter; k], alphabet));
        }
    }
    for phrase in reference_lzw_candidates(sample.chars(), alphabet, 24) {
        let st = MacStructure::new(&phrase, alphabet);
        if !pool.contains(&st) {
            pool.push(st);
        }
    }
    let cycles = |chosen: Vec<MacStructure>| {
        reference_greedy_cycles(sample.chars(), &StructureSet::new(alphabet, chosen))
    };
    let mut chosen: Vec<MacStructure> = Vec::new();
    let mut best_cycles = cycles(chosen.clone());
    while chosen.len() + 1 < s_target {
        let mut best: Option<(usize, usize)> = None;
        for (i, cand) in pool.iter().enumerate() {
            if chosen.contains(cand) {
                continue;
            }
            let mut trial = chosen.clone();
            trial.push(cand.clone());
            let c = cycles(trial);
            if c < best_cycles && best.is_none_or(|(_, bc)| c < bc) {
                best = Some((i, c));
            }
        }
        let Some((i, c)) = best else { break };
        chosen.push(pool[i].clone());
        best_cycles = c;
    }
    StructureSet::new(alphabet, chosen)
}

/// The greedy replacement's cycle count, every start re-checking its whole
/// window and the packs sorted by position.
fn reference_greedy_cycles(chars: &[u8], set: &StructureSet) -> usize {
    let alphabet = set.alphabet();
    let n = chars.len();
    let mut claimed = vec![false; n];
    let mut packs = Vec::new();
    for st in set.by_descending_length() {
        let idx = set.structures().iter().position(|x| x == st).expect("a member");
        let len = st.num_slots();
        let mut pos = 0;
        while pos + len <= n {
            if claimed[pos]
                || (pos..pos + len).any(|i| claimed[i])
                || !st.matches(chars, pos, alphabet)
            {
                pos += 1;
                continue;
            }
            claimed[pos..pos + len].fill(true);
            packs.push((pos, idx));
            pos += len;
        }
    }
    packs.sort_by_key(|p| p.0);
    packs.len()
}

/// The LZW candidates of a hash-map dictionary that clones a phrase per
/// character.
fn reference_lzw_candidates(chars: &[u8], alphabet: Alphabet, limit: usize) -> Vec<Vec<u8>> {
    let mut dict: HashMap<Vec<u8>, ()> = HashMap::new();
    let mut phrases: HashMap<Vec<u8>, usize> = HashMap::new();
    let mut w: Vec<u8> = Vec::new();
    for &ch in chars {
        let mut wc = w.clone();
        wc.push(ch);
        if wc.len() == 1 || dict.contains_key(&wc) {
            w = wc;
        } else {
            *phrases.entry(w.clone()).or_insert(0) += 1;
            dict.insert(wc, ());
            w = vec![ch];
        }
    }
    if !w.is_empty() {
        *phrases.entry(w).or_insert(0) += 1;
    }
    let mut out: Vec<(Vec<u8>, usize)> = phrases
        .into_iter()
        .filter(|(p, _)| {
            p.len() >= 2
                && !p.contains(&DOLLAR)
                && p.iter().map(|&l| alphabet.width(l)).sum::<usize>() <= alphabet.c()
        })
        .map(|(p, cnt)| {
            let savings = cnt * (p.len() - 1);
            (p, savings)
        })
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out.into_iter().take(limit).map(|(p, _)| p).collect()
}

/// Best-of-`reps` wall time of `f`, in nanoseconds.
fn time_ns<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best
}

/// Times `a` and `b` back to back `reps` times, alternating which runs
/// first, and returns each one's median time with the median of the
/// per-rep ratios `a / b`: a gated speedup, from which the host's slow
/// phases cancel.
fn interleaved<A: FnMut(), B: FnMut()>(reps: usize, mut a: A, mut b: B) -> (f64, f64, f64) {
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    for rep in 0..reps {
        if rep % 2 == 0 {
            ta.push(time_ns(1, &mut a));
            tb.push(time_ns(1, &mut b));
        } else {
            tb.push(time_ns(1, &mut b));
            ta.push(time_ns(1, &mut a));
        }
    }
    let ratios = ta.iter().zip(&tb).map(|(a, b)| a / b).collect();
    (median(ta), median(tb), median(ratios))
}

/// One benchmark report: insertion-ordered `(name, value)` pairs.
#[derive(Default)]
struct Report(Vec<(String, f64)>);

impl Report {
    fn push(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (name, value)) in self.0.iter().enumerate() {
            let sep = if i + 1 == self.0.len() { "" } else { "," };
            out.push_str(&format!("  \"{name}\": {value:.3}{sep}\n"));
        }
        out.push_str("}\n");
        out
    }

    /// Minimal parser for the flat `{"name": number, ...}` maps this
    /// binary writes.
    fn from_json(text: &str) -> Report {
        let mut report = Report::default();
        for piece in text.split(',') {
            let Some((key, value)) = piece.split_once(':') else { continue };
            let key = key.trim().trim_start_matches(['{', '\n', ' ']).trim_matches('"');
            let value = value.trim().trim_end_matches(['}', '\n', ' ']);
            if let Ok(v) = value.parse::<f64>() {
                if !key.is_empty() {
                    report.push(key, v);
                }
            }
        }
        report
    }
}

fn main() -> ExitCode {
    let opts = parse_args();
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut report = Report::default();
    report.push("host_cores", cores as f64);

    let (n, m, per_row, reps) =
        if opts.quick { (12_000, 14_000, 5, 5) } else { (20_000, 24_000, 7, 20) };

    let mut rng = Rng(0x5eed_cafe_f00d_beef);
    let a = random_csr(m, n, per_row, &mut rng);
    let p = band_psd(n, &mut rng);
    let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin()).collect();
    let xm: Vec<f64> = (0..m).map(|i| ((i as f64) * 0.53).cos()).collect();
    let rho = vec![0.1; m];

    // --- SpMV ------------------------------------------------------------
    let mut y = vec![0.0; m];
    let spmv_serial = time_ns(reps, || a.spmv(&x, &mut y).unwrap());
    report.push("spmv_serial_ns", spmv_serial);

    // --- Aᵀx: scatter kernel vs. cached gather transpose ----------------
    let (mut ys, mut yg) = (vec![0.0; n], vec![0.0; n]);
    let cache = TransposeCache::new(&a);
    // A sample is a batch of 16 products (about 2 ms), long enough that a
    // sample's timing noise does not swamp the kernel.
    let (at_scatter, at_gather, speedup) = interleaved(
        if opts.quick { 41 } else { 101 },
        || (0..16).for_each(|_| a.spmv_transpose(&xm, &mut ys).unwrap()),
        || (0..16).for_each(|_| cache.spmv(&xm, &mut yg).unwrap()),
    );
    report.push("at_scatter_ns", at_scatter / 16.0);
    report.push("at_gather_ns", at_gather / 16.0);
    report.push("speedup_at_gather", speedup);

    // --- Reduced-KKT apply ------------------------------------------------
    let kkt_serial = {
        let mut op = ReducedKktOp::new(&p, &a, 1e-6, &rho).unwrap();
        let mut out = vec![0.0; n];
        time_ns(reps, || op.apply(&x, &mut out).unwrap())
    };
    report.push("kkt_apply_serial_ns", kkt_serial);

    // --- Full PCG: per-call allocation vs. reused workspace -------------
    {
        let pcg_iters = if opts.quick { 30 } else { 60 };
        let settings = PcgSettings { eps: 1e-30, max_iter: pcg_iters };
        let op = || ReducedKktOp::new(&p, &a, 1e-6, &rho).unwrap();
        let (mut op_alloc, mut op_ws) = (op(), op());
        let b: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.11).sin()).collect();
        let x0 = vec![0.0; n];
        let mut ws = PcgWorkspace::new(n);
        let mut xw = vec![0.0; n];
        let (pcg_alloc, pcg_ws, speedup) = interleaved(
            if opts.quick { 11 } else { 21 },
            // A fresh iterate and workspace per call, as a caller without a
            // long-lived workspace would pay.
            || {
                let mut x = x0.clone();
                let mut ws = PcgWorkspace::new(n);
                pcg_with(&mut op_alloc, &b, &mut x, &settings, &mut ws).unwrap();
            },
            || {
                xw.fill(0.0);
                pcg_with(&mut op_ws, &b, &mut xw, &settings, &mut ws).unwrap();
            },
        );
        report.push("pcg_alloc_ns", pcg_alloc);
        report.push("pcg_ws_ns", pcg_ws);
        report.push("speedup_pcg_workspace", speedup);
    }

    // --- Symmetric permutation: sort vs. counting sort -----------------
    {
        let qp = generate(Domain::Eqqp, 400, 1);
        let rho = vec![0.1; qp.a().nrows()];
        let kkt = KktMatrix::assemble(qp.p(), qp.a(), 1e-6, &rho).expect("a valid KKT matrix");
        let perm = amd_ordering(kkt.matrix()).expect("a square KKT matrix");
        let counted = SymmetricPermutation::new(kkt.matrix(), perm.clone()).expect("a permutation");
        assert_eq!(counted.matrix(), &sorted_symperm(kkt.matrix(), &perm), "the same arrays");
        // A rep costs about 10 ms, so both modes take the full count.
        let (sorted, counting, speedup) = interleaved(
            21,
            || drop(sorted_symperm(kkt.matrix(), &perm)),
            || drop(SymmetricPermutation::new(kkt.matrix(), perm.clone()).expect("a permutation")),
        );
        report.push("symperm_sort_ns", sorted);
        report.push("symperm_counting_ns", counting);
        report.push("speedup_symperm", speedup);
    }

    // --- Structure search: quadratic reference vs. word-parallel -------
    {
        let qp = generate(Domain::Control, 40, 1);
        let at = qp.a().transpose();
        let strings = [qp.p(), qp.a(), &at].map(|m| SparsityString::encode(m, 16));
        let combined = SparsityString::concat(&[&strings[0], &strings[1], &strings[2]]);
        let set = search_structures(&combined, 4);
        assert_eq!(reference_search(&combined, 4), set, "the same structure set");
        // A reference rep costs about 7 ms, so both modes take the full
        // count.
        let (reference, searched, speedup) = interleaved(
            21,
            || drop(reference_search(&combined, 4)),
            || drop(search_structures(&combined, 4)),
        );
        report.push("search_ref_ns", reference);
        report.push("search_ns", searched);
        report.push("speedup_search", speedup);
    }

    // --- End to end: largest control / lasso suite instances ------------
    for (domain, size, tag) in
        [(Domain::Control, 60usize, "control60"), (Domain::Lasso, 200usize, "lasso200")]
    {
        let problem = generate(domain, size, 7);
        let e2e_reps = if opts.quick { 1 } else { 3 };
        let settings =
            Settings { linsys: LinSysKind::CpuPcg, adaptive_rho: false, ..Settings::default() };
        let time = time_ns(e2e_reps, || {
            let mut solver = solve_setup(&problem, settings.clone());
            solver.solve().expect("benchmark solve");
        });
        report.push(&format!("e2e_{tag}_t1_ns"), time);
    }

    // --- Telemetry overhead: disabled tracing rides the baseline path ---
    //
    // `Settings::default()` is exactly how the e2e baselines above were
    // measured before telemetry existed; `trace: false` names the
    // disabled-telemetry path explicitly. The two must be the same code
    // within measurement noise — if the disabled path ever costs more than
    // the band (for example because tracing became enabled by default, or
    // the disabled branch grew real work), this assert fires. A faster
    // disabled path is noise, not a regression, so the bound is one-sided.
    // `trace: true` is also measured and reported for visibility, but not
    // gated: enabling telemetry legitimately costs a little.
    {
        let problem = generate(Domain::Lasso, 100, 7);
        let overhead_reps = if opts.quick { 12 } else { 18 };
        let with_trace = |trace: bool| Settings {
            linsys: LinSysKind::CpuPcg,
            adaptive_rho: false,
            trace,
            ..Settings::default()
        };
        let baseline_settings =
            Settings { linsys: LinSysKind::CpuPcg, adaptive_rho: false, ..Settings::default() };
        // One unmeasured warmup so neither gated slot pays first-touch
        // costs (page faults, allocator growth) on the clock.
        drop(solve_setup(&problem, baseline_settings.clone()).solve().expect("warmup solve"));
        // Each rep times the gated pair back to back, alternating which
        // runs first, then the traced slot; the gate reads the median of
        // the per-pair ratios, from which the host's slow phases cancel.
        let settings = [baseline_settings, with_trace(false), with_trace(true)];
        let mut ns = [Vec::new(), Vec::new(), Vec::new()];
        let mut traced = None;
        for rep in 0..overhead_reps {
            for slot in if rep % 2 == 0 { [0, 1, 2] } else { [1, 0, 2] } {
                let t = Instant::now();
                let mut solver = solve_setup(&problem, settings[slot].clone());
                let result = solver.solve().expect("overhead solve");
                ns[slot].push(t.elapsed().as_nanos() as f64);
                if slot == 2 {
                    traced = result.trace;
                }
            }
        }
        for (slot, name) in
            ["trace_baseline_ns", "trace_disabled_ns", "trace_enabled_ns"].iter().enumerate()
        {
            report.push(name, median(ns[slot].clone()));
        }
        let ratio = |slot: usize| median(ns[slot].iter().zip(&ns[0]).map(|(t, b)| t / b).collect());
        let overhead = ratio(1);
        report.push("trace_overhead_disabled", overhead);
        report.push("trace_overhead_enabled", ratio(2));
        assert!(
            overhead <= 1.0 + TRACE_OVERHEAD_TOLERANCE,
            "disabled-telemetry solve cost more than {:.0}% over the baseline path: \
             median ratio of {overhead_reps} interleaved pairs {overhead:.4}",
            TRACE_OVERHEAD_TOLERANCE * 100.0,
        );
        let trace = traced.expect("trace: true must yield a SolveTrace");
        println!(
            "trace summary ({}): backend={} status={} iterations={} spans={} events={}",
            trace.problem,
            trace.backend,
            trace.status,
            trace.iterations,
            trace.spans.len(),
            trace.events.len(),
        );
    }

    println!("bench_kernels results ({} cores):", cores);
    for (name, value) in &report.0 {
        println!("  {name:>28}: {value:.3}");
    }

    if opts.check && !opts.update {
        return check(&report);
    }
    std::fs::write(BASELINE, report.to_json()).expect("write baseline");
    println!("wrote {BASELINE}");
    ExitCode::SUCCESS
}

fn solve_setup(problem: &QpProblem, settings: Settings) -> Solver {
    Solver::new(problem, settings).expect("benchmark problems are valid")
}

fn check(current: &Report) -> ExitCode {
    let Ok(text) = std::fs::read_to_string(BASELINE) else {
        eprintln!("no committed baseline at {BASELINE}; run bench_kernels to create one");
        return ExitCode::FAILURE;
    };
    let baseline = Report::from_json(&text);
    let mut failures = 0;
    for (name, base) in &baseline.0 {
        if !name.starts_with("speedup_") || *base <= 0.0 {
            continue;
        }
        match current.get(name) {
            Some(now) if now >= base * TOLERANCE => {
                println!("OK   {name}: {now:.3} (baseline {base:.3})");
            }
            Some(now) => {
                eprintln!(
                    "FAIL {name}: {now:.3} fell below {:.3} (baseline {base:.3} x {TOLERANCE})",
                    base * TOLERANCE
                );
                failures += 1;
            }
            None => {
                // A retired metric still in an old baseline: not a
                // regression.
                println!("SKIP {name}: not measured by this build");
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} kernel speedup metric(s) regressed past the {TOLERANCE} band");
        ExitCode::FAILURE
    } else {
        println!("all gated metrics within tolerance");
        ExitCode::SUCCESS
    }
}
