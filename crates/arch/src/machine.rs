//! The cycle-level machine.

use rsqp_cvb::CvbLayout;
use rsqp_encode::Schedule;
use rsqp_sparse::{ldl_solve_in_place, CsrMatrix};

use crate::hbm::BYTES_PER_NNZ;
use crate::program::{class_of, Class};
use crate::{
    ArchConfig, ArchError, DatapathMap, FactorId, Instr, MatrixId, Program, SReg, ScalarOp, VecId,
};

/// Per-instruction-class cycle totals — the machine's answer to "where did
/// the time go", used for the FPGA-side KKT-fraction analysis and the power
/// model's utilization estimate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// SpMV instruction cycles.
    pub spmv: u64,
    /// Vector-engine instruction cycles (including dot products).
    pub vector: u64,
    /// Vector-duplication cycles.
    pub duplication: u64,
    /// Scalar ALU cycles.
    pub scalar: u64,
    /// HBM transfer cycles.
    pub transfer: u64,
    /// Control (loop) cycles.
    pub control: u64,
}

impl CycleBreakdown {
    /// Sum over all classes.
    pub fn total(&self) -> u64 {
        self.spmv + self.vector + self.duplication + self.scalar + self.transfer + self.control
    }

    fn add(&mut self, class: Class, cycles: u64) {
        let slot = match class {
            Class::Spmv => &mut self.spmv,
            Class::Vector => &mut self.vector,
            Class::Duplication => &mut self.duplication,
            Class::Scalar => &mut self.scalar,
            Class::Transfer => &mut self.transfer,
            Class::Control => &mut self.control,
        };
        *slot += cycles;
    }

    fn since(self, earlier: CycleBreakdown) -> CycleBreakdown {
        CycleBreakdown {
            spmv: self.spmv - earlier.spmv,
            vector: self.vector - earlier.vector,
            duplication: self.duplication - earlier.duplication,
            scalar: self.scalar - earlier.scalar,
            transfer: self.transfer - earlier.transfer,
            control: self.control - earlier.control,
        }
    }
}

/// Execution statistics: what [`Machine::run`] returns for one program
/// execution, and what [`Machine::stats`] accumulates across them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Total cycles.
    pub cycles: u64,
    /// Cycles by instruction class.
    pub breakdown: CycleBreakdown,
    /// Instructions retired.
    pub instructions: u64,
    /// Hardware-loop trips taken.
    pub loop_trips: u64,
    /// Bytes moved over the (simulated) HBM interface by `LoadHbm` /
    /// `StoreHbm` (8 bytes per element).
    pub hbm_bytes: u64,
    /// Bit flips injected by the fault harness (0 unless armed via
    /// [`crate::FaultConfig`]).
    pub faults: u64,
}

impl RunStats {
    /// Field-wise difference against an earlier snapshot of the same
    /// monotone counters — how [`Machine::run`] derives its per-run stats
    /// from the cumulative ones.
    pub fn since(self, earlier: RunStats) -> RunStats {
        RunStats {
            cycles: self.cycles - earlier.cycles,
            breakdown: self.breakdown.since(earlier.breakdown),
            instructions: self.instructions - earlier.instructions,
            loop_trips: self.loop_trips - earlier.loop_trips,
            hbm_bytes: self.hbm_bytes - earlier.hbm_bytes,
            faults: self.faults - earlier.faults,
        }
    }

    /// Folds these stats into a metrics registry under `machine_*`
    /// counters — the bridge from the cycle-level simulator to the shared
    /// observability layer (cycles per class, instructions, loop trips,
    /// HBM traffic, and injected faults).
    pub fn fold_into(&self, registry: &rsqp_obs::MetricsRegistry) {
        registry.counter("machine_cycles").add(self.cycles);
        registry.counter("machine_instructions").add(self.instructions);
        registry.counter("machine_loop_trips").add(self.loop_trips);
        registry.counter("machine_hbm_bytes").add(self.hbm_bytes);
        registry.counter("machine_faults").add(self.faults);
        registry.counter("machine_cycles_spmv").add(self.breakdown.spmv);
        registry.counter("machine_cycles_vector").add(self.breakdown.vector);
        registry.counter("machine_cycles_duplication").add(self.breakdown.duplication);
        registry.counter("machine_cycles_scalar").add(self.breakdown.scalar);
        registry.counter("machine_cycles_transfer").add(self.breakdown.transfer);
        registry.counter("machine_cycles_control").add(self.breakdown.control);
    }
}

/// One matrix resident in (simulated) HBM with its map onto the datapath.
#[derive(Debug, Clone)]
struct MatrixUnit {
    csr: CsrMatrix,
    map: DatapathMap,
    /// Which vector (and write-version) currently sits in this matrix's CVB.
    cvb: Option<(VecId, u64)>,
}

/// A borrowed LDLᵀ factor `PᵀKP = L·D·Lᵀ` of an `n × n` matrix, as the
/// host uploads it with [`Machine::load_factor`].
#[derive(Debug, Clone, Copy)]
pub struct FactorRef<'a> {
    /// The permutation `P`, new index → old index (length n).
    pub perm: &'a [usize],
    /// Column pointers of the strictly lower part of the unit lower
    /// triangular `L` (length n + 1).
    pub l_colptr: &'a [usize],
    /// Row indices of `L`, by columns.
    pub l_rowidx: &'a [usize],
    /// Values of `L`, by columns.
    pub l_data: &'a [f64],
    /// `D⁻¹` (length n).
    pub dinv: &'a [f64],
    /// Nodes on the longest leaf-to-root path of the elimination tree:
    /// the dependent levels of each sweep.
    pub etree_height: usize,
}

/// One LDLᵀ factor resident in (simulated) HBM, in the layout of
/// [`FactorRef`], with the permuted vector a solve works on.
#[derive(Debug, Clone)]
struct FactorUnit {
    perm: Vec<usize>,
    l_colptr: Vec<usize>,
    l_rowidx: Vec<usize>,
    l_data: Vec<f64>,
    dinv: Vec<f64>,
    etree_height: usize,
    work: Vec<f64>,
}

/// The simulated RSQP accelerator.
///
/// Holds the register files, the matrices with their pack schedules and CVB
/// layouts, and executes [`Program`]s functionally while counting cycles.
///
/// Execution writes every result into the existing registers: once the
/// registers and matrices exist, [`Machine::run`] does not allocate. The
/// lane-exact SpMV path ([`Machine::set_lane_exact`], a test aid) is the
/// exception: it rebuilds the CVB bank contents on every SpMV.
#[derive(Debug)]
pub struct Machine {
    config: ArchConfig,
    vecs: Vec<Vec<f64>>,
    vec_versions: Vec<u64>,
    sregs: Vec<f64>,
    matrices: Vec<MatrixUnit>,
    factors: Vec<FactorUnit>,
    stats: RunStats,
    lane_exact: bool,
    /// SplitMix64 state of the fault-injection stream.
    fault_rng: u64,
    /// Output buffer of an SpMV that overwrites its own input, swapped
    /// with the register afterwards.
    spmv_scratch: Vec<f64>,
}

impl Machine {
    /// Creates a machine with the given architecture configuration.
    pub fn new(config: ArchConfig) -> Self {
        let fault_rng = config.fault().map_or(0, |f| f.seed);
        Machine {
            config,
            vecs: Vec::new(),
            vec_versions: Vec::new(),
            sregs: Vec::new(),
            matrices: Vec::new(),
            factors: Vec::new(),
            stats: RunStats::default(),
            lane_exact: false,
            fault_rng,
            spmv_scratch: Vec::new(),
        }
    }

    /// Enables lane-exact SpMV execution: every SpMV is evaluated through
    /// the scheduled datapath (slot by slot, reading operands through the
    /// compressed-CVB bank translation) instead of the fast CSR kernel.
    /// Slower, used by tests to prove the two paths agree.
    pub fn set_lane_exact(&mut self, on: bool) {
        self.lane_exact = on;
    }

    /// The architecture configuration.
    pub fn config(&self) -> &ArchConfig {
        &self.config
    }

    /// Registers a matrix with its [`DatapathMap`] under the machine's
    /// configuration: the greedy pack schedule (as in the paper) and the
    /// CVB layout (First-Fit for customized designs, `C` full copies for
    /// the baseline).
    pub fn add_matrix(&mut self, m: &CsrMatrix) -> MatrixId {
        let map = DatapathMap::new(m, &self.config);
        self.matrices.push(MatrixUnit { csr: m.clone(), map, cvb: None });
        MatrixId(self.matrices.len() - 1)
    }

    /// Registers an `n × n` factor slot, holding the identity (`L = I`,
    /// `D = I`) until the host loads a factor into it.
    pub fn add_factor(&mut self, n: usize) -> FactorId {
        self.factors.push(FactorUnit {
            perm: (0..n).collect(),
            l_colptr: vec![0; n + 1],
            l_rowidx: Vec::new(),
            l_data: Vec::new(),
            dinv: vec![1.0; n],
            etree_height: 0,
            work: vec![0.0; n],
        });
        FactorId(self.factors.len() - 1)
    }

    /// Host upload of a factor into a registered slot (cycle-free, like
    /// [`Machine::update_matrix_values`]). The arrays are copied in place,
    /// so reloading a factor of the same pattern does not allocate.
    ///
    /// # Panics
    ///
    /// Panics if the factor's dimension is not the slot's.
    pub fn load_factor(&mut self, id: FactorId, f: FactorRef<'_>) {
        let unit = &mut self.factors[id.0];
        let n = unit.dinv.len();
        assert!(
            f.perm.len() == n && f.dinv.len() == n && f.l_colptr.len() == n + 1,
            "factor dimension mismatch"
        );
        unit.perm.copy_from_slice(f.perm);
        unit.l_colptr.copy_from_slice(f.l_colptr);
        unit.l_rowidx.clear();
        unit.l_rowidx.extend_from_slice(f.l_rowidx);
        unit.l_data.clear();
        unit.l_data.extend_from_slice(f.l_data);
        unit.dinv.copy_from_slice(f.dinv);
        unit.etree_height = f.etree_height;
    }

    /// Allocates a vector register of length `len`, zero-initialized.
    pub fn alloc_vec(&mut self, len: usize) -> VecId {
        self.vecs.push(vec![0.0; len]);
        self.vec_versions.push(0);
        VecId(self.vecs.len() - 1)
    }

    /// Allocates a scalar register, zero-initialized.
    pub fn alloc_scalar(&mut self) -> SReg {
        self.sregs.push(0.0);
        SReg(self.sregs.len() - 1)
    }

    /// Host write into a vector register (models the CPU filling HBM before
    /// a run; cycle-free — the in-program [`Instr::LoadHbm`] carries the
    /// transfer cost).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn write_vec(&mut self, id: VecId, data: &[f64]) {
        assert_eq!(self.vecs[id.0].len(), data.len(), "vector length mismatch");
        self.vecs[id.0].copy_from_slice(data);
        self.vec_versions[id.0] += 1;
    }

    /// Host read of a vector register.
    pub fn read_vec(&self, id: VecId) -> &[f64] {
        &self.vecs[id.0]
    }

    /// Host write of a scalar register.
    pub fn write_scalar(&mut self, id: SReg, v: f64) {
        self.sregs[id.0] = v;
    }

    /// Host read of a scalar register.
    pub fn read_scalar(&self, id: SReg) -> f64 {
        self.sregs[id.0]
    }

    /// Replaces a registered matrix's numeric values (structure must be
    /// identical). The pack schedule, CVB layout, and cycle model are
    /// untouched — only the HBM-resident values change, which is exactly
    /// what the architecture-reuse story of §1 requires. The values are
    /// copied into the resident matrix in place.
    ///
    /// # Panics
    ///
    /// Panics if the sparsity structure differs. Equal `indptr` and
    /// `indices` at the machine's fixed `C` imply an equal sparsity string,
    /// so the schedule and layout stay valid.
    pub fn update_matrix_values(&mut self, id: MatrixId, m: &CsrMatrix) {
        let csr = &mut self.matrices[id.0].csr;
        assert!(
            csr.ncols() == m.ncols() && csr.indptr() == m.indptr() && csr.indices() == m.indices(),
            "matrix value update changed the sparsity structure"
        );
        csr.data_mut().copy_from_slice(m.data());
        // Any CVB contents are now stale only if the *vector* changed, not
        // the matrix; matrix values live in HBM, so the CVB stays valid.
    }

    /// The HBM-resident values of a registered matrix.
    pub fn matrix(&self, id: MatrixId) -> &CsrMatrix {
        &self.matrices[id.0].csr
    }

    /// Pack schedule of a registered matrix.
    pub fn schedule_of(&self, id: MatrixId) -> &Schedule {
        self.matrices[id.0].map.schedule()
    }

    /// CVB layout of a registered matrix.
    pub fn layout_of(&self, id: MatrixId) -> &CvbLayout {
        self.matrices[id.0].map.layout()
    }

    /// Cumulative statistics since the last [`Machine::reset_stats`].
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// Clears the cycle counters.
    pub fn reset_stats(&mut self) {
        self.stats = RunStats::default();
    }

    /// Executes a program to completion and returns the statistics of
    /// **this run alone**. The cumulative [`Machine::stats`] keep
    /// accumulating across runs as before; callers that need per-run
    /// accounting (per-KKT-solve cycle/fault deltas) use the return value
    /// instead of differencing the cumulative counters themselves.
    ///
    /// # Errors
    ///
    /// Returns an [`ArchError`] on operand mismatches, stale CVB reads, or
    /// a loop-trip overflow.
    pub fn run(&mut self, program: &Program) -> Result<RunStats, ArchError> {
        let before = self.stats;
        let mut pc = 0usize;
        let mut trips = 0usize;
        let instrs = program.instrs();
        while pc < instrs.len() {
            let i = &instrs[pc];
            let cycles = self.execute(i)?;
            self.stats.cycles += cycles;
            self.stats.breakdown.add(class_of(i), cycles);
            self.stats.instructions += 1;
            match i {
                Instr::LoopEndIfLess { a, b } => {
                    let exit = self.sregs[a.0] < self.sregs[b.0];
                    if exit {
                        pc += 1;
                    } else {
                        trips += 1;
                        self.stats.loop_trips += 1;
                        if trips >= program.max_trips() {
                            return Err(ArchError::LoopCapReached { cap: program.max_trips() });
                        }
                        let (start, _) = program
                            .loop_bounds()
                            .ok_or_else(|| ArchError::MalformedLoop("no loop bounds".into()))?;
                        pc = start + 1;
                    }
                }
                _ => pc += 1,
            }
        }
        Ok(self.stats.since(before))
    }

    fn execute(&mut self, i: &Instr) -> Result<u64, ArchError> {
        let cost = *self.config.cost();
        match *i {
            Instr::LoopStart => Ok(0),
            Instr::LoopEndIfLess { .. } => Ok(cost.control_latency),
            Instr::SetScalar { dst, value } => {
                self.check_sreg(dst)?;
                self.sregs[dst.0] = value;
                Ok(0)
            }
            Instr::Scalar { op, dst, a, b } => {
                self.check_sreg(dst)?;
                self.check_sreg(a)?;
                self.check_sreg(b)?;
                let (x, y) = (self.sregs[a.0], self.sregs[b.0]);
                self.sregs[dst.0] = match op {
                    ScalarOp::Add => x + y,
                    ScalarOp::Sub => x - y,
                    ScalarOp::Mul => x * y,
                    ScalarOp::Div => x / y,
                    ScalarOp::Max => x.max(y),
                };
                self.round_scalar(dst);
                Ok(cost.scalar_latency)
            }
            Instr::LoadHbm { vec } => {
                self.check_vec(vec)?;
                // An HBM read is where a memory upset becomes visible: the
                // corrupted word lands in the vector buffer silently (no
                // version bump — downstream consumers cannot tell).
                if let Some((idx, bit)) =
                    self.fault_draw(|f| f.hbm_read_flip_prob, self.vecs[vec.0].len())
                {
                    let v = &mut self.vecs[vec.0][idx];
                    *v = f64::from_bits(v.to_bits() ^ (1u64 << bit));
                    self.stats.faults += 1;
                }
                self.stats.hbm_bytes += 8 * self.vecs[vec.0].len() as u64;
                Ok(self.config.transfer_cycles(self.vecs[vec.0].len()))
            }
            Instr::StoreHbm { vec } => {
                self.check_vec(vec)?;
                self.stats.hbm_bytes += 8 * self.vecs[vec.0].len() as u64;
                Ok(self.config.transfer_cycles(self.vecs[vec.0].len()))
            }
            Instr::Lincomb { dst, alpha, a, beta, b } => {
                let l = self.binary_lengths("lincomb", dst, a, b)?;
                self.check_sreg(alpha)?;
                self.check_sreg(beta)?;
                let (al, be) = (self.sregs[alpha.0], self.sregs[beta.0]);
                self.zip_into(dst, a, b, |x, y| al * x + be * y);
                self.bump(dst);
                Ok(self.config.vector_cycles(l))
            }
            Instr::EwMul { dst, a, b } => {
                let l = self.binary_lengths("ew_mul", dst, a, b)?;
                self.zip_into(dst, a, b, |x, y| x * y);
                self.bump(dst);
                Ok(self.config.vector_cycles(l))
            }
            Instr::EwMax { dst, a, b } => {
                let l = self.binary_lengths("ew_max", dst, a, b)?;
                self.zip_into(dst, a, b, f64::max);
                self.bump(dst);
                Ok(self.config.vector_cycles(l))
            }
            Instr::EwMin { dst, a, b } => {
                let l = self.binary_lengths("ew_min", dst, a, b)?;
                self.zip_into(dst, a, b, f64::min);
                self.bump(dst);
                Ok(self.config.vector_cycles(l))
            }
            Instr::Dot { dst, a, b } => {
                self.check_vec(a)?;
                self.check_vec(b)?;
                self.check_sreg(dst)?;
                let (va, vb) = (&self.vecs[a.0], &self.vecs[b.0]);
                if va.len() != vb.len() {
                    return Err(ArchError::LengthMismatch {
                        instr: "dot".into(),
                        expected: va.len(),
                        found: vb.len(),
                    });
                }
                let l = va.len();
                self.sregs[dst.0] = va.iter().zip(vb).map(|(x, y)| x * y).sum();
                self.round_scalar(dst);
                Ok(self.config.vector_cycles(l) + cost.dot_drain)
            }
            Instr::Duplicate { vec, matrix } => {
                self.check_vec(vec)?;
                self.check_matrix(matrix)?;
                let unit = &self.matrices[matrix.0];
                if self.vecs[vec.0].len() != unit.csr.ncols() {
                    return Err(ArchError::LengthMismatch {
                        instr: "duplicate".into(),
                        expected: unit.csr.ncols(),
                        found: self.vecs[vec.0].len(),
                    });
                }
                let version = self.vec_versions[vec.0];
                let cycles = cost.dup_latency + unit.map.layout().update_cycles() as u64;
                self.matrices[matrix.0].cvb = Some((vec, version));
                Ok(cycles)
            }
            Instr::Spmv { matrix, input, output } => {
                self.check_matrix(matrix)?;
                self.check_vec(input)?;
                self.check_vec(output)?;
                let unit = &self.matrices[matrix.0];
                match unit.cvb {
                    Some((v, ver)) if v == input && ver == self.vec_versions[input.0] => {}
                    _ => return Err(ArchError::StaleCvb { matrix: matrix.0 }),
                }
                if self.vecs[output.0].len() != unit.csr.nrows() {
                    return Err(ArchError::LengthMismatch {
                        instr: "spmv output".into(),
                        expected: unit.csr.nrows(),
                        found: self.vecs[output.0].len(),
                    });
                }
                let cycles = cost.spmv_latency + unit.map.schedule().cycles() as u64;
                // The product lands in the output register itself; only an
                // SpMV that overwrites its own input goes through the
                // scratch buffer, which then trades places with the register.
                let mut out = if input == output {
                    let mut scratch = std::mem::take(&mut self.spmv_scratch);
                    scratch.resize(unit.csr.nrows(), 0.0);
                    scratch
                } else {
                    std::mem::take(&mut self.vecs[output.0])
                };
                let x = &self.vecs[input.0];
                if self.lane_exact {
                    spmv_via_datapath(unit, self.config.set(), x, &mut out);
                } else {
                    unit.csr.spmv(x, &mut out).expect("lengths checked above");
                }
                if input == output {
                    std::mem::swap(&mut self.vecs[output.0], &mut out);
                    self.spmv_scratch = out;
                } else {
                    self.vecs[output.0] = out;
                }
                self.mac_upset(output);
                self.bump(output);
                Ok(cycles)
            }
            Instr::FactorSolve { factor, head, tail } => {
                self.check_factor(factor)?;
                self.check_vec(head)?;
                self.check_vec(tail)?;
                let unit = &mut self.factors[factor.0];
                let n = unit.dinv.len();
                // The pair is one vector: `head` then `tail` (nothing more
                // when they are one register).
                let mut h = std::mem::take(&mut self.vecs[head.0]);
                let mut t = std::mem::take(&mut self.vecs[tail.0]);
                let split = h.len();
                let solved = if split + t.len() != n {
                    Err(ArchError::LengthMismatch {
                        instr: "factor_solve".into(),
                        expected: n,
                        found: split + t.len(),
                    })
                } else {
                    for (w, &p) in unit.work.iter_mut().zip(&unit.perm) {
                        *w = if p < split { h[p] } else { t[p - split] };
                    }
                    ldl_solve_in_place(
                        &unit.l_colptr,
                        &unit.l_rowidx,
                        &unit.l_data,
                        &unit.dinv,
                        &mut unit.work,
                    );
                    for (&w, &p) in unit.work.iter().zip(&unit.perm) {
                        if p < split {
                            h[p] = w;
                        } else {
                            t[p - split] = w;
                        }
                    }
                    // Two sweeps of `h` dependent levels through the SpMV
                    // engine, each streaming L once, and one vector pass
                    // for D⁻¹ and the permutations.
                    let l_nnz = unit.l_data.len();
                    let sweep = unit.etree_height as u64 * cost.spmv_latency
                        + l_nnz.div_ceil(self.config.c()) as u64;
                    Ok((2 * sweep + self.config.vector_cycles(n), 2 * l_nnz * BYTES_PER_NNZ))
                };
                self.vecs[tail.0] = t;
                self.vecs[head.0] = h;
                let (cycles, bytes) = solved?;
                self.stats.hbm_bytes += bytes as u64;
                self.mac_upset(head);
                self.bump(head);
                if tail != head {
                    self.mac_upset(tail);
                    self.bump(tail);
                }
                Ok(cycles)
            }
        }
    }

    /// Decides whether the current instruction suffers a bit flip.
    ///
    /// Returns the (element index, bit position) of the strike, or `None`
    /// when fault injection is disarmed or the dice spare this instruction.
    /// Consumes exactly one stream draw per armed strike site, so fault
    /// patterns are a pure function of `(program, FaultConfig)`.
    fn fault_draw(
        &mut self,
        prob_of: impl Fn(&crate::FaultConfig) -> f64,
        len: usize,
    ) -> Option<(usize, u32)> {
        let fault = self.config.fault()?;
        let prob = prob_of(&fault);
        if prob <= 0.0 || len == 0 {
            return None;
        }
        // Uniform in [0, 1) from the top 53 bits.
        let unit = (self.next_fault_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if unit >= prob {
            return None;
        }
        let idx = (self.next_fault_u64() % len as u64) as usize;
        let bit = (self.next_fault_u64() % 64) as u32;
        Some((idx, bit))
    }

    /// A MAC-tree upset: with the armed probability, one freshly reduced
    /// word of `vec` gets a bit flipped.
    fn mac_upset(&mut self, vec: VecId) {
        let len = self.vecs[vec.0].len();
        if let Some((idx, bit)) = self.fault_draw(|f| f.mac_output_flip_prob, len) {
            let v = &mut self.vecs[vec.0][idx];
            *v = f64::from_bits(v.to_bits() ^ (1u64 << bit));
            self.stats.faults += 1;
        }
    }

    /// SplitMix64 step of the fault stream.
    fn next_fault_u64(&mut self) -> u64 {
        self.fault_rng = self.fault_rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.fault_rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `dst[k] = f(a[k], b[k])` over whole registers of checked equal
    /// length. Each element depends only on the same index of its
    /// operands, so an operand aliasing `dst` is read in place.
    fn zip_into(&mut self, dst: VecId, a: VecId, b: VecId, f: impl Fn(f64, f64) -> f64) {
        let mut out = std::mem::take(&mut self.vecs[dst.0]);
        let (xs, ys) = (&self.vecs[a.0], &self.vecs[b.0]);
        match (a == dst, b == dst) {
            (false, false) => {
                for ((o, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
                    *o = f(x, y);
                }
            }
            (true, false) => {
                for (o, &y) in out.iter_mut().zip(ys) {
                    *o = f(*o, y);
                }
            }
            (false, true) => {
                for (o, &x) in out.iter_mut().zip(xs) {
                    *o = f(x, *o);
                }
            }
            (true, true) => {
                for o in &mut out {
                    *o = f(*o, *o);
                }
            }
        }
        self.vecs[dst.0] = out;
    }

    fn bump(&mut self, id: VecId) {
        if self.config.single_precision() {
            for v in &mut self.vecs[id.0] {
                *v = *v as f32 as f64;
            }
        }
        self.vec_versions[id.0] += 1;
    }

    fn round_scalar(&mut self, id: SReg) {
        if self.config.single_precision() {
            self.sregs[id.0] = self.sregs[id.0] as f32 as f64;
        }
    }

    fn check_vec(&self, id: VecId) -> Result<(), ArchError> {
        if id.0 >= self.vecs.len() {
            return Err(ArchError::BadRegister(format!("vector v{}", id.0)));
        }
        Ok(())
    }

    fn check_sreg(&self, id: SReg) -> Result<(), ArchError> {
        if id.0 >= self.sregs.len() {
            return Err(ArchError::BadRegister(format!("scalar s{}", id.0)));
        }
        Ok(())
    }

    fn check_factor(&self, id: FactorId) -> Result<(), ArchError> {
        if id.0 >= self.factors.len() {
            return Err(ArchError::BadRegister(format!("factor f{}", id.0)));
        }
        Ok(())
    }

    fn check_matrix(&self, id: MatrixId) -> Result<(), ArchError> {
        if id.0 >= self.matrices.len() {
            return Err(ArchError::BadRegister(format!("matrix m{}", id.0)));
        }
        Ok(())
    }

    fn binary_lengths(
        &self,
        name: &str,
        dst: VecId,
        a: VecId,
        b: VecId,
    ) -> Result<usize, ArchError> {
        self.check_vec(dst)?;
        self.check_vec(a)?;
        self.check_vec(b)?;
        let l = self.vecs[dst.0].len();
        for v in [a, b] {
            if self.vecs[v.0].len() != l {
                return Err(ArchError::LengthMismatch {
                    instr: name.into(),
                    expected: l,
                    found: self.vecs[v.0].len(),
                });
            }
        }
        Ok(l)
    }
}

/// Lane-exact SpMV: walks the pack schedule slot by slot, fetching each
/// operand through the CVB bank translation (asserting the translation is
/// sound), multiplying lane-wise, and reducing per slot — the computation
/// the customized MAC tree performs, including the `$`-chunk partial-sum
/// accumulation.
fn spmv_via_datapath(unit: &MatrixUnit, set: &rsqp_encode::StructureSet, x: &[f64], y: &mut [f64]) {
    let map = &unit.map;
    let banks = map.layout().bank_contents(map.access());
    y.fill(0.0);
    // Rows split across packs ($ chunks) accumulate partial sums into y —
    // the acc_complete/FADD path of the paper's Figure 5.
    for pack in map.schedule().packs() {
        let st = &set.structures()[pack.structure];
        let offsets = st.slot_offsets();
        for (slot, &lane0) in offsets.iter().enumerate().take(pack.len) {
            let src = map.string().sources()[pack.pos + slot];
            let (cols, vals) = unit.csr.row(src.row);
            let mut acc = 0.0;
            for t in 0..src.count {
                let j = cols[src.offset + t];
                let lane = lane0 + t;
                // Fetch through the CVB index translation.
                let addr =
                    map.layout().addr_of(j).expect("accessed element must be stored") as usize;
                let served = banks[lane][addr].expect("bank must serve this element");
                assert_eq!(served, j, "CVB translation fetched the wrong element");
                acc += vals[src.offset + t] * x[served];
            }
            y[src.row] += acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProgramBuilder;

    fn machine4() -> Machine {
        Machine::new(ArchConfig::baseline(4))
    }

    #[test]
    fn vector_ops_compute_and_cost() {
        let mut m = machine4();
        let a = m.alloc_vec(8);
        let b = m.alloc_vec(8);
        let d = m.alloc_vec(8);
        let s1 = m.alloc_scalar();
        let s2 = m.alloc_scalar();
        m.write_vec(a, &[1.0; 8]);
        m.write_vec(b, &[2.0; 8]);
        m.write_scalar(s1, 3.0);
        m.write_scalar(s2, -1.0);
        let mut pb = ProgramBuilder::new();
        pb.push(Instr::Lincomb { dst: d, alpha: s1, a, beta: s2, b });
        let p = pb.build().unwrap();
        m.run(&p).unwrap();
        assert_eq!(m.read_vec(d), &[1.0; 8]);
        // 8 elements at C=4 -> 2 streaming cycles + latency.
        let lat = default_vector_latency();
        assert_eq!(m.stats().cycles, lat + 2);
        assert_eq!(m.stats().breakdown.vector, lat + 2);
    }

    fn default_vector_latency() -> u64 {
        ArchConfig::baseline(4).cost().vector_latency
    }

    #[test]
    fn dot_product_and_scalar_ops() {
        let mut m = machine4();
        let a = m.alloc_vec(4);
        let b = m.alloc_vec(4);
        let s = m.alloc_scalar();
        let t = m.alloc_scalar();
        let u = m.alloc_scalar();
        m.write_vec(a, &[1.0, 2.0, 3.0, 4.0]);
        m.write_vec(b, &[1.0, 1.0, 1.0, 1.0]);
        let mut pb = ProgramBuilder::new();
        pb.push(Instr::Dot { dst: s, a, b });
        pb.push(Instr::SetScalar { dst: t, value: 2.0 });
        pb.push(Instr::Scalar { op: ScalarOp::Div, dst: u, a: s, b: t });
        m.run(&pb.build().unwrap()).unwrap();
        assert_eq!(m.read_scalar(s), 10.0);
        assert_eq!(m.read_scalar(u), 5.0);
        assert!(m.stats().breakdown.scalar > 0);
    }

    #[test]
    fn spmv_requires_duplicate_first() {
        let mut m = machine4();
        let mat = m.add_matrix(&CsrMatrix::identity(4));
        let x = m.alloc_vec(4);
        let y = m.alloc_vec(4);
        m.write_vec(x, &[1.0, 2.0, 3.0, 4.0]);
        let mut pb = ProgramBuilder::new();
        pb.push(Instr::Spmv { matrix: mat, input: x, output: y });
        let err = m.run(&pb.build().unwrap());
        assert!(matches!(err, Err(ArchError::StaleCvb { .. })));
    }

    #[test]
    fn spmv_after_duplicate_computes() {
        let mut m = machine4();
        let csr = CsrMatrix::from_dense(&[vec![1.0, 2.0], vec![0.0, 3.0]]);
        let mat = m.add_matrix(&csr);
        let x = m.alloc_vec(2);
        let y = m.alloc_vec(2);
        m.write_vec(x, &[1.0, 1.0]);
        let mut pb = ProgramBuilder::new();
        pb.push(Instr::Duplicate { vec: x, matrix: mat });
        pb.push(Instr::Spmv { matrix: mat, input: x, output: y });
        m.run(&pb.build().unwrap()).unwrap();
        assert_eq!(m.read_vec(y), &[3.0, 3.0]);
        assert!(m.stats().breakdown.spmv > 0);
        assert!(m.stats().breakdown.duplication > 0);
    }

    #[test]
    fn stale_cvb_detected_after_input_rewrite() {
        let mut m = machine4();
        let mat = m.add_matrix(&CsrMatrix::identity(2));
        let x = m.alloc_vec(2);
        let y = m.alloc_vec(2);
        let mut pb = ProgramBuilder::new();
        pb.push(Instr::Duplicate { vec: x, matrix: mat });
        pb.push(Instr::Spmv { matrix: mat, input: x, output: y });
        let p = pb.build().unwrap();
        m.write_vec(x, &[1.0, 2.0]);
        m.run(&p).unwrap();
        // Rewriting x invalidates the CVB contents.
        m.write_vec(x, &[3.0, 4.0]);
        let mut pb2 = ProgramBuilder::new();
        pb2.push(Instr::Spmv { matrix: mat, input: x, output: y });
        assert!(matches!(m.run(&pb2.build().unwrap()), Err(ArchError::StaleCvb { .. })));
    }

    #[test]
    fn loop_executes_until_condition() {
        let mut m = machine4();
        let acc = m.alloc_scalar();
        let one = m.alloc_scalar();
        let limit = m.alloc_scalar();
        m.write_scalar(one, 1.0);
        m.write_scalar(limit, 5.5);
        let mut pb = ProgramBuilder::new();
        pb.loop_start();
        pb.push(Instr::Scalar { op: ScalarOp::Add, dst: acc, a: acc, b: one });
        // exit when limit < acc  (i.e. acc > 5.5 -> 6 trips)
        pb.loop_end_if_less(limit, acc);
        m.run(&pb.build().unwrap()).unwrap();
        assert_eq!(m.read_scalar(acc), 6.0);
        assert_eq!(m.stats().loop_trips, 5);
    }

    #[test]
    fn loop_cap_errors() {
        let mut m = machine4();
        let a = m.alloc_scalar();
        let b = m.alloc_scalar();
        m.write_scalar(a, 1.0); // never < b = 0
        let mut pb = ProgramBuilder::new();
        pb.loop_start();
        pb.push(Instr::SetScalar { dst: b, value: 0.0 });
        pb.loop_end_if_less(a, b);
        pb.max_trips(3);
        assert!(matches!(m.run(&pb.build().unwrap()), Err(ArchError::LoopCapReached { cap: 3 })));
    }

    #[test]
    fn length_mismatches_are_reported() {
        let mut m = machine4();
        let a = m.alloc_vec(4);
        let b = m.alloc_vec(3);
        let mut pb = ProgramBuilder::new();
        pb.push(Instr::EwMul { dst: a, a, b });
        assert!(matches!(m.run(&pb.build().unwrap()), Err(ArchError::LengthMismatch { .. })));
    }

    #[test]
    fn projection_ops_compute_clamp() {
        let mut m = machine4();
        let x = m.alloc_vec(4);
        let lo = m.alloc_vec(4);
        let hi = m.alloc_vec(4);
        m.write_vec(x, &[-5.0, 0.5, 5.0, 2.0]);
        m.write_vec(lo, &[0.0; 4]);
        m.write_vec(hi, &[1.0; 4]);
        let mut pb = ProgramBuilder::new();
        pb.push(Instr::EwMax { dst: x, a: x, b: lo });
        pb.push(Instr::EwMin { dst: x, a: x, b: hi });
        m.run(&pb.build().unwrap()).unwrap();
        assert_eq!(m.read_vec(x), &[0.0, 0.5, 1.0, 1.0]);
    }

    #[test]
    fn transfer_instructions_cost_cycles() {
        let mut m = machine4();
        let x = m.alloc_vec(16);
        let mut pb = ProgramBuilder::new();
        pb.push(Instr::LoadHbm { vec: x });
        pb.push(Instr::StoreHbm { vec: x });
        m.run(&pb.build().unwrap()).unwrap();
        let per = ArchConfig::baseline(4).cost().transfer_latency + 4;
        assert_eq!(m.stats().breakdown.transfer, 2 * per);
    }

    fn faulty_machine(c: usize, fault: crate::FaultConfig) -> Machine {
        Machine::new(ArchConfig::baseline(c).with_fault_injection(Some(fault)))
    }

    #[test]
    fn armed_hbm_faults_corrupt_loads_and_are_counted() {
        let fault = crate::FaultConfig::new(7).with_hbm_read_flips(1.0);
        let mut m = faulty_machine(4, fault);
        let x = m.alloc_vec(8);
        m.write_vec(x, &[1.0; 8]);
        let mut pb = ProgramBuilder::new();
        pb.push(Instr::LoadHbm { vec: x });
        m.run(&pb.build().unwrap()).unwrap();
        assert_eq!(m.stats().faults, 1);
        assert_ne!(m.read_vec(x), &[1.0; 8], "flip left the vector untouched");
    }

    #[test]
    fn store_and_unarmed_sites_never_fault() {
        // MAC probability 0 with HBM armed: stores and SpMVs stay clean.
        let fault = crate::FaultConfig::new(7).with_hbm_read_flips(1.0);
        let mut m = faulty_machine(4, fault);
        let x = m.alloc_vec(8);
        m.write_vec(x, &[1.0; 8]);
        let mut pb = ProgramBuilder::new();
        pb.push(Instr::StoreHbm { vec: x });
        m.run(&pb.build().unwrap()).unwrap();
        assert_eq!(m.stats().faults, 0);
        assert_eq!(m.read_vec(x), &[1.0; 8]);
    }

    #[test]
    fn mac_faults_corrupt_spmv_outputs() {
        let fault = crate::FaultConfig::new(3).with_mac_output_flips(1.0);
        let mut m = faulty_machine(4, fault);
        let mat = m.add_matrix(&CsrMatrix::identity(4));
        let x = m.alloc_vec(4);
        let y = m.alloc_vec(4);
        m.write_vec(x, &[1.0, 2.0, 3.0, 4.0]);
        let mut pb = ProgramBuilder::new();
        pb.push(Instr::Duplicate { vec: x, matrix: mat });
        pb.push(Instr::Spmv { matrix: mat, input: x, output: y });
        m.run(&pb.build().unwrap()).unwrap();
        assert_eq!(m.stats().faults, 1);
        assert_ne!(m.read_vec(y), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn fault_streams_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let fault =
                crate::FaultConfig::new(seed).with_hbm_read_flips(0.5).with_mac_output_flips(0.5);
            let mut m = faulty_machine(4, fault);
            let mat = m.add_matrix(&CsrMatrix::identity(8));
            let x = m.alloc_vec(8);
            let y = m.alloc_vec(8);
            m.write_vec(x, &[1.0; 8]);
            let mut pb = ProgramBuilder::new();
            for _ in 0..16 {
                pb.push(Instr::LoadHbm { vec: x });
                pb.push(Instr::Duplicate { vec: x, matrix: mat });
                pb.push(Instr::Spmv { matrix: mat, input: x, output: y });
            }
            let p = pb.build().unwrap();
            m.run(&p).unwrap();
            (m.stats().faults, m.read_vec(x).to_vec(), m.read_vec(y).to_vec())
        };
        assert_eq!(run(42), run(42), "same seed must replay identically");
        assert_ne!(run(42), run(43), "different seeds should diverge");
    }

    #[test]
    fn disarmed_machine_reports_zero_faults() {
        let mut m = machine4();
        let x = m.alloc_vec(8);
        m.write_vec(x, &[2.0; 8]);
        let mut pb = ProgramBuilder::new();
        pb.push(Instr::LoadHbm { vec: x });
        m.run(&pb.build().unwrap()).unwrap();
        assert_eq!(m.stats().faults, 0);
        assert_eq!(m.read_vec(x), &[2.0; 8]);
    }

    #[test]
    fn run_stats_are_per_run_not_cumulative() {
        // Regression: `run` used to return `()` and callers differenced the
        // cumulative counters by hand — and the fault count was easy to
        // misread as per-run when it never reset between runs.
        let fault = crate::FaultConfig::new(7).with_hbm_read_flips(1.0);
        let mut m = faulty_machine(4, fault);
        let x = m.alloc_vec(8);
        m.write_vec(x, &[1.0; 8]);
        let mut pb = ProgramBuilder::new();
        pb.push(Instr::LoadHbm { vec: x });
        let p = pb.build().unwrap();
        let first = m.run(&p).unwrap();
        let second = m.run(&p).unwrap();
        assert_eq!(first.faults, 1);
        assert_eq!(second.faults, 1, "second run's stats must not include the first run's fault");
        assert_eq!(first.instructions, 1);
        assert_eq!(second.instructions, 1);
        assert_eq!(first.hbm_bytes, 64);
        assert_eq!(second.hbm_bytes, 64);
        assert_eq!(first.cycles, second.cycles);
        // The cumulative view still accumulates (perf models rely on it).
        assert_eq!(m.stats().faults, 2);
        assert_eq!(m.stats().hbm_bytes, 128);
        assert_eq!(m.stats().since(first), second, "cumulative = sum of the per-run deltas");
    }

    #[test]
    fn hbm_traffic_is_counted_in_bytes() {
        let mut m = machine4();
        let x = m.alloc_vec(16);
        let mut pb = ProgramBuilder::new();
        pb.push(Instr::LoadHbm { vec: x });
        pb.push(Instr::StoreHbm { vec: x });
        let stats = m.run(&pb.build().unwrap()).unwrap();
        assert_eq!(stats.hbm_bytes, 2 * 16 * 8);
    }

    #[test]
    fn run_stats_fold_into_a_registry() {
        let mut m = machine4();
        let x = m.alloc_vec(8);
        m.write_vec(x, &[1.0; 8]);
        let mut pb = ProgramBuilder::new();
        pb.push(Instr::LoadHbm { vec: x });
        pb.push(Instr::StoreHbm { vec: x });
        let stats = m.run(&pb.build().unwrap()).unwrap();
        let registry = rsqp_obs::MetricsRegistry::new();
        stats.fold_into(&registry);
        stats.fold_into(&registry); // folding accumulates
        let snap = registry.snapshot();
        assert_eq!(snap.counter("machine_cycles"), 2 * stats.cycles);
        assert_eq!(snap.counter("machine_hbm_bytes"), 2 * stats.hbm_bytes);
        assert_eq!(snap.counter("machine_instructions"), 4);
        assert_eq!(snap.counter("machine_faults"), 0);
        assert_eq!(snap.counter("machine_cycles_transfer"), 2 * stats.breakdown.transfer);
    }

    #[test]
    fn spmv_may_overwrite_its_own_input() {
        // y = M·x with y == x reads the whole old x before writing.
        let mut m = machine4();
        let csr =
            CsrMatrix::from_dense(&[vec![1.0, 2.0, 0.0], vec![0.0, 3.0, 1.0], vec![1.0, 0.0, 1.0]]);
        let mat = m.add_matrix(&csr);
        let x = m.alloc_vec(3);
        m.write_vec(x, &[1.0, 2.0, 3.0]);
        let mut pb = ProgramBuilder::new();
        pb.push(Instr::Duplicate { vec: x, matrix: mat });
        pb.push(Instr::Spmv { matrix: mat, input: x, output: x });
        pb.push(Instr::Duplicate { vec: x, matrix: mat });
        pb.push(Instr::Spmv { matrix: mat, input: x, output: x });
        m.run(&pb.build().unwrap()).unwrap();
        // [5, 9, 4] after the first product, [23, 31, 9] after the second.
        assert_eq!(m.read_vec(x), &[23.0, 31.0, 9.0]);
    }

    #[test]
    fn aliased_vector_operands_read_before_write() {
        let a0 = [0.1, -2.5, 3.75, 1e-3, -7.0];
        let b0 = [1.3, 0.25, -4.0, 2.0, 0.5];
        let (al, be) = (0.7, -1.9);
        // (dst, a, b) as indices into [a, b]; every aliasing pattern.
        for (dst, ia, ib) in [(0, 0, 1), (1, 0, 1), (0, 0, 0), (1, 0, 0), (0, 1, 1)] {
            let mut m = machine4();
            let regs = [m.alloc_vec(5), m.alloc_vec(5)];
            let (s1, s2) = (m.alloc_scalar(), m.alloc_scalar());
            m.write_scalar(s1, al);
            m.write_scalar(s2, be);
            let init = [a0, b0];
            let (x, y) = (init[ia], init[ib]);
            let expect: [Vec<f64>; 4] = [
                (0..5).map(|k| al * x[k] + be * y[k]).collect(),
                (0..5).map(|k| x[k] * y[k]).collect(),
                (0..5).map(|k| x[k].max(y[k])).collect(),
                (0..5).map(|k| x[k].min(y[k])).collect(),
            ];
            let (d, a, b) = (regs[dst], regs[ia], regs[ib]);
            let instrs = [
                Instr::Lincomb { dst: d, alpha: s1, a, beta: s2, b },
                Instr::EwMul { dst: d, a, b },
                Instr::EwMax { dst: d, a, b },
                Instr::EwMin { dst: d, a, b },
            ];
            for (instr, want) in instrs.into_iter().zip(expect) {
                m.write_vec(regs[0], &a0);
                m.write_vec(regs[1], &b0);
                let mut pb = ProgramBuilder::new();
                pb.push(instr);
                m.run(&pb.build().unwrap()).unwrap();
                assert_eq!(m.read_vec(d), want.as_slice(), "{instr:?}");
            }
        }
    }

    #[test]
    fn matrix_value_update_changes_products_not_cycles() {
        let mut m = machine4();
        let mat = m.add_matrix(&CsrMatrix::from_dense(&[vec![1.0, 2.0], vec![0.0, 3.0]]));
        let x = m.alloc_vec(2);
        let y = m.alloc_vec(2);
        m.write_vec(x, &[1.0, 1.0]);
        let mut pb = ProgramBuilder::new();
        pb.push(Instr::Duplicate { vec: x, matrix: mat });
        pb.push(Instr::Spmv { matrix: mat, input: x, output: y });
        let p = pb.build().unwrap();
        let before = m.run(&p).unwrap();
        m.update_matrix_values(mat, &CsrMatrix::from_dense(&[vec![4.0, -1.0], vec![0.0, 0.5]]));
        let after = m.run(&p).unwrap();
        assert_eq!(m.read_vec(y), &[3.0, 0.5]);
        assert_eq!(before, after);
    }

    #[test]
    #[should_panic(expected = "changed the sparsity structure")]
    fn matrix_value_update_rejects_a_structure_change() {
        let mut m = machine4();
        let mat = m.add_matrix(&CsrMatrix::from_dense(&[vec![1.0, 2.0], vec![0.0, 3.0]]));
        m.update_matrix_values(mat, &CsrMatrix::from_dense(&[vec![1.0, 2.0], vec![3.0, 0.0]]));
    }

    #[test]
    fn bad_registers_error() {
        let mut m = machine4();
        let mut pb = ProgramBuilder::new();
        pb.push(Instr::LoadHbm { vec: VecId(9) });
        assert!(matches!(m.run(&pb.build().unwrap()), Err(ArchError::BadRegister(_))));
    }
}
