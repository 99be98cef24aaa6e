//! Micro-benchmarks of the computational kernels: CSR SpMV, LDLT
//! factor/solve, PCG, and the simulated SpMV engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rsqp_arch::{ArchConfig, Instr, Machine, ProgramBuilder};
use rsqp_linsys::{pcg, KktMatrix, Ldlt, PcgSettings, ReducedKktOp};
use rsqp_problems::{generate, Domain};

fn bench_spmv(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmv");
    group.sample_size(20);
    for size in [4usize, 12] {
        let qp = generate(Domain::Svm, size, 1);
        let a = qp.a();
        let x = vec![1.0; a.ncols()];
        let mut y = vec![0.0; a.nrows()];
        group.bench_with_input(BenchmarkId::new("csr", a.nnz()), &a, |b, a| {
            b.iter(|| a.spmv(&x, &mut y).unwrap());
        });
    }
    group.finish();
}

fn bench_ldlt(c: &mut Criterion) {
    let mut group = c.benchmark_group("ldlt");
    group.sample_size(20);
    for size in [8usize, 20] {
        let qp = generate(Domain::Control, size, 1);
        let rho = vec![0.1; qp.num_constraints()];
        let kkt = KktMatrix::assemble(qp.p(), qp.a(), 1e-6, &rho).unwrap();
        group.bench_with_input(BenchmarkId::new("factor", qp.total_nnz()), &kkt, |b, kkt| {
            b.iter(|| Ldlt::factor(kkt.matrix()).unwrap());
        });
        let f = Ldlt::factor(kkt.matrix()).unwrap();
        let rhs = vec![1.0; qp.num_vars() + qp.num_constraints()];
        group.bench_with_input(BenchmarkId::new("solve", qp.total_nnz()), &f, |b, f| {
            b.iter(|| f.solve(&rhs));
        });
    }
    group.finish();
}

fn bench_pcg(c: &mut Criterion) {
    let mut group = c.benchmark_group("pcg");
    group.sample_size(20);
    for size in [8usize, 20] {
        let qp = generate(Domain::Control, size, 1);
        let rho = vec![0.1; qp.num_constraints()];
        let rhs = vec![1.0; qp.num_vars()];
        let x0 = vec![0.0; qp.num_vars()];
        group.bench_function(BenchmarkId::new("reduced_kkt", qp.total_nnz()), |b| {
            b.iter(|| {
                let mut op = ReducedKktOp::new(qp.p(), qp.a(), 1e-6, &rho).unwrap();
                pcg(&mut op, &rhs, &x0, &PcgSettings { eps: 1e-8, ..Default::default() }).unwrap()
            });
        });
    }
    group.finish();
}

fn bench_machine_spmv(c: &mut Criterion) {
    let mut group = c.benchmark_group("machine_spmv");
    group.sample_size(20);
    let qp = generate(Domain::Svm, 8, 1);
    let a = qp.a();
    let mut machine = Machine::new(ArchConfig::baseline(32));
    let mat = machine.add_matrix(a);
    let x = machine.alloc_vec(a.ncols());
    let y = machine.alloc_vec(a.nrows());
    machine.write_vec(x, &vec![1.0; a.ncols()]);
    let mut pb = ProgramBuilder::new();
    pb.push(Instr::Duplicate { vec: x, matrix: mat });
    pb.push(Instr::Spmv { matrix: mat, input: x, output: y });
    let program = pb.build().unwrap();
    group.bench_function("duplicate_plus_spmv", |b| {
        b.iter(|| {
            machine.write_vec(x, &vec![1.0; a.ncols()]);
            machine.run(&program).unwrap()
        });
    });
    group.finish();
}

fn bench_parallel_spmv(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmv_parallel");
    group.sample_size(20);
    let qp = generate(Domain::Lasso, 20, 1);
    let a = qp.a();
    let x = vec![1.0; a.ncols()];
    let mut y = vec![0.0; a.nrows()];
    for threads in [1usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, &t| {
            b.iter(|| a.spmv_parallel(&x, &mut y, t).unwrap());
        });
    }
    group.finish();
}

fn bench_orderings(c: &mut Criterion) {
    use rsqp_linsys::{amd_ordering, rcm_ordering, SymmetricPermutation};
    let mut group = c.benchmark_group("kkt_ordering");
    group.sample_size(10);
    let qp = generate(Domain::Control, 12, 1);
    let rho = vec![0.1; qp.num_constraints()];
    let kkt = KktMatrix::assemble(qp.p(), qp.a(), 1e-6, &rho).unwrap();
    group.bench_function("amd", |b| b.iter(|| amd_ordering(kkt.matrix())));
    group.bench_function("rcm", |b| b.iter(|| rcm_ordering(kkt.matrix())));
    let perm = amd_ordering(kkt.matrix()).unwrap();
    group.bench_function("apply_permutation", |b| {
        b.iter(|| SymmetricPermutation::new(kkt.matrix(), perm.clone()))
    });
    group.finish();
}

fn bench_rom(c: &mut Criterion) {
    use rsqp_arch::kernels::build_pcg;
    use rsqp_arch::rom;
    let mut group = c.benchmark_group("instruction_rom");
    group.sample_size(20);
    let qp = generate(Domain::Svm, 6, 1);
    let at = qp.a().transpose();
    let mut machine = Machine::new(ArchConfig::baseline(16));
    let p = machine.add_matrix(qp.p());
    let a = machine.add_matrix(qp.a());
    let atid = machine.add_matrix(&at);
    let kernel = build_pcg(&mut machine, p, a, atid, qp.num_vars(), qp.num_constraints(), 100);
    group.bench_function("encode", |b| b.iter(|| rom::encode_program(&kernel.program)));
    let image = rom::encode_program(&kernel.program);
    group.bench_function("decode", |b| b.iter(|| rom::decode_program(&image, 100).unwrap()));
    group.finish();
}

criterion_group!(
    benches,
    bench_spmv,
    bench_ldlt,
    bench_pcg,
    bench_machine_spmv,
    bench_parallel_spmv,
    bench_orderings,
    bench_rom
);
criterion_main!(benches);
