//! Table 1: the RSQP instruction set, with the algorithm steps each class
//! implements, cross-checked against the generated PCG kernel.

use rsqp_arch::{instruction_class, kernels, ArchConfig, Machine};
use rsqp_core::report::Table;
use rsqp_sparse::CsrMatrix;
use std::collections::BTreeMap;

fn main() {
    let mut t = Table::new(["instruction class", "function", "usage"]);
    t.push([
        "Control",
        "Exit the algorithm loop if residual is less than threshold",
        "A1-8, A2-10",
    ]);
    t.push(["Scalar Arithmetic", "Addition, subtraction, division, multiplication", "A2-3,7,9"]);
    t.push(["Data transfer", "Read/write a vector from/to memory", "A2-1,10"]);
    t.push([
        "Vector Operations",
        "Linear combination, element-wise comparison/reciprocal/multiplication, dot product",
        "A1-4,5,6,7, A2-1,3,4,5,6,7,8",
    ]);
    t.push(["Vector Duplication", "Duplicate vector copies across buffers", "A2-1,3"]);
    t.push([
        "SpMV",
        "Multiply a matrix with a vector, write result to vector buffer",
        "A1-8, A2-1,3",
    ]);
    println!("Table 1: instruction set\n");
    println!("{}", t.to_text());

    // Cross-check: histogram of the generated PCG kernel's instructions.
    let p = CsrMatrix::identity(8);
    let a = CsrMatrix::identity(8);
    let at = a.transpose();
    let mut m = Machine::new(ArchConfig::baseline(8));
    let (pid, aid, atid) = (m.add_matrix(&p), m.add_matrix(&a), m.add_matrix(&at));
    let k = kernels::build_pcg(&mut m, pid, aid, atid, 8, 8, 100, None);
    let mut hist: BTreeMap<&str, usize> = BTreeMap::new();
    for i in k.program.instrs() {
        *hist.entry(instruction_class(i)).or_insert(0) += 1;
    }
    println!("instruction histogram of the generated Algorithm-2 kernel:");
    for (class, count) in hist {
        println!("  {class:>12}: {count}");
    }
}
