//! How one matrix maps onto a configured datapath (§4.2–4.3).

use rsqp_cvb::{first_fit, AccessMatrix, CvbLayout};
use rsqp_encode::{greedy_schedule, Schedule, SparsityString};
use rsqp_sparse::CsrMatrix;

use crate::config::CvbPolicy;
use crate::ArchConfig;

/// One matrix mapped onto a configured datapath: its sparsity string, the
/// greedy pack schedule over the configuration's structure set, the
/// lane-access matrix that schedule implies, and the CVB layout — First-Fit,
/// or `C` full copies under [`ArchConfig::baseline`].
///
/// The [`crate::Machine`] charges SpMV cycles from the schedule and
/// duplication cycles from the layout, and the customization pipeline reads
/// the match score's `E_p` and `E_c` from the same map, so
/// `C·(schedule cycles + CVB addresses) = nnz + E_p + E_c·L`.
#[derive(Debug, Clone)]
pub struct DatapathMap {
    string: SparsityString,
    schedule: Schedule,
    access: AccessMatrix,
    layout: CvbLayout,
}

impl DatapathMap {
    /// Maps `m` onto the datapath of `config`.
    pub fn new(m: &CsrMatrix, config: &ArchConfig) -> Self {
        let string = SparsityString::encode(m, config.c());
        let schedule = greedy_schedule(&string, config.set());
        let access = AccessMatrix::from_schedule(&schedule, &string, m, config.set());
        let layout = match config.cvb_policy() {
            CvbPolicy::FirstFit => first_fit(&access),
            CvbPolicy::FullDuplication => CvbLayout::full_duplication(&access),
        };
        DatapathMap { string, schedule, access, layout }
    }

    /// The matrix's sparsity string at the datapath width.
    pub fn string(&self) -> &SparsityString {
        &self.string
    }

    /// The pack schedule: one SpMV cycle per pack.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Which lanes read which vector elements under the schedule.
    pub fn access(&self) -> &AccessMatrix {
        &self.access
    }

    /// The CVB layout: one duplication cycle per address.
    pub fn layout(&self) -> &CvbLayout {
        &self.layout
    }
}
