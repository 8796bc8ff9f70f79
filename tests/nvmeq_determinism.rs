//! Equal seeds ⇒ byte-identical traces on the multi-queue transport.
//!
//! `trace_determinism.rs` with the transport pinned to nvmeq: the guest
//! rings one doorbell per command, the target answers each with its own
//! completion frame, and an active relay bridges each frame's unit
//! through the chain; none of it may draw on ambient state.

use storm::block::transport::TransportKind;
use storm::scenario::{Case, Load};

fn nvmeq(case: &Case) -> bool {
    case.transport == TransportKind::Nvmeq
}

#[test]
fn equal_seeds_equal_traces_over_nvmeq() {
    Case::check_draws(500, 8, nvmeq);
}

/// The seed is load-bearing: an unshaped fio case, whose guest draws its
/// mix and offsets from the seed, diverges under another seed.
#[test]
fn different_seeds_diverge() {
    let fio = |c: &Case| nvmeq(c) && !c.qos && matches!(c.load, Load::Fio { .. });
    for (case, run) in Case::check_draws(600, 8, fio) {
        let reseeded = Case {
            seed: !case.seed,
            ..case
        }
        .check();
        assert_ne!(run.trace(), reseeded.trace());
    }
}
