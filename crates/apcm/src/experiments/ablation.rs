//! Ablation studies beyond the paper's figures.
//!
//! * [`ports`] — is APCM just compensating for a port-assignment
//!   quirk? Compare the *original* mechanism on a hypothetical core
//!   whose movement µops may borrow the ALU ports against APCM on the
//!   real port model.
//! * [`rob`] — how much out-of-order window does each mechanism need?
//! * [`issue_width`] — does a wider front end rescue the original
//!   mechanism?
//! * [`width_projection`] — the paper's forward-looking claim ("more
//!   than 50 % of CPU time … larger than 512 bit in next-generation
//!   processors, 4K bit in GPU"): project both mechanisms to
//!   hypothetical wider registers with the analytic model the paper
//!   itself uses in §5.1.

use crate::arrange::{ApcmVariant, ArrangeKernel, Mechanism};
use crate::report::{Figure, Row};
use vran_net::pipeline::synthetic_interleaved;
use vran_simd::RegWidth;
use vran_uarch::{CoreConfig, CoreSim, PortModel};

const K: usize = 6144;

fn run_with(cfg: CoreConfig, width: RegWidth, mech: Mechanism) -> vran_uarch::SimReport {
    let input = synthetic_interleaved(K, 5);
    let (_, trace) = ArrangeKernel::new(width, mech).arrange(&input, true);
    CoreSim::new(cfg).run(&trace.expect("tracing"))
}

/// Port-model ablation.
pub fn ports() -> Figure {
    let mut f = Figure::new(
        "abl-ports",
        "Would a hardware fix (movement µops on ALU ports) replace APCM?",
        &["cycles", "IPC", "backend"],
    );
    let base = CoreConfig::beefy().warmed();
    let hw_fix = CoreConfig {
        ports: PortModel::movement_on_alu(),
        ..base
    };
    for (label, cfg, mech) in [
        ("original/paper-ports", base, Mechanism::Baseline),
        ("original/movement-on-alu", hw_fix, Mechanism::Baseline),
        (
            "apcm/paper-ports",
            base,
            Mechanism::Apcm(ApcmVariant::Shuffle),
        ),
    ] {
        let r = run_with(cfg, RegWidth::Sse128, mech);
        f.push(Row::new(
            label,
            vec![r.cycles as f64, r.ipc, r.topdown.backend()],
        ));
    }
    f.note("the hypothetical hardware fix helps the original mechanism but cannot reach APCM:");
    f.note("per-element extraction still issues 2 µops per 16 bits regardless of which port takes them");
    f
}

/// ROB-size sensitivity.
pub fn rob() -> Figure {
    let mut f = Figure::new(
        "abl-rob",
        "Cycles vs reorder-buffer size (SSE128)",
        &["original", "apcm"],
    );
    for rob in [16u32, 32, 64, 128, 224] {
        let cfg = CoreConfig {
            rob_size: rob,
            ..CoreConfig::beefy().warmed()
        };
        let o = run_with(cfg, RegWidth::Sse128, Mechanism::Baseline);
        let a = run_with(cfg, RegWidth::Sse128, Mechanism::Apcm(ApcmVariant::Shuffle));
        f.push(Row::new(
            format!("rob{rob}"),
            vec![o.cycles as f64, a.cycles as f64],
        ));
    }
    f.note(
        "both kernels are streaming; neither needs a deep window — the bottleneck is structural",
    );
    f
}

/// Issue-width sensitivity.
pub fn issue_width() -> Figure {
    let mut f = Figure::new(
        "abl-issue",
        "IPC vs front-end width (SSE128)",
        &["original IPC", "apcm IPC"],
    );
    for w in [2u32, 4, 6, 8] {
        let cfg = CoreConfig {
            issue_width: w,
            retire_width: w,
            ..CoreConfig::beefy().warmed()
        };
        let o = run_with(cfg, RegWidth::Sse128, Mechanism::Baseline);
        let a = run_with(cfg, RegWidth::Sse128, Mechanism::Apcm(ApcmVariant::Shuffle));
        f.push(Row::new(format!("issue{w}"), vec![o.ipc, a.ipc]));
    }
    f.note("the original mechanism is store-port bound: front-end width does not move it");
    f.note("APCM saturates the 3 ALU ports from issue width 4 upward");
    f
}

/// Analytic projection to hypothetical register widths (paper §5.1's
/// own arithmetic: APCM instruction count per 3-register group stays
/// ~17, so bandwidth scales with width; the original moves 16 bits per
/// extract, so its bandwidth is flat).
pub fn width_projection() -> Figure {
    let mut f = Figure::new(
        "proj-width",
        "Projected store-path bandwidth (bits/cycle) at future widths",
        &["original", "apcm", "apcm utilization %"],
    );
    // anchors measured at xmm
    let base = CoreConfig::beefy().warmed();
    let orig = run_with(base, RegWidth::Sse128, Mechanism::Baseline);
    let apcm = run_with(
        base,
        RegWidth::Sse128,
        Mechanism::Apcm(ApcmVariant::Shuffle),
    );
    let orig_bw = orig.store_bw_bits_per_cycle; // flat in width
    let apcm_cycles_per_group = apcm.cycles as f64 / (K as f64 / 8.0); // width-invariant
    for bits in [128u32, 256, 512, 1024, 2048, 4096] {
        let apcm_bw = 3.0 * bits as f64 / apcm_cycles_per_group;
        f.push(Row::new(
            format!("{bits}b"),
            vec![orig_bw, apcm_bw, apcm_bw / bits as f64 * 100.0],
        ));
    }
    f.note("paper §4.2: with the original mechanism 'the store operation times will be extremely");
    f.note("high and the bandwidth utilization significantly low when further utilizing GPU'");
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hardware_fix_helps_but_apcm_wins() {
        let f = ports();
        let orig = f.value("original/paper-ports", "cycles").unwrap();
        let fixed = f.value("original/movement-on-alu", "cycles").unwrap();
        let apcm = f.value("apcm/paper-ports", "cycles").unwrap();
        assert!(fixed < orig, "extra ports must help the original");
        assert!(
            apcm < fixed,
            "APCM must beat even the hardware fix (fewer µops per element)"
        );
    }

    #[test]
    fn rob_insensitivity() {
        let f = rob();
        let o16 = f.value("rob16", "original").unwrap();
        let o224 = f.value("rob224", "original").unwrap();
        assert!(
            o224 > o16 * 0.5,
            "original must not be window-starved: {o16} vs {o224}"
        );
        // APCM benefits from at least a modest window
        let a16 = f.value("rob16", "apcm").unwrap();
        let a224 = f.value("rob224", "apcm").unwrap();
        assert!(a224 <= a16, "more window must not hurt: {a16} vs {a224}");
    }

    #[test]
    fn issue_width_moves_apcm_not_original() {
        let f = issue_width();
        let o4 = f.value("issue4", "original IPC").unwrap();
        let o8 = f.value("issue8", "original IPC").unwrap();
        assert!(
            o8 < o4 * 1.3,
            "original is port-bound, not fetch-bound: {o4} → {o8}"
        );
        let a4 = f.value("issue4", "apcm IPC").unwrap();
        assert!(a4 > 3.0);
    }

    #[test]
    fn projection_reproduces_measured_anchors_and_diverges() {
        let f = width_projection();
        let a128 = f.value("128b", "apcm").unwrap();
        assert!(
            (60.0..90.0).contains(&a128),
            "anchor ≈72 bits/cycle, got {a128:.0}"
        );
        let o4096 = f.value("4096b", "original").unwrap();
        let a4096 = f.value("4096b", "apcm").unwrap();
        assert!(
            a4096 / o4096 > 100.0,
            "GPU-width gap must be enormous: {:.0}×",
            a4096 / o4096
        );
    }
}
