//! Figures 3 & 4 — CPU utilization share and IPC of the main vRAN
//! modules, uplink and downlink.
//!
//! Paper anchors: DCI, rate matching and scrambling run near the ideal
//! IPC of 4; turbo decoding sits around 2.1 and dominates CPU time
//! (>50 % of the processing time, §5).

use crate::arrange::Mechanism;
use crate::experiments::DECODER_ITERATIONS;
use crate::latency::LatencyModel;
use crate::report::{Figure, Row};
use crate::workloads;
use vran_simd::RegWidth;
use vran_uarch::{CoreConfig, CoreSim, SimReport};

/// One subframe's workload at 5 MHz: ≈3 maximum code blocks.
const SUBFRAME_BITS: usize = 3 * 6144;
/// OFDM butterflies per subframe (FFT + equalization volume, 14
/// symbols of 512 points; the ×2 folds in channel-estimation FFT work
/// the OAI receiver performs alongside).
const OFDM_BUTTERFLIES: usize = 2 * 14 * 256 * 9;

/// A profiled module: name, scaled subframe cycles, reference report.
pub(crate) struct ModuleProfile {
    pub name: &'static str,
    pub cycles: f64,
    pub report: SimReport,
}

/// Simulate a reference trace and scale its cycle cost to the real
/// per-subframe volume (`factor`).
fn profiled(name: &'static str, trace: vran_simd::Trace, factor: f64) -> ModuleProfile {
    let report = CoreSim::new(CoreConfig::beefy().warmed()).run(&trace);
    ModuleProfile {
        name,
        cycles: report.cycles as f64 * factor,
        report,
    }
}

/// Per-module profiles for one subframe.
pub(crate) fn module_profiles(uplink: bool) -> Vec<ModuleProfile> {
    let mut out = Vec::new();
    if uplink {
        // OFDM demodulation (FFT + equalization share)
        out.push(profiled(
            "OFDM",
            workloads::ofdm_scalar_kernel(workloads::SMALL_WS, 4000),
            OFDM_BUTTERFLIES as f64 / 4000.0,
        ));
        out.push(profiled(
            "Demodulation",
            workloads::demodulation_twin(2000),
            (14.0 * 300.0) / 2000.0,
        ));
        out.push(profiled(
            "Rate Matching",
            workloads::rate_match_twin(6000, workloads::SMALL_WS),
            (2 * SUBFRAME_BITS) as f64 / 6000.0,
        ));
        out.push(profiled(
            "Scrambling",
            workloads::descrambling_trace(8000), // real traced kernel
            (2 * SUBFRAME_BITS) as f64 / 8000.0,
        ));
        // Turbo decoding = per-iteration arrangement + SISO kernels,
        // traced from the real implementations.
        let mut m = LatencyModel::new(CoreConfig::beefy(), DECODER_ITERATIONS);
        let arr = m.arrangement_report(RegWidth::Sse128, Mechanism::Baseline);
        let dec = m.decoder_report(RegWidth::Sse128);
        let arr_cycles = m.arrangement_cycles(RegWidth::Sse128, Mechanism::Baseline, SUBFRAME_BITS)
            * 2.0
            * DECODER_ITERATIONS as f64;
        let dec_cycles = m.decoder_cycles(RegWidth::Sse128, SUBFRAME_BITS);
        // cycle-weighted fusion of the two reports
        let wa = arr_cycles / (arr_cycles + dec_cycles);
        let fused = SimReport {
            cycles: (arr_cycles + dec_cycles) as u64,
            ipc: arr.ipc * wa + dec.ipc * (1.0 - wa),
            topdown: vran_uarch::TopDown {
                retiring: arr.topdown.retiring * wa + dec.topdown.retiring * (1.0 - wa),
                frontend: arr.topdown.frontend * wa + dec.topdown.frontend * (1.0 - wa),
                bad_speculation: arr.topdown.bad_speculation * wa
                    + dec.topdown.bad_speculation * (1.0 - wa),
                backend_core: arr.topdown.backend_core * wa + dec.topdown.backend_core * (1.0 - wa),
                backend_mem: arr.topdown.backend_mem * wa + dec.topdown.backend_mem * (1.0 - wa),
                mem_levels: core::array::from_fn(|i| {
                    arr.topdown.mem_levels[i] * wa + dec.topdown.mem_levels[i] * (1.0 - wa)
                }),
            },
            ..dec.clone()
        };
        out.push(ModuleProfile {
            name: "Turbo Decoding",
            cycles: arr_cycles + dec_cycles,
            report: fused,
        });
        out.push(profiled("DCI", workloads::dci_twin(2000), 1.0));
    } else {
        out.push(profiled("DCI", workloads::dci_twin(2000), 1.0));
        out.push(profiled(
            "Turbo Encoding",
            workloads::turbo_encode_twin(5000),
            SUBFRAME_BITS as f64 / 5000.0,
        ));
        out.push(profiled(
            "Rate Matching",
            workloads::rate_match_twin(6000, workloads::SMALL_WS),
            (2 * SUBFRAME_BITS) as f64 / 6000.0,
        ));
        out.push(profiled(
            "Scrambling",
            workloads::scrambling_twin(8000),
            (2 * SUBFRAME_BITS) as f64 / 8000.0,
        ));
        out.push(profiled(
            "Modulation",
            workloads::demodulation_twin(2000),
            (14.0 * 300.0) / 2000.0,
        ));
        out.push(profiled(
            "OFDM",
            workloads::ofdm_scalar_kernel(workloads::SMALL_WS, 4000),
            OFDM_BUTTERFLIES as f64 / 4000.0,
        ));
    }
    out
}

fn build(id: &str, title: &str, uplink: bool) -> Figure {
    let mut f = Figure::new(id, title, &["CPU share %", "IPC"]);
    let mods = module_profiles(uplink);
    let total: f64 = mods.iter().map(|m| m.cycles).sum();
    for m in &mods {
        f.push(Row::new(
            m.name,
            vec![m.cycles / total * 100.0, m.report.ipc],
        ));
    }
    f.note("paper: DCI / rate matching / scrambling near ideal IPC 4; turbo decoding ≈2.1");
    f.note("paper §5: decoding occupies more than 50 % of vRAN processing time");
    f
}

/// Figure 3 (uplink).
pub fn uplink() -> Figure {
    build("fig3", "CPU utilization and IPC for uplink", true)
}

/// Figure 4 (downlink).
pub fn downlink() -> Figure {
    build("fig4", "CPU utilization and IPC for downlink", false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uplink_decoding_dominates() {
        let f = uplink();
        let share = f.value("Turbo Decoding", "CPU share %").unwrap();
        assert!(
            share > 50.0,
            "paper: decoding >50 % of processing time, got {share:.1}"
        );
    }

    #[test]
    fn scalar_modules_run_near_ideal_ipc() {
        for f in [uplink(), downlink()] {
            for m in ["Rate Matching", "Scrambling", "DCI"] {
                let ipc = f.value(m, "IPC").unwrap();
                assert!(
                    ipc > 3.0,
                    "{} ({}): near-ideal scalar IPC expected, got {ipc:.2}",
                    m,
                    f.id
                );
            }
        }
    }

    #[test]
    fn turbo_decoding_ipc_is_depressed() {
        let f = uplink();
        let dec = f.value("Turbo Decoding", "IPC").unwrap();
        let scr = f.value("Scrambling", "IPC").unwrap();
        assert!(
            dec < scr - 0.5,
            "decoding IPC must trail scalar modules: {dec:.2} vs {scr:.2}"
        );
        assert!(dec < 3.2, "paper shows ≈2.1, got {dec:.2}");
    }

    #[test]
    fn shares_sum_to_hundred() {
        for f in [uplink(), downlink()] {
            let sum: f64 = f.rows.iter().map(|r| r.values[0]).sum();
            assert!((sum - 100.0).abs() < 1e-6, "{}: {sum}", f.id);
        }
    }
}
