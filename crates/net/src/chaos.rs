//! Deterministic runner chaos: phased storms over the threaded uplink
//! runner, with circuit breakers armed.
//!
//! Robustness claims need numbers, not adjectives. [`run_runner_chaos`]
//! drives [`run_uplink_stagegraph_metered`] through six storm phases —
//! calm, worker-kill wave, a breaker-flap fault burst, a deadline
//! squeeze, an SNR collapse, recovery — with per-stage circuit breakers
//! armed and a shared [`FlightRecorder`] attached. One worker keeps
//! every count (restarts, breaker trips / resets / fast-fails)
//! deterministic; the report's snapshot feeds the `chaos_recovery`
//! benchgate suite, beside the cell-scale storm's time-to-recover
//! (`apcm::chaos`, over the modelled cell simulator).

use crate::error::ErrorCategory;
use crate::faultinject::{FaultKind, FaultMix};
use crate::metrics::{PipelineMetrics, RunnerMetrics};
use crate::observe::{BreakerConfig, FlightRecorder};
use crate::packet::Transport;
use crate::pipeline::PipelineConfig;
use crate::runner::{run_uplink_stagegraph_metered, FaultPlan, RING_CAPACITY};
use crate::stagegraph::StageGraphConfig;
use std::sync::Arc;

/// Runner chaos tuning.
#[derive(Debug, Clone, Copy)]
pub struct RunnerChaosConfig {
    /// Master seed for every phase's fault plan.
    pub seed: u64,
    /// Circuit-breaker tuning armed on every phase's pipeline.
    pub breakers: BreakerConfig,
    /// Flight-recorder capacity (events).
    pub recorder_capacity: usize,
}

impl RunnerChaosConfig {
    /// The deterministic CI preset: fast breaker cycles (trip after 4,
    /// 8-packet cooldown) so flap phases exercise trips *and* resets
    /// in a few hundred packets.
    pub fn smoke(seed: u64) -> Self {
        Self {
            seed,
            breakers: BreakerConfig {
                trip_after: 4,
                cooldown_packets: 8,
            },
            recorder_capacity: 1024,
        }
    }
}

/// Per-phase outcome of a runner chaos run.
#[derive(Debug, Clone)]
pub struct RunnerChaosPhase {
    /// Phase name.
    pub name: &'static str,
    /// Packets admitted to the chaos driver.
    pub admitted: usize,
    /// Packets that produced a result (`admitted - worker_restarts`).
    pub packets: usize,
    /// Packets that decoded clean end-to-end.
    pub ok_packets: usize,
    /// Isolated worker restarts absorbed.
    pub worker_restarts: usize,
    /// Failed packets, summed over every error category.
    pub errors: u64,
    /// Circuit-breaker trips during the phase.
    pub breaker_trips: u64,
    /// Half-open probes that closed a breaker again.
    pub breaker_resets: u64,
    /// Packets fast-failed by an open breaker.
    pub breaker_fastfails: u64,
    /// Native→Scalar ladder degradations during the phase.
    pub backend_degradations: u64,
}

/// Outcome of a runner chaos run: six phases plus the shared flight
/// recorder (the CI failure artifact).
#[derive(Debug)]
pub struct RunnerChaosReport {
    /// Per-phase outcomes, in schedule order.
    pub phases: Vec<RunnerChaosPhase>,
    /// The flight recorder every phase recorded into.
    pub recorder: Arc<FlightRecorder>,
}

impl RunnerChaosReport {
    /// Look up one phase by name.
    pub fn phase(&self, name: &str) -> &RunnerChaosPhase {
        self.phases
            .iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("no phase named {name}"))
    }

    /// Flat benchgate-ready snapshot: every count is exact (single
    /// worker, seeded faults ⇒ fully deterministic).
    pub fn snapshot(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for p in &self.phases {
            out.push((format!("{}.packets.count", p.name), p.packets as f64));
            out.push((format!("{}.ok.count", p.name), p.ok_packets as f64));
            out.push((
                format!("{}.restarts.count", p.name),
                p.worker_restarts as f64,
            ));
            out.push((format!("{}.errors.count", p.name), p.errors as f64));
            out.push((
                format!("{}.breaker_trips.count", p.name),
                p.breaker_trips as f64,
            ));
            out.push((
                format!("{}.breaker_resets.count", p.name),
                p.breaker_resets as f64,
            ));
            out.push((
                format!("{}.breaker_fastfails.count", p.name),
                p.breaker_fastfails as f64,
            ));
        }
        out.push((
            "flight.recorded.count".into(),
            self.recorder.recorded() as f64,
        ));
        out
    }
}

/// One phase's specification.
struct PhaseSpec {
    name: &'static str,
    cfg: PipelineConfig,
    classes: &'static [(Transport, usize)],
    n: usize,
    faults: Option<FaultPlan>,
}

/// Drive the stage-graph uplink runner through six deterministic storm
/// phases with circuit breakers armed: calm traffic, a worker-kill
/// wave ([`FaultKind::WorkerPanic`]), a breaker-flap burst (mostly
/// [`FaultKind::SaturateLlrs`] with enough clean packets that half-open
/// probes succeed sometimes), a deadline squeeze (1 ns budget), an SNR
/// collapse (−10 dB multi-block traffic ⇒ decoder divergence), and a
/// clean recovery phase. One worker per phase keeps every count exact;
/// each phase gets a fresh pipeline/breakers, and all phases share one
/// [`FlightRecorder`].
///
/// Panics if any phase violates the conservation invariant
/// `packets + worker_restarts == admitted`.
pub fn run_runner_chaos(cfg: RunnerChaosConfig) -> RunnerChaosReport {
    let base = PipelineConfig {
        snr_db: 30.0,
        breakers: Some(cfg.breakers),
        ..Default::default()
    };
    let specs = [
        PhaseSpec {
            name: "calm",
            cfg: base,
            classes: &[(Transport::Udp, 128)],
            n: 48,
            faults: None,
        },
        PhaseSpec {
            name: "panic_wave",
            cfg: base,
            classes: &[(Transport::Udp, 128)],
            n: 64,
            faults: Some(FaultPlan {
                seed: cfg.seed,
                mix: FaultMix::only(FaultKind::Clean)
                    .with_weight(FaultKind::Clean, 5)
                    .with_weight(FaultKind::WorkerPanic, 1),
            }),
        },
        PhaseSpec {
            name: "flap",
            cfg: base,
            classes: &[(Transport::Udp, 128)],
            n: 160,
            faults: Some(FaultPlan {
                seed: cfg.seed ^ 0xf1a9,
                mix: FaultMix::only(FaultKind::SaturateLlrs)
                    .with_weight(FaultKind::SaturateLlrs, 4)
                    .with_weight(FaultKind::Clean, 1),
            }),
        },
        PhaseSpec {
            name: "deadline_squeeze",
            cfg: PipelineConfig {
                deadline_ns: Some(1),
                ..base
            },
            classes: &[(Transport::Udp, 128)],
            n: 64,
            faults: None,
        },
        PhaseSpec {
            name: "snr_collapse",
            cfg: PipelineConfig {
                snr_db: -10.0,
                ..base
            },
            classes: &[(Transport::Udp, 600)],
            n: 48,
            faults: None,
        },
        PhaseSpec {
            name: "recovery",
            cfg: base,
            classes: &[(Transport::Udp, 128)],
            n: 48,
            faults: None,
        },
    ];

    let recorder = Arc::new(FlightRecorder::with_capacity(cfg.recorder_capacity));
    let phases = specs
        .into_iter()
        .map(|spec| {
            let pm = Arc::new(PipelineMetrics::new());
            let rm = RunnerMetrics::new(true, RING_CAPACITY);
            let rep = run_uplink_stagegraph_metered(
                spec.cfg,
                spec.classes,
                spec.n,
                1,
                StageGraphConfig::default(),
                &rm,
                None,
                spec.faults,
                Some(recorder.clone()),
                Some(pm.clone()),
            );
            assert_eq!(
                rep.packets + rep.worker_restarts,
                spec.n,
                "{}: every packet must complete or be accounted to a panic",
                spec.name
            );
            let errors = ErrorCategory::ALL
                .into_iter()
                .map(|c| pm.error_count(c))
                .sum();
            RunnerChaosPhase {
                name: spec.name,
                admitted: spec.n,
                packets: rep.packets,
                ok_packets: rep.ok_packets,
                worker_restarts: rep.worker_restarts,
                errors,
                breaker_trips: pm.breaker_trips.get(),
                breaker_resets: pm.breaker_resets.get(),
                breaker_fastfails: pm.breaker_fastfails.get(),
                backend_degradations: pm.backend_degradations.get(),
            }
        })
        .collect();
    RunnerChaosReport { phases, recorder }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::TraceKind;

    #[test]
    fn runner_chaos_phases_hit_their_failure_modes() {
        let r = run_runner_chaos(RunnerChaosConfig::smoke(3));
        assert_eq!(r.phases.len(), 6);

        let calm = r.phase("calm");
        assert_eq!(calm.ok_packets, calm.admitted, "calm traffic all decodes");
        assert_eq!(calm.breaker_trips, 0);

        let panic = r.phase("panic_wave");
        assert!(panic.worker_restarts > 0, "the kill wave must fire");
        assert_eq!(panic.packets + panic.worker_restarts, panic.admitted);

        let flap = r.phase("flap");
        assert!(flap.breaker_trips > 0, "sustained faults must trip");
        assert!(flap.breaker_resets > 0, "clean probes must reset: {flap:?}");
        assert!(flap.breaker_fastfails > 0);

        let deadline = r.phase("deadline_squeeze");
        assert_eq!(deadline.ok_packets, 0, "a 1 ns budget admits nothing");
        assert!(deadline.breaker_trips > 0, "equalizer breaker must open");
        assert!(deadline.breaker_fastfails > 0);

        let collapse = r.phase("snr_collapse");
        assert_eq!(collapse.ok_packets, 0, "−10 dB decodes nothing");
        assert!(collapse.breaker_trips > 0, "decoder breaker must open");

        let recovery = r.phase("recovery");
        assert_eq!(recovery.ok_packets, recovery.admitted);
        assert_eq!(recovery.breaker_trips, 0, "fresh pipeline, calm channel");

        // The shared recorder saw every kind of trouble.
        let dump = r.recorder.dump_last(r.recorder.capacity());
        assert!(dump
            .iter()
            .any(|e| e.trace_kind() == TraceKind::WorkerRestart));
        assert!(dump.iter().any(|e| e.trace_kind() == TraceKind::PacketDone));
        assert!(r.recorder.recorded() > 0);
    }

    #[test]
    fn runner_chaos_is_deterministic() {
        let a = run_runner_chaos(RunnerChaosConfig::smoke(5)).snapshot();
        let b = run_runner_chaos(RunnerChaosConfig::smoke(5)).snapshot();
        assert_eq!(a, b, "single worker + seeded faults must reproduce");
    }
}
