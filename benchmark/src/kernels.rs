//! The kernel table every traced run carries: native arrangement
//! (original mechanism against APCM — the paper's arrangement-time
//! link) and native turbo decode (single block against quad-in-zmm),
//! at the largest block size and a small one, fixed iterations.

use crate::stats::median;
use crate::Outcome;
use std::hint::black_box;
use std::time::Instant;
use vran_arrange::native::{best_apcm, deinterleave_into, NativeImpl};
use vran_net::pipeline::synthetic_interleaved;
use vran_phy::llr::{SoftStreams, TailLlrs};
use vran_phy::turbo::native_batch::QUAD;
use vran_phy::turbo::{
    BatchScratch, BlockLlrs, DecodeScratch, NativeBatchTurboDecoder, NativeTurboDecoder,
};
use vran_simd::host::{self, HostIsa};

/// Block sizes measured.
const SIZES: [usize; 2] = [6144, 512];
/// Decoder iterations (no CRC, so every decode runs exactly this many).
const ITERATIONS: usize = 4;
/// Timing samples per kernel; each is the mean of a batch of calls.
const SAMPLES: usize = 15;

/// Median over [`SAMPLES`] batches of the mean ns per call of `f`,
/// each batch sized to ≈ `batch_ns` from one calibration call.
fn ns_per_call(batch_ns: f64, mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    f();
    let once = t.elapsed().as_nanos().max(1) as f64;
    let calls = (batch_ns / once).ceil().max(1.0) as usize;
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&samples)
}

/// The widest original-mechanism kernel the host runs.
fn best_original() -> NativeImpl {
    if host::has(HostIsa::Avx512bw) {
        NativeImpl::BaselineAvx512
    } else if host::has(HostIsa::Sse2) {
        NativeImpl::BaselineSse2
    } else {
        NativeImpl::Scalar
    }
}

/// Measure the table and append its ten metrics.
pub fn put_table(o: &mut Outcome) {
    for k in SIZES {
        let inter = synthetic_interleaved(k, 0x6b65_726e ^ k as u64);
        let mut streams = SoftStreams::zeros(k);
        let original = ns_per_call(2e5, || {
            deinterleave_into(best_original(), &inter.data, k, &mut streams);
            black_box(&mut streams);
        });
        let apcm = ns_per_call(2e5, || {
            deinterleave_into(best_apcm(), &inter.data, k, &mut streams);
            black_box(&mut streams);
        });
        o.put(
            &format!("arrange.native.original_ns_per_block.k{k}"),
            original,
        );
        o.put(&format!("arrange.native.apcm_ns_per_block.k{k}"), apcm);
        o.put(
            &format!("arrange.native.apcm_speedup.ratio.k{k}"),
            original / apcm,
        );

        let tails = TailLlrs::default();
        let single = NativeTurboDecoder::new(k, ITERATIONS);
        let mut scratch = DecodeScratch::new();
        let mut bits = Vec::new();
        let single_ns = ns_per_call(2e6, || {
            black_box(single.decode_streams_into(
                &streams.sys,
                &streams.p1,
                &streams.p2,
                &tails,
                None,
                &mut scratch,
                &mut bits,
            ));
        });
        o.put(
            &format!("phy.turbo.native.single_ns_per_block.k{k}"),
            single_ns,
        );

        let quad = NativeBatchTurboDecoder::new(k, ITERATIONS);
        let mut batch_scratch = BatchScratch::new();
        let mut quad_bits: [Vec<u8>; QUAD] = Default::default();
        let quad_ns = ns_per_call(2e6, || {
            let inputs = [(); QUAD].map(|_| BlockLlrs::from_streams(&streams, tails));
            black_box(quad.decode_quad_staged_into(inputs, &mut batch_scratch, &mut quad_bits));
        });
        o.put(
            &format!("phy.turbo.native_batch.quad_ns_per_block.k{k}"),
            quad_ns / QUAD as f64,
        );
    }
    o.note(
        "kernel_table",
        format!(
            "K={SIZES:?} iterations={ITERATIONS} original={} apcm={}",
            best_original().name(),
            best_apcm().name()
        ),
    );
}
