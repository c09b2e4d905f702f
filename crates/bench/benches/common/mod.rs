//! CRC24B-bearing decoder inputs for the stop-rule bench rows: one
//! block per place a decode can end.

use vran_phy::bits::random_bits;
use vran_phy::crc::CRC24B;
use vran_phy::llr::{adds16, bit_to_llr, TurboLlrs};
use vran_phy::turbo::{NativeTurboDecoder, TurboEncoder};
use vran_util::rng::SmallRng;

/// Iteration cap of the stop-rule rows.
pub const CAP: usize = 6;

/// A CRC24B-bearing block at LLR magnitude 12 with uniform noise in
/// `±noise`; `flip` corrupts a payload bit after attach, so the block
/// decodes but never passes.
fn crc_block(k: usize, noise: u64, flip: bool, seed: u64) -> TurboLlrs {
    let mut block = CRC24B.attach(&random_bits(k - 24, seed));
    block[3] ^= u8::from(flip);
    let mut rng = SmallRng::seed_from_u64(seed);
    let soft = TurboEncoder::new(k).encode(&block).to_dstreams().map(|st| {
        st.iter()
            .map(|&b| {
                let n = (rng.next_u64() % (2 * noise + 1)) as i16 - noise as i16;
                adds16(bit_to_llr(b, 12), n)
            })
            .collect()
    });
    TurboLlrs::from_dstreams(&soft, k)
}

/// `(row name, block)`: a clean block that stops on SISO pass 1, the
/// first noisy ones that stop on pass 2 and on pass 3, and a noisy one
/// that fails at the cap — where each check of every iteration is paid
/// and none pays off.
pub fn stop_blocks(k: usize) -> [(&'static str, TurboLlrs); 4] {
    let dec = NativeTurboDecoder::new(k, CAP);
    let stopping_on = |passes| {
        (0..2000)
            .map(|seed| crc_block(k, 19 + seed % 3, false, seed))
            .find(|b| dec.decode_with_crc(b, &CRC24B).siso_passes == passes)
            .expect("some noisy block stops on this SISO pass")
    };
    [
        ("stop_pass1", crc_block(k, 0, false, 1)),
        ("stop_pass2", stopping_on(2)),
        ("stop_pass3", stopping_on(3)),
        ("cap6_fail", crc_block(k, 22, true, 2)),
    ]
}
