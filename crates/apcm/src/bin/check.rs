//! Reproduction report: run every experiment, compare against the
//! paper's claims ([`apcm::claims`]), and print a PASS/OFF verdict per
//! claim.
//!
//! ```text
//! cargo run --release -p apcm --bin check
//! ```
//!
//! Exit status is non-zero if any claim lands outside its band, so this
//! doubles as a CI gate for the reproduction.

fn main() {
    let claims = apcm::claims::all();
    println!("== APCM reproduction report ==\n");
    println!(
        "{:<48} {:>24} {:>14}  verdict",
        "claim", "paper", "measured"
    );
    let mut failures = 0;
    for c in &claims {
        let ok = c.in_band();
        if !ok {
            failures += 1;
        }
        println!(
            "{:<48} {:>24} {:>11.2} {:<3} {}",
            c.what,
            c.paper,
            c.measured,
            c.unit,
            if ok { "PASS" } else { "OFF-BAND" }
        );
    }
    println!(
        "\n{} of {} claims within band",
        claims.len() - failures,
        claims.len()
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
