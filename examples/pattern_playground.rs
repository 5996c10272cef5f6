//! Visualize the UPAQ pattern generator (paper Algorithm 2) and the effect
//! of pattern pruning + quantization on a kernel.
//!
//! Run with `cargo run --release --example pattern_playground`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use upaq::pattern::{pattern_of_kind, Pattern, PatternKind};
use upaq_tensor::quant::{fake_quantize, sqnr, sqnr_db};
use upaq_tensor::{Shape, Tensor};

fn show(pattern: &Pattern) {
    println!("{:?} (n={}):", pattern.kind(), pattern.nonzeros());
    let mask = pattern.mask();
    for r in 0..pattern.dim() {
        let row: String = (0..pattern.dim())
            .map(|c| if mask.is_kept(r, c) { " ■" } else { " ·" })
            .collect();
        println!("  {row}");
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(42);

    println!("── the four pattern families (3 non-zeros in a 3×3 kernel) ──");
    for kind in PatternKind::ALL {
        show(&pattern_of_kind(kind, 3, 3, &mut rng));
    }

    println!("\n── pruning + quantization on a sample kernel ──");
    let kernel = Tensor::from_vec(
        Shape::matrix(3, 3),
        vec![0.82, -0.11, 0.05, 0.07, 0.95, -0.03, -0.14, 0.02, 0.67],
    )?;
    println!("original: {kernel}");
    let pattern = pattern_of_kind(PatternKind::MainDiagonal, 3, 3, &mut rng);
    let masked = pattern.mask().apply(&kernel)?;
    println!("after main-diagonal pruning: {masked}");
    for bits in [4u8, 8, 16] {
        let mut q = masked.clone();
        fake_quantize(q.as_mut_slice(), bits)?;
        println!(
            "  {bits:>2}-bit quantization: SQNR {:>5.1} dB, kernel {q}",
            sqnr_db(sqnr(&masked, &q)?),
        );
    }
    println!("\nHigher bitwidths preserve more signal; the UPAQ efficiency score");
    println!("trades that against the latency/energy cost of the extra bits.");
    Ok(())
}
