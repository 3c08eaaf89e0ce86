//! Regenerates Fig. 8: LeNet layer-wise power breakdown on Lightator.

use lightator_bench::fig8;

fn main() {
    let run = || -> Result<(), lightator_core::CoreError> {
        let rows = fig8::generate()?;
        let gain = fig8::average_efficiency_gain(&rows)?;
        print!("{}", fig8::render(&rows));
        println!(
            "\naverage efficiency gain [4:4] -> [2:4]: {gain:.2}x (paper reports ~2.4x on average)"
        );
        Ok(())
    };
    if let Err(err) = run() {
        eprintln!("fig8 harness failed: {err}");
        std::process::exit(1);
    }
}
