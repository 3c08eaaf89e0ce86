//! Golden fixture for frame batches: several inputs run inside one frame's
//! noise stream.
//!
//! `tests/golden/frame_batch.golden` pins three cases:
//!
//! * **A two-layer batch.** `PhotonicExecutor::forward_frame_batch` over 3
//!   distinct inputs, each with its own activation scale, through a conv
//!   2→3 (3×3, padding 1), ReLU, Flatten and Linear → 4, with the default
//!   analog noise. Every output's f32 bits are written. The batch runs at 1
//!   and at 4 MAC workers, and both runs must read the one block.
//! * **An 8×8 Sobel-X stream with 2×2 blocks**, the shape of the
//!   `serve-open-loop` benchmark's streams, over 8 random frames. Each
//!   frame redraws a random subset of its blocks, so a frame runs 0 to 4
//!   tiles.
//! * **A 64×64 Sobel-X stream with 4×4 blocks** over 24 frames of
//!   `SyntheticVideoConfig::low_motion`.
//!
//! For each stream frame the fixture holds its index, its computed blocks
//! and a 64-bit FNV-1a digest of its output bits.
//!
//! To regenerate after an *intentional* numerical change:
//!
//! ```text
//! cargo test -p lightator-core --test golden_frame_batch -- --ignored
//! ```

use lightator_core::exec::PhotonicExecutor;
use lightator_core::plan::CompiledPlan;
use lightator_core::platform::{ImageKernel, Platform, Workload};
use lightator_core::stream::StreamConfig;
use lightator_nn::layers::{Activation, Conv2d, Flatten, Linear};
use lightator_nn::model::Sequential;
use lightator_nn::tensor::Tensor;
use lightator_photonics::noise::NoiseConfig;
use lightator_sensor::frame::RgbFrame;
use lightator_sensor::video::{SyntheticVideo, SyntheticVideoConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::path::PathBuf;

const SEED: u64 = 7;
/// The batch's input shape: 2 channels of 5×5.
const INPUT: [usize; 3] = [2, 5, 5];
/// The frame index the batch runs as.
const BATCH_FRAME: u64 = 2;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("frame_batch.golden")
}

/// 64-bit FNV-1a over the little-endian bytes of every value's bits.
fn fnv1a(values: &[f32]) -> u64 {
    values
        .iter()
        .flat_map(|value| value.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Conv 2→3 (3×3, padding 1), ReLU, Flatten, Linear 75→4, seeded.
fn two_layer_model() -> Sequential {
    let mut rng = SmallRng::seed_from_u64(SEED);
    let mut model = Sequential::new(&INPUT);
    model.push(Conv2d::new(2, 3, 3, 1, 1, &mut rng).expect("conv"));
    model.push(Activation::relu());
    model.push(Flatten::new());
    model.push(Linear::new(3 * 5 * 5, 4, &mut rng).expect("linear"));
    model
}

/// Three distinct inputs: input `t` spans `[-0.3, 1)·(t + 1)·0.6`, so each
/// quantizes under a scale of its own, and the negative values go dark.
fn batch_inputs() -> Vec<Tensor> {
    let mut rng = SmallRng::seed_from_u64(SEED ^ 0xba7c);
    let len = INPUT.iter().product();
    (0..3)
        .map(|t| {
            let scale = (t + 1) as f32 * 0.6;
            let data = (0..len)
                .map(|_| rng.gen_range(-0.3f32..1.0) * scale)
                .collect();
            Tensor::from_vec(data, &INPUT).expect("input")
        })
        .collect()
}

/// The batch's outputs at `workers` MAC workers: one line per input, its
/// four outputs' f32 bits.
fn batch_block(workers: usize) -> String {
    let platform = Platform::builder().seed(SEED).build().expect("platform");
    let config = platform.config();
    let workload = Workload::Classify {
        model: two_layer_model(),
    };
    let mut plan = CompiledPlan::compile(&workload, config, SEED).expect("plan");
    let mut executor =
        PhotonicExecutor::new(config.schedule, NoiseConfig::default(), SEED).expect("executor");
    executor.set_workers(workers);
    executor.set_next_frame_index(BATCH_FRAME);
    let outputs = executor
        .forward_frame_batch(&mut plan, &batch_inputs())
        .expect("batch");
    let mut out = String::new();
    for (t, output) in outputs.iter().enumerate() {
        let words: Vec<String> = output
            .data()
            .iter()
            .map(|v| format!("{:08x}", v.to_bits()))
            .collect();
        writeln!(out, "input {t} {}", words.join(" ")).expect("write");
    }
    out
}

fn stream_workload(block_size: usize) -> Workload {
    Workload::VideoStream {
        kernel: ImageKernel::SobelX,
        stream: StreamConfig {
            block_size,
            delta_threshold: 0.05,
        },
    }
}

/// One line per stream frame: index, computed blocks and output digest.
fn stream_block(sensor: usize, block_size: usize, frames: &[RgbFrame]) -> String {
    let mut session = Platform::builder()
        .sensor_resolution(sensor, sensor)
        .seed(SEED)
        .build()
        .expect("platform")
        .session(stream_workload(block_size))
        .expect("session");
    let report = session.run_stream(frames).expect("stream");
    let mut out = String::new();
    for frame in &report.frames {
        writeln!(
            out,
            "frame {} computed {} digest {:016x}",
            frame.index,
            frame.computed_blocks,
            fnv1a(&frame.data)
        )
        .expect("write");
    }
    out
}

/// 8 random 8×8 frames. The first is drawn whole; each later frame keeps
/// each 4×4-pixel block of the one before (one 2×2 block of the acquired
/// map) or redraws it, at random.
fn random_frames() -> Vec<RgbFrame> {
    const SIDE: usize = 8;
    const BLOCK: usize = 4;
    let mut rng = SmallRng::seed_from_u64(SEED ^ 0x5eed);
    let mut data: Vec<f64> = (0..SIDE * SIDE * 3).map(|_| rng.gen()).collect();
    let mut frames = vec![RgbFrame::new(SIDE, SIDE, data.clone()).expect("frame")];
    for _ in 1..8 {
        for (block_row, block_col) in (0..2).flat_map(|r| (0..2).map(move |c| (r, c))) {
            if rng.gen_bool(0.5) {
                continue;
            }
            for row in block_row * BLOCK..(block_row + 1) * BLOCK {
                let at = (row * SIDE + block_col * BLOCK) * 3;
                for value in &mut data[at..at + BLOCK * 3] {
                    *value = rng.gen();
                }
            }
        }
        frames.push(RgbFrame::new(SIDE, SIDE, data.clone()).expect("frame"));
    }
    frames
}

fn golden_text() -> String {
    let mut out = String::from(
        "# batch: conv 2->3 3x3 pad 1, relu, flatten, linear 75->4; \
         default noise, seed 7, frame 2; f32 bits per input\n",
    );
    out.push_str(&batch_block(1));
    out.push_str("# stream: 8x8 sensor, sobel-x, 2x2 blocks, 8 random frames\n");
    out.push_str(&stream_block(8, 2, &random_frames()));
    out.push_str("# stream: 64x64 sensor, sobel-x, 4x4 blocks, 24 low-motion frames\n");
    let video = SyntheticVideo::new(SyntheticVideoConfig::low_motion(64, 64, 24)).expect("video");
    out.push_str(&stream_block(64, 4, &video.collect::<Vec<_>>()));
    out
}

fn fixture() -> String {
    let path = fixture_path();
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with --ignored",
            path.display()
        )
    })
}

/// Every batch output and stream frame is bit-exact against the fixture.
#[test]
fn frame_batches_are_bit_exact_against_the_fixture() {
    let expected = fixture();
    let got = golden_text();
    for (line, (g, e)) in got.lines().zip(expected.lines()).enumerate() {
        assert_eq!(g, e, "frame batches drifted at fixture line {}", line + 1);
    }
    assert_eq!(
        got.lines().count(),
        expected.lines().count(),
        "fixture length drifted"
    );
}

/// The batch reads the fixture's one block at 4 MAC workers too.
#[test]
fn four_workers_read_the_batch_block() {
    let expected = fixture();
    let block: Vec<&str> = expected
        .lines()
        .filter(|line| line.starts_with("input "))
        .collect();
    let got = batch_block(4);
    assert_eq!(got.lines().collect::<Vec<_>>(), block);
}

/// Writes the fixture. Run explicitly after an intentional change:
/// `cargo test -p lightator-core --test golden_frame_batch -- --ignored`
#[test]
#[ignore = "regenerates the golden fixture in place"]
fn regenerate_golden_fixture() {
    std::fs::write(fixture_path(), golden_text()).expect("write frame batch fixture");
}
