//! Bit pins for every kernel of every tier: each op runs on seeded inputs at
//! every length 0..=300, and the CRC32 of its output bits is pinned per tier
//! and op. The cross-tier test (`kernel_equivalence.rs`) bounds tiers against
//! each other within a tolerance; this one says whether a tier's own bits
//! moved. A kernel rewrite that keeps the accumulation order keeps these
//! values; one that changes it (a new lane order, a new tier) moves them on
//! purpose and edits them here.
//!
//! Both tiers, `scalar` and `avx2+fma`, are bound; a tier this host lacks
//! is skipped. A tier without pins is printed, not bound: `-- --nocapture`
//! shows every tier's values.

use tv_common::durafile::crc32_update;
use tv_common::kernels::{self, Kernels};
use tv_common::SplitMix64;

const MAX_LEN: usize = 300;
/// Rows per batch-kernel slab.
const ROWS: usize = 3;

/// One running CRC per op, fed with the little-endian bits of every output.
struct Pins {
    crcs: [u32; 9],
}

const OPS: [&str; 9] = [
    "dot",
    "l2_sq",
    "norm_sq",
    "dot_norm_sq.dot",
    "dot_norm_sq.norm_sq",
    "dot_batch",
    "l2_sq_batch",
    "dot_u8",
    "l2_sq_u8",
];

impl Pins {
    fn feed(&mut self, op: usize, v: f32) {
        self.crcs[op] = crc32_update(self.crcs[op], &v.to_bits().to_le_bytes());
    }

    fn finish(&self) -> Vec<(&'static str, u32)> {
        OPS.iter()
            .zip(self.crcs)
            .map(|(&op, c)| (op, c ^ 0xFFFF_FFFF))
            .collect()
    }
}

fn floats(rng: &mut SplitMix64, n: usize, scale: f32) -> Vec<f32> {
    (0..n)
        .map(|_| (rng.next_f32() * 2.0 - 1.0) * scale)
        .collect()
}

fn pins_of(k: &Kernels) -> Vec<(&'static str, u32)> {
    let mut p = Pins {
        crcs: [0xFFFF_FFFF; 9],
    };
    for len in 0..=MAX_LEN {
        // Two magnitudes per length: unit-scale values and values spread
        // over several binades, so the rounding of every partial sum shows.
        for (draw, scale) in [(0u64, 1.0f32), (1, 300.0)] {
            let mut rng = SplitMix64::new(0x7165_0000 ^ ((len as u64) << 8) ^ draw);
            let a = floats(&mut rng, len, scale);
            let b = floats(&mut rng, len, scale);
            let slab = floats(&mut rng, len * ROWS, scale);
            let step: Vec<f32> = (0..len).map(|_| rng.next_f32() * scale / 128.0).collect();
            let codes: Vec<u8> = (0..len).map(|_| rng.next_below(256) as u8).collect();

            p.feed(0, k.dot(&a, &b));
            p.feed(1, k.l2_sq(&a, &b));
            p.feed(2, k.norm_sq(&a));
            let (ab, bb) = k.dot_norm_sq(&a, &b);
            p.feed(3, ab);
            p.feed(4, bb);
            let mut out = [0.0f32; ROWS];
            k.dot_batch(&a, &slab, &mut out);
            out.iter().for_each(|&o| p.feed(5, o));
            k.l2_sq_batch(&a, &slab, &mut out);
            out.iter().for_each(|&o| p.feed(6, o));
            p.feed(7, k.dot_u8(&a, &codes));
            p.feed(8, k.l2_sq_u8(&a, &step, &codes));
        }
    }
    p.finish()
}

/// The pinned CRCs of a tier, `None` for a tier printed but not bound.
fn pinned(tier: &str) -> Option<[u32; 9]> {
    match tier {
        "scalar" => Some([
            0xcee0_205f,
            0x7bdc_b569,
            0xb166_4661,
            0xcee0_205f,
            0xec02_ab3e,
            0x7ed9_73f1,
            0x4f75_aa9c,
            0x20a4_2b8a,
            0xcc6a_d623,
        ]),
        "avx2+fma" => Some([
            0x705d_b87e,
            0x6e6c_9401,
            0xeec7_f83a,
            0xe2b9_24e2,
            0xf0ae_c385,
            0xa3f2_435b,
            0xf03a_5619,
            0xd2b6_d41c,
            0x9cb5_bcdd,
        ]),
        _ => None,
    }
}

#[test]
fn every_kernel_output_is_pinned_per_tier() {
    // Every tier is printed before any is judged, so one run shows them all.
    let all: Vec<(&str, Vec<(&str, u32)>)> = kernels::available()
        .into_iter()
        .map(|k| (k.tier().name(), pins_of(k)))
        .collect();
    for (tier, got) in &all {
        for (op, crc) in got {
            println!("{tier:>9} {op:<20} {crc:#010x}");
        }
    }
    let mut bound = 0;
    for (tier, got) in &all {
        let Some(want) = pinned(tier) else { continue };
        bound += 1;
        for ((op, crc), want) in got.iter().zip(want) {
            assert_eq!(*crc, want, "{tier}::{op} bits moved: {crc:#010x}");
        }
    }
    assert!(bound >= 1, "the scalar tier is always bound");
}
