//! Golden digests of the synthetic generators, taken at the commit *before*
//! `Hurricane::generate` stopped evaluating every term per element and the
//! two copies of the value noise became one module: every generated value
//! must come out bit for bit.
//!
//! - Every Hurricane field at five grids (a single point, two odd grids, a
//!   64×64×16 cube, a long thin 500×7×3 slab), timesteps first / middle /
//!   last of 48, under two seeds — at 1, 2 and 4 threads.
//! - Every `SyntheticSuite` family at three grids, two realizations and
//!   two seeds.
//! - The value noise itself, in `f64`: every Hurricane grid's two octave
//!   axes sampled by the row and by the point. The generators round to
//!   `f32`, which hides a last-bit change in the noise (a scratch mutant
//!   that sums `wx·(wy·wz)·h` in place of `(wx·wy)·wz·h` still generates
//!   every field above bit for bit); this digest and the noise proptest
//!   fail on it.
//! - Proptests of `Hurricane::generate` and of the noise against the code
//!   they replaced, kept below verbatim as `reference`.
//!
//! A digest is FNV-1a over one line per case (`field dims t seed fnv=…`,
//! the inner `fnv` over the field's little-endian bytes); on a mismatch
//! the test prints the digest it computed, and `GENERATOR_GOLDEN_DUMP=1`
//! prints the lines themselves.

use pressio_core::hash::fnv1a64;
use pressio_core::threads::set_global_threads;
use pressio_core::Data;
use pressio_dataset::noise::{value_noise, Axis};
use pressio_dataset::synthetic::FAMILIES;
use pressio_dataset::{Hurricane, SyntheticSuite, FIELDS, TIMESTEPS};
use proptest::prelude::*;
use std::fmt::Write;

const HURRICANE_GOLDEN: u64 = 0x06f20fc03244ea28;
const SYNTHETIC_GOLDEN: u64 = 0x6a37b69c135295bf;
const NOISE_GOLDEN: u64 = 0x31d7aea21bb4d110;

const GRIDS: [[usize; 3]; 5] = [
    [1, 1, 1],
    [17, 9, 5],
    [33, 23, 5],
    [64, 64, 16],
    [500, 7, 3],
];
const SEEDS: [u64; 2] = [0x15ABE1, 0x9E3779B97F4A7C15];

fn check(name: &str, lines: &str, golden: u64) {
    if std::env::var_os("GENERATOR_GOLDEN_DUMP").is_some() {
        print!("{lines}");
    }
    let digest = fnv1a64(lines.as_bytes());
    assert_eq!(digest, golden, "{name} moved: digest {digest:#018x}");
}

fn line(out: &mut String, what: &str, dims: &[usize], tag: String, data: &Data) {
    assert_eq!(data.dims(), dims, "{what} {tag}");
    let fnv = fnv1a64(&data.to_le_bytes());
    writeln!(out, "{what} {dims:?} {tag} fnv={fnv:016x}").unwrap();
}

fn hurricane_lines() -> String {
    let mut out = String::new();
    for [nx, ny, nz] in GRIDS {
        for seed in SEEDS {
            let source = Hurricane::with_dims(nx, ny, nz, TIMESTEPS).with_seed(seed);
            for t in [0, TIMESTEPS / 2, TIMESTEPS - 1] {
                for field in FIELDS {
                    let data = source.generate(field, t);
                    line(
                        &mut out,
                        field,
                        &[nx, ny, nz],
                        format!("t={t} seed={seed:#x}"),
                        &data,
                    );
                }
            }
        }
    }
    out
}

#[test]
fn every_hurricane_field_matches_the_digest_at_1_2_and_4_threads() {
    for threads in [1, 2, 4] {
        set_global_threads(threads);
        let lines = hurricane_lines();
        set_global_threads(0);
        check(
            &format!("hurricane at {threads} threads"),
            &lines,
            HURRICANE_GOLDEN,
        );
    }
}

#[test]
fn every_synthetic_family_matches_the_digest() {
    let mut out = String::new();
    for [nx, ny, nz] in [[1, 1, 1], [17, 9, 5], [33, 23, 5]] {
        for seed in [0x57A7, 0xC0FFEE] {
            let suite = SyntheticSuite::new(nx, ny, nz, 2).with_seed(seed);
            for realization in 0..2 {
                for family in FAMILIES {
                    let data = suite.generate(family, realization);
                    let tag = format!("#{realization} seed={seed:#x}");
                    line(&mut out, family, &[nx, ny, nz], tag, &data);
                }
            }
        }
    }
    check("synthetic suite", &out, SYNTHETIC_GOLDEN);
}

#[test]
fn the_noise_matches_the_digest_by_the_row_and_by_the_point() {
    let mut out = String::new();
    for [nx, ny, nz] in GRIDS {
        let scale = 8.0 / (nx as f64).max(1.0);
        for (octave, seed) in [(1.0, 0x15ABE1), (2.0, 0x15ABE1 ^ 0xABCD)] {
            let offset = if octave == 1.0 { 0.0 } else { 17.0 };
            let xs: Vec<f64> = (0..nx)
                .map(|x| x as f64 * scale * octave + offset)
                .collect();
            let axis = Axis::new(xs.iter().copied());
            for (y, z) in [(0, 0), (ny / 2, nz / 2), (ny - 1, nz - 1)] {
                let yc = y as f64 * scale * octave;
                let zc = (z as f64 * scale * 2.0 + 2.5) * octave;
                let mut row = Vec::new();
                axis.row(yc, zc, seed, |_, v| row.extend(v.to_le_bytes()));
                let points: Vec<u8> = xs
                    .iter()
                    .flat_map(|&x| value_noise(x, yc, zc, seed).to_le_bytes())
                    .collect();
                let (row, points) = (fnv1a64(&row), fnv1a64(&points));
                writeln!(
                    out,
                    "{nx} x{octave} y={y} z={z} row={row:016x} points={points:016x}"
                )
                .unwrap();
            }
        }
    }
    check("noise", &out, NOISE_GOLDEN);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn the_noise_equals_the_old_noise_by_the_row_and_by_the_point(
        len in 1usize..80,
        scale in 0.01f64..4.0,
        offset in -40.0f64..40.0,
        y in -100.0f64..100.0,
        z in -100.0f64..1000.0,
        seed in any::<u64>(),
    ) {
        let xs: Vec<f64> = (0..len).map(|x| x as f64 * scale + offset).collect();
        let mut row = Vec::new();
        Axis::new(xs.iter().copied()).row(y, z, seed, |_, v| row.push(v));
        prop_assert_eq!(row.len(), len);
        for (&x, v) in xs.iter().zip(&row) {
            let want = reference::value_noise(x, y, z, seed).to_bits();
            prop_assert!(v.to_bits() == want, "row at x={x}: {v}");
            let point = value_noise(x, y, z, seed);
            prop_assert!(point.to_bits() == want, "point at x={x}: {point}");
        }
    }

    #[test]
    fn generate_equals_the_per_element_loop(
        nx in 1usize..24,
        ny in 1usize..24,
        nz in 1usize..9,
        timesteps in 0usize..60,
        t_pick in any::<u64>(),
        seed in any::<u64>(),
        field in 0usize..FIELDS.len(),
    ) {
        let t = (t_pick % (timesteps as u64 + 2)) as usize;
        let field = FIELDS[field];
        let got = Hurricane::with_dims(nx, ny, nz, timesteps).with_seed(seed).generate(field, t);
        let want = reference::generate(nx, ny, nz, timesteps, seed, field, t);
        let got = got.as_f32().unwrap();
        prop_assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert!(g.to_bits() == w.to_bits(), "{field} element {i}: {g} vs {w}");
        }
    }
}

/// The generator as it was before the rewrite: every term evaluated per
/// element, the field chosen by a string `match` per element.
mod reference {
    fn hash3(x: i64, y: i64, z: i64, seed: u64) -> f64 {
        let mut h = seed
            ^ (x as u64).wrapping_mul(0x9E3779B97F4A7C15)
            ^ (y as u64).wrapping_mul(0xC2B2AE3D27D4EB4F)
            ^ (z as u64).wrapping_mul(0x165667B19E3779F9);
        h ^= h >> 30;
        h = h.wrapping_mul(0xBF58476D1CE4E5B9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94D049BB133111EB);
        h ^= h >> 31;
        (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    fn smoothstep(t: f64) -> f64 {
        t * t * (3.0 - 2.0 * t)
    }

    pub fn value_noise(x: f64, y: f64, z: f64, seed: u64) -> f64 {
        let (xi, yi, zi) = (x.floor() as i64, y.floor() as i64, z.floor() as i64);
        let (fx, fy, fz) = (
            smoothstep(x - xi as f64),
            smoothstep(y - yi as f64),
            smoothstep(z - zi as f64),
        );
        let mut acc = 0.0;
        for (dz, wz) in [(0i64, 1.0 - fz), (1, fz)] {
            for (dy, wy) in [(0i64, 1.0 - fy), (1, fy)] {
                for (dx, wx) in [(0i64, 1.0 - fx), (1, fx)] {
                    acc += wx * wy * wz * hash3(xi + dx, yi + dy, zi + dz, seed);
                }
            }
        }
        acc
    }

    fn turbulence(x: f64, y: f64, z: f64, seed: u64) -> f64 {
        value_noise(x, y, z, seed)
            + 0.5 * value_noise(x * 2.0 + 17.0, y * 2.0, z * 2.0, seed ^ 0xABCD)
    }

    fn sparse_plume(envelope: f64, noise: f64, threshold: f64, scale: f64) -> f64 {
        let intensity = envelope * (0.6 + 0.4 * noise);
        if intensity > threshold {
            (intensity - threshold) * scale / (1.0 - threshold)
        } else {
            0.0
        }
    }

    pub fn generate(
        nx: usize,
        ny: usize,
        nz: usize,
        timesteps: usize,
        seed: u64,
        field: &str,
        timestep: usize,
    ) -> Vec<f32> {
        let t = timestep as f64 / timesteps.max(1) as f64;
        let cx = (0.25 + 0.5 * t) * nx as f64;
        let cy = (0.30 + 0.4 * t) * ny as f64;
        let rm = 0.12 * nx as f64;
        let seed = seed ^ (timestep as u64).wrapping_mul(0x9E37);
        let noise_scale = 8.0 / (nx as f64).max(1.0);
        let mut out = Vec::with_capacity(nx * ny * nz);
        for z in 0..nz {
            let zf = z as f64 / nz.max(1) as f64;
            for y in 0..ny {
                for x in 0..nx {
                    let dx = x as f64 - cx;
                    let dy = y as f64 - cy;
                    let r = (dx * dx + dy * dy).sqrt().max(1e-9);
                    let swirl = (r / rm) * (1.0 - r / rm).exp() * (1.0 - 0.6 * zf);
                    let nval = turbulence(
                        x as f64 * noise_scale,
                        y as f64 * noise_scale,
                        z as f64 * noise_scale * 2.0 + t * 5.0,
                        seed,
                    );
                    let v = match field {
                        "U" => -dy / r * swirl * 60.0 + 4.0 * nval,
                        "V" => dx / r * swirl * 60.0 + 4.0 * nval,
                        "W" => {
                            let ring = (-((r - rm) / (0.4 * rm)).powi(2)).exp();
                            ring * (1.0 - zf) * 8.0 + 0.5 * nval
                        }
                        "P" => {
                            let deficit = 60.0 * (-(r / (2.0 * rm)).powi(2)).exp();
                            1000.0 - 90.0 * zf - deficit * (1.0 - 0.5 * zf) + 0.8 * nval
                        }
                        "TC" => {
                            let core = 6.0 * (-(r / rm).powi(2)).exp();
                            28.0 - 60.0 * zf + core + 0.5 * nval
                        }
                        "QVAPOR" => {
                            let humid = (-(zf * 3.0)).exp();
                            (0.02 * humid * (1.0 + 0.4 * (-(r / (3.0 * rm)).powi(2)).exp())
                                + 0.002 * nval)
                                .max(0.0)
                        }
                        "QCLOUD" | "CLOUD" => {
                            let ring = (-((r - rm) / (0.8 * rm)).powi(2)).exp();
                            sparse_plume(ring * (1.0 - zf), nval, 0.55, 0.004)
                        }
                        "QRAIN" | "PRECIP" => {
                            let ring = (-((r - 0.8 * rm) / (0.6 * rm)).powi(2)).exp();
                            sparse_plume(ring * (1.0 - zf).powi(2), nval, 0.65, 0.008)
                        }
                        "QICE" | "QSNOW" => {
                            let ring = (-((r - 1.2 * rm) / rm).powi(2)).exp();
                            sparse_plume(ring * zf, nval, 0.7, 0.003)
                        }
                        "QGRAUP" => {
                            let ring = (-((r - rm) / (0.5 * rm)).powi(2)).exp();
                            sparse_plume(ring * zf * (1.0 - zf) * 4.0, nval, 0.8, 0.005)
                        }
                        _ => nval,
                    };
                    out.push(v as f32);
                }
            }
        }
        out
    }
}
