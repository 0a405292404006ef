//! The Lorenzo predict+quantize and reconstruct loops as one skewed band
//! sweep: [`LANES`] rows of a plane advance together, row `r` one column
//! behind row `r − 1`, so eight independent dependency chains are in flight
//! where the element-at-a-time loop had one. One column of lag suffices
//! because the stencil reaches one row up and one column back: when lane
//! `r` stands at column `x`, lane `r − 1` finished column `x` one step ago.
//!
//! In that order every neighbour in the current plane is already in a
//! register ([`Carried`]): `W` is the lane's own last output, `N` is lane
//! `r − 1`'s last output, `NW` is last step's `N`; `UW`, `UN`, `UNW` follow
//! the same way from the plane below's `U`. A step is therefore one strided
//! read of the plane below, one of the input, one strided write each of
//! reconstruction and symbol. Lane 0 reads the row above the band.
//!
//! Each element's arithmetic is the element-at-a-time loop's: the term order
//! of [`super::predict`], a literal `0.0` for every neighbour outside the
//! volume (a `None` row in [`Around`], a lane held at `0.0` before its row
//! starts), and [`Formula`]'s quantize and recover. Same bits out.
//!
//! The reconstruction lives in a ring of two planes; rows left over after
//! the last whole band, rows shorter than a band is tall and rank 1 (one
//! chain, nothing to overlap) go through the same step one lane wide.

use super::normalize_dims;
use crate::quantizer::{DequantError, Formula};
use pressio_core::lanes::{Element, Widen, LANES};
use std::sync::OnceLock;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Form {
    OneRow,
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2(super::avx2::Detected),
}

/// A form of the band step, and through [`Kernel::encode`] and
/// [`Kernel::decode`] the Lorenzo coder itself. The codec runs
/// [`Kernel::selected`]; the others exist for the tests that hold the forms
/// to the same bits and for the ablation that prices them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kernel(Form);

impl Kernel {
    /// The kernel of this process: AVX2 where the CPU has it, the portable
    /// lane arrays otherwise. Detected once; nothing but the CPU selects it.
    pub fn selected() -> Kernel {
        static SELECTED: OnceLock<Kernel> = OnceLock::new();
        *SELECTED.get_or_init(|| Kernel::avx2().unwrap_or(Kernel::portable()))
    }

    /// Bands through `std::arch`, where this CPU can run them.
    pub fn avx2() -> Option<Kernel> {
        #[cfg(target_arch = "x86_64")]
        return super::avx2::Detected::detect().map(|d| Kernel(Form::Avx2(d)));
        #[cfg(not(target_arch = "x86_64"))]
        None
    }

    /// Bands over `[f64; LANES]` arrays: the path without AVX2, and what
    /// the AVX2 form is tested against.
    pub fn portable() -> Kernel {
        Kernel(Form::Portable)
    }

    /// No bands: every row on its own, as leftover rows always go.
    pub fn one_row() -> Kernel {
        Kernel(Form::OneRow)
    }

    /// `"avx2"`, `"portable"` or `"one-row"`.
    pub fn name(self) -> &'static str {
        match self.0 {
            Form::OneRow => "one-row",
            Form::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Form::Avx2(_) => "avx2",
        }
    }

    fn encode_rows<T: Widen>(
        self,
        formula: &Formula,
        nx: usize,
        values: &[T],
        around: &Around,
        recon: &mut [f64],
        symbols: &mut [u32],
    ) {
        match self.0 {
            _ if recon.len() == nx => {
                encode_band::<T, 1>(formula, nx, values, around, recon, symbols)
            }
            #[cfg(target_arch = "x86_64")]
            Form::Avx2(cpu) => cpu.encode_band(formula, nx, values, around, recon, symbols),
            _ => encode_band::<T, LANES>(formula, nx, values, around, recon, symbols),
        }
    }

    fn decode_rows(
        self,
        formula: &Formula,
        nx: usize,
        symbols: &[u32],
        around: &Around,
        recon: &mut [f64],
    ) {
        match self.0 {
            _ if recon.len() == nx => decode_band::<1>(formula, nx, symbols, around, recon),
            #[cfg(target_arch = "x86_64")]
            Form::Avx2(cpu) => cpu.decode_band(formula, nx, symbols, around, recon),
            _ => decode_band::<LANES>(formula, nx, symbols, around, recon),
        }
    }
}

/// The reconstructed rows around the rows a step writes. `None` is a row
/// outside the volume: every term read from it is a literal `0.0`.
pub(super) struct Around<'a> {
    /// The row above the first row written, in the same plane.
    pub(super) north: Option<&'a [f64]>,
    /// The rows written, in the plane below.
    pub(super) below: Option<&'a [f64]>,
    /// The row above those.
    pub(super) below_north: Option<&'a [f64]>,
}

impl Around<'_> {
    /// What lane 0 reads of `row` at step `s`.
    #[inline(always)]
    pub(super) fn lane0(row: Option<&[f64]>, s: usize) -> f64 {
        row.and_then(|r| r.get(s)).copied().unwrap_or(0.0)
    }
}

/// Run `unit(offset, around, rows)` over the rows of one plane in order:
/// [`LANES`] rows at a time while that many are left and a row is at least
/// that long, one row at a time otherwise.
fn for_each_unit(
    kernel: Kernel,
    [nx, ny]: [usize; 2],
    plane: &mut [f64],
    below: Option<&[f64]>,
    mut unit: impl FnMut(usize, &Around, &mut [f64]),
) {
    let banded = kernel.0 != Form::OneRow && nx >= LANES;
    let mut y = 0;
    while y < ny {
        let rows = if banded && ny - y >= LANES { LANES } else { 1 };
        let (done, rest) = plane.split_at_mut(y * nx);
        let around = Around {
            north: (y > 0).then(|| &done[(y - 1) * nx..]),
            below: below.map(|b| &b[y * nx..(y + rows) * nx]),
            below_north: below.filter(|_| y > 0).map(|b| &b[(y - 1) * nx..y * nx]),
        };
        unit(y * nx, &around, &mut rest[..rows * nx]);
        y += rows;
    }
}

/// The two planes the stencil reaches: the one being written and the one
/// below it. Rank ≤ 2 has no plane below and allocates none.
struct Ring {
    planes: Vec<f64>,
    nxy: usize,
}

impl Ring {
    fn new(nxy: usize, nz: usize) -> Ring {
        Ring {
            planes: vec![0.0; nxy * nz.min(2)],
            nxy,
        }
    }

    /// Plane `z` to write and plane `z − 1` as it was written.
    fn at(&mut self, z: usize) -> (&mut [f64], Option<&[f64]>) {
        if self.planes.len() == self.nxy {
            return (&mut self.planes, None);
        }
        let (even, odd) = self.planes.split_at_mut(self.nxy);
        let (plane, below) = if z.is_multiple_of(2) {
            (even, odd)
        } else {
            (odd, even)
        };
        (plane, (z > 0).then_some(below))
    }
}

/// What a band carries from one step to the next, a value per lane. A lane
/// outside its row holds `0.0` in `out`, which is the `W`, `N` and `NW` its
/// neighbours expect of a column left of the volume.
struct Carried<const L: usize> {
    /// Last step's output: this lane's `W`, the next lane's `N`.
    out: [f64; L],
    /// Last step's `N`, `U` and `UN`: this step's `NW`, `UW` and `UNW`.
    n: [f64; L],
    u: [f64; L],
    un: [f64; L],
}

impl<const L: usize> Carried<L> {
    fn new() -> Self {
        Carried {
            out: [0.0; L],
            n: [0.0; L],
            u: [0.0; L],
            un: [0.0; L],
        }
    }

    /// `first`, then `v` less its last lane.
    #[inline(always)]
    fn shift_in(v: &[f64; L], first: f64) -> [f64; L] {
        let mut shifted = [first; L];
        shifted[1..].copy_from_slice(&v[..L - 1]);
        shifted
    }

    /// Every lane's prediction at step `s`, in the term order of
    /// [`super::predict`]; the neighbours move on by one column.
    #[inline(always)]
    fn predict(&mut self, s: usize, nx: usize, around: &Around) -> [f64; L] {
        let n = Self::shift_in(&self.out, Around::lane0(around.north, s));
        let un = Self::shift_in(&self.u, Around::lane0(around.below_north, s));
        let mut u = [0.0; L];
        if let Some(below) = around.below {
            for r in 0..L {
                let x = s.wrapping_sub(r);
                if x < nx {
                    u[r] = below[r * nx + x];
                }
            }
        }
        let pred = std::array::from_fn(|r| {
            self.out[r] + n[r] + u[r] - self.n[r] - self.u[r] - un[r] + self.un[r]
        });
        (self.n, self.u, self.un) = (n, u, un);
        pred
    }

    /// Step `s`: a lane inside its row, at column `s − r`, takes
    /// `lane(element, prediction)` as its output; any other lane, `0.0`.
    #[inline(always)]
    fn step(
        &mut self,
        s: usize,
        nx: usize,
        around: &Around,
        mut lane: impl FnMut(usize, f64) -> f64,
    ) {
        let pred = self.predict(s, nx, around);
        for (r, (out, pred)) in self.out.iter_mut().zip(pred).enumerate() {
            let x = s.wrapping_sub(r);
            *out = if x < nx { lane(r * nx + x, pred) } else { 0.0 };
        }
    }
}

/// Predict and quantize `L` rows of `nx`: lane `r` is at column `s − r`.
fn encode_band<T: Widen, const L: usize>(
    formula: &Formula,
    nx: usize,
    values: &[T],
    around: &Around,
    recon: &mut [f64],
    symbols: &mut [u32],
) {
    let mut carried = Carried::<L>::new();
    for s in 0..nx + L - 1 {
        carried.step(s, nx, around, |i, pred| {
            let (value, symbol) = formula.quantize(pred, values[i].widen());
            (recon[i], symbols[i]) = (value, symbol);
            value
        });
    }
}

/// Reconstruct `L` rows of `nx` whose escapes are already in place.
fn decode_band<const L: usize>(
    formula: &Formula,
    nx: usize,
    symbols: &[u32],
    around: &Around,
    recon: &mut [f64],
) {
    let mut carried = Carried::<L>::new();
    for s in 0..nx + L - 1 {
        carried.step(s, nx, around, |i, pred| {
            let value = formula.recover(pred, symbols[i], recon[i]);
            recon[i] = value;
            value
        });
    }
}

/// What [`Kernel::encode`] produces.
pub struct Encoded {
    /// One symbol per element; 0 = escape.
    pub symbols: Vec<u32>,
    /// The escapes' values, in element order.
    pub unpredictable: Vec<f64>,
    /// What the decoder will reconstruct — filled only when asked for.
    pub reconstruction: Vec<f64>,
}

/// Where [`Kernel::decode`] takes its symbols from, a plane at a time: a
/// slice of them all, or a coded stream decoded as the sweep goes.
pub trait SymbolSource {
    /// What reading the source, or the symbols it yields, can fail with.
    type Error: From<DequantError>;

    /// The next `len` symbols; fewer only where the source ends.
    fn next_plane(&mut self, len: usize) -> Result<&[u32], Self::Error>;
}

impl SymbolSource for &[u32] {
    type Error = DequantError;

    fn next_plane(&mut self, len: usize) -> Result<&[u32], DequantError> {
        let (plane, rest) = self.split_at(len.min(self.len()));
        *self = rest;
        Ok(plane)
    }
}

/// Check one plane's worth of symbols in raster order — so the first
/// failure is the one the element-at-a-time decoder stops at — and put
/// each escape's verbatim value where the sweep will select it.
fn place_escapes(
    radius: f64,
    symbols: &[u32],
    unpredictable: &mut impl Iterator<Item = f64>,
    plane: &mut [f64],
) -> Result<(), DequantError> {
    for (&symbol, slot) in symbols.iter().zip(plane) {
        if symbol == 0 {
            *slot = unpredictable
                .next()
                .ok_or(DequantError("unpredictable stream exhausted"))?;
        } else if symbol as f64 >= 2.0 * radius {
            return Err(DequantError("symbol out of range"));
        }
    }
    Ok(())
}

impl Kernel {
    /// Quantize `values` under Lorenzo prediction: symbols `code + radius`
    /// within `eb`, escapes verbatim, reconstructions rounded through `f32`
    /// when the decoder will write `f32`. The symbols go into `symbols`,
    /// whose block is reused where it is large enough (its contents are not).
    pub fn encode<T: Widen>(
        self,
        values: &[T],
        dims: &[usize],
        (eb, radius, round_f32): (f64, i64, bool),
        keep_reconstruction: bool,
        mut symbols: Vec<u32>,
    ) -> Encoded {
        let formula = Formula::new(eb, radius, round_f32);
        let [nx, ny, nz] = normalize_dims(dims);
        let n = nx * ny * nz;
        debug_assert_eq!(n, values.len());
        symbols.clear();
        symbols.resize(n, 0);
        let mut out = Encoded {
            symbols,
            unpredictable: Vec::new(),
            reconstruction: Vec::with_capacity(if keep_reconstruction { n } else { 0 }),
        };
        let nxy = nx * ny;
        let mut ring = Ring::new(nxy, nz);
        for z in 0..nz {
            let (plane, below) = ring.at(z);
            let values = &values[z * nxy..][..nxy];
            let symbols = &mut out.symbols[z * nxy..][..nxy];
            for_each_unit(self, [nx, ny], plane, below, |at, around, recon| {
                let rows = at..at + recon.len();
                let (values, symbols) = (&values[rows.clone()], &mut symbols[rows]);
                self.encode_rows(&formula, nx, values, around, recon, symbols);
            });
            // an escape's reconstruction is the value stored verbatim
            for (&symbol, &value) in symbols.iter().zip(&*plane) {
                if symbol == 0 {
                    out.unpredictable.push(value);
                }
            }
            if keep_reconstruction {
                out.reconstruction.extend_from_slice(plane);
            }
        }
        out
    }

    /// Reconstruct a Lorenzo-coded buffer as `T`, or say what the
    /// element-at-a-time decoder would have said of a corrupt one. The
    /// symbols are read a plane at a time, the escapes as the planes reach
    /// them: beside the output, the decode holds two planes and what the
    /// source holds.
    pub fn decode<T: Element, S: SymbolSource>(
        self,
        dims: &[usize],
        bound: (f64, i64, bool),
        symbols: S,
        unpredictable: impl Iterator<Item = f64>,
    ) -> Result<Vec<T>, S::Error> {
        let mut out = vec![T::default(); normalize_dims(dims).iter().product()];
        self.decode_into(dims, bound, symbols, unpredictable, &mut out)?;
        Ok(out)
    }

    /// [`Kernel::decode`] into `out`, which holds the buffer's elements.
    pub fn decode_into<T: Element, S: SymbolSource>(
        self,
        dims: &[usize],
        (eb, radius, round_f32): (f64, i64, bool),
        mut symbols: S,
        mut unpredictable: impl Iterator<Item = f64>,
        out: &mut [T],
    ) -> Result<(), S::Error> {
        let formula = Formula::new(eb, radius, round_f32);
        let [nx, ny, nz] = normalize_dims(dims);
        let nxy = nx * ny;
        debug_assert_eq!(out.len(), nxy * nz);
        let mut ring = Ring::new(nxy, nz);
        for (z, out) in out.chunks_exact_mut(nxy.max(1)).enumerate() {
            let (plane, below) = ring.at(z);
            let symbols = symbols.next_plane(nxy)?;
            place_escapes(formula.radius, symbols, &mut unpredictable, plane)?;
            if symbols.len() < nxy {
                return Err(DequantError("symbol stream exhausted").into());
            }
            for_each_unit(self, [nx, ny], plane, below, |at, around, recon| {
                let symbols = &symbols[at..at + recon.len()];
                self.decode_rows(&formula, nx, symbols, around, recon);
            });
            for (out, &value) in out.iter_mut().zip(&*plane) {
                *out = T::narrow(value);
            }
        }
        Ok(())
    }
}
