//! N-dimensional typed data buffers, mirroring `pressio_data`.

use crate::error::{Error, Result};
use crate::lattice::gather;

/// Element type of a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dtype {
    /// 32-bit IEEE float (the dominant type in HPC outputs).
    F32,
    /// 64-bit IEEE float.
    F64,
    /// 32-bit signed integer.
    I32,
    /// 64-bit signed integer.
    I64,
    /// Raw bytes (compressed streams, masks).
    U8,
}

impl Dtype {
    /// Size of one element in bytes.
    pub fn size(self) -> usize {
        match self {
            Dtype::F32 | Dtype::I32 => 4,
            Dtype::F64 | Dtype::I64 => 8,
            Dtype::U8 => 1,
        }
    }

    /// Canonical lowercase name (`"f32"`, ...).
    pub fn name(self) -> &'static str {
        match self {
            Dtype::F32 => "f32",
            Dtype::F64 => "f64",
            Dtype::I32 => "i32",
            Dtype::I64 => "i64",
            Dtype::U8 => "u8",
        }
    }

    /// Parse a canonical name.
    pub fn parse(s: &str) -> Result<Dtype> {
        match s {
            "f32" | "float" => Ok(Dtype::F32),
            "f64" | "double" => Ok(Dtype::F64),
            "i32" => Ok(Dtype::I32),
            "i64" => Ok(Dtype::I64),
            "u8" | "byte" => Ok(Dtype::U8),
            other => Err(Error::UnsupportedData(format!("unknown dtype '{other}'"))),
        }
    }
}

/// Typed storage. Keeping per-type vectors (instead of a `Vec<u8>` blob)
/// guarantees alignment for safe typed slices.
#[derive(Debug, Clone, PartialEq)]
enum Storage {
    F32(Vec<f32>),
    F64(Vec<f64>),
    I32(Vec<i32>),
    I64(Vec<i64>),
    U8(Vec<u8>),
}

/// A buffer's elements as the typed slice they are stored as: what the
/// dtype-generic kernels borrow instead of an `f64` copy of the buffer.
/// [`with_elements!`](crate::with_elements) runs one generic expression on
/// whichever slice it holds.
#[derive(Debug, Clone, Copy)]
pub enum Elements<'a> {
    /// `f32` storage.
    F32(&'a [f32]),
    /// `f64` storage.
    F64(&'a [f64]),
    /// `i32` storage.
    I32(&'a [i32]),
    /// `i64` storage.
    I64(&'a [i64]),
    /// `u8` storage.
    U8(&'a [u8]),
}

/// Evaluate `$body` with `$slice` bound to the typed slice inside an
/// [`Elements`](crate::Elements) — `&[f32]`, `&[f64]`, `&[i32]`, `&[i64]`
/// or `&[u8]` — so `$body` is one expression generic over the element type.
#[macro_export]
macro_rules! with_elements {
    ($elements:expr, $slice:ident => $body:expr) => {
        match $elements {
            $crate::Elements::F32($slice) => $body,
            $crate::Elements::F64($slice) => $body,
            $crate::Elements::I32($slice) => $body,
            $crate::Elements::I64($slice) => $body,
            $crate::Elements::U8($slice) => $body,
        }
    };
}

/// An n-dimensional typed buffer.
///
/// Dimensions follow LibPressio's convention: `dims[0]` is the **fastest**
/// varying dimension. A Hurricane Isabel field is
/// `dims = [500, 500, 100]` (x fastest, z slowest).
#[derive(Debug, Clone, PartialEq)]
pub struct Data {
    dims: Vec<usize>,
    storage: Storage,
}

impl Data {
    /// Build from an `f32` vector. Panics if `dims` does not match `len`.
    pub fn from_f32(dims: Vec<usize>, values: Vec<f32>) -> Data {
        assert_eq!(
            dims.iter().product::<usize>(),
            values.len(),
            "dims do not match element count"
        );
        Data {
            dims,
            storage: Storage::F32(values),
        }
    }

    /// Build from an `f64` vector. Panics if `dims` does not match `len`.
    pub fn from_f64(dims: Vec<usize>, values: Vec<f64>) -> Data {
        assert_eq!(dims.iter().product::<usize>(), values.len());
        Data {
            dims,
            storage: Storage::F64(values),
        }
    }

    /// Build from an `i32` vector.
    pub fn from_i32(dims: Vec<usize>, values: Vec<i32>) -> Data {
        assert_eq!(dims.iter().product::<usize>(), values.len());
        Data {
            dims,
            storage: Storage::I32(values),
        }
    }

    /// Build from an `i64` vector.
    pub fn from_i64(dims: Vec<usize>, values: Vec<i64>) -> Data {
        assert_eq!(dims.iter().product::<usize>(), values.len());
        Data {
            dims,
            storage: Storage::I64(values),
        }
    }

    /// Build a 1-d byte buffer (compressed streams).
    pub fn from_bytes(values: Vec<u8>) -> Data {
        Data {
            dims: vec![values.len()],
            storage: Storage::U8(values),
        }
    }

    /// An all-zero buffer of the given type and shape (decode targets).
    pub fn zeros(dtype: Dtype, dims: Vec<usize>) -> Data {
        let n: usize = dims.iter().product();
        let storage = match dtype {
            Dtype::F32 => Storage::F32(vec![0.0; n]),
            Dtype::F64 => Storage::F64(vec![0.0; n]),
            Dtype::I32 => Storage::I32(vec![0; n]),
            Dtype::I64 => Storage::I64(vec![0; n]),
            Dtype::U8 => Storage::U8(vec![0; n]),
        };
        Data { dims, storage }
    }

    /// Element type.
    pub fn dtype(&self) -> Dtype {
        match &self.storage {
            Storage::F32(_) => Dtype::F32,
            Storage::F64(_) => Dtype::F64,
            Storage::I32(_) => Dtype::I32,
            Storage::I64(_) => Dtype::I64,
            Storage::U8(_) => Dtype::U8,
        }
    }

    /// Shape, fastest-varying dimension first.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of elements.
    pub fn num_elements(&self) -> usize {
        self.dims.iter().product()
    }

    /// Total size in bytes (`num_elements * dtype.size()`), the denominator
    /// of every compression-ratio computation in this workspace.
    pub fn size_in_bytes(&self) -> usize {
        self.num_elements() * self.dtype().size()
    }

    /// The elements as the typed slice they are stored as, in storage order.
    pub fn elements(&self) -> Elements<'_> {
        match &self.storage {
            Storage::F32(v) => Elements::F32(v),
            Storage::F64(v) => Elements::F64(v),
            Storage::I32(v) => Elements::I32(v),
            Storage::I64(v) => Elements::I64(v),
            Storage::U8(v) => Elements::U8(v),
        }
    }

    /// Typed view as `f32`; errors for other dtypes.
    pub fn as_f32(&self) -> Result<&[f32]> {
        match &self.storage {
            Storage::F32(v) => Ok(v),
            other => Err(Error::UnsupportedData(format!(
                "expected f32 buffer, found {}",
                dtype_of(other).name()
            ))),
        }
    }

    /// Typed view as `f64`; errors for other dtypes.
    pub fn as_f64(&self) -> Result<&[f64]> {
        match &self.storage {
            Storage::F64(v) => Ok(v),
            other => Err(Error::UnsupportedData(format!(
                "expected f64 buffer, found {}",
                dtype_of(other).name()
            ))),
        }
    }

    /// Every element widened to `f64`, in storage order.
    ///
    /// Allocates; hot paths read [`Data::elements`] through
    /// [`Widen`](crate::lanes::Widen) instead, which is this conversion
    /// applied in-register.
    pub fn to_f64_vec(&self) -> Vec<f64> {
        use crate::lanes::Widen;
        crate::with_elements!(self.elements(), v => v.iter().map(|&x| x.widen()).collect())
    }

    /// Raw little-endian byte image of the buffer (for file I/O).
    pub fn to_le_bytes(&self) -> Vec<u8> {
        match &self.storage {
            Storage::F32(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
            Storage::F64(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
            Storage::I32(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
            Storage::I64(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
            Storage::U8(v) => v.clone(),
        }
    }

    /// What [`Data::from_le_bytes`] requires of its arguments — `byte_len`
    /// is exactly `dims` elements of `dtype` — checked without the bytes,
    /// so a caller can reject a malformed buffer before paying for the copy.
    pub fn check_le_len(dtype: Dtype, dims: &[usize], byte_len: usize) -> Result<()> {
        let n = dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
        if n.and_then(|n| n.checked_mul(dtype.size())) != Some(byte_len) {
            return Err(Error::UnsupportedData(format!(
                "byte length {byte_len} does not match dims {dims:?} of {}",
                dtype.name()
            )));
        }
        Ok(())
    }

    /// Rebuild a buffer from the little-endian image written by
    /// [`Data::to_le_bytes`].
    pub fn from_le_bytes(dtype: Dtype, dims: Vec<usize>, bytes: &[u8]) -> Result<Data> {
        Data::check_le_len(dtype, &dims, bytes.len())?;
        let storage = match dtype {
            Dtype::F32 => Storage::F32(
                bytes
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            ),
            Dtype::F64 => Storage::F64(
                bytes
                    .chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            ),
            Dtype::I32 => Storage::I32(
                bytes
                    .chunks_exact(4)
                    .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            ),
            Dtype::I64 => Storage::I64(
                bytes
                    .chunks_exact(8)
                    .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            ),
            Dtype::U8 => Storage::U8(bytes.to_vec()),
        };
        Ok(Data { dims, storage })
    }

    /// Extract the hyper-rectangle starting at `origin` with shape `shape`.
    ///
    /// Both are in the same fastest-first order as [`Data::dims`]: a checked
    /// [`Data::gather`]. Used by the trial-based estimator (Tao 2019) to pull
    /// the blocks it compresses, and by streaming to cut outer slices.
    pub fn slice_block(&self, origin: &[usize], shape: &[usize]) -> Result<Data> {
        if origin.len() != self.dims.len() || shape.len() != self.dims.len() {
            return Err(Error::UnsupportedData(
                "origin/shape rank does not match data rank".into(),
            ));
        }
        for d in 0..self.dims.len() {
            if origin[d] + shape[d] > self.dims[d] {
                return Err(Error::UnsupportedData(format!(
                    "block exceeds bounds in dim {d}: {}+{} > {}",
                    origin[d], shape[d], self.dims[d]
                )));
            }
        }
        Ok(self.gather(&self.dims, &[origin], shape, 1, shape.to_vec()))
    }

    /// [`gather`] of this buffer at each of `origins` in turn, as one buffer
    /// of this dtype with shape `dims` (a block's own, or the blocks stacked
    /// along a new slowest axis). Panics if `dims` does not hold exactly the
    /// gathered elements or a lattice leaves the buffer.
    pub fn gather(
        &self,
        view: &[usize],
        origins: &[impl AsRef<[usize]>],
        shape: &[usize],
        step: usize,
        dims: Vec<usize>,
    ) -> Data {
        assert_eq!(
            dims.iter().product::<usize>(),
            origins.len() * shape.iter().product::<usize>(),
            "dims do not match the gathered count"
        );
        fn each<T: Copy>(
            values: &[T],
            view: &[usize],
            origins: &[impl AsRef<[usize]>],
            shape: &[usize],
            step: usize,
        ) -> Vec<T> {
            let mut out = Vec::new();
            for origin in origins {
                gather(values, view, origin.as_ref(), shape, step, |v| v, &mut out);
            }
            out
        }
        let storage = match &self.storage {
            Storage::F32(v) => Storage::F32(each(v, view, origins, shape, step)),
            Storage::F64(v) => Storage::F64(each(v, view, origins, shape, step)),
            Storage::I32(v) => Storage::I32(each(v, view, origins, shape, step)),
            Storage::I64(v) => Storage::I64(each(v, view, origins, shape, step)),
            Storage::U8(v) => Storage::U8(each(v, view, origins, shape, step)),
        };
        Data { dims, storage }
    }
}

fn dtype_of(s: &Storage) -> Dtype {
    match s {
        Storage::F32(_) => Dtype::F32,
        Storage::F64(_) => Dtype::F64,
        Storage::I32(_) => Dtype::I32,
        Storage::I64(_) => Dtype::I64,
        Storage::U8(_) => Dtype::U8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_accounting() {
        let d = Data::from_f32(vec![4, 3], (0..12).map(|i| i as f32).collect());
        assert_eq!(d.num_elements(), 12);
        assert_eq!(d.size_in_bytes(), 48);
        assert_eq!(d.dtype(), Dtype::F32);
    }

    #[test]
    #[should_panic(expected = "dims do not match")]
    fn mismatched_dims_panic() {
        let _ = Data::from_f32(vec![5], vec![1.0, 2.0]);
    }

    #[test]
    fn typed_views() {
        let d = Data::from_f64(vec![2], vec![1.0, 2.0]);
        assert_eq!(d.as_f64().unwrap(), &[1.0, 2.0]);
        assert!(d.as_f32().is_err());
    }

    #[test]
    fn le_bytes_round_trip_all_types() {
        for dt in [Dtype::F32, Dtype::F64, Dtype::I32, Dtype::I64, Dtype::U8] {
            let src = Data::zeros(dt, vec![3, 2]);
            let bytes = src.to_le_bytes();
            let back = Data::from_le_bytes(dt, vec![3, 2], &bytes).unwrap();
            assert_eq!(src, back, "{dt:?}");
        }
    }

    #[test]
    fn le_bytes_rejects_bad_length() {
        assert!(Data::from_le_bytes(Dtype::F32, vec![2], &[0u8; 7]).is_err());
    }

    #[test]
    fn f32_le_round_trip_values() {
        let src = Data::from_f32(vec![3], vec![1.5, -2.25, 3.75]);
        let back = Data::from_le_bytes(Dtype::F32, vec![3], &src.to_le_bytes()).unwrap();
        assert_eq!(back.as_f32().unwrap(), &[1.5, -2.25, 3.75]);
    }

    #[test]
    fn slice_block_2d() {
        // 4 (fast) x 3 array laid out row-by-row with the fast dim contiguous
        let d = Data::from_f32(vec![4, 3], (0..12).map(|i| i as f32).collect());
        let b = d.slice_block(&[1, 1], &[2, 2]).unwrap();
        assert_eq!(b.dims(), &[2, 2]);
        // element (x=1,y=1) = 1 + 1*4 = 5; (2,1)=6; (1,2)=9; (2,2)=10
        assert_eq!(b.as_f32().unwrap(), &[5.0, 6.0, 9.0, 10.0]);
    }

    #[test]
    fn slice_block_full_is_identity() {
        let d = Data::from_f32(vec![2, 2, 2], (0..8).map(|i| i as f32).collect());
        let b = d.slice_block(&[0, 0, 0], &[2, 2, 2]).unwrap();
        assert_eq!(b, d);
    }

    #[test]
    fn slice_block_out_of_bounds() {
        let d = Data::from_f32(vec![4], (0..4).map(|i| i as f32).collect());
        assert!(d.slice_block(&[3], &[2]).is_err());
        assert!(d.slice_block(&[0, 0], &[1, 1]).is_err());
    }

    #[test]
    fn slice_block_with_an_empty_axis_is_empty() {
        let d = Data::from_f32(vec![4, 0], vec![]);
        let b = d.slice_block(&[0, 0], &[4, 0]).unwrap();
        assert_eq!((b.dims(), b.num_elements()), (&[4, 0][..], 0));
        let scalar = Data::from_f64(vec![], vec![2.5]);
        assert_eq!(scalar.slice_block(&[], &[]).unwrap(), scalar);
    }

    #[test]
    fn dtype_parse_round_trip() {
        for dt in [Dtype::F32, Dtype::F64, Dtype::I32, Dtype::I64, Dtype::U8] {
            assert_eq!(Dtype::parse(dt.name()).unwrap(), dt);
        }
        assert!(Dtype::parse("f16").is_err());
    }

    #[test]
    fn to_f64_widens() {
        let d = Data::from_i32(vec![3], vec![-1, 0, 7]);
        assert_eq!(d.to_f64_vec(), vec![-1.0, 0.0, 7.0]);
    }
}
