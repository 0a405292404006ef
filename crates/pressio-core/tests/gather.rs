//! The one n-d gather against a naive per-index reference: every lattice of
//! ranks 0–4, empty axes included, at steps 1–3, in all five dtypes, of a
//! buffer seen through its own dims or through a collapse of them (the
//! trailing axes multiplied into one, as the codecs tile a high-rank
//! buffer). The reference computes each element's index on its own, so it
//! shares no walk with the gather.

use pressio_core::lanes::Widen;
use pressio_core::{gather, with_elements, Data, Dtype};
use proptest::prelude::*;

/// A buffer of `dtype` and shape `dims` whose elements name their index.
fn buffer(dtype: Dtype, dims: &[usize]) -> Data {
    let n: usize = dims.iter().product();
    let dims = dims.to_vec();
    match dtype {
        Dtype::F32 => Data::from_f32(dims, (0..n).map(|i| i as f32 * 0.37 - 3.0).collect()),
        Dtype::F64 => Data::from_f64(dims, (0..n).map(|i| i as f64 * 0.37 - 3.0).collect()),
        Dtype::I32 => Data::from_i32(dims, (0..n).map(|i| i as i32 * 7 - 50).collect()),
        Dtype::I64 => Data::from_i64(dims, (0..n).map(|i| i as i64 * 7 - 50).collect()),
        Dtype::U8 => {
            let bytes: Vec<u8> = (0..n).map(|i| (i * 7 % 256) as u8).collect();
            Data::from_le_bytes(Dtype::U8, dims, &bytes).unwrap()
        }
    }
}

/// `dims` with the axes from `at` on multiplied into one, when that leaves
/// fewer axes; else `dims` itself.
fn view(dims: &[usize], at: usize) -> Vec<usize> {
    if at + 1 < dims.len() {
        let mut v = dims[..at].to_vec();
        v.push(dims[at..].iter().product());
        v
    } else {
        dims.to_vec()
    }
}

/// A lattice inside `view` at `step` from two draws per axis: how many
/// elements it keeps (none is allowed) and where it starts.
fn lattice(view: &[usize], picks: &[(u64, u64)], step: usize) -> (Vec<usize>, Vec<usize>) {
    view.iter()
        .zip(picks)
        .map(|(&extent, &(count, start))| {
            if extent == 0 {
                return (0, 0);
            }
            let count = (count % ((extent - 1) / step + 2) as u64) as usize;
            let last_start = extent - 1 - count.saturating_sub(1) * step;
            ((start % (last_start + 1) as u64) as usize, count)
        })
        .unzip()
}

/// The storage index of every element of the lattice, in its storage order,
/// each found on its own from its linear position.
fn naive(view: &[usize], origin: &[usize], shape: &[usize], step: usize) -> Vec<usize> {
    let n: usize = shape.iter().product();
    (0..n)
        .map(|i| {
            let (mut rest, mut index, mut stride) = (i, 0, 1);
            for d in 0..view.len() {
                index += (origin[d] + rest % shape[d] * step) * stride;
                rest /= shape[d];
                stride *= view[d];
            }
            index
        })
        .collect()
}

fn arb_dims() -> impl Strategy<Value = (Vec<usize>, usize)> {
    (0usize..=4).prop_flat_map(|rank| (prop::collection::vec(0usize..=5, rank..=rank), 0..=rank))
}

const DTYPES: [Dtype; 5] = [Dtype::F32, Dtype::F64, Dtype::I32, Dtype::I64, Dtype::U8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_gather_is_the_per_index_reference(
        (dims, at) in arb_dims(),
        picks in prop::collection::vec((any::<u64>(), any::<u64>()), 4..=4),
        step in 1usize..=3,
    ) {
        let view = view(&dims, at);
        let (origin, shape) = lattice(&view, &picks, step);
        let indices = naive(&view, &origin, &shape, step);
        for dtype in DTYPES {
            let data = buffer(dtype, &dims);
            let (bytes, size) = (data.to_le_bytes(), dtype.size());
            let element = |i: usize| bytes[i * size..(i + 1) * size].to_vec();

            // typed: one lattice, and the same one stacked twice
            let one = data.gather(&view, &[&origin], &shape, step, shape.clone());
            prop_assert_eq!(one.dtype(), dtype);
            prop_assert_eq!(one.dims(), &shape[..]);
            let expected: Vec<u8> = indices.iter().flat_map(|&i| element(i)).collect();
            prop_assert_eq!(&one.to_le_bytes(), &expected);
            let mut stacked_dims = shape.clone();
            stacked_dims.push(2);
            let twice = data.gather(&view, &[&origin, &origin], &shape, step, stacked_dims);
            prop_assert_eq!(twice.to_le_bytes(), [expected.clone(), expected].concat());

            // widened, appended after what `out` already holds
            let wide = data.to_f64_vec();
            let mut out = vec![-1.0];
            with_elements!(data.elements(), v => {
                gather(v, &view, &origin, &shape, step, Widen::widen, &mut out)
            });
            let mut expected = vec![-1.0];
            expected.extend(indices.iter().map(|&i| wide[i]));
            prop_assert_eq!(out, expected);
        }
    }
}

/// Rank 0 is its one element; a lattice with an empty axis appends nothing.
#[test]
fn rank_zero_and_empty_lattices() {
    let scalar = Data::from_f64(vec![], vec![2.5]);
    let none: [&[usize]; 1] = [&[]];
    assert_eq!(scalar.gather(&[], &none, &[], 1, vec![]), scalar);
    let mut out = vec![0u8];
    gather(
        &[1u8, 2, 3, 4],
        &[2, 2],
        &[1, 0],
        &[1, 0],
        1,
        |v| v,
        &mut out,
    );
    assert_eq!(out, [0]);
}
