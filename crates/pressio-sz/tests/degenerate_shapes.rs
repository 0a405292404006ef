//! Shapes with nothing or next to nothing in them — rank 0, an empty axis, a
//! single element, trailing axes of one — through both codecs: a buffer a
//! codec accepts must come back from its own stream within the bound.

use pressio_core::{Compressor, Data, Error, Options};
use pressio_sz::SzCompressor;
use pressio_zfp::ZfpCompressor;

#[test]
fn a_shape_a_codec_accepts_comes_back_within_the_bound() {
    const ABS: f64 = 1e-3;
    let shapes: [&[usize]; 5] = [&[], &[0], &[4, 0], &[1], &[3, 1, 1, 1, 1]];
    let codecs: [Box<dyn Compressor>; 2] = [
        Box::new(SzCompressor::new()),
        Box::new(ZfpCompressor::new()),
    ];
    for mut codec in codecs {
        codec
            .set_options(&Options::new().with("pressio:abs", ABS))
            .unwrap();
        for dims in shapes {
            let n: usize = dims.iter().product();
            let values: Vec<f64> = (0..n).map(|i| 1.5 + i as f64).collect();
            for data in [
                Data::from_f32(dims.to_vec(), values.iter().map(|&v| v as f32).collect()),
                Data::from_f64(dims.to_vec(), values.clone()),
            ] {
                let case = format!("{} {dims:?} {}", codec.id(), data.dtype().name());
                let bytes = match codec.compress(&data) {
                    Ok(bytes) => bytes,
                    Err(Error::UnsupportedData(_)) => continue,
                    Err(other) => panic!("{case}: {other}"),
                };
                let back = codec
                    .decompress(&bytes, data.dtype(), dims)
                    .unwrap_or_else(|e| panic!("{case}: accepted, then {e}"));
                assert_eq!(back.dims(), dims, "{case}");
                for (v, b) in values.iter().zip(back.to_f64_vec()) {
                    assert!((v - b).abs() <= ABS, "{case}: {v} came back {b}");
                }
            }
        }
    }
}
