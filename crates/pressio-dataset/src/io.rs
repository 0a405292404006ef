//! Raw-binary file I/O with shape-encoding filenames.
//!
//! The paper's `io_loader` dispatches on file extension (`.bin` → `fread`,
//! `.h5` → `H5Dread`); here the raw little-endian format carries its shape
//! in the filename (`U_64x64x32.f32`), which is what lets `folder_loader`
//! serve metadata without opening files.

use pressio_core::error::{Error, Result};
use pressio_core::{Data, Dtype};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Parse `<name>_<d0>x<d1>x...<ext>` where ext is `.f32`/`.f64`/`.bin`.
/// Returns `(name, dims, dtype)`; `.bin` is interpreted as `f32` (the
/// Hurricane Isabel distribution convention).
pub fn parse_filename(path: &Path) -> Result<(String, Vec<usize>, Dtype)> {
    let fname = path
        .file_name()
        .and_then(|s| s.to_str())
        .ok_or_else(|| Error::Io(format!("unreadable filename: {}", path.display())))?;
    let (stem, ext) = fname
        .rsplit_once('.')
        .ok_or_else(|| Error::Io(format!("no extension: {fname}")))?;
    let dtype = match ext {
        "f32" | "bin" | "dat" => Dtype::F32,
        "f64" => Dtype::F64,
        other => return Err(Error::Io(format!("unsupported extension .{other}"))),
    };
    let (name, shape) = stem
        .rsplit_once('_')
        .ok_or_else(|| Error::Io(format!("no shape suffix in {fname}")))?;
    let dims: Vec<usize> = shape
        .split('x')
        .map(|p| {
            p.parse::<usize>()
                .map_err(|_| Error::Io(format!("bad shape component '{p}' in {fname}")))
        })
        .collect::<Result<_>>()?;
    if dims.is_empty() || dims.contains(&0) {
        return Err(Error::Io(format!("degenerate shape in {fname}")));
    }
    Ok((name.to_string(), dims, dtype))
}

/// Compose the canonical filename for a buffer.
pub fn format_filename(name: &str, dims: &[usize], dtype: Dtype) -> String {
    let shape = dims
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("x");
    let ext = match dtype {
        Dtype::F64 => "f64",
        _ => "f32",
    };
    format!("{name}_{shape}.{ext}")
}

/// Write `data` as raw little-endian under `dir` with the canonical name;
/// returns the full path.
pub fn write_raw(dir: &Path, name: &str, data: &Data) -> Result<PathBuf> {
    write_raw_with(dir, name, data.dtype(), data.dims(), |w| {
        Ok(w.write_all(&data.to_le_bytes())?)
    })
}

/// Write a raw file of `dtype` and `dims` under `dir` with the canonical
/// name, its little-endian bytes written piece by piece by `fill`, so a
/// caller never holds the whole buffer; returns the full path. The bytes
/// written must be exactly what `dims` and `dtype` say.
pub fn write_raw_with(
    dir: &Path,
    name: &str,
    dtype: Dtype,
    dims: &[usize],
    fill: impl FnOnce(&mut dyn Write) -> Result<()>,
) -> Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format_filename(name, dims, dtype));
    pressio_core::fs::publish(&path, |w| {
        let mut counted = Counted { inner: w, len: 0 };
        fill(&mut counted)?;
        Data::check_le_len(dtype, dims, counted.len)
    })?;
    Ok(path)
}

/// A writer that counts the bytes it passes on.
struct Counted<'a> {
    inner: &'a mut dyn Write,
    len: usize,
}

impl Write for Counted<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.len += n;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Read a raw file whose shape/dtype come from its filename.
pub fn read_raw(path: &Path) -> Result<Data> {
    pressio_faults::inject("dataset:load")?;
    let (_, dims, dtype) = parse_filename(path)?;
    let expected = dims.iter().product::<usize>() * dtype.size();
    let mut bytes = Vec::with_capacity(expected);
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() != expected {
        return Err(Error::Io(format!(
            "{}: expected {expected} bytes, found {}",
            path.display(),
            bytes.len()
        )));
    }
    Data::from_le_bytes(dtype, dims, &bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filename_round_trip() {
        let name = format_filename("QRAIN", &[500, 500, 100], Dtype::F32);
        assert_eq!(name, "QRAIN_500x500x100.f32");
        let (n, dims, dt) = parse_filename(Path::new(&name)).unwrap();
        assert_eq!(n, "QRAIN");
        assert_eq!(dims, vec![500, 500, 100]);
        assert_eq!(dt, Dtype::F32);
    }

    #[test]
    fn names_with_underscores() {
        let (n, dims, _) = parse_filename(Path::new("my_field_v2_8x4.f64")).unwrap();
        assert_eq!(n, "my_field_v2");
        assert_eq!(dims, vec![8, 4]);
    }

    #[test]
    fn bin_extension_is_f32() {
        let (_, _, dt) = parse_filename(Path::new("U_4x4.bin")).unwrap();
        assert_eq!(dt, Dtype::F32);
    }

    #[test]
    fn bad_filenames_error() {
        for bad in [
            "noextension",
            "noshape.f32",
            "bad_4xx.f32",
            "bad_0x4.f32",
            "bad_4x4.png",
        ] {
            assert!(parse_filename(Path::new(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("pressio_io_test");
        let _ = std::fs::remove_dir_all(&dir);
        let data = Data::from_f32(vec![6, 4], (0..24).map(|i| i as f32 * 0.5).collect());
        let path = write_raw(&dir, "FIELD", &data).unwrap();
        assert!(path.ends_with("FIELD_6x4.f32"));
        let back = read_raw(&path).unwrap();
        assert_eq!(back, data);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_file_errors() {
        let dir = std::env::temp_dir().join("pressio_io_test_short");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("X_10x10.f32");
        std::fs::write(&path, [0u8; 7]).unwrap();
        assert!(read_raw(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_piecewise_write_is_one_file_or_none() {
        let dir = std::env::temp_dir().join("pressio_io_test_pieces");
        let _ = std::fs::remove_dir_all(&dir);
        let parts = [
            Data::from_f32(vec![3, 2], vec![1.5; 6]),
            Data::from_f32(vec![3, 2], vec![-2.0; 6]),
        ];
        let path = write_raw_with(&dir, "S", Dtype::F32, &[3, 2, 2], |w| {
            for part in &parts {
                w.write_all(&part.to_le_bytes())?;
            }
            Ok(())
        })
        .unwrap();
        let whole: Vec<f32> = parts
            .iter()
            .flat_map(|p| p.as_f32().unwrap().to_vec())
            .collect();
        assert_eq!(
            read_raw(&path).unwrap(),
            Data::from_f32(vec![3, 2, 2], whole)
        );
        // a short or failed write leaves neither the file nor its temp
        let short = write_raw_with(&dir, "T", Dtype::F32, &[3, 2, 2], |w| {
            Ok(w.write_all(&parts[0].to_le_bytes())?)
        });
        assert!(short.is_err());
        let failed = write_raw_with(&dir, "U", Dtype::F32, &[1], |_| {
            Err(Error::Io("gone".into()))
        });
        assert!(failed.is_err());
        let left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(left, vec![std::ffi::OsString::from("S_3x2x2.f32")]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn two_fields_that_differ_only_in_dtype_write_apart() {
        let dir = std::env::temp_dir().join("pressio_io_test_dtypes");
        let _ = std::fs::remove_dir_all(&dir);
        let single = Data::from_f32(vec![8, 8], (0..64).map(|i| i as f32 * 0.5).collect());
        let double = Data::from_f64(vec![8, 8], (0..64).map(|i| -(i as f64) / 3.0).collect());
        // U_8x8.f64 is written while U_8x8.f32 is half written
        let outer = write_raw_with(&dir, "U", Dtype::F32, &[8, 8], |w| {
            let bytes = single.to_le_bytes();
            w.write_all(&bytes[..100])?;
            write_raw_with(&dir, "U", Dtype::F64, &[8, 8], |w| {
                Ok(w.write_all(&double.to_le_bytes())?)
            })?;
            Ok(w.write_all(&bytes[100..])?)
        })
        .unwrap();
        assert_eq!(read_raw(&outer).unwrap(), single);
        assert_eq!(read_raw(&dir.join("U_8x8.f64")).unwrap(), double);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
