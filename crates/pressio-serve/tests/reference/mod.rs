#![allow(dead_code)] // each test target uses its own part of the reference

//! The frame header as `serde_json` wrote and read it through a derived
//! `Header` struct, before the protocol wrote and parsed it directly: the
//! reference the direct codec is held to, byte for byte and case for case.

use pressio_core::{Options, Value};
use serde::{Deserialize, Serialize};

#[derive(Serialize, Deserialize)]
struct Header {
    options: Options,
    blobs: Vec<(String, u64)>,
}

/// The header the serde derive printed for `msg`.
pub fn header_bytes(msg: &Options) -> Vec<u8> {
    let mut header = Header {
        options: Options::new(),
        blobs: Vec::new(),
    };
    for (key, value) in msg.iter() {
        match value {
            Value::Bytes(bytes) => header.blobs.push((key.to_string(), bytes.len() as u64)),
            other => {
                header.options.set(key, other.clone());
            }
        }
    }
    serde_json::to_vec(&header).expect("the serde writer cannot fail")
}

/// What the serde reader made of a frame whose prefix is true: `header`
/// then `payload`. Errors are only told apart from successes.
pub fn read_frame(header: &[u8], payload: &[u8]) -> Result<Options, String> {
    let Header { mut options, blobs } =
        serde_json::from_slice(header).map_err(|e| format!("frame header: {e}"))?;
    if options.iter().any(|(_, v)| matches!(v, Value::Bytes(_))) {
        return Err("inline bytes".into());
    }
    let declared = blobs
        .iter()
        .try_fold(0u64, |sum, (_, len)| sum.checked_add(*len));
    if declared != Some(payload.len() as u64) {
        return Err("blob table".into());
    }
    let mut at = 0;
    for (key, len) in blobs {
        if options.contains(&key) {
            return Err("twice".into());
        }
        options.set(key, payload[at..at + len as usize].to_vec());
        at += len as usize;
    }
    Ok(options)
}

/// `header` and `payload` under a true prefix.
pub fn frame(header: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut frame = pressio_serve::protocol::MAGIC.to_vec();
    frame.extend_from_slice(&(header.len() as u32).to_be_bytes());
    frame.extend_from_slice(&(payload.len() as u64).to_be_bytes());
    frame.extend_from_slice(header);
    frame.extend_from_slice(payload);
    frame
}

/// Whether the direct reader and the serde reader agree on one frame:
/// both refuse it, or both read the same message, bit for bit (`Debug`
/// tells `-0.0` from `0.0`, which `==` does not). The disagreement, if
/// any, as a message.
pub fn disagreement(header: &[u8], payload: &[u8]) -> Option<String> {
    let direct = pressio_serve::protocol::read_frame(&mut frame(header, payload).as_slice());
    let serde = read_frame(header, payload);
    match (direct, serde) {
        (Ok(Some(direct)), Ok(serde)) if format!("{direct:?}") == format!("{serde:?}") => None,
        (Err(_), Err(_)) => None,
        (direct, serde) => Some(format!(
            "header {:?}: direct {direct:?}, serde {serde:?}",
            String::from_utf8_lossy(header)
        )),
    }
}
