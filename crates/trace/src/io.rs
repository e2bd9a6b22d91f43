//! Simple portable trace and dataset (de)serialisation.
//!
//! Two formats are supported:
//!
//! * a compact little-endian binary format for raw sample vectors
//!   ([`write_samples_binary`] / [`read_samples_binary`]) compatible with
//!   `numpy.fromfile(dtype="<f4")`, convenient for exchanging traces with the
//!   original Python tooling, and
//! * a self-describing text format for [`Trace`] including metadata
//!   (`SCATRC01`), kept dependency-free on purpose (no JSON crate in the
//!   offline allow-list). [`write_trace_text`] writes it; its one reader is
//!   [`crate::FileTraceSource::open_text`], which indexes the file and reads
//!   any window of it, or the whole trace with
//!   [`crate::FileTraceSource::read_all`].

use std::io::{BufWriter, Read, Write};
use std::path::Path;

use crate::{Result, Trace, TraceError, TraceMeta};

const MAGIC: &[u8; 8] = b"SCATRC01";

fn io_err(e: std::io::Error) -> TraceError {
    TraceError::Io(e.to_string())
}

// ---------------------------------------------------------------------------
// Little-endian primitives
// ---------------------------------------------------------------------------
//
// Shared building blocks for every binary format in the workspace (raw sample
// dumps here, the locator's model files in `sca-locator::persist`). They
// return plain `std::io::Result` so callers can map failures onto their own
// error types; truncation surfaces as `ErrorKind::UnexpectedEof`.

/// Writes a `u32` in little-endian byte order.
///
/// # Errors
///
/// Propagates the underlying writer error.
pub fn write_u32_le<W: Write>(mut writer: W, value: u32) -> std::io::Result<()> {
    writer.write_all(&value.to_le_bytes())
}

/// Reads a little-endian `u32`.
///
/// # Errors
///
/// Propagates the underlying reader error (`UnexpectedEof` on truncation).
pub fn read_u32_le<R: Read>(mut reader: R) -> std::io::Result<u32> {
    let mut buf = [0u8; 4];
    reader.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// Writes a `u64` in little-endian byte order.
///
/// # Errors
///
/// Propagates the underlying writer error.
pub fn write_u64_le<W: Write>(mut writer: W, value: u64) -> std::io::Result<()> {
    writer.write_all(&value.to_le_bytes())
}

/// Reads a little-endian `u64`.
///
/// # Errors
///
/// Propagates the underlying reader error (`UnexpectedEof` on truncation).
pub fn read_u64_le<R: Read>(mut reader: R) -> std::io::Result<u64> {
    let mut buf = [0u8; 8];
    reader.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Writes an `f32` slice in little-endian byte order (bit-exact: the bytes
/// are the IEEE-754 representation, so a read-back reproduces every value
/// including NaN payloads).
///
/// # Errors
///
/// Propagates the underlying writer error.
pub fn write_f32s_le<W: Write>(mut writer: W, values: &[f32]) -> std::io::Result<()> {
    for &v in values {
        writer.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// Upper bound on any single transient read buffer and on the *initial*
/// capacity reserved for a length-prefixed read. `count` values usually come
/// from an untrusted file header, so the readers below never allocate
/// `count`-sized buffers up front: they read in bounded chunks and let the
/// output grow only as real data actually arrives. A header lying about its
/// length therefore fails with `UnexpectedEof` after at most one chunk of
/// work instead of a multi-gigabyte allocation (or, on 32-bit targets, a
/// `count * 4` overflow).
const READ_CHUNK_BYTES: usize = 64 * 1024;

/// `InvalidData` error for a length header whose byte size overflows `usize`.
fn count_overflow(what: &str, count: usize) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("{what} count {count} overflows the addressable byte range"),
    )
}

/// Reads exactly `count` little-endian `f32` values.
///
/// `count` is treated as untrusted (it typically comes from a file header):
/// the read proceeds in bounded chunks, so a corrupt or hostile header
/// cannot trigger an up-front `count * 4` allocation and a `count` whose
/// byte size overflows `usize` is rejected with `InvalidData`.
///
/// # Errors
///
/// Propagates the underlying reader error (`UnexpectedEof` if fewer than
/// `count` values are available); `InvalidData` on byte-size overflow.
pub fn read_f32s_le<R: Read>(mut reader: R, count: usize) -> std::io::Result<Vec<f32>> {
    if count.checked_mul(4).is_none() {
        return Err(count_overflow("f32", count));
    }
    let mut out = Vec::with_capacity(count.min(READ_CHUNK_BYTES / 4));
    let mut buf = [0u8; READ_CHUNK_BYTES];
    let mut remaining = count;
    while remaining > 0 {
        let take = remaining.min(READ_CHUNK_BYTES / 4);
        let bytes = &mut buf[..take * 4];
        reader.read_exact(bytes)?;
        out.extend(bytes.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])));
        remaining -= take;
    }
    Ok(out)
}

/// Reads exactly `out.len()` little-endian `f32` values into a
/// caller-provided slice, in bounded chunks (no transient buffer ever exceeds
/// `READ_CHUNK_BYTES`, 64 KiB). The slice-filling counterpart of [`read_f32s_le`]
/// for callers that own the destination — e.g. the carry-buffer sequential
/// trace source, which decodes a socket or pipe straight into its chunk
/// buffer.
///
/// # Errors
///
/// Propagates the underlying reader error (`UnexpectedEof` if the stream
/// ends before `out` is full).
pub fn read_f32s_le_into<R: Read>(mut reader: R, out: &mut [f32]) -> std::io::Result<()> {
    let mut buf = [0u8; READ_CHUNK_BYTES];
    for block in out.chunks_mut(READ_CHUNK_BYTES / 4) {
        let bytes = &mut buf[..block.len() * 4];
        reader.read_exact(bytes)?;
        for (slot, quad) in block.iter_mut().zip(bytes.chunks_exact(4)) {
            *slot = f32::from_le_bytes([quad[0], quad[1], quad[2], quad[3]]);
        }
    }
    Ok(())
}

/// Writes an `i8` slice as raw bytes (two's complement, endianness-free).
///
/// The counterpart of [`read_i8s`]; used for the quantised weight blocks of
/// the locator's model format v2.
///
/// # Errors
///
/// Propagates the underlying writer error.
pub fn write_i8s<W: Write>(mut writer: W, values: &[i8]) -> std::io::Result<()> {
    // Chunked copy keeps the conversion allocation small and the writes
    // large enough for a buffered writer.
    let mut buf = [0u8; 4096];
    for chunk in values.chunks(buf.len()) {
        for (dst, &v) in buf.iter_mut().zip(chunk.iter()) {
            *dst = v as u8;
        }
        writer.write_all(&buf[..chunk.len()])?;
    }
    Ok(())
}

/// Reads exactly `count` `i8` values (raw two's-complement bytes).
///
/// Like [`read_f32s_le`], `count` is untrusted: the read proceeds in bounded
/// chunks and the output only grows as data actually arrives, so a corrupt
/// length header fails fast instead of allocating `count` bytes up front.
///
/// # Errors
///
/// Propagates the underlying reader error (`UnexpectedEof` if fewer than
/// `count` bytes are available).
pub fn read_i8s<R: Read>(mut reader: R, count: usize) -> std::io::Result<Vec<i8>> {
    let mut out = Vec::with_capacity(count.min(READ_CHUNK_BYTES));
    let mut buf = [0u8; READ_CHUNK_BYTES];
    let mut remaining = count;
    while remaining > 0 {
        let take = remaining.min(READ_CHUNK_BYTES);
        let bytes = &mut buf[..take];
        reader.read_exact(bytes)?;
        out.extend(bytes.iter().map(|&b| b as i8));
        remaining -= take;
    }
    Ok(out)
}

/// Writes raw `f32` samples in little-endian binary to `writer`.
///
/// # Errors
///
/// Returns [`TraceError::Io`] if the underlying writer fails.
pub fn write_samples_binary<W: Write>(writer: W, samples: &[f32]) -> Result<()> {
    write_f32s_le(writer, samples).map_err(io_err)
}

/// Reads raw little-endian `f32` samples from `reader` until EOF.
///
/// # Errors
///
/// Returns [`TraceError::Io`] if the reader fails or the byte count is not a
/// multiple of 4.
pub fn read_samples_binary<R: Read>(mut reader: R) -> Result<Vec<f32>> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes).map_err(io_err)?;
    if bytes.len() % 4 != 0 {
        return Err(TraceError::Io(format!("byte length {} is not a multiple of 4", bytes.len())));
    }
    Ok(bytes.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect())
}

/// Writes a [`Trace`] (samples + metadata) to a self-describing text file.
///
/// # Errors
///
/// Returns [`TraceError::Io`] if the file cannot be written.
pub fn write_trace_text<P: AsRef<Path>>(path: P, trace: &Trace) -> Result<()> {
    let file = std::fs::File::create(path).map_err(io_err)?;
    let mut w = BufWriter::new(file);
    w.write_all(MAGIC).map_err(io_err)?;
    writeln!(w).map_err(io_err)?;
    writeln!(w, "description {}", trace.meta().description.replace('\n', " ")).map_err(io_err)?;
    writeln!(w, "sample_rate_hz {}", trace.meta().sample_rate_hz.unwrap_or(0.0)).map_err(io_err)?;
    writeln!(w, "device_clock_hz {}", trace.meta().device_clock_hz.unwrap_or(0.0))
        .map_err(io_err)?;
    let starts: Vec<String> = trace.meta().co_starts.iter().map(|s| s.to_string()).collect();
    let ends: Vec<String> = trace.meta().co_ends.iter().map(|s| s.to_string()).collect();
    writeln!(w, "co_starts {}", starts.join(",")).map_err(io_err)?;
    writeln!(w, "co_ends {}", ends.join(",")).map_err(io_err)?;
    writeln!(w, "samples {}", trace.len()).map_err(io_err)?;
    for &s in trace.samples() {
        writeln!(w, "{s}").map_err(io_err)?;
    }
    Ok(())
}

/// Parses one `SCATRC01` header line (already stripped of its newline) into
/// `meta`. Returns `Some(declared_sample_count)` for the terminating
/// `samples` field, `None` for every other header field. Kept next to
/// [`write_trace_text`], the header's writer, for the format's reader
/// (`FileTraceSource::open_text`).
pub(crate) fn parse_trace_header_line(line: &str, meta: &mut TraceMeta) -> Result<Option<usize>> {
    let (key, value) = line.split_once(' ').unwrap_or((line, ""));
    match key {
        "description" => meta.description = value.to_string(),
        "sample_rate_hz" => {
            let v: f64 = value.parse().map_err(|_| TraceError::Io("bad sample_rate".into()))?;
            meta.sample_rate_hz = if v > 0.0 { Some(v) } else { None };
        }
        "device_clock_hz" => {
            let v: f64 = value.parse().map_err(|_| TraceError::Io("bad clock".into()))?;
            meta.device_clock_hz = if v > 0.0 { Some(v) } else { None };
        }
        "co_starts" => meta.co_starts = parse_usize_list(value)?,
        "co_ends" => meta.co_ends = parse_usize_list(value)?,
        "samples" => {
            let n = value.parse().map_err(|_| TraceError::Io("bad sample count".into()))?;
            return Ok(Some(n));
        }
        other => return Err(TraceError::Io(format!("unknown header field '{other}'"))),
    }
    Ok(None)
}

pub(crate) fn parse_usize_list(value: &str) -> Result<Vec<usize>> {
    if value.is_empty() {
        return Ok(Vec::new());
    }
    value
        .split(',')
        .map(|s| s.parse::<usize>().map_err(|_| TraceError::Io(format!("bad index '{s}'"))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FileTraceSource;

    #[test]
    fn binary_roundtrip() {
        let samples = vec![0.0f32, -1.5, 3.25, f32::MAX, f32::MIN_POSITIVE];
        let mut buf = Vec::new();
        write_samples_binary(&mut buf, &samples).unwrap();
        let back = read_samples_binary(&buf[..]).unwrap();
        assert_eq!(back, samples);
    }

    #[test]
    fn binary_bad_length() {
        let bytes = [0u8; 7];
        assert!(read_samples_binary(&bytes[..]).is_err());
    }

    #[test]
    fn le_primitives_roundtrip_bit_exactly() {
        let mut buf = Vec::new();
        write_u32_le(&mut buf, 0xDEAD_BEEF).unwrap();
        write_u64_le(&mut buf, u64::MAX - 7).unwrap();
        let values = [0.0f32, -0.0, 1.5, f32::MIN_POSITIVE, f32::NAN, f32::INFINITY];
        write_f32s_le(&mut buf, &values).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_u32_le(&mut r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(read_u64_le(&mut r).unwrap(), u64::MAX - 7);
        let back = read_f32s_le(&mut r, values.len()).unwrap();
        for (a, b) in back.iter().zip(values.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "f32 roundtrip must be bit-exact");
        }
        assert!(r.is_empty());
    }

    #[test]
    fn i8_roundtrip_covers_full_range() {
        let values: Vec<i8> = (-128i16..=127).map(|v| v as i8).collect();
        let mut buf = Vec::new();
        write_i8s(&mut buf, &values).unwrap();
        assert_eq!(buf.len(), values.len());
        let back = read_i8s(&buf[..], values.len()).unwrap();
        assert_eq!(back, values);
        // Truncation surfaces as UnexpectedEof like the other primitives.
        assert_eq!(read_i8s(&buf[..10], 11).unwrap_err().kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn i8_write_handles_chunk_boundaries() {
        // Longer than one internal chunk to exercise the buffered path.
        let values: Vec<i8> = (0..10_000).map(|i| (i % 251) as i8).collect();
        let mut buf = Vec::new();
        write_i8s(&mut buf, &values).unwrap();
        assert_eq!(read_i8s(&buf[..], values.len()).unwrap(), values);
    }

    #[test]
    fn le_reads_report_truncation_as_unexpected_eof() {
        let bytes = [1u8, 2, 3]; // shorter than any primitive
        assert_eq!(read_u32_le(&bytes[..]).unwrap_err().kind(), std::io::ErrorKind::UnexpectedEof);
        assert_eq!(read_u64_le(&bytes[..]).unwrap_err().kind(), std::io::ErrorKind::UnexpectedEof);
        assert_eq!(
            read_f32s_le(&bytes[..], 1).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn lying_length_header_fails_fast_without_huge_allocation() {
        // A header claiming billions of values over a 12-byte payload must
        // surface as truncation after at most one bounded chunk — the old
        // code allocated `count * 4` bytes before reading anything.
        let bytes = [0u8; 12];
        let err = read_f32s_le(&bytes[..], 1 << 40).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        let err = read_i8s(&bytes[..], 1 << 40).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn f32_count_byte_overflow_is_invalid_data() {
        // `count * 4` would wrap on every platform: usize::MAX elements.
        let err = read_f32s_le(&[][..], usize::MAX).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("overflows"), "{err}");
    }

    #[test]
    fn chunked_reads_cross_chunk_boundaries_bit_exactly() {
        // More values than one 64 KiB chunk holds, to exercise the loop.
        let values: Vec<f32> = (0..40_000).map(|i| (i as f32).sin()).collect();
        let mut buf = Vec::new();
        write_f32s_le(&mut buf, &values).unwrap();
        let back = read_f32s_le(&buf[..], values.len()).unwrap();
        assert_eq!(back.len(), values.len());
        for (a, b) in back.iter().zip(values.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn text_reader_caps_preallocation_for_lying_sample_header() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("sca_trace_io_lying_{}.trc", std::process::id()));
        // Header declares an absurd sample count but carries two samples: the
        // reader must fail on the count mismatch, not abort on allocation.
        std::fs::write(&path, "SCATRC01\nsamples 99999999999999\n1.0\n2.0\n").unwrap();
        let err = FileTraceSource::open_text(&path).unwrap_err();
        assert!(matches!(err, TraceError::Io(_)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn text_roundtrip_with_meta() {
        let dir = std::env::temp_dir();
        let path = dir.join("sca_trace_io_test.trc");
        let mut meta = TraceMeta::with_description("unit test trace");
        meta.sample_rate_hz = Some(125e6);
        meta.device_clock_hz = Some(50e6);
        meta.co_starts = vec![10, 200];
        meta.co_ends = vec![100, 320];
        let trace = Trace::with_meta(vec![0.5, -0.25, 1.0, 2.0], meta);
        write_trace_text(&path, &trace).unwrap();
        let back = FileTraceSource::open_text(&path).unwrap().read_all().unwrap();
        assert_eq!(back.samples(), trace.samples());
        assert_eq!(back.meta().co_starts, trace.meta().co_starts);
        assert_eq!(back.meta().co_ends, trace.meta().co_ends);
        assert_eq!(back.meta().description, "unit test trace");
        assert_eq!(back.meta().sample_rate_hz, Some(125e6));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn text_roundtrip_empty_markers() {
        let dir = std::env::temp_dir();
        let path = dir.join("sca_trace_io_test_empty.trc");
        let trace = Trace::from_samples(vec![1.0, 2.0]);
        write_trace_text(&path, &trace).unwrap();
        let back = FileTraceSource::open_text(&path).unwrap().read_all().unwrap();
        assert!(back.meta().co_starts.is_empty());
        assert_eq!(back.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_missing_file_is_error() {
        // The sniffing opener, which picks the text reader by its magic.
        assert!(FileTraceSource::open("/nonexistent/definitely_missing.trc").is_err());
    }
}
