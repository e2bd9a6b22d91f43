//! Versioned binary model persistence for the locator engine.
//!
//! The offline build's serde shims are no-ops, so the format is hand-rolled
//! in the spirit of `sca-trace::io`: a little-endian binary layout built from
//! the shared primitives in [`sca_trace::io`]. Weights are stored as raw
//! bits (IEEE-754 for `f32`, two's complement for `i8`), so a save → load
//! roundtrip reproduces every score **bit-exactly**.
//!
//! ## Layout
//!
//! All versions share one header and configuration block:
//!
//! ```text
//! magic      8 bytes  "SCALOCEN"
//! version    u32      1 (f32 weights) · 2 (quantised i8 weights) ·
//!                     3 (quantised + calibrated activation grids) ·
//!                     4 (checksummed; either weight kind)
//! cnn config            base_filters u64 · kernel_size u64 · seed u64
//! sliding config        window_len u64 · stride u64 · batch_size u64 ·
//!                       standardize u8 · threads u64
//! segmentation config   threshold tag u8 (0 Fixed · 1 MidRange · 2 MeanPlusStd) ·
//!                       threshold value f32 · median_filter_k u64 ·
//!                       min_distance_windows u64
//! ```
//!
//! **Version 4** (checksummed, written by current builds) wraps both weight
//! kinds in per-section CRC32 (IEEE 802.3, the zlib/PNG polynomial)
//! checksums so a corrupt file is rejected with a typed
//! [`PersistError::Corrupt`] instead of being served as garbage weights:
//!
//! ```text
//! magic      8 bytes  "SCALOCEN"
//! version    u32      4
//! kind       u8       0 (f32 payload) · 1 (quantised payload)
//! configs             the shared configuration block above
//! config_crc u32      CRC32 over kind + configs
//! payload             the version 1 payload (kind 0) or the version 3
//!                     payload (kind 1), byte-identical layouts
//! payload_crc u32     CRC32 over payload
//! ```
//!
//! The two checksums split the failure domains: a flipped bit in the
//! configuration block is caught **before** the architecture is
//! instantiated, and a flipped bit in a weight that still parses
//! structurally (most do — weights are raw bits) is caught before the
//! engine is returned. Versions 1–3 predate the checksums; they still load
//! (shape/range validation only), and a save always writes version 4, so a
//! legacy → load → save cycle upgrades canonically.
//!
//! **Version 1** (full precision) continues after the configuration block
//! with:
//!
//! ```text
//! weights    u32 count, then per parameter: ndim u32 · dims u64… · data f32…
//! buffers    u32 count, then per buffer:    len u64 · data f32…
//! ```
//!
//! **Version 2** (quantised) stores every convolution GEMM operand as an
//! `i8` block with per-output-channel `f32` scale vectors and the layer's
//! `f32` bias (batch normalisation is folded into the convolutions at
//! quantise time), followed by the `f32` fully connected head:
//!
//! ```text
//! qblocks    u32 count, then per block: rows u64 · cols u64 ·
//!            scales f32[rows] · bias f32[rows] · data i8[rows·cols]
//! head       u32 count, then per parameter: len u64 · data f32…
//! ```
//!
//! **Version 3** (quantised, written by current builds) is the version 2
//! payload followed by the calibrated activation grid scales of the
//! fixed-point inference chain:
//!
//! ```text
//! act scales u32 count (6) · data f32[6]
//! ```
//!
//! Blocks, parameters and buffers are enumerated in the fixed architecture
//! order of the network's accessors; the loader rebuilds the network from
//! the stored configuration and verifies every shape, so a truncated,
//! corrupted or incompatible file yields a typed [`PersistError`] instead of
//! a panic or a silently wrong model. Version 1 and 3 files written by
//! older builds load unchanged; version 2 files load and recalibrate their
//! activation grids deterministically at the stored window length (the
//! weights fully determine the grids, so the upgrade to the current format
//! is canonical for every legacy version).
//!
//! ## Memory accounting
//!
//! A loaded engine reports its resident size through
//! [`LocatorEngine::memory_footprint`](crate::LocatorEngine::memory_footprint):
//! the exact in-RAM weight bytes (`f32` parameters and buffers for v1;
//! `i8` blocks plus their widened `i16` copies, scale and bias vectors for
//! v2–v4 — typically larger than the file, which stores each operand once)
//! plus a deterministic estimate of one scoring workspace: the staged
//! `[B, 1, N]` batch, the per-window scratch of the chain the model runs
//! and the batch's head tensors. The service registry uses this figure for
//! its eviction budget, so models loaded from the same file always account
//! identically.

use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use sca_trace::io::{
    read_f32s_le, read_i8s, read_u32_le, read_u64_le, write_f32s_le, write_i8s, write_u32_le,
    write_u64_le,
};
use tinynn::Tensor;

use crate::cnn::{CnnConfig, CoLocatorCnn};
use crate::engine::EngineModel;
use crate::qcnn::QuantizedCoLocatorCnn;
use crate::segmentation::{SegmentationConfig, Segmenter, ThresholdStrategy};
use crate::sliding::SlidingWindowClassifier;

/// File magic of the engine model format.
pub const MAGIC: &[u8; 8] = b"SCALOCEN";

/// Format version of full-precision (`f32`) models.
pub const FORMAT_VERSION: u32 = 1;

/// Legacy format version of quantised models without stored activation
/// grids (still loadable; the grids are recalibrated deterministically).
pub const FORMAT_VERSION_QUANTIZED: u32 = 2;

/// Legacy format version of quantised (`i8` weights + per-channel scales +
/// calibrated activation grids) models without checksums (still loadable).
pub const FORMAT_VERSION_QUANTIZED_V3: u32 = 3;

/// Format version of checksummed models (either weight kind, per-section
/// CRC32) — what current builds write.
pub const FORMAT_VERSION_CHECKSUMMED_V4: u32 = 4;

/// v4 kind byte: the payload is the version 1 `f32` layout.
const KIND_F32: u8 = 0;

/// v4 kind byte: the payload is the version 3 quantised layout.
const KIND_QUANTIZED: u8 = 1;

/// Upper bound accepted for any stored dimension — rejects absurd sizes from
/// corrupt headers before they turn into multi-gigabyte allocations.
const MAX_DIM: u64 = 1 << 32;

/// Upper bound on the stored filter count. The paper uses 16; anything past
/// this is a corrupt or hostile header, and the network must not be
/// constructed from it (its weight tensors scale with `base_filters²`).
const MAX_BASE_FILTERS: usize = 1 << 12;

/// Upper bound on the stored kernel size (the paper uses 64).
const MAX_KERNEL_SIZE: usize = 1 << 16;

/// Upper bound on the *estimated* parameter count implied by the stored CNN
/// configuration (~1 GiB of f32 weights). Checked before the architecture is
/// instantiated, so a corrupt header yields [`PersistError::Corrupt`] instead
/// of an allocation abort.
const MAX_PARAM_ESTIMATE: u64 = 1 << 28;

/// Typed errors of the model persistence layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The underlying file could not be read or written.
    Io(String),
    /// The file does not start with the engine magic — not a model file.
    BadMagic,
    /// The file uses a format version this build cannot read.
    UnsupportedVersion(u32),
    /// The file is truncated or internally inconsistent (shape mismatch,
    /// invalid configuration values, trailing data, …).
    Corrupt(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(msg) => write!(f, "model file I/O error: {msg}"),
            PersistError::BadMagic => write!(f, "not a locator engine model file (bad magic)"),
            PersistError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported model format version {v} (this build reads \
                     {FORMAT_VERSION}, {FORMAT_VERSION_QUANTIZED}, \
                     {FORMAT_VERSION_QUANTIZED_V3} and \
                     {FORMAT_VERSION_CHECKSUMMED_V4})"
                )
            }
            PersistError::Corrupt(msg) => write!(f, "corrupt model file: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// Maps an I/O failure onto the persistence error space: truncation while
/// parsing a structured file is corruption, everything else is I/O.
fn io_err(e: std::io::Error) -> PersistError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        PersistError::Corrupt("unexpected end of file".into())
    } else {
        PersistError::Io(e.to_string())
    }
}

/// CRC32 lookup table (IEEE 802.3 reflected polynomial `0xEDB88320` — the
/// zlib/PNG checksum), built at compile time.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// Advances a raw (pre-finalisation) CRC32 state over `bytes`. The state is
/// seeded with `!0` and finalised by complementing.
fn crc32_advance(state: u32, bytes: &[u8]) -> u32 {
    let mut c = state;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// A [`Write`] adaptor accumulating the CRC32 of everything written through
/// it. [`Crc32Writer::emit_sum`] appends the finalised checksum **without**
/// feeding it back into the running state, then re-arms for the next
/// section.
struct Crc32Writer<W: Write> {
    inner: W,
    state: u32,
}

impl<W: Write> Crc32Writer<W> {
    fn new(inner: W) -> Self {
        Self { inner, state: !0 }
    }

    /// Writes the little-endian finalised checksum of the section written so
    /// far directly to the underlying writer and resets for the next
    /// section.
    fn emit_sum(&mut self) -> std::io::Result<()> {
        let sum = !self.state;
        self.inner.write_all(&sum.to_le_bytes())?;
        self.state = !0;
        Ok(())
    }

    fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for Crc32Writer<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.state = crc32_advance(self.state, &buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// The reading mirror of [`Crc32Writer`]: accumulates the CRC32 of
/// everything read through it; [`Crc32Reader::check_sum`] reads the stored
/// checksum from the underlying reader (not through the accumulator),
/// compares, and re-arms for the next section.
struct Crc32Reader<R: Read> {
    inner: R,
    state: u32,
}

impl<R: Read> Crc32Reader<R> {
    fn new(inner: R) -> Self {
        Self { inner, state: !0 }
    }

    /// Reads the stored section checksum and verifies it against the bytes
    /// consumed since the last section boundary.
    fn check_sum(&mut self, section: &str) -> Result<(), PersistError> {
        let computed = !self.state;
        let mut stored = [0u8; 4];
        self.inner.read_exact(&mut stored).map_err(io_err)?;
        let stored = u32::from_le_bytes(stored);
        if stored != computed {
            return Err(PersistError::Corrupt(format!(
                "{section} checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            )));
        }
        self.state = !0;
        Ok(())
    }

    fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: Read> Read for Crc32Reader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.state = crc32_advance(self.state, &buf[..n]);
        Ok(n)
    }
}

/// Writes the shared configuration block (everything between the version —
/// or, in v4, the kind byte — and the weight payload).
fn write_config_block<W: Write>(
    w: &mut W,
    config: &CnnConfig,
    sliding: &SlidingWindowClassifier,
    segmenter: &Segmenter,
) -> Result<(), PersistError> {
    write_u64_le(&mut *w, config.base_filters as u64).map_err(io_err)?;
    write_u64_le(&mut *w, config.kernel_size as u64).map_err(io_err)?;
    write_u64_le(&mut *w, config.seed).map_err(io_err)?;

    write_u64_le(&mut *w, sliding.window_len() as u64).map_err(io_err)?;
    write_u64_le(&mut *w, sliding.stride() as u64).map_err(io_err)?;
    write_u64_le(&mut *w, sliding.batch_size() as u64).map_err(io_err)?;
    w.write_all(&[sliding.standardize() as u8]).map_err(io_err)?;
    write_u64_le(&mut *w, sliding.threads() as u64).map_err(io_err)?;

    let seg = segmenter.config();
    let (tag, value) = match seg.threshold {
        ThresholdStrategy::Fixed(t) => (0u8, t),
        ThresholdStrategy::MidRange => (1u8, 0.0),
        ThresholdStrategy::MeanPlusStd(f) => (2u8, f),
    };
    w.write_all(&[tag]).map_err(io_err)?;
    write_f32s_le(&mut *w, &[value]).map_err(io_err)?;
    write_u64_le(&mut *w, seg.median_filter_k as u64).map_err(io_err)?;
    write_u64_le(&mut *w, seg.min_distance_windows as u64).map_err(io_err)
}

/// Writes the version 1 `f32` weight payload (v4 kind 0 uses the identical
/// layout).
fn write_f32_payload<W: Write>(w: &mut W, cnn: &CoLocatorCnn) -> Result<(), PersistError> {
    let params = cnn.params();
    write_u32_le(&mut *w, params.len() as u32).map_err(io_err)?;
    for p in params {
        let shape = p.value.shape();
        write_u32_le(&mut *w, shape.len() as u32).map_err(io_err)?;
        for &dim in shape {
            write_u64_le(&mut *w, dim as u64).map_err(io_err)?;
        }
        write_f32s_le(&mut *w, p.value.data()).map_err(io_err)?;
    }
    let buffers = cnn.buffers();
    write_u32_le(&mut *w, buffers.len() as u32).map_err(io_err)?;
    for b in buffers {
        write_u64_le(&mut *w, b.len() as u64).map_err(io_err)?;
        write_f32s_le(&mut *w, b).map_err(io_err)?;
    }
    Ok(())
}

/// Writes the version 3 quantised weight payload (v4 kind 1 uses the
/// identical layout).
fn write_quantized_payload<W: Write>(
    w: &mut W,
    qcnn: &QuantizedCoLocatorCnn,
) -> Result<(), PersistError> {
    let gemms = qcnn.qgemms();
    write_u32_le(&mut *w, gemms.len() as u32).map_err(io_err)?;
    for g in gemms {
        write_u64_le(&mut *w, g.rows() as u64).map_err(io_err)?;
        write_u64_le(&mut *w, g.cols() as u64).map_err(io_err)?;
        write_f32s_le(&mut *w, g.scales()).map_err(io_err)?;
        write_f32s_le(&mut *w, g.bias()).map_err(io_err)?;
        write_i8s(&mut *w, g.data()).map_err(io_err)?;
    }
    let head = qcnn.head_params();
    write_u32_le(&mut *w, head.len() as u32).map_err(io_err)?;
    for p in head {
        write_u64_le(&mut *w, p.len() as u64).map_err(io_err)?;
        write_f32s_le(&mut *w, p.value.data()).map_err(io_err)?;
    }
    let scales = qcnn.activation_scales();
    write_u32_le(&mut *w, scales.len() as u32).map_err(io_err)?;
    write_f32s_le(&mut *w, &scales).map_err(io_err)
}

/// Serialises a trained engine (model weights + inference parameters) to
/// `path` in the checksummed v4 format (kind 0 for `f32` models, kind 1
/// for quantised models).
///
/// # Errors
///
/// Returns [`PersistError::Io`] if the file cannot be written.
pub(crate) fn save_engine(
    path: &Path,
    model: &EngineModel,
    sliding: &SlidingWindowClassifier,
    segmenter: &Segmenter,
) -> Result<(), PersistError> {
    let file = File::create(path).map_err(io_err)?;
    let mut w = BufWriter::new(file);
    w.write_all(MAGIC).map_err(io_err)?;
    write_u32_le(&mut w, FORMAT_VERSION_CHECKSUMMED_V4).map_err(io_err)?;
    let mut w = Crc32Writer::new(w);
    match model {
        EngineModel::F32(cnn) => {
            w.write_all(&[KIND_F32]).map_err(io_err)?;
            write_config_block(&mut w, cnn.config(), sliding, segmenter)?;
            w.emit_sum().map_err(io_err)?;
            write_f32_payload(&mut w, cnn)?;
        }
        EngineModel::Quantized(qcnn) => {
            w.write_all(&[KIND_QUANTIZED]).map_err(io_err)?;
            write_config_block(&mut w, qcnn.config(), sliding, segmenter)?;
            w.emit_sum().map_err(io_err)?;
            write_quantized_payload(&mut w, qcnn)?;
        }
    }
    w.emit_sum().map_err(io_err)?;
    w.into_inner().flush().map_err(io_err)
}

/// Reads a `u64` and validates it as a sane `usize` dimension.
fn read_dim<R: Read>(r: R, what: &str) -> Result<usize, PersistError> {
    let v = read_u64_le(r).map_err(io_err)?;
    if v > MAX_DIM {
        return Err(PersistError::Corrupt(format!("{what} {v} exceeds the sanity bound")));
    }
    Ok(v as usize)
}

/// Reads the v1 weight payload into a freshly constructed architecture.
fn load_f32_payload<R: Read>(r: &mut R, config: CnnConfig) -> Result<CoLocatorCnn, PersistError> {
    let mut cnn = CoLocatorCnn::new(config);
    let expected_shapes: Vec<Vec<usize>> =
        cnn.params().iter().map(|p| p.value.shape().to_vec()).collect();
    let n_params = read_u32_le(&mut *r).map_err(io_err)? as usize;
    if n_params != expected_shapes.len() {
        return Err(PersistError::Corrupt(format!(
            "parameter count {n_params} does not match the architecture ({})",
            expected_shapes.len()
        )));
    }
    let mut values = Vec::with_capacity(n_params);
    for expected in &expected_shapes {
        let ndim = read_u32_le(&mut *r).map_err(io_err)? as usize;
        if ndim != expected.len() {
            return Err(PersistError::Corrupt(format!(
                "parameter rank {ndim} does not match expected {:?}",
                expected
            )));
        }
        let mut shape = Vec::with_capacity(ndim);
        for _ in 0..ndim {
            shape.push(read_dim(&mut *r, "parameter dimension")?);
        }
        if &shape != expected {
            return Err(PersistError::Corrupt(format!(
                "parameter shape {shape:?} does not match expected {expected:?}"
            )));
        }
        let len: usize = shape.iter().product();
        let data = read_f32s_le(&mut *r, len).map_err(io_err)?;
        values.push(Tensor::from_vec(data, &shape));
    }
    for (param, value) in cnn.params_mut().into_iter().zip(values) {
        param.value = value;
    }
    let expected_buffers: Vec<usize> = cnn.buffers().iter().map(|b| b.len()).collect();
    let buffer_values = load_buffers(r, &expected_buffers)?;
    for (buffer, value) in cnn.buffers_mut().into_iter().zip(buffer_values) {
        *buffer = value;
    }
    Ok(cnn)
}

/// Reads the v2/v3 quantised payload into a freshly constructed
/// architecture. A v3 file carries its calibrated activation grids, which
/// are validated and installed; a v2 file predates stored grids, so they
/// are recalibrated on the deterministic built-in probe set at the stored
/// window length — the weights fully determine the result, making the
/// upgrade canonical.
fn load_quantized_payload<R: Read>(
    r: &mut R,
    config: CnnConfig,
    version: u32,
    window_len: usize,
) -> Result<QuantizedCoLocatorCnn, PersistError> {
    // Build the architecture skeleton (the random init values are discarded;
    // only the tensor geometry matters) and overwrite every payload. The
    // skeleton is not calibrated: the grids are installed or calibrated
    // once, below, from the loaded payload.
    let mut qcnn = QuantizedCoLocatorCnn::uncalibrated(&CoLocatorCnn::new(config));

    let expected_geoms: Vec<(usize, usize)> =
        qcnn.qgemms().iter().map(|g| (g.rows(), g.cols())).collect();
    let n_blocks = read_u32_le(&mut *r).map_err(io_err)? as usize;
    if n_blocks != expected_geoms.len() {
        return Err(PersistError::Corrupt(format!(
            "quantised block count {n_blocks} does not match the architecture ({})",
            expected_geoms.len()
        )));
    }
    let mut payloads = Vec::with_capacity(n_blocks);
    for &(rows, cols) in &expected_geoms {
        let file_rows = read_dim(&mut *r, "quantised block rows")?;
        let file_cols = read_dim(&mut *r, "quantised block cols")?;
        if (file_rows, file_cols) != (rows, cols) {
            return Err(PersistError::Corrupt(format!(
                "quantised block geometry {file_rows}x{file_cols} does not match \
                 expected {rows}x{cols}"
            )));
        }
        let scales = read_f32s_le(&mut *r, rows).map_err(io_err)?;
        let bias = read_f32s_le(&mut *r, rows).map_err(io_err)?;
        let data = read_i8s(&mut *r, rows * cols).map_err(io_err)?;
        payloads.push((data, scales, bias));
    }
    for (gemm, (data, scales, bias)) in qcnn.qgemms_mut().into_iter().zip(payloads) {
        gemm.set_payload(data, scales, bias).map_err(PersistError::Corrupt)?;
    }

    let expected_head: Vec<Vec<usize>> =
        qcnn.head_params().iter().map(|p| p.value.shape().to_vec()).collect();
    let n_head = read_u32_le(&mut *r).map_err(io_err)? as usize;
    if n_head != expected_head.len() {
        return Err(PersistError::Corrupt(format!(
            "head parameter count {n_head} does not match the architecture ({})",
            expected_head.len()
        )));
    }
    let mut head_values = Vec::with_capacity(n_head);
    for shape in &expected_head {
        let expected_len: usize = shape.iter().product();
        let len = read_dim(&mut *r, "head parameter length")?;
        if len != expected_len {
            return Err(PersistError::Corrupt(format!(
                "head parameter length {len} does not match expected {expected_len}"
            )));
        }
        head_values.push(Tensor::from_vec(read_f32s_le(&mut *r, len).map_err(io_err)?, shape));
    }
    for (param, value) in qcnn.head_params_mut().into_iter().zip(head_values) {
        param.value = value;
    }

    // Installing or calibrating the activation grids builds the fixed-point
    // plans from the loaded payload.
    if version == FORMAT_VERSION_QUANTIZED_V3 {
        let n_scales = read_u32_le(&mut *r).map_err(io_err)? as usize;
        if n_scales != crate::qcnn::ACTIVATION_SCALE_COUNT {
            return Err(PersistError::Corrupt(format!(
                "activation scale count {n_scales} does not match the architecture ({})",
                crate::qcnn::ACTIVATION_SCALE_COUNT
            )));
        }
        let stored = read_f32s_le(&mut *r, n_scales).map_err(io_err)?;
        let mut scales = [0.0f32; crate::qcnn::ACTIVATION_SCALE_COUNT];
        scales.copy_from_slice(&stored);
        qcnn.set_activation_scales(scales).map_err(PersistError::Corrupt)?;
    } else {
        qcnn.calibrate(&QuantizedCoLocatorCnn::synthetic_calibration_windows(window_len));
    }
    Ok(qcnn)
}

/// Reads a length-checked list of `f32` buffers (shared by both versions).
fn load_buffers<R: Read>(
    r: &mut R,
    expected_lens: &[usize],
) -> Result<Vec<Vec<f32>>, PersistError> {
    let n_buffers = read_u32_le(&mut *r).map_err(io_err)? as usize;
    if n_buffers != expected_lens.len() {
        return Err(PersistError::Corrupt(format!(
            "buffer count {n_buffers} does not match the architecture ({})",
            expected_lens.len()
        )));
    }
    let mut values = Vec::with_capacity(n_buffers);
    for &expected_len in expected_lens {
        let len = read_dim(&mut *r, "buffer length")?;
        if len != expected_len {
            return Err(PersistError::Corrupt(format!(
                "buffer length {len} does not match expected {expected_len}"
            )));
        }
        values.push(read_f32s_le(&mut *r, len).map_err(io_err)?);
    }
    Ok(values)
}

/// The decoded shared configuration block (everything between the version —
/// or, in v4, the kind byte — and the weight payload).
struct ParsedConfig {
    config: CnnConfig,
    window_len: usize,
    stride: usize,
    batch_size: usize,
    standardize: bool,
    threads: usize,
    threshold: ThresholdStrategy,
    median_filter_k: usize,
    min_distance_windows: usize,
}

impl ParsedConfig {
    /// Builds the inference parts the configuration describes (the weight
    /// payload is loaded separately).
    fn into_parts(self) -> Result<(SlidingWindowClassifier, Segmenter), PersistError> {
        let sliding = SlidingWindowClassifier::new(self.window_len, self.stride)
            .with_batch_size(self.batch_size)
            .with_standardize(self.standardize)
            .with_threads(self.threads);
        // `median_filter_k` was range-checked during parsing, but route
        // through the fallible constructor anyway so a corrupt file can
        // never panic here.
        let segmenter = Segmenter::try_new(SegmentationConfig {
            threshold: self.threshold,
            median_filter_k: self.median_filter_k,
            min_distance_windows: self.min_distance_windows,
        })
        .map_err(|e| PersistError::Corrupt(e.to_string()))?;
        Ok((sliding, segmenter))
    }
}

/// Reads and range-validates the shared configuration block.
fn read_config_block<R: Read>(mut r: &mut R) -> Result<ParsedConfig, PersistError> {
    let base_filters = read_dim(&mut r, "base_filters")?;
    let kernel_size = read_dim(&mut r, "kernel_size")?;
    let seed = read_u64_le(&mut r).map_err(io_err)?;
    if base_filters == 0 || kernel_size == 0 {
        return Err(PersistError::Corrupt("CNN configuration dimensions must be non-zero".into()));
    }
    if base_filters > MAX_BASE_FILTERS || kernel_size > MAX_KERNEL_SIZE {
        return Err(PersistError::Corrupt(format!(
            "CNN configuration ({base_filters} filters, kernel {kernel_size}) exceeds the \
             sanity bounds ({MAX_BASE_FILTERS}, {MAX_KERNEL_SIZE})"
        )));
    }
    // The largest tensors are the residual-block convolutions:
    // ~(2·base_filters)² · kernel_size weights. Reject configurations whose
    // implied parameter count is absurd *before* instantiating the network.
    let param_estimate = 8 * (base_filters as u64).pow(2) * kernel_size as u64;
    if param_estimate > MAX_PARAM_ESTIMATE {
        return Err(PersistError::Corrupt(format!(
            "CNN configuration implies ~{param_estimate} parameters \
             (bound {MAX_PARAM_ESTIMATE})"
        )));
    }

    let window_len = read_dim(&mut r, "window_len")?;
    let stride = read_dim(&mut r, "stride")?;
    let batch_size = read_dim(&mut r, "batch_size")?;
    let mut flag = [0u8; 1];
    r.read_exact(&mut flag).map_err(io_err)?;
    let standardize = match flag[0] {
        0 => false,
        1 => true,
        other => {
            return Err(PersistError::Corrupt(format!("invalid standardize flag {other}")));
        }
    };
    let threads = read_dim(&mut r, "threads")?;
    if window_len == 0 || stride == 0 || batch_size == 0 {
        return Err(PersistError::Corrupt("sliding-window parameters must be non-zero".into()));
    }

    let mut tag = [0u8; 1];
    r.read_exact(&mut tag).map_err(io_err)?;
    let value = read_f32s_le(&mut r, 1).map_err(io_err)?[0];
    let threshold = match tag[0] {
        0 => ThresholdStrategy::Fixed(value),
        1 => ThresholdStrategy::MidRange,
        2 => ThresholdStrategy::MeanPlusStd(value),
        other => {
            return Err(PersistError::Corrupt(format!("invalid threshold strategy tag {other}")));
        }
    };
    let median_filter_k = read_dim(&mut r, "median_filter_k")?;
    let min_distance_windows = read_dim(&mut r, "min_distance_windows")?;
    if median_filter_k == 0 || median_filter_k % 2 == 0 {
        return Err(PersistError::Corrupt(format!(
            "median filter size {median_filter_k} must be odd and non-zero"
        )));
    }

    Ok(ParsedConfig {
        config: CnnConfig { base_filters, kernel_size, seed },
        window_len,
        stride,
        batch_size,
        standardize,
        threads,
        threshold,
        median_filter_k,
        min_distance_windows,
    })
}

/// Rejects any unread byte left in `r` — anything after the model is not
/// ours, so a concatenated or doctored file fails typed rather than being
/// silently ignored.
fn reject_trailing<R: Read>(r: &mut R) -> Result<(), PersistError> {
    let mut trailing = [0u8; 1];
    match r.read(&mut trailing).map_err(io_err)? {
        0 => Ok(()),
        _ => Err(PersistError::Corrupt("trailing data after model".into())),
    }
}

/// Loads a legacy (v1–v3, pre-checksum) body: shared configuration block
/// followed directly by the version-implied payload.
fn load_legacy_body<R: Read>(
    r: &mut R,
    version: u32,
) -> Result<(EngineModel, SlidingWindowClassifier, Segmenter), PersistError> {
    let parsed = read_config_block(r)?;
    let model = if version == FORMAT_VERSION {
        EngineModel::F32(load_f32_payload(r, parsed.config)?)
    } else {
        EngineModel::Quantized(load_quantized_payload(
            r,
            parsed.config,
            version,
            parsed.window_len,
        )?)
    };
    reject_trailing(r)?;
    let (sliding, segmenter) = parsed.into_parts()?;
    Ok((model, sliding, segmenter))
}

/// Loads a v4 body: kind byte + configuration block under `config_crc`,
/// then the kind-implied payload under `payload_crc`. The configuration
/// checksum is verified **before** the architecture is instantiated, the
/// payload checksum before the model is returned.
fn load_v4_body<R: Read>(
    r: R,
) -> Result<(EngineModel, SlidingWindowClassifier, Segmenter), PersistError> {
    let mut r = Crc32Reader::new(r);
    let mut kind = [0u8; 1];
    r.read_exact(&mut kind).map_err(io_err)?;
    let parsed = read_config_block(&mut r)?;
    r.check_sum("configuration")?;
    let model = match kind[0] {
        KIND_F32 => EngineModel::F32(load_f32_payload(&mut r, parsed.config)?),
        KIND_QUANTIZED => EngineModel::Quantized(load_quantized_payload(
            &mut r,
            parsed.config,
            FORMAT_VERSION_QUANTIZED_V3,
            parsed.window_len,
        )?),
        other => return Err(PersistError::Corrupt(format!("invalid model kind byte {other}"))),
    };
    r.check_sum("payload")?;
    let mut r = r.into_inner();
    reject_trailing(&mut r)?;
    let (sliding, segmenter) = parsed.into_parts()?;
    Ok((model, sliding, segmenter))
}

/// Deserialises an engine model from any [`Read`] source — any format
/// version [`save_engine`] (current or legacy builds) ever wrote.
///
/// # Errors
///
/// * [`PersistError::BadMagic`] — not an engine model file;
/// * [`PersistError::UnsupportedVersion`] — written by an incompatible build;
/// * [`PersistError::Corrupt`] — truncated file, shape mismatch, checksum
///   mismatch, invalid configuration values or trailing bytes;
/// * [`PersistError::Io`] — underlying read failure.
pub(crate) fn load_engine_from<R: Read>(
    mut r: R,
) -> Result<(EngineModel, SlidingWindowClassifier, Segmenter), PersistError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic).map_err(io_err)?;
    if &magic != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = read_u32_le(&mut r).map_err(io_err)?;
    match version {
        FORMAT_VERSION | FORMAT_VERSION_QUANTIZED | FORMAT_VERSION_QUANTIZED_V3 => {
            load_legacy_body(&mut r, version)
        }
        FORMAT_VERSION_CHECKSUMMED_V4 => load_v4_body(r),
        other => Err(PersistError::UnsupportedVersion(other)),
    }
}

/// Deserialises an engine model file written by [`save_engine`] — any
/// format version (see [`load_engine_from`] for the error contract).
pub(crate) fn load_engine(
    path: &Path,
) -> Result<(EngineModel, SlidingWindowClassifier, Segmenter), PersistError> {
    let file = File::open(path).map_err(io_err)?;
    load_engine_from(BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_parts() -> (EngineModel, SlidingWindowClassifier, Segmenter) {
        let cnn = CoLocatorCnn::new(CnnConfig { base_filters: 2, kernel_size: 3, seed: 9 });
        let sliding = SlidingWindowClassifier::new(16, 4).with_batch_size(8);
        let segmenter = Segmenter::new(SegmentationConfig {
            threshold: ThresholdStrategy::MeanPlusStd(1.5),
            median_filter_k: 3,
            min_distance_windows: 2,
        });
        (EngineModel::F32(cnn), sliding, segmenter)
    }

    fn tiny_quantized_parts() -> (EngineModel, SlidingWindowClassifier, Segmenter) {
        let (model, sliding, segmenter) = tiny_parts();
        let qcnn = match &model {
            EngineModel::F32(cnn) => QuantizedCoLocatorCnn::from_cnn(cnn),
            EngineModel::Quantized(_) => unreachable!(),
        };
        (EngineModel::Quantized(qcnn), sliding, segmenter)
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sca_locator_persist_{name}_{}", std::process::id()))
    }

    #[test]
    fn roundtrip_preserves_weights_and_config_bit_exactly() {
        let (model, sliding, segmenter) = tiny_parts();
        let path = temp_path("roundtrip");
        save_engine(&path, &model, &sliding, &segmenter).unwrap();
        let (model2, sliding2, segmenter2) = load_engine(&path).unwrap();
        let cnn = match &model {
            EngineModel::F32(cnn) => cnn,
            EngineModel::Quantized(_) => unreachable!(),
        };
        let cnn2 = match &model2 {
            EngineModel::F32(cnn) => cnn,
            other => panic!("expected an f32 model, got {other:?}"),
        };
        assert_eq!(cnn2.config(), cnn.config());
        assert_eq!(sliding2, sliding);
        assert_eq!(segmenter2.config(), segmenter.config());
        for (a, b) in cnn.params().iter().zip(cnn2.params().iter()) {
            assert_eq!(a.value.shape(), b.value.shape());
            for (x, y) in a.value.data().iter().zip(b.value.data().iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "weights must roundtrip bit-exactly");
            }
        }
        for (a, b) in cnn.buffers().iter().zip(cnn2.buffers().iter()) {
            assert_eq!(a, b);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn quantized_roundtrip_is_bit_exact() {
        let (model, sliding, segmenter) = tiny_quantized_parts();
        let path = temp_path("qroundtrip");
        save_engine(&path, &model, &sliding, &segmenter).unwrap();
        let first = std::fs::read(&path).unwrap();
        let (model2, sliding2, _seg2) = load_engine(&path).unwrap();
        assert_eq!(sliding2, sliding);
        let (qcnn, qcnn2) = match (&model, &model2) {
            (EngineModel::Quantized(a), EngineModel::Quantized(b)) => (a, b),
            other => panic!("expected quantised models, got {other:?}"),
        };
        for (a, b) in qcnn.qgemms().iter().zip(qcnn2.qgemms().iter()) {
            assert_eq!(a, b, "quantised blocks must roundtrip bit-exactly");
        }
        // Save → load → save must be byte-identical.
        let path2 = temp_path("qroundtrip2");
        save_engine(&path2, &model2, &sliding2, &_seg2).unwrap();
        assert_eq!(std::fs::read(&path2).unwrap(), first);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&path2).ok();
    }

    #[test]
    fn truncated_file_is_corrupt_not_panic() {
        for (what, (model, sliding, segmenter)) in
            [("f32", tiny_parts()), ("quantized", tiny_quantized_parts())]
        {
            let path = temp_path(&format!("truncated_{what}"));
            save_engine(&path, &model, &sliding, &segmenter).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            // Cut the file at several depths: inside the header, inside the
            // config block and inside the weight payload.
            for cut in [4usize, 11, 40, bytes.len() / 2, bytes.len() - 1] {
                std::fs::write(&path, &bytes[..cut]).unwrap();
                match load_engine(&path) {
                    Err(PersistError::Corrupt(_)) => {}
                    other => panic!("{what} cut at {cut}: expected Corrupt, got {other:?}"),
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn bad_magic_is_typed() {
        let (model, sliding, segmenter) = tiny_parts();
        let path = temp_path("magic");
        save_engine(&path, &model, &sliding, &segmenter).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(load_engine(&path).unwrap_err(), PersistError::BadMagic);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_version_is_typed() {
        let (model, sliding, segmenter) = tiny_parts();
        let path = temp_path("version");
        save_engine(&path, &model, &sliding, &segmenter).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(load_engine(&path).unwrap_err(), PersistError::UnsupportedVersion(99));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_payload_mismatch_is_corrupt() {
        // Flip a v2 file's version field to 1: the payload no longer parses
        // as f32 tensors and must surface as Corrupt, not a wrong model.
        let (model, sliding, segmenter) = tiny_quantized_parts();
        let path = temp_path("vmix");
        save_engine(&path, &model, &sliding, &segmenter).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match load_engine(&path) {
            Err(PersistError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trailing_garbage_is_corrupt() {
        for (what, (model, sliding, segmenter)) in
            [("f32", tiny_parts()), ("quantized", tiny_quantized_parts())]
        {
            let path = temp_path(&format!("trailing_{what}"));
            save_engine(&path, &model, &sliding, &segmenter).unwrap();
            let mut bytes = std::fs::read(&path).unwrap();
            bytes.push(0x42);
            std::fs::write(&path, &bytes).unwrap();
            match load_engine(&path) {
                Err(PersistError::Corrupt(msg)) => assert!(msg.contains("trailing")),
                other => panic!("{what}: expected Corrupt, got {other:?}"),
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn absurd_config_is_rejected_before_network_construction() {
        let (model, sliding, segmenter) = tiny_parts();
        let path = temp_path("absurd");
        save_engine(&path, &model, &sliding, &segmenter).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // base_filters lives right after magic (8) + version (4).
        bytes[12..20].copy_from_slice(&4_000_000_000u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match load_engine(&path) {
            Err(PersistError::Corrupt(msg)) => {
                assert!(msg.contains("bound"), "unexpected message: {msg}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // A value inside MAX_DIM but implying a gigantic network must also be
        // rejected (the parameter-count estimate, not just the field bound).
        bytes[12..20].copy_from_slice(&4096u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match load_engine(&path) {
            Err(PersistError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_writes_the_checksummed_v4_header() {
        for (what, (model, sliding, segmenter), kind) in
            [("f32", tiny_parts(), KIND_F32), ("quantized", tiny_quantized_parts(), KIND_QUANTIZED)]
        {
            let path = temp_path(&format!("v4header_{what}"));
            save_engine(&path, &model, &sliding, &segmenter).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!(&bytes[..8], MAGIC);
            assert_eq!(
                u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
                FORMAT_VERSION_CHECKSUMMED_V4
            );
            assert_eq!(bytes[12], kind, "{what} kind byte");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn v4_flipped_weight_byte_fails_the_payload_checksum() {
        // A flipped bit in raw weight data parses structurally (weights are
        // raw bits) — only the payload CRC can catch it. Flip a byte just
        // before the trailing payload_crc: for both kinds that lands in raw
        // `f32` data (buffers / activation scales).
        for (what, (model, sliding, segmenter)) in
            [("f32", tiny_parts()), ("quantized", tiny_quantized_parts())]
        {
            let path = temp_path(&format!("v4weightflip_{what}"));
            save_engine(&path, &model, &sliding, &segmenter).unwrap();
            let mut bytes = std::fs::read(&path).unwrap();
            let idx = bytes.len() - 6;
            bytes[idx] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
            match load_engine(&path) {
                Err(PersistError::Corrupt(msg)) => {
                    assert!(msg.contains("payload checksum"), "{what}: {msg}")
                }
                other => panic!("{what}: expected Corrupt, got {other:?}"),
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn v4_flipped_config_byte_fails_the_configuration_checksum() {
        let (model, sliding, segmenter) = tiny_parts();
        let path = temp_path("v4configflip");
        save_engine(&path, &model, &sliding, &segmenter).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // The stored init seed (magic 8 + version 4 + kind 1 + base_filters 8
        // + kernel_size 8 = offset 29) passes every range check with any
        // value — only the configuration CRC can reject the flip, and it
        // must do so before the architecture is instantiated.
        bytes[30] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        match load_engine(&path) {
            Err(PersistError::Corrupt(msg)) => {
                assert!(msg.contains("configuration checksum"), "{msg}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v4_invalid_kind_byte_is_corrupt() {
        // The kind byte is covered by the configuration checksum, so a
        // doctored kind fails that check (it cannot silently re-route the
        // payload parser).
        let (model, sliding, segmenter) = tiny_parts();
        let path = temp_path("v4kind");
        save_engine(&path, &model, &sliding, &segmenter).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[12] = 7;
        std::fs::write(&path, &bytes).unwrap();
        match load_engine(&path) {
            Err(PersistError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_from_reads_in_memory_bytes() {
        let (model, sliding, segmenter) = tiny_parts();
        let path = temp_path("loadfrom");
        save_engine(&path, &model, &sliding, &segmenter).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let (model2, sliding2, _) = load_engine_from(&bytes[..]).unwrap();
        assert_eq!(sliding2, sliding);
        assert!(matches!(model2, EngineModel::F32(_)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io() {
        match load_engine(Path::new("/nonexistent/definitely_missing.engine")) {
            Err(PersistError::Io(_)) => {}
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = PersistError::UnsupportedVersion(7);
        assert!(e.to_string().contains('7'));
        assert!(PersistError::BadMagic.to_string().contains("magic"));
    }
}
