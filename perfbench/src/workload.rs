//! Seeded workload inputs. The SoC simulator and the ciphers generate every
//! trace; the workload seed alone decides them, so the same seed always
//! yields the same inputs (checked through [`Digest`]).

use std::time::Duration;

use sca_ciphers::{cipher_by_id, CipherId};
use sca_trace::Trace;
use soc_sim::{Scenario, SocSimulator, SocSimulatorConfig, Trng};

/// Random-delay setting of every workload: RD-4, the paper's harder case.
pub const RD_MAX: usize = 4;

/// Samples per `scan` file: a fixed-length record of about 32 AES COs.
pub const SCAN_LEN: usize = 1_200_000;

/// Samples per `stream` frame and per large `serve` request: a fixed-length
/// record of about 4 COs on average (1 to 8, as the noise gaps fall).
pub const FRAME_LEN: usize = 160_000;

/// The ciphers `serve` holds one model for, in model-index order.
pub const SERVE_CIPHERS: [CipherId; 5] = CipherId::ALL;

/// Derives an independent 64-bit seed for one input (splitmix64 finaliser
/// over the workload seed, an input stream and an index).
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A simulated acquisition with its ground truth.
#[derive(Debug, Clone)]
pub struct Capture {
    pub cipher: CipherId,
    pub trace: Trace,
    /// Ground-truth CO start samples inside the scored region.
    pub truth: Vec<usize>,
    /// Hit tolerance: half the mean CO length, the paper's notion of a hit.
    pub tolerance: usize,
    /// Located starts and COs from this sample on are not scored: a CO cut
    /// by the end of a fixed-length record may or may not be located.
    pub scored_len: usize,
}

/// A fixed-length record of `cipher` COs interleaved with noise
/// applications (the paper's hardest scenario), under RD-4: the first
/// `len` samples of a long enough scenario, as an oscilloscope records a
/// fixed number of samples per acquisition. Ground truth covers the COs
/// that start at least a hit tolerance before the end of the record.
pub fn interleaved_capture(seed: u64, cipher: CipherId, len: usize) -> Capture {
    // About 36k samples per AES CO and its noise gap; grow if short.
    let mut cos = len / 36_000 + 2;
    let result = loop {
        let mut sim = SocSimulator::new(SocSimulatorConfig::rd(RD_MAX), seed);
        let result = sim.run_scenario(&Scenario::interleaved(cipher, cos));
        if result.trace.len() >= len {
            break result;
        }
        cos = cos * 3 / 2 + 1;
    };
    let tolerance = (result.mean_co_len() / 2.0).max(1.0) as usize;
    let scored_len = len - tolerance;
    let truth = result.co_starts().into_iter().filter(|&s| s < scored_len).collect();
    let mut samples = result.trace.into_samples();
    samples.truncate(len);
    samples.shrink_to_fit();
    Capture { cipher, trace: Trace::from_samples(samples), truth, tolerance, scored_len }
}

/// One triggered single-CO acquisition (NOP preamble, then the CO), the
/// capture an analyst's trigger produces.
pub fn triggered_capture(seed: u64, cipher: CipherId) -> Capture {
    let mut sim = SocSimulator::new(SocSimulatorConfig::rd(RD_MAX), seed);
    let plaintext = sim.trng_mut().next_block();
    let implementation = cipher_by_id(cipher);
    let (trace, _) =
        sim.capture_cipher_trace(implementation.as_ref(), &Scenario::DEFAULT_KEY, &plaintext);
    let meta = trace.meta();
    let co_len = meta.co_ends[0] - meta.co_starts[0];
    let truth = meta.co_starts.clone();
    Capture { cipher, truth, tolerance: (co_len / 2).max(1), scored_len: trace.len(), trace }
}

/// The `scan` files: AES-128 RD-4 noise-interleaved records.
pub fn scan_inputs(seed: u64, files: usize) -> Vec<Capture> {
    (0..files as u64)
        .map(|i| interleaved_capture(mix(seed, 1, i), CipherId::Aes128, SCAN_LEN))
        .collect()
}

/// The `stream` frames: AES-128 RD-4 noise-interleaved records of about
/// 4 COs.
pub fn stream_inputs(seed: u64, frames: usize) -> Vec<Capture> {
    (0..frames as u64)
        .map(|i| interleaved_capture(mix(seed, 2, i), CipherId::Aes128, FRAME_LEN))
        .collect()
}

/// One `serve` request: when it is due, which model it targets, its
/// acquisition.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Due time from the start of its phase.
    pub due: Duration,
    /// Index into [`SERVE_CIPHERS`].
    pub model: usize,
    /// An interleaved record of about 4 COs (`true`) or a triggered
    /// single-CO capture.
    pub multi: bool,
    pub capture: Capture,
}

/// A Poisson arrival schedule of exactly `count` requests over `span`
/// (arrival times of a Poisson process conditioned on its count are sorted
/// uniform draws), with exactly one multi-CO request in every ten. Requests
/// spread evenly over the models: each class (single- and multi-CO) deals
/// its models from shuffled blocks holding every model once, so the few
/// large requests of a run cover the models as evenly as the many small
/// ones.
pub fn serve_schedule(seed: u64, phase: u64, count: usize, span: Duration) -> Vec<ServeRequest> {
    let mut rng = Trng::new(mix(seed, 3, phase));
    let mut dues: Vec<Duration> = (0..count).map(|_| span.mul_f64(rng.next_f64())).collect();
    dues.sort();
    let mut multi = vec![false; count];
    for block in (0..count).step_by(10) {
        let width = (count - block).min(10);
        multi[block + rng.next_below(width as u64) as usize] = true;
    }
    let mut decks: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    let models: Vec<usize> = multi
        .iter()
        .map(|&m| {
            let deck = &mut decks[usize::from(m)];
            if deck.is_empty() {
                deck.extend(0..SERVE_CIPHERS.len());
                for i in (1..deck.len()).rev() {
                    deck.swap(i, rng.next_below(i as u64 + 1) as usize);
                }
            }
            deck.pop().expect("a freshly dealt deck holds every model")
        })
        .collect();
    dues.into_iter()
        .enumerate()
        .map(|(i, due)| {
            let cipher = SERVE_CIPHERS[models[i]];
            let input_seed = mix(seed, 4 + phase, i as u64);
            let capture = if multi[i] {
                interleaved_capture(input_seed, cipher, FRAME_LEN)
            } else {
                triggered_capture(input_seed, cipher)
            };
            ServeRequest { due, model: models[i], multi: multi[i], capture }
        })
        .collect()
}

/// FNV-1a over everything that defines a workload's inputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    pub fn capture(&mut self, c: &Capture) {
        self.bytes(c.cipher.label().as_bytes());
        self.u64(c.trace.len() as u64);
        for s in c.trace.samples() {
            self.bytes(&s.to_bits().to_le_bytes());
        }
        for &t in &c.truth {
            self.u64(t as u64);
        }
        self.u64(c.tolerance as u64);
        self.u64(c.scored_len as u64);
    }

    pub fn request(&mut self, r: &ServeRequest) {
        self.u64(r.due.as_nanos() as u64);
        self.u64(r.model as u64);
        self.u64(u64::from(r.multi));
        self.capture(&r.capture);
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule_digest(seed: u64) -> u64 {
        let mut d = Digest::default();
        for r in serve_schedule(seed, 0, 12, Duration::from_secs(1)) {
            d.request(&r);
        }
        for c in stream_inputs(seed, 1) {
            d.capture(&c);
        }
        d.value()
    }

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        assert_eq!(schedule_digest(7), schedule_digest(7));
        assert_ne!(schedule_digest(7), schedule_digest(8));
        let scan = |seed| {
            let mut d = Digest::default();
            d.capture(&interleaved_capture(mix(seed, 1, 0), CipherId::Aes128, 20_000));
            d.value()
        };
        assert_eq!(scan(3), scan(3));
        assert_ne!(scan(3), scan(4));
    }

    #[test]
    fn schedule_mix_is_exact() {
        let requests = serve_schedule(11, 0, 50, Duration::from_secs(2));
        assert_eq!(requests.len(), 50);
        assert!(requests.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(requests.iter().all(|r| r.due < Duration::from_secs(2)));
        for block in requests.chunks(10) {
            assert_eq!(block.iter().filter(|r| r.multi).count(), 1);
        }
        for class in [false, true] {
            let dealt: Vec<usize> =
                requests.iter().filter(|r| r.multi == class).map(|r| r.model).collect();
            for block in dealt.chunks_exact(SERVE_CIPHERS.len()) {
                let mut models = block.to_vec();
                models.sort_unstable();
                assert_eq!(models, [0, 1, 2, 3, 4], "multi-CO class: {class}");
            }
        }
        for r in &requests {
            if r.multi {
                assert_eq!(r.capture.trace.len(), FRAME_LEN);
                assert!(!r.capture.truth.is_empty());
            } else {
                assert_eq!(r.capture.truth.len(), 1);
            }
            assert_eq!(r.capture.cipher, SERVE_CIPHERS[r.model]);
        }
    }

    #[test]
    fn records_have_fixed_length_and_truth_inside_the_scored_region() {
        let c = interleaved_capture(5, CipherId::Aes128, 100_000);
        assert_eq!(c.trace.len(), 100_000);
        assert_eq!(c.scored_len, 100_000 - c.tolerance);
        assert!(!c.truth.is_empty());
        assert!(c.truth.iter().all(|&s| s < c.scored_len));
    }

    #[test]
    fn mix_separates_streams_and_indices() {
        assert_ne!(mix(1, 1, 0), mix(1, 2, 0));
        assert_ne!(mix(1, 1, 0), mix(1, 1, 1));
        assert_ne!(mix(1, 1, 0), mix(2, 1, 0));
    }
}
