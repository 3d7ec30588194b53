//! Checkpoint (TPCK) robustness fuzz: a corrupted byte stream must
//! produce a *named error* — never a panic, and never a silent misload
//! (an `Ok` decode whose contents differ from what was captured). The
//! trailing FNV-1a checksum makes this categorical: every truncation, bit
//! flip, and appended byte fails closed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tp_ckpt::{Checkpoint, FastForward};
use tp_core::{CiModel, TraceProcessorConfig};
use tp_workloads::{by_name, Size};

/// A real checkpoint with warm predictor images (the richest stream the
/// format produces).
fn sample_bytes() -> (Checkpoint, Vec<u8>) {
    let w = by_name("compress", Size::Tiny).unwrap().program;
    let cfg = TraceProcessorConfig::paper(CiModel::MlbRet);
    let mut ff = FastForward::new(&w, &cfg);
    ff.skip(600).unwrap();
    let ckpt = ff.checkpoint();
    assert!(ckpt.warm.is_some(), "sample should include warm images");
    let bytes = ckpt.encode();
    assert_eq!(Checkpoint::decode(&bytes).unwrap(), ckpt);
    (ckpt, bytes)
}

/// A checksum-valid stream whose predictor entry holds a confidence no
/// training builds (the predictor's packed slots keep two bits of it) is
/// rejected by name, not handed to the predictor to panic on.
#[test]
fn out_of_range_predictor_confidence_is_rejected() {
    let (mut ckpt, _) = sample_bytes();
    let warm = ckpt.warm.as_mut().expect("warm images");
    warm.predictor.path[0].confidence = 4;
    let err = Checkpoint::decode(&ckpt.encode()).expect_err("confidence 4 decoded");
    assert!(err.to_string().contains("confidence 4"), "{err}");
}

/// Every proper prefix of a checkpoint fails to decode (and names what
/// broke) — a partially written file can never load.
#[test]
fn every_truncation_is_rejected() {
    let (_, bytes) = sample_bytes();
    for cut in 0..bytes.len() {
        let err = Checkpoint::decode(&bytes[..cut])
            .expect_err(&format!("prefix of {cut}/{} decoded", bytes.len()));
        assert!(!err.to_string().is_empty());
    }
}

/// Every single-bit flip anywhere in the stream is rejected: the magic and
/// version are checked first, and every other byte is under the checksum.
#[test]
fn every_bit_flip_fails_closed() {
    let (_, bytes) = sample_bytes();
    // Keep the sweep bounded: every bit of every byte for small streams,
    // striding for large ones (the stride still visits every field).
    let stride = (bytes.len() / 4096).max(1);
    for pos in (0..bytes.len()).step_by(stride) {
        for bit in 0..8 {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 1 << bit;
            let err = Checkpoint::decode(&flipped)
                .expect_err(&format!("bit {bit} of byte {pos}: corrupt stream decoded"));
            assert!(!err.to_string().is_empty());
        }
    }
}

/// Appending bytes to a valid stream invalidates it (the checksum no
/// longer sits at the tail).
#[test]
fn trailing_garbage_is_rejected() {
    let (_, bytes) = sample_bytes();
    for extra in [1usize, 7, 64] {
        let mut grown = bytes.clone();
        grown.extend(std::iter::repeat_n(0xabu8, extra));
        assert!(Checkpoint::decode(&grown).is_err(), "{extra} appended bytes accepted");
    }
}

/// Random byte soup — raw, magic-prefixed, and header-prefixed — never
/// panics the decoder and never decodes.
#[test]
fn random_garbage_never_panics() {
    let mut rng = StdRng::seed_from_u64(0x7bc4);
    let header: &[u8] = b"TPCK\x03\x00\x00\x00";
    for i in 0..20_000 {
        let len = rng.gen_range(0..192usize);
        let mut buf: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect();
        match i % 3 {
            0 => {}
            1 => {
                buf.splice(0..0, b"TPCK".iter().copied());
            }
            _ => {
                buf.splice(0..0, header.iter().copied());
            }
        }
        assert!(Checkpoint::decode(&buf).is_err());
    }
}

/// A hand-built delta naming a word twice encodes the last value once (it
/// used to write two values under one bitmap bit, which `decode` then
/// rejected as a non-ascending page). Order does not matter either: the
/// stream is that of the sorted, de-duplicated delta.
#[test]
fn repeated_delta_word_encodes_last_write_once() {
    let (original, _) = sample_bytes();
    let word = 59 << 6 | 5;
    let mut dup = original.clone();
    dup.mem_delta = vec![(word + 70, 3), (word, 1), (word + 1, 2), (word, 4)];
    let mut clean = original;
    clean.mem_delta = vec![(word, 4), (word + 1, 2), (word + 70, 3)];
    let bytes = dup.encode();
    assert_eq!(bytes, clean.encode());
    assert_eq!(Checkpoint::decode(&bytes).expect("decodes"), clean);
}

/// A word index at or above 2^61 has no byte address (`ea >> 3` never
/// reaches it), but a TPCK delta can name one. A machine resumed from such
/// a checkpoint hands the word back unchanged through both capture paths,
/// also when `word << 3` would wrap onto an image word holding the same
/// value.
#[test]
fn delta_words_past_every_byte_address_round_trip() {
    let program = by_name("compress", Size::Tiny).unwrap().program;
    let (mut ckpt, _) = sample_bytes();
    let (addr, value) = program.data().find(|&(_, v)| v != 0).expect("a nonzero data word");
    let high = [((addr >> 3) | 1 << 61, value), (u64::MAX, 7)];
    ckpt.mem_delta.extend(high);
    let decoded = Checkpoint::decode(&ckpt.encode()).expect("decodes");
    assert_eq!(decoded, ckpt);
    let machine = decoded.machine(&program).unwrap();
    let state = machine.capture();
    for (word, v) in high {
        assert_eq!(state.mem.get(&word), Some(&v), "word {word:#x}");
    }
    let frontend = decoded.frontend;
    assert_eq!(Checkpoint::capture(&program, frontend, &state, None).mem_delta, ckpt.mem_delta);
    assert_eq!(Checkpoint::capture_machine(&machine, frontend, None).mem_delta, ckpt.mem_delta);
}
