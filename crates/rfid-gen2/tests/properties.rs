//! Property-based tests of the Gen2 protocol substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rf_sim::tags::TagId;
use rfid_gen2::crc::{crc16, crc16_verify, crc5, crc5_verify};
use rfid_gen2::epc::Epc96;
use rfid_gen2::inventory::Inventory;
use rfid_gen2::llrp::{decode_report, encode_report, LlrpMessage};
use rfid_gen2::report::TagReport;
use rfid_gen2::trace::{read_trace, write_trace, TraceFormat};
use rfid_gen2::{InventoryStats, LinkParams, QAlgorithm, SearchMode};

/// Builds a report from a proptest-drawn tuple.
fn report_from(
    (id, time, phase, rss, doppler, antenna, channel): (u64, f64, f64, f64, f64, u16, u16),
) -> TagReport {
    TagReport {
        epc: Epc96::for_tag(TagId(id)),
        tag: TagId(id),
        time,
        phase,
        rss_dbm: rss,
        doppler_hz: doppler,
        antenna_port: antenna,
        channel_index: channel,
    }
}

proptest! {
    /// CRC-16 verifies its own output and rejects any single-bit flip.
    #[test]
    fn crc16_round_trip_and_flip(data in prop::collection::vec(any::<u8>(), 1..64), flip in 0usize..512) {
        let crc = crc16(&data);
        prop_assert!(crc16_verify(&data, crc));
        let byte = (flip / 8) % data.len();
        let bit = flip % 8;
        let mut corrupted = data.clone();
        corrupted[byte] ^= 1 << bit;
        prop_assert!(!crc16_verify(&corrupted, crc));
    }

    /// CRC-5 stays in range and rejects single-bit flips.
    #[test]
    fn crc5_round_trip_and_flip(bits in prop::collection::vec(any::<bool>(), 1..64), flip in 0usize..64) {
        let crc = crc5(&bits);
        prop_assert!(crc < 32);
        prop_assert!(crc5_verify(&bits, crc));
        let idx = flip % bits.len();
        let mut corrupted = bits.clone();
        corrupted[idx] = !corrupted[idx];
        prop_assert!(!crc5_verify(&corrupted, crc));
    }

    /// EPC minting round-trips every tag id.
    #[test]
    fn epc_round_trip(id in any::<u64>()) {
        prop_assert_eq!(Epc96::for_tag(TagId(id)).to_tag(), Some(TagId(id)));
    }

    /// LLRP message framing round-trips any payload.
    #[test]
    fn llrp_frame_round_trip(
        msg_type in 0u16..1024,
        msg_id in any::<u32>(),
        payload in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let msg = LlrpMessage { msg_type, msg_id, payload };
        let bytes = msg.encode();
        let (decoded, used) = LlrpMessage::decode(&bytes).expect("well-formed");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(decoded, msg);
    }

    /// Tag reports survive the wire format to quantization accuracy.
    #[test]
    fn report_round_trip(
        reads in prop::collection::vec(
            (0u64..1000, 0.0f64..100.0, 0.0f64..6.2, -90.0f64..-20.0, -30.0f64..30.0,
             1u16..5, 0u16..51),
            0..40,
        ),
    ) {
        let events: Vec<TagReport> = reads.iter().copied().map(report_from).collect();
        let wire = encode_report(&events, 3);
        let (msg, _) = LlrpMessage::decode(&wire).expect("frame");
        let decoded = decode_report(&msg).expect("payload");
        prop_assert_eq!(decoded.len(), events.len());
        for (orig, dec) in events.iter().zip(&decoded) {
            prop_assert_eq!(dec.epc, orig.epc);
            prop_assert_eq!(dec.antenna_port, orig.antenna_port);
            prop_assert_eq!(dec.channel_index, orig.channel_index);
            prop_assert!((dec.phase - orig.phase).abs() < 0.002);
            prop_assert!((dec.rss_dbm - orig.rss_dbm).abs() < 0.01);
            prop_assert!((dec.doppler_hz - orig.doppler_hz).abs() < 0.07);
            prop_assert!((dec.time - orig.time).abs() < 1e-5);
        }
    }

    /// Both trace framings round-trip any report stream bit-exactly —
    /// including float bit patterns.
    #[test]
    fn trace_round_trip_bit_exact(
        reads in prop::collection::vec(
            (any::<u64>(), any::<f64>(), any::<f64>(), any::<f64>(), any::<f64>(),
             any::<u16>(), any::<u16>()),
            0..30,
        ),
    ) {
        let reports: Vec<TagReport> = reads
            .iter()
            .copied()
            // NaN breaks PartialEq, not the codec; keep comparisons meaningful.
            .filter(|r| !r.1.is_nan() && !r.2.is_nan() && !r.3.is_nan() && !r.4.is_nan())
            .map(report_from)
            .collect();
        for format in [TraceFormat::JsonLines, TraceFormat::Binary] {
            let mut buf = Vec::new();
            write_trace(&mut buf, format, &reports).expect("write");
            let decoded = read_trace(&mut buf.as_slice()).expect("read");
            prop_assert_eq!(&decoded, &reports);
            for (orig, dec) in reports.iter().zip(&decoded) {
                prop_assert_eq!(orig.time.to_bits(), dec.time.to_bits());
                prop_assert_eq!(orig.phase.to_bits(), dec.phase.to_bits());
                prop_assert_eq!(orig.rss_dbm.to_bits(), dec.rss_dbm.to_bits());
                prop_assert_eq!(orig.doppler_hz.to_bits(), dec.doppler_hz.to_bits());
            }
        }
    }

    /// The Q-algorithm never leaves [0, 15] under any event sequence.
    #[test]
    fn q_algorithm_bounded(
        initial in 0u8..16,
        events in prop::collection::vec(0u8..3, 0..500),
    ) {
        let mut q = QAlgorithm::new(initial);
        for e in events {
            match e {
                0 => q.on_empty(),
                1 => q.on_collision(),
                _ => q.on_success(),
            }
            prop_assert!(q.q() <= 15);
        }
    }
}

/// Tags `0..population`, less a shadow that moves every 5 ms and silences
/// one tag in nine: the powered set changes between round start and reply
/// time, so the reply-time power check gets exercised.
fn shadowed_population(population: u64, t: f64, out: &mut Vec<TagId>) {
    let phase = (t * 200.0) as u64;
    out.extend(
        (0..population)
            .filter(|i| !(phase + i).is_multiple_of(9))
            .map(TagId),
    );
}

/// Folds `bytes` into a 64-bit FNV-1a digest.
fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// `(population, initial Q, search mode, seed, [rounds, slots, empties,
/// collisions, successes], reads, read-stream digest)`.
type PinnedRun = (u64, u8, SearchMode, u64, [u64; 5], u64, u64);

/// The MAC's output, pinned across populations, initial Qs, search modes
/// and seeds: `InventoryStats` and an FNV-1a digest of the
/// `(id, time.to_bits())` read stream over 0.5 s of an M=4 link. Any change
/// to slot draws, their order, Q adaptation, session flags or link timing
/// moves a digest.
#[test]
fn inventory_output_is_pinned_across_configurations() {
    #[rustfmt::skip]
    let pinned: &[PinnedRun] = &[
        (0, 4, SearchMode::DualTarget, 11, [639, 639, 639, 0, 0], 0, 0xcbf29ce484222325),
        (0, 4, SearchMode::DualTarget, 12, [639, 639, 639, 0, 0], 0, 0xcbf29ce484222325),
        (1, 0, SearchMode::DualTarget, 11, [238, 238, 149, 0, 89], 89, 0xc4ccdc8a1c905095),
        (1, 0, SearchMode::DualTarget, 12, [238, 238, 149, 0, 89], 89, 0xc4ccdc8a1c905095),
        (1, 15, SearchMode::SingleTargetA, 11, [629, 651, 650, 0, 1], 1, 0x6d8cc158a700ee2e),
        (1, 15, SearchMode::SingleTargetA, 12, [628, 654, 653, 0, 1], 1, 0x0f57178ad247b5a9),
        (5, 0, SearchMode::SingleTargetA, 11, [609, 618, 606, 7, 5], 5, 0x89967f5843ffaf19),
        (5, 0, SearchMode::SingleTargetA, 12, [605, 612, 600, 6, 6], 5, 0xbe9ae840bcbd41e4),
        (5, 8, SearchMode::DualTarget, 11, [169, 440, 337, 18, 85], 75, 0x5fa01ab62a43128e),
        (5, 8, SearchMode::DualTarget, 12, [164, 440, 336, 18, 86], 79, 0x535ae0ec041f9c6b),
        (25, 4, SearchMode::DualTarget, 11, [101, 285, 111, 80, 94], 89, 0xa02ab8d2fe372f41),
        (25, 4, SearchMode::DualTarget, 12, [94, 288, 111, 82, 95], 82, 0x9b1974eabe563ea1),
        (25, 8, SearchMode::SingleTargetA, 11, [493, 547, 504, 17, 26], 25, 0xcfcb737d3d30a559),
        (25, 8, SearchMode::SingleTargetA, 12, [474, 529, 480, 19, 30], 25, 0xd55f5a88019a30c7),
        (25, 15, SearchMode::DualTarget, 11, [141, 360, 212, 61, 87], 78, 0xcc421c537dd796d1),
        (25, 15, SearchMode::DualTarget, 12, [124, 366, 214, 64, 88], 81, 0x16ca0e4b478dded7),
        (60, 0, SearchMode::DualTarget, 11, [98, 284, 87, 107, 90], 80, 0x1e2e83eafda3fb4c),
        (60, 0, SearchMode::DualTarget, 12, [99, 289, 90, 110, 89], 81, 0xe45c8eacd501fecf),
        (60, 4, SearchMode::SingleTargetA, 11, [213, 370, 217, 83, 70], 60, 0x61a1f99a0e2a5ca3),
        (60, 4, SearchMode::SingleTargetA, 12, [245, 386, 253, 66, 67], 60, 0x383ab257930aad08),
        (60, 15, SearchMode::DualTarget, 11, [101, 323, 149, 83, 91], 77, 0x53896c3c0c559bea),
        (60, 15, SearchMode::DualTarget, 12, [116, 317, 149, 78, 90], 85, 0x691936e1e534426e),
    ];
    for &(population, q, search, seed, counts, want_reads, want_digest) in pinned {
        let mut inv = Inventory::new(LinkParams::dense_reader_m4(), q, search, 0.25);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut reads = 0u64;
        inv.run(
            0.75,
            &mut rng,
            |t, out| shadowed_population(population, t, out),
            |id, t| {
                reads += 1;
                fnv1a(&mut digest, &id.0.to_le_bytes());
                fnv1a(&mut digest, &t.to_bits().to_le_bytes());
            },
        );
        let [rounds, slots, empties, collisions, successes] = counts;
        let want = InventoryStats {
            rounds,
            slots,
            empties,
            collisions,
            successes,
        };
        let config = format!("population {population}, Q {q}, {search:?}, seed {seed}");
        assert_eq!(*inv.stats(), want, "stats for {config}");
        assert_eq!(reads, want_reads, "reads for {config}");
        assert_eq!(
            digest, want_digest,
            "read-stream digest for {config}: 0x{digest:016x}"
        );
    }
}
