//! TIPW wire-protocol robustness: every request/response variant survives
//! a frame round-trip, and the decoder never panics — or over-allocates —
//! on arbitrary bytes.

use std::io::{Cursor, Read};

use proptest::prelude::*;
use tip_core::{ProfilerId, SamplerConfig, NUM_CATEGORIES};
use tip_isa::Granularity;
use tip_serve::proto::{
    read_frame, read_request, read_response, write_frame, write_request, write_response,
    DeltaFrame, ErrorCode, JobSpec, JobState, QueryKind, QueryRow, RemoteOutcome, Request,
    Response, ServerStats, FRAME_HEADER_LEN, MAGIC, MAX_PAYLOAD, VERSION,
};
use tip_trace::framing::crc32_pair;
use tip_trace::TraceError;
use tip_workloads::SuiteScale;

fn spec() -> JobSpec {
    JobSpec {
        bench: "mcf".to_owned(),
        scale: SuiteScale::Test,
        seed: 7,
        core: "boom-4w".to_owned(),
        sampler: SamplerConfig::random(211, 99),
        profilers: vec![ProfilerId::Tip, ProfilerId::Software],
        max_attempts: 3,
        pgo: true,
    }
}

fn outcome(ok: bool) -> RemoteOutcome {
    RemoteOutcome {
        ok,
        attempts: 2,
        body: "status=ok\nbench=mcf\n".to_owned(),
        error_line: if ok {
            String::new()
        } else {
            "sim diverged".to_owned()
        },
        wall_ms: 123.75,
        worker: 1,
        cycles: 1_000_000,
        instructions: 750_000,
        ipc: 0.75,
    }
}

/// A delta flush with negative increments and an empty profiler list —
/// the signed-unit and empty-collection edges of the v4 encoding.
fn delta_frame(seq: u64) -> DeltaFrame {
    DeltaFrame {
        bench: "mcf".to_owned(),
        attempt: 2,
        seq,
        granularity: Granularity::Function,
        num_symbols: 32,
        per_profiler: vec![
            (ProfilerId::Tip, vec![(0, 840), (7, -1_680), (31, 1)]),
            (ProfilerId::Software, Vec::new()),
        ],
        oracle: vec![(3, i64::MIN), (4, i64::MAX)],
        stack: vec![-5; NUM_CATEGORIES],
        cycles: seq.saturating_mul(250_000),
    }
}

fn every_request() -> Vec<Request> {
    vec![
        Request::Submit {
            spec: spec(),
            req_id: 0xFEED_FACE,
        },
        Request::Submit {
            spec: JobSpec::new("exchange2", SuiteScale::Small),
            req_id: 0,
        },
        Request::Status { job: 1 },
        Request::Watch {
            job: u64::MAX,
            from_seq: 0,
        },
        Request::Watch {
            job: 17,
            from_seq: u64::MAX,
        },
        Request::Result { job: 42 },
        Request::Cancel { job: 3 },
        Request::Stats,
        Request::Shutdown { drain: true },
        Request::Shutdown { drain: false },
        Request::Register { workers: 4 },
        Request::Beacon { daemon: 3 },
        Request::PollJob { daemon: u64::MAX },
        Request::PushResult {
            daemon: 3,
            task: 17,
            epoch: 2,
            outcome: outcome(true),
        },
        Request::PushResult {
            daemon: 1,
            task: 1,
            epoch: 0,
            outcome: outcome(false),
        },
        Request::PushDelta {
            daemon: 0,
            frame: delta_frame(1),
        },
        Request::PushDelta {
            daemon: u64::MAX,
            frame: delta_frame(u64::MAX),
        },
        Request::Query {
            kind: QueryKind::TopN,
            bench: String::new(),
            profiler: None,
            n: 0,
        },
        Request::Query {
            kind: QueryKind::ErrorTrajectory,
            bench: "mcf".to_owned(),
            profiler: Some(ProfilerId::Tip),
            n: u32::MAX,
        },
        Request::Query {
            kind: QueryKind::CycleStack,
            bench: "lbm".to_owned(),
            profiler: Some(ProfilerId::TipLastCommitDrain),
            n: 7,
        },
    ]
}

fn every_response() -> Vec<Response> {
    let states = [
        JobState::Queued { ahead: 4 },
        JobState::Running { worker: 2 },
        JobState::Done {
            ok: true,
            attempts: 1,
        },
        JobState::Done {
            ok: false,
            attempts: 3,
        },
        JobState::Cancelled,
    ];
    let mut all = vec![
        Response::Submitted { job: 9 },
        Response::ResultBody {
            job: 9,
            body: "status=ok\nbench=mcf\n".to_owned(),
        },
        Response::Cancelled { job: 9, ok: false },
        Response::Stats(ServerStats {
            queued: 1,
            running: 2,
            done: 3,
            failed: 4,
            cancelled: 5,
            workers: 6,
            connections: 7,
            mean_queue_wait_ms: 12.5,
            worker_utilization: 0.75,
            uptime_ms: 123_456,
            reassigned: 8,
            shed: 9,
            daemons: 2,
            stale: 1,
            deltas: 1_234,
            streamed: 5,
        }),
        Response::ShuttingDown { drain: true },
        Response::Registered {
            daemon: 5,
            lease_ms: 10_000,
        },
        Response::BeaconAck { tasks: 3 },
        Response::Assignment {
            task: 17,
            epoch: 4,
            spec: spec(),
        },
        Response::NoWork { draining: true },
        Response::NoWork { draining: false },
        Response::ResultAck { accepted: true },
        Response::ResultAck { accepted: false },
        Response::Busy {
            active: 32,
            limit: 32,
        },
        Response::Overloaded {
            retry_after_ms: 500,
            queued: 300,
        },
        Response::QueryReply { rows: Vec::new() },
        Response::QueryReply {
            rows: vec![
                QueryRow {
                    bench: "mcf".to_owned(),
                    profiler: Some(ProfilerId::Tip),
                    label: "primal_bea_mpp".to_owned(),
                    value: 123_456.0,
                    share: 0.42,
                },
                QueryRow {
                    bench: "lbm".to_owned(),
                    profiler: None,
                    label: "Load stall".to_owned(),
                    value: -1.5,
                    share: 0.0,
                },
            ],
        },
        Response::DeltaAck { accepted: true },
        Response::DeltaAck { accepted: false },
    ];
    for code in [
        ErrorCode::BadRequest,
        ErrorCode::UnknownBench,
        ErrorCode::UnknownCore,
        ErrorCode::UnknownJob,
        ErrorCode::NotReady,
        ErrorCode::Draining,
        ErrorCode::Internal,
        ErrorCode::RateLimited,
        ErrorCode::UnknownDaemon,
    ] {
        all.push(Response::Error {
            code,
            message: format!("{code:?} happened"),
        });
    }
    for (i, state) in states.into_iter().enumerate() {
        all.push(Response::Status { job: 9, state });
        all.push(Response::Progress {
            job: 9,
            state,
            seq: i as u64,
            cycles: (i as u64) * 250_000,
        });
    }
    all
}

#[test]
fn every_request_variant_round_trips() {
    for req in every_request() {
        let mut wire = Vec::new();
        write_request(&mut wire, &req).expect("encode");
        let back = read_request(&mut Cursor::new(&wire))
            .expect("decode")
            .expect("one frame");
        assert_eq!(back, req);
        // And the stream is exactly one frame long.
        let mut cursor = Cursor::new(&wire);
        let _ = read_request(&mut cursor).expect("frame");
        assert!(read_request(&mut cursor).expect("clean eof").is_none());
    }
}

#[test]
fn every_response_variant_round_trips() {
    for resp in every_response() {
        let mut wire = Vec::new();
        write_response(&mut wire, &resp).expect("encode");
        let back = read_response(&mut Cursor::new(&wire))
            .expect("decode")
            .expect("one frame");
        assert_eq!(back, resp);
    }
}

#[test]
fn damaged_frames_classify_like_trace_streams() {
    let mut wire = Vec::new();
    write_request(&mut wire, &Request::Stats).expect("encode");

    // Bad magic.
    let mut bad = wire.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(
        read_request(&mut Cursor::new(&bad)),
        Err(TraceError::BadMagic(_))
    ));

    // Any version but this build's, older or newer, even with a valid CRC.
    for version in [1, VERSION - 1, VERSION + 1] {
        let mut bad = wire.clone();
        bad[4..6].copy_from_slice(&version.to_le_bytes());
        let crc = crc32_pair(&bad[..12], &bad[FRAME_HEADER_LEN..]);
        bad[12..16].copy_from_slice(&crc.to_le_bytes());
        assert!(
            matches!(
                read_request(&mut Cursor::new(&bad)),
                Err(TraceError::UnsupportedVersion(v)) if v == version
            ),
            "version {version}"
        );
    }

    // Flipped payload byte: CRC catches it.
    let mut bad = wire.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x01;
    assert!(matches!(
        read_request(&mut Cursor::new(&bad)),
        Err(TraceError::Corrupt { .. })
    ));

    // Cut off mid-frame.
    let bad = &wire[..wire.len() - 1];
    assert!(matches!(
        read_request(&mut Cursor::new(bad)),
        Err(TraceError::Truncated { .. })
    ));

    // Zero-length payload: typed BadLength, stream still aligned.
    let mut bad = wire.clone();
    bad[8..12].copy_from_slice(&0u32.to_le_bytes());
    assert!(matches!(
        read_request(&mut Cursor::new(&bad)),
        Err(TraceError::BadLength { len: 0, .. })
    ));

    // Over-cap payload: typed BadLength before any allocation.
    let mut bad = wire;
    bad[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
    assert!(matches!(
        read_request(&mut Cursor::new(&bad)),
        Err(TraceError::BadLength { len, cap }) if len == MAX_PAYLOAD + 1 && cap == MAX_PAYLOAD
    ));
}

#[test]
fn unknown_kinds_are_malformed_not_panics() {
    let mut wire = Vec::new();
    write_frame(&mut wire, 0x7777, &[1, 2, 3]).expect("encode");
    assert!(matches!(
        read_request(&mut Cursor::new(&wire)),
        Err(TraceError::Malformed(_))
    ));
    assert!(matches!(
        read_response(&mut Cursor::new(&wire)),
        Err(TraceError::Malformed(_))
    ));
}

proptest! {
    /// The frame reader never panics on arbitrary bytes — it returns a
    /// classified error, a frame, or clean EOF.
    #[test]
    fn frame_reader_never_panics(bytes in proptest::collection::vec(0u32..256, 0usize..2048)) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let mut cursor = Cursor::new(bytes.as_slice());
        let _ = read_frame(&mut cursor);
    }

    /// Request/response decoding never panics on arbitrary payloads under
    /// any kind, including the valid ones.
    #[test]
    fn message_decoders_never_panic(
        kind in 0u32..0x100,
        payload in proptest::collection::vec(0u32..256, 0usize..256),
    ) {
        let payload: Vec<u8> = payload.into_iter().map(|b| b as u8).collect();
        let _ = Request::decode(kind as u16, &payload);
        let _ = Response::decode(kind as u16, &payload);
    }

    /// A valid frame prefixed by garbage fails fast instead of resyncing
    /// silently (network streams must not skip hostile bytes).
    #[test]
    fn garbage_prefix_is_rejected(prefix in proptest::collection::vec(0u32..256, 1usize..16)) {
        let prefix: Vec<u8> = prefix.into_iter().map(|b| b as u8).collect();
        prop_assume!(prefix[..4.min(prefix.len())] != MAGIC[..4.min(prefix.len())]);
        let mut wire = prefix;
        write_request(&mut wire, &Request::Stats).expect("encode");
        prop_assert!(read_request(&mut Cursor::new(&wire)).is_err());
    }
}

/// A reader that serves bytes in adversarially sized pieces — the wire
/// as seen through a slow, fragmenting network (or chaosnet's
/// `SplitChunks`). Sizes cycle through `sizes`.
struct Chunked<'a> {
    data: &'a [u8],
    pos: usize,
    sizes: Vec<usize>,
    turn: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.data.len() {
            return Ok(0);
        }
        let want = self.sizes[self.turn % self.sizes.len()].max(1);
        self.turn += 1;
        let n = want.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

proptest! {
    /// Feeding the decoder adversarially split/merged byte chunks never
    /// panics, and it classifies damage identically to whole-frame
    /// decoding: same frames out, same error kind on the same stream.
    #[test]
    fn chunked_reads_classify_like_whole_buffer_reads(
        sizes in proptest::collection::vec(1usize..64, 1usize..16),
        flip in (proptest::bool::ANY, 0usize..4096, 1u32..256),
    ) {
        let mut wire = Vec::new();
        for req in every_request() {
            write_request(&mut wire, &req).expect("encode");
        }
        let (do_flip, offset, xor) = flip;
        if do_flip {
            let off = offset % wire.len();
            wire[off] ^= xor as u8;
        }
        let mut whole = Cursor::new(wire.as_slice());
        let mut chunked = Chunked { data: &wire, pos: 0, sizes, turn: 0 };
        loop {
            let a = read_request(&mut whole);
            let b = read_request(&mut chunked);
            match (&a, &b) {
                (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
                (Err(x), Err(y)) => prop_assert_eq!(
                    std::mem::discriminant(x),
                    std::mem::discriminant(y)
                ),
                _ => prop_assert!(false, "classification diverged: {a:?} vs {b:?}"),
            }
            if matches!(a, Ok(None) | Err(_)) {
                break;
            }
        }
    }
}

/// Every payload field is required: a payload cut before its last field
/// is refused as `Malformed`, never decoded with the field defaulted.
#[test]
fn payloads_cut_before_their_last_field_are_malformed() {
    let stats = ServerStats {
        streamed: 19,
        ..ServerStats::default()
    };
    let cut = |(kind, payload): (u16, Vec<u8>), field_len: usize| {
        (kind, payload[..payload.len() - field_len].to_vec())
    };
    let requests = [
        // `Watch` without `from_seq`.
        cut(
            Request::Watch {
                job: 42,
                from_seq: 7,
            }
            .encode(),
            8,
        ),
        // `Submit` without `req_id`.
        cut(
            Request::Submit {
                spec: spec(),
                req_id: 7,
            }
            .encode(),
            8,
        ),
    ];
    for (kind, payload) in requests {
        assert!(
            matches!(
                Request::decode(kind, &payload),
                Err(TraceError::Malformed(_))
            ),
            "request kind {kind}"
        );
    }
    let responses = [
        // `Stats` without `streamed`.
        cut(Response::Stats(stats).encode(), 4),
        // `Assignment` without the spec's `pgo` byte.
        cut(
            Response::Assignment {
                task: 17,
                epoch: 4,
                spec: spec(),
            }
            .encode(),
            1,
        ),
    ];
    for (kind, payload) in responses {
        assert!(
            matches!(
                Response::decode(kind, &payload),
                Err(TraceError::Malformed(_))
            ),
            "response kind {kind}"
        );
    }
}

/// The v4 delta/query frames round-trip their edge values exactly —
/// `i64::MIN`/`i64::MAX` units survive the two's-complement wire encoding
/// — and a hostile `PushDelta` with out-of-range symbols decodes to an
/// event whose deltas are clamped, never a panic.
#[test]
fn v4_delta_frames_round_trip_signed_units_and_clamp_hostile_symbols() {
    let frame = delta_frame(3);
    let mut wire = Vec::new();
    write_request(
        &mut wire,
        &Request::PushDelta {
            daemon: 0,
            frame: frame.clone(),
        },
    )
    .expect("encode");
    let back = read_request(&mut Cursor::new(&wire))
        .expect("decode")
        .expect("one frame");
    let Request::PushDelta { frame: decoded, .. } = back else {
        panic!("wrong variant: {back:?}");
    };
    assert_eq!(decoded, frame);

    // A symbol at or past num_symbols is hostile input: into_event clamps it
    // out instead of letting it index past the dense vectors.
    let hostile = DeltaFrame {
        num_symbols: 4,
        oracle: vec![(2, 840), (4, 840), (u32::MAX, 840)],
        ..frame
    };
    let event = hostile.into_event();
    assert_eq!(event.deltas.oracle.entries(), &[(2, 840)]);
}

#[test]
fn header_constant_matches_layout() {
    let mut wire = Vec::new();
    write_frame(&mut wire, 1, &[0xAB]).expect("encode");
    assert_eq!(wire.len(), FRAME_HEADER_LEN + 1);
    assert_eq!(&wire[0..4], &MAGIC);
}
