//! `armada-wire` per-layer numbers: driver-timed `encode_request` /
//! `decode_response` calls and encoded lengths of the RPC kinds the
//! live workloads exchange, in the binary codec the runs pin.

use std::hint::black_box;
use std::time::Instant;

use armada_types::NodeClass;
use armada_wire::{decode_response, Codec, Request, Response, WireNodeStatus};

use crate::fleet::Rng;
use crate::report::Report;
use crate::stats::median;

/// Calls per timed batch and batches per measurement: the median batch
/// mean is reported, so one preempted batch cannot move it.
const BATCH: usize = 1_000;
const BATCHES: usize = 31;

fn status(rng: &mut Rng) -> WireNodeStatus {
    WireNodeStatus {
        id: rng.below(1_000_000) as u64,
        class: NodeClass::Volunteer,
        location: rng.metro_point(),
        attached_users: rng.below(8),
        load_score: rng.unit(),
    }
}

/// Median per-call time of `f`, in ns.
fn time_ns(mut f: impl FnMut()) -> f64 {
    let means: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..BATCH {
                f();
            }
            started.elapsed().as_nanos() as f64 / BATCH as f64
        })
        .collect();
    median(&means).unwrap_or(0.0)
}

/// Records every `wire.*` codec metric.
pub fn report_codec(report: &mut Report, seed: u64) {
    let mut rng = Rng::new(seed, 0x0111_2E00);
    let at = rng.metro_point();
    let discover = Request::Discover {
        user: 123_456,
        lat: at.lat(),
        lon: at.lon(),
        top_n: crate::discover::TOP_N,
    };
    let candidates = Response::Candidates {
        nodes: (0..crate::discover::TOP_N as u64)
            .map(|i| (i * 7_919, format!("10.0.{}.{}:7{:03}", i, i * 3, i * 11)))
            .collect(),
    };
    let heartbeat = Request::Heartbeat {
        status: status(&mut rng),
    };
    let kinds = [
        ("discover", discover.clone(), candidates.clone()),
        ("heartbeat", heartbeat.clone(), Response::HeartbeatAck),
        (
            "frame",
            Request::Frame {
                user: 123_456,
                seq: 17,
                payload_len: 20_000,
            },
            Response::FrameResult {
                seq: 17,
                processing_us: 55,
            },
        ),
        (
            "probe_reply",
            Request::ProcessProbe,
            Response::ProbeReply {
                whatif_us: 50,
                current_us: 55,
                attached: 1,
                seq: 3,
            },
        ),
        (
            "join",
            Request::Join {
                user: 123_456,
                seq: 3,
            },
            Response::JoinResult { accepted: true },
        ),
    ];
    for (name, request, response) in &kinds {
        let req = Codec::Binary.encode_request(request).len();
        let resp = Codec::Binary.encode_response(response).len();
        report.set(&format!("wire.{name}.req_bytes"), req as f64);
        report.set(&format!("wire.{name}.resp_bytes"), resp as f64);
    }

    report.set(
        "wire.discover.encode_ns",
        time_ns(|| {
            black_box(Codec::Binary.encode_request(black_box(&discover)));
        }),
    );
    let body = Codec::Binary.encode_response(&candidates);
    report.set(
        "wire.discover.decode_ns",
        time_ns(|| {
            let _ = black_box(decode_response(black_box(&body)));
        }),
    );
    report.set(
        "wire.heartbeat.encode_ns",
        time_ns(|| {
            black_box(Codec::Binary.encode_request(black_box(&heartbeat)));
        }),
    );
}
