//! Decoding the frames a traced cluster run captured.

use em2_net::proto::NetMsg;
use em2_rt::wire::{Journey, WireEnvelope, WireMsg};
use std::time::Instant;

/// Bytes the journey hop log adds to an envelope's encoding: the
/// encoded `Arrive` message minus the same message with an empty
/// journey. Measured with the shipped encoder, so it follows whatever
/// layout the wire format has.
pub fn journey_len(env: &WireEnvelope) -> u64 {
    let bare = WireEnvelope {
        journey: Journey::default(),
        ..env.clone()
    };
    let with = WireMsg::Arrive(env.clone()).encode().len();
    let without = WireMsg::Arrive(bare).encode().len();
    with.saturating_sub(without) as u64
}

/// What the captured frame mix holds and costs to decode and encode.
#[derive(Debug, Default)]
pub struct FrameMix {
    /// Hop-log bytes inside the task envelopes the frames carry.
    pub journey_bytes: u64,
    /// Mean `NetMsg::decode` time per frame, ns.
    pub decode_ns: f64,
    /// Mean `NetMsg::encode` time per frame, ns.
    pub encode_ns: f64,
}

/// Decode every frame, re-encode it, and check the re-encoding equals
/// the captured bytes. Times both directions over the whole mix.
pub fn frame_mix(frames: &[Vec<u8>]) -> Result<FrameMix, String> {
    let t = Instant::now();
    let decoded = frames
        .iter()
        .map(|f| NetMsg::decode(f))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("a captured frame does not decode: {e}"))?;
    let decode_ns = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    let encoded: Vec<Vec<u8>> = decoded.iter().map(|(seq, m)| m.encode(*seq)).collect();
    let encode_ns = t.elapsed().as_nanos() as f64;
    if let Some(i) = (0..frames.len()).find(|&i| encoded[i] != frames[i]) {
        return Err(format!("frame {i} re-encodes to different bytes"));
    }
    let journey_bytes = decoded
        .iter()
        .map(|(_, m)| match m {
            NetMsg::Shard {
                msg: WireMsg::Arrive(env),
                ..
            }
            | NetMsg::Bounce {
                msg: WireMsg::Arrive(env),
                ..
            } => journey_len(env),
            _ => 0,
        })
        .sum();
    let n = frames.len().max(1) as f64;
    Ok(FrameMix {
        journey_bytes,
        decode_ns: decode_ns / n,
        encode_ns: encode_ns / n,
    })
}
