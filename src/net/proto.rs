//! The newline-delimited JSON line protocol: frame vocabulary, parser,
//! and emitters.
//!
//! One JSON object per line, both directions. Client → server frames
//! carry a `"verb"`; server → client frames carry an `"event"`. The
//! full frame reference lives in the README's "Serving over the
//! network" section; in short:
//!
//! ```text
//! -> {"verb":"submit","ctx":0,"tenant":7,"query":[...],"context_len":8,
//!     "gen_tokens":3,"priority":1,"deadline_ms":250,"stream":true}
//! <- {"event":"accepted","id":1}
//! <- {"event":"token","id":1,"index":0,"value":[...]}      (stream:true)
//! <- {"event":"done","id":1,"tokens":3}
//! -> {"verb":"poll","id":1}
//! <- {"event":"status","id":1,"state":"finished","tokens":3,"steps":[...]}
//! -> {"verb":"cancel","id":1}
//! -> {"verb":"stats"}
//! <- {"event":"stats","server":{...},"metrics":{...}}
//! ```
//!
//! Token values are `f32`s encoded in shortest-round-trip decimal form
//! ([`json::push_f32`]), so a streamed row is **bitwise identical** to
//! the row a local one-context `Engine` would decode —
//! `tests/net_serving.rs` pins
//! that through a real socket.

use vqllm_llm::{RejectReason, RequestStatus};

use crate::net::driver::{DriverStats, StreamEvent, TicketEnd};
use crate::net::json::{self, Json};
use crate::net::metrics::{MetricsSnapshot, RejectKind};

/// The line protocol's version, announced in the `hello` frame every
/// connection receives first. Bump on wire-incompatible changes.
pub const PROTO_VERSION: u64 = 1;

/// A parsed client → server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientFrame {
    /// Submit a decode request against registered context index `ctx`.
    Submit {
        /// Index of the context in the server's registration order.
        ctx: usize,
        /// Caller-supplied tenant tag (fairness lane).
        tenant: u64,
        /// The initial query row.
        query: Vec<f32>,
        /// Tokens of the shared context attended at the first step.
        context_len: usize,
        /// Decode steps requested.
        gen_tokens: usize,
        /// Priority class (default 0).
        priority: u8,
        /// Optional completion deadline, ms from submission.
        deadline_ms: Option<u64>,
        /// Whether to stream `token` events as rows decode.
        stream: bool,
    },
    /// Query a submitted request's status.
    Poll {
        /// The id from the `accepted` event.
        id: u64,
    },
    /// Cancel a queued or running request.
    Cancel {
        /// The id from the `accepted` event.
        id: u64,
    },
    /// Keepalive probe; the server answers with a `pong` frame and the
    /// probe counts as activity for the idle-timeout clock.
    Ping,
    /// Fetch scheduler counters and the metrics snapshot.
    Stats,
}

/// Parses one request line. Errors are human-readable strings the
/// server echoes back in an `error` event.
pub fn parse_frame(line: &str) -> Result<ClientFrame, String> {
    let v = json::parse(line).map_err(|e| e.to_string())?;
    let verb = v
        .get("verb")
        .and_then(Json::as_str)
        .ok_or("missing \"verb\"")?;
    match verb {
        "submit" => {
            let query = v
                .get("query")
                .and_then(Json::as_f32s)
                .ok_or("submit needs \"query\": [numbers]")?;
            Ok(ClientFrame::Submit {
                ctx: v.get("ctx").and_then(Json::as_usize).unwrap_or(0),
                tenant: v.get("tenant").and_then(Json::as_u64).unwrap_or(0),
                query,
                context_len: v
                    .get("context_len")
                    .and_then(Json::as_usize)
                    .ok_or("submit needs \"context_len\"")?,
                gen_tokens: v
                    .get("gen_tokens")
                    .and_then(Json::as_usize)
                    .ok_or("submit needs \"gen_tokens\"")?,
                priority: v
                    .get("priority")
                    .and_then(Json::as_u64)
                    .map_or(0, |p| p.min(u8::MAX as u64) as u8),
                deadline_ms: v.get("deadline_ms").and_then(Json::as_u64),
                stream: v.get("stream").and_then(Json::as_bool).unwrap_or(false),
            })
        }
        "poll" => Ok(ClientFrame::Poll {
            id: v
                .get("id")
                .and_then(Json::as_u64)
                .ok_or("poll needs \"id\"")?,
        }),
        "cancel" => Ok(ClientFrame::Cancel {
            id: v
                .get("id")
                .and_then(Json::as_u64)
                .ok_or("cancel needs \"id\"")?,
        }),
        "ping" => Ok(ClientFrame::Ping),
        "stats" => Ok(ClientFrame::Stats),
        other => Err(format!("unknown verb {other:?}")),
    }
}

/// Renders a submit frame (the client side of the protocol; also what
/// the examples and tests send).
#[allow(clippy::too_many_arguments)]
pub fn submit_line(
    ctx: usize,
    tenant: u64,
    query: &[f32],
    context_len: usize,
    gen_tokens: usize,
    priority: u8,
    deadline_ms: Option<u64>,
    stream: bool,
) -> String {
    let mut s = format!("{{\"verb\":\"submit\",\"ctx\":{ctx},\"tenant\":{tenant},\"query\":[");
    for (i, q) in query.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        json::push_f32(*q, &mut s);
    }
    s.push_str(&format!(
        "],\"context_len\":{context_len},\"gen_tokens\":{gen_tokens},\"priority\":{priority}"
    ));
    if let Some(ms) = deadline_ms {
        s.push_str(&format!(",\"deadline_ms\":{ms}"));
    }
    s.push_str(&format!(",\"stream\":{stream}}}"));
    s
}

/// Every rejection code this protocol can put on the wire, in
/// counter-array order. This is the protocol-side registry `vqllm-lint`
/// cross-checks against `RejectKind::code` and the per-reason metrics
/// counters: a code added to one place but not the others is a lint
/// error, and `codes_cover_every_kind` below pins the mapping at run
/// time too.
pub const REJECT_WIRE_CODES: &[&str] = &[
    "queue_full",
    "invalid",
    "kv_capacity",
    "unknown_context",
    "cancelled",
    "deadline",
    "rate_limited",
    "draining",
    "internal",
    "driver_restarted",
];

/// The wire code of a rejection reason (`queue_full`, `deadline`, ...).
pub fn reason_code(reason: &RejectReason) -> &'static str {
    RejectKind::of(reason).code()
}

fn push_reason(reason: &RejectReason, retry_after_ms: u64, out: &mut String) {
    out.push_str(",\"reason\":");
    json::push_escaped(reason_code(reason), out);
    out.push_str(&format!(",\"retry_after_ms\":{retry_after_ms}"));
    out.push_str(",\"detail\":");
    json::push_escaped(&reason.to_string(), out);
}

fn push_rows(key: &str, rows: &[Vec<f32>], out: &mut String) {
    out.push(',');
    json::push_escaped(key, out);
    out.push_str(":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            json::push_f32(*v, out);
        }
        out.push(']');
    }
    out.push(']');
}

/// Renders a driver [`StreamEvent`] as one server → client line
/// (without the trailing newline).
pub fn event_frame(ev: &StreamEvent) -> String {
    match ev {
        StreamEvent::Accepted { id } => format!("{{\"event\":\"accepted\",\"id\":{id}}}"),
        StreamEvent::Token { id, index, value } => {
            let mut s = format!("{{\"event\":\"token\",\"id\":{id},\"index\":{index},\"value\":[");
            for (j, v) in value.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                json::push_f32(*v, &mut s);
            }
            s.push_str("]}");
            s
        }
        StreamEvent::Done { id, tokens } => {
            format!("{{\"event\":\"done\",\"id\":{id},\"tokens\":{tokens}}}")
        }
        StreamEvent::Rejected {
            id,
            reason,
            retry_after_ms,
        } => {
            let mut s = format!("{{\"event\":\"rejected\",\"id\":{id}");
            push_reason(reason, *retry_after_ms, &mut s);
            s.push('}');
            s
        }
    }
}

/// Renders a `status` reply for the `poll` verb. A finished request's
/// reply carries its decoded rows (`steps`), taken from the resolved
/// ticket.
pub fn status_frame(id: u64, status: &RequestStatus, end: Option<&TicketEnd>) -> String {
    let mut s = format!("{{\"event\":\"status\",\"id\":{id},\"state\":");
    match status {
        RequestStatus::Queued => s.push_str("\"queued\""),
        RequestStatus::Running => s.push_str("\"running\""),
        RequestStatus::Finished { tokens } => {
            s.push_str(&format!("\"finished\",\"tokens\":{tokens}"));
            if let Some(TicketEnd::Finished(out)) = end {
                push_rows("steps", &out.steps, &mut s);
            }
        }
        RequestStatus::Rejected { reason } => {
            s.push_str("\"rejected\"");
            let retry = match end {
                Some(TicketEnd::Rejected { retry_after_ms, .. }) => *retry_after_ms,
                _ => reason.retry_hint_ms().unwrap_or(0),
            };
            push_reason(reason, retry, &mut s);
        }
        RequestStatus::Unknown => s.push_str("\"unknown\""),
    }
    s.push('}');
    s
}

/// The `hello` handshake frame — the first frame every connection
/// receives: the protocol version plus the server's request-line cap.
pub fn hello_frame(line_length_cap: usize) -> String {
    format!(
        "{{\"event\":\"hello\",\"proto\":{PROTO_VERSION},\"line_length_cap\":{line_length_cap}}}"
    )
}

/// A server-initiated keepalive probe.
pub fn ping_frame() -> String {
    "{\"event\":\"ping\"}".to_string()
}

/// The reply to a client `ping` verb.
pub fn pong_frame() -> String {
    "{\"event\":\"pong\"}".to_string()
}

/// The typed frame an over-limit (or draining) accept is answered with
/// before the socket closes.
pub fn conn_rejected_frame(reason: &str, detail: &str, retry_after_ms: u64) -> String {
    let mut s = String::from("{\"event\":\"conn_rejected\",\"reason\":");
    json::push_escaped(reason, &mut s);
    s.push_str(&format!(",\"retry_after_ms\":{retry_after_ms},\"detail\":"));
    json::push_escaped(detail, &mut s);
    s.push('}');
    s
}

/// Renders the `stats` reply: scheduler counters plus the metrics
/// snapshot, each as a nested object, under a protocol/uptime header.
pub fn stats_frame(stats: &DriverStats, metrics: &MetricsSnapshot, uptime_ms: u64) -> String {
    let s = &stats.server;
    format!(
        "{{\"event\":\"stats\",\"proto\":{PROTO_VERSION},\"uptime_ms\":{uptime_ms},\
         \"draining\":{},\"server\":{{\
         \"submitted\":{},\"rejected\":{},\"rejected_queue_full\":{},\
         \"rejected_invalid\":{},\"rejected_kv_capacity\":{},\
         \"rejected_unknown_context\":{},\"cancelled\":{},\
         \"completed\":{},\"steps\":{},\"decoded_tokens\":{},\"quarantined\":{},\
         \"front_queued\":{},\"engine_queued\":{},\"running\":{},\
         \"inflight_tokens\":{}}},\
         \"metrics\":{}}}",
        stats.draining,
        s.submitted,
        s.rejected,
        s.rejected_queue_full,
        s.rejected_invalid,
        s.rejected_kv_capacity,
        s.rejected_unknown_context,
        s.cancelled,
        s.completed,
        s.steps,
        s.decoded_tokens,
        s.quarantined,
        stats.front_queued,
        stats.engine_queued,
        stats.running,
        stats.inflight_tokens,
        metrics.to_json(),
    )
}

/// Renders a protocol `error` event (unparsable frame, unknown context
/// index, ...).
pub fn error_frame(message: &str) -> String {
    let mut s = String::from("{\"event\":\"error\",\"message\":");
    json::push_escaped(message, &mut s);
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_cover_every_kind() {
        // The static registry must match what RejectKind actually emits,
        // one to one and in order.
        let emitted: Vec<&str> = RejectKind::ALL.iter().map(|k| k.code()).collect();
        assert_eq!(REJECT_WIRE_CODES, emitted.as_slice());
    }

    #[test]
    fn submit_line_round_trips_through_the_parser() {
        let line = submit_line(2, 7, &[0.5, -1.25], 8, 3, 1, Some(250), true);
        let frame = parse_frame(&line).expect("parses");
        assert_eq!(
            frame,
            ClientFrame::Submit {
                ctx: 2,
                tenant: 7,
                query: vec![0.5, -1.25],
                context_len: 8,
                gen_tokens: 3,
                priority: 1,
                deadline_ms: Some(250),
                stream: true,
            }
        );
    }

    #[test]
    fn submit_defaults_are_applied() {
        let frame = parse_frame(r#"{"verb":"submit","query":[1],"context_len":4,"gen_tokens":2}"#)
            .expect("parses");
        assert_eq!(
            frame,
            ClientFrame::Submit {
                ctx: 0,
                tenant: 0,
                query: vec![1.0],
                context_len: 4,
                gen_tokens: 2,
                priority: 0,
                deadline_ms: None,
                stream: false,
            }
        );
    }

    #[test]
    fn malformed_frames_report_what_is_missing() {
        assert!(parse_frame("not json").is_err());
        assert!(parse_frame(r#"{"verb":"warp"}"#)
            .unwrap_err()
            .contains("unknown verb"));
        assert!(parse_frame(r#"{"verb":"submit","query":[1]}"#)
            .unwrap_err()
            .contains("context_len"));
        assert!(parse_frame(r#"{"verb":"poll"}"#)
            .unwrap_err()
            .contains("id"));
    }

    #[test]
    fn event_frames_are_valid_json() {
        use crate::net::json;
        let frames = [
            event_frame(&StreamEvent::Accepted { id: 3 }),
            event_frame(&StreamEvent::Token {
                id: 3,
                index: 0,
                value: vec![0.1, -2.5],
            }),
            event_frame(&StreamEvent::Done { id: 3, tokens: 2 }),
            event_frame(&StreamEvent::Rejected {
                id: 4,
                reason: RejectReason::Deadline { retry_after_ms: 9 },
                retry_after_ms: 9,
            }),
            error_frame("bad frame: \"quoted\""),
        ];
        for f in &frames {
            let v = json::parse(f).unwrap_or_else(|e| panic!("invalid frame {f}: {e}"));
            assert!(v.get("event").is_some(), "{f}");
        }
        assert!(frames[3].contains("\"retry_after_ms\":9"));
        assert!(frames[3].contains("\"reason\":\"deadline\""));
    }

    #[test]
    fn status_frame_carries_finished_rows() {
        use vqllm_llm::RequestOutput;
        let out = RequestOutput {
            id: 1,
            tenant: 7,
            steps: vec![vec![1.5, -0.25]],
            kv_quant_us: 0.0,
            submitted_step: 0,
            finished_step: 1,
            kv_nmse: 0.0,
            kv_bytes: 0,
        };
        let f = status_frame(
            5,
            &RequestStatus::Finished { tokens: 1 },
            Some(&TicketEnd::Finished(out)),
        );
        let v = crate::net::json::parse(&f).expect("valid");
        assert_eq!(v.get("state").and_then(Json::as_str), Some("finished"));
        let steps = v.get("steps").expect("steps");
        match steps {
            Json::Arr(rows) => assert_eq!(rows[0].as_f32s(), Some(vec![1.5, -0.25])),
            other => panic!("steps not an array: {other:?}"),
        }
    }
}
