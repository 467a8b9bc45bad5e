//! The `sgd` wire protocol: length-prefixed frames over a byte stream.
//!
//! Every frame is a 5-byte header — `[kind: u8][len: u32 LE]` — followed
//! by `len` payload bytes. `len` must be in `1..=max_frame`; a zero or
//! oversized length prefix is a framing error and the connection is
//! closed after a typed error reply (the stream position can no longer
//! be trusted).
//!
//! | kind | name        | payload |
//! |------|-------------|---------|
//! | 0x01 | `CtrlReq`   | sg-json object, e.g. `{"cmd":"stats"}` |
//! | 0x02 | `CtrlResp`  | sg-json object, `{"ok":true,...}` |
//! | 0x10 | `EvalReq`   | `[name_len: u16 LE][name][deadline_ms: u32 LE][npoints: u32 LE][xs: npoints·d f64 LE]` |
//! | 0x11 | `EvalResp`  | `[flags: u8][npoints: u32 LE][ys: npoints f64 LE]` |
//! | 0x1F | `Error`     | sg-json `{"error":"<code>","message":"..."}` |
//!
//! `deadline_ms` is a *relative* budget (milliseconds from receipt; 0 =
//! none): relative deadlines survive clock skew between client and
//! server. A request still waiting for admission when its budget runs out
//! is answered with a typed `deadline_exceeded` error instead of burning
//! pool time.
//! `flags` bit 0 marks a response computed by a degraded model (a
//! snapshot that lost sections and serves over surviving coefficients).
//!
//! The data plane is raw little-endian `f64` — no JSON on the hot path.
//! Frame reads and writes go through caller-owned buffers, so a
//! connection that reuses its buffers parses and serializes without
//! allocating.

use std::io::{Read, Write};

/// Hard ceiling every deployment-configured frame limit is clamped to.
pub const ABS_MAX_FRAME: usize = 1 << 30;

/// Default maximum frame payload size (bytes) — `SGD_MAX_FRAME`.
pub const DEFAULT_MAX_FRAME: usize = 16 << 20;

/// Frame type tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Control-plane request (sg-json).
    CtrlReq = 0x01,
    /// Control-plane response (sg-json).
    CtrlResp = 0x02,
    /// Data-plane evaluation request (binary f64).
    EvalReq = 0x10,
    /// Data-plane evaluation response (binary f64).
    EvalResp = 0x11,
    /// Typed error reply (sg-json).
    Error = 0x1F,
}

impl FrameKind {
    fn from_u8(b: u8) -> Option<FrameKind> {
        match b {
            0x01 => Some(FrameKind::CtrlReq),
            0x02 => Some(FrameKind::CtrlResp),
            0x10 => Some(FrameKind::EvalReq),
            0x11 => Some(FrameKind::EvalResp),
            0x1F => Some(FrameKind::Error),
            _ => None,
        }
    }
}

/// Typed serving errors. Each maps to a stable wire code carried in an
/// `Error` frame, and to a decision about whether the connection's
/// framing is still trustworthy afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// Too many requests are already waiting for admission; retry later.
    Overloaded,
    /// No model with the requested name is loaded.
    UnknownModel(String),
    /// Unusable frame: zero/oversized length prefix, unknown kind,
    /// payload shorter than its own header claims. Fatal per connection.
    BadFrame(String),
    /// Well-framed but semantically invalid request (zero points, a
    /// coordinate outside `[0,1]`, point count over the per-request limit,
    /// malformed control JSON). The connection survives.
    BadRequest(String),
    /// The model serving the name has a different dimensionality than
    /// the request (e.g. it was swapped while the request waited).
    ShapeMismatch {
        /// Dimensionality the request was built for.
        expected: usize,
        /// Dimensionality of the model now serving that name.
        actual: usize,
    },
    /// The server is draining; no new work is accepted.
    ShuttingDown,
    /// The request's deadline budget ran out before evaluation started.
    DeadlineExceeded,
    /// A socket-level timeout fired (connect, read, or write stalled
    /// past `SGD_IO_TIMEOUT_MS`). Fatal per connection: the stream
    /// position is unknowable after an interrupted transfer.
    TimedOut(String),
    /// Snapshot load/swap failure (wraps the sg-core error text).
    Model(String),
    /// Transport error.
    Io(String),
}

impl ServeError {
    /// Stable wire code for the `Error` frame.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::Overloaded => "overloaded",
            ServeError::UnknownModel(_) => "unknown_model",
            ServeError::BadFrame(_) => "bad_frame",
            ServeError::BadRequest(_) => "bad_request",
            ServeError::ShapeMismatch { .. } => "shape_mismatch",
            ServeError::ShuttingDown => "shutting_down",
            ServeError::DeadlineExceeded => "deadline_exceeded",
            ServeError::TimedOut(_) => "timed_out",
            ServeError::Model(_) => "model",
            ServeError::Io(_) => "io",
        }
    }

    /// True when the connection's framing can no longer be trusted and
    /// the server should close it after replying.
    pub fn is_fatal(&self) -> bool {
        matches!(
            self,
            ServeError::BadFrame(_) | ServeError::Io(_) | ServeError::TimedOut(_)
        )
    }

    /// Rebuild a typed error from its wire `(code, message)` pair; codes
    /// a newer server might add decode as [`ServeError::Io`] with the
    /// code folded into the text.
    pub fn from_wire(code: &str, message: &str) -> ServeError {
        match code {
            "overloaded" => ServeError::Overloaded,
            "unknown_model" => ServeError::UnknownModel(message.to_owned()),
            "bad_frame" => ServeError::BadFrame(message.to_owned()),
            "bad_request" => ServeError::BadRequest(message.to_owned()),
            "shutting_down" => ServeError::ShuttingDown,
            "deadline_exceeded" => ServeError::DeadlineExceeded,
            "timed_out" => ServeError::TimedOut(message.to_owned()),
            "model" => ServeError::Model(message.to_owned()),
            "shape_mismatch" => ServeError::BadRequest(format!("shape mismatch: {message}")),
            _ => ServeError::Io(format!("{code}: {message}")),
        }
    }

    /// Human-readable detail for the `message` field.
    pub fn message(&self) -> String {
        match self {
            ServeError::Overloaded => "too many requests waiting for admission".into(),
            ServeError::UnknownModel(name) => format!("no model named {name:?} is loaded"),
            ServeError::BadFrame(m) | ServeError::BadRequest(m) | ServeError::Model(m) => m.clone(),
            ServeError::ShapeMismatch { expected, actual } => {
                format!("request built for dimensionality {expected}, model now has {actual}")
            }
            ServeError::ShuttingDown => "server is shutting down".into(),
            ServeError::DeadlineExceeded => "deadline expired before evaluation".into(),
            ServeError::TimedOut(m) => m.clone(),
            ServeError::Io(m) => m.clone(),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code(), self.message())
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        // Socket timeouts surface as `TimedOut` (macOS/Linux blocking
        // sockets) or `WouldBlock` (nonblocking emulation); both mean a
        // configured transfer deadline fired, which is its own type.
        match e.kind() {
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
                ServeError::TimedOut(e.to_string())
            }
            _ => ServeError::Io(e.to_string()),
        }
    }
}

/// Read one frame header + payload into `buf` (reused; only grows).
/// Returns `Ok(None)` on clean EOF at a frame boundary — the peer hung
/// up between requests, which is not an error.
pub fn read_frame(
    r: &mut impl Read,
    buf: &mut Vec<u8>,
    max_frame: usize,
) -> Result<Option<FrameKind>, ServeError> {
    let mut header = [0u8; 5];
    let mut got = 0;
    while got < header.len() {
        let n = r.read(&mut header[got..])?;
        if n == 0 {
            if got == 0 {
                return Ok(None);
            }
            return Err(ServeError::BadFrame(format!(
                "disconnected {got} bytes into a frame header"
            )));
        }
        got += n;
    }
    let kind = FrameKind::from_u8(header[0])
        .ok_or_else(|| ServeError::BadFrame(format!("unknown frame kind {:#04x}", header[0])))?;
    let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]) as usize;
    if len == 0 {
        return Err(ServeError::BadFrame("zero-length frame payload".into()));
    }
    if len > max_frame.min(ABS_MAX_FRAME) {
        return Err(ServeError::BadFrame(format!(
            "frame payload of {len} bytes exceeds the {max_frame}-byte limit"
        )));
    }
    buf.clear();
    buf.resize(len, 0);
    r.read_exact(buf).map_err(|e| {
        if matches!(
            e.kind(),
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
        ) {
            ServeError::TimedOut(format!("stalled {len}-byte frame payload: {e}"))
        } else {
            ServeError::BadFrame(format!("truncated frame: wanted {len} payload bytes: {e}"))
        }
    })?;
    Ok(Some(kind))
}

/// Serialize one frame into `scratch` (header + payload, reused buffer)
/// and write it with a single `write_all`, so a response is one syscall.
pub fn write_frame(
    w: &mut impl Write,
    kind: FrameKind,
    payload: &[u8],
    scratch: &mut Vec<u8>,
) -> Result<(), ServeError> {
    assert!(
        !payload.is_empty(),
        "frames carry at least one payload byte"
    );
    assert!(payload.len() <= ABS_MAX_FRAME, "frame payload too large");
    scratch.clear();
    scratch.push(kind as u8);
    scratch.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    scratch.extend_from_slice(payload);
    w.write_all(scratch)?;
    Ok(())
}

/// `EvalResp` flag bit: the response was computed by a degraded model.
pub const RESP_FLAG_DEGRADED: u8 = 0x01;

/// A parsed `EvalReq` payload, borrowing the frame buffer.
#[derive(Debug)]
pub struct EvalRequest<'a> {
    /// Model name the request targets.
    pub model: &'a str,
    /// Relative deadline budget in milliseconds (0 = no deadline).
    pub deadline_ms: u32,
    /// Number of query points.
    pub npoints: usize,
    /// Raw little-endian coordinate bytes (`npoints · d` f64s).
    pub xs_bytes: &'a [u8],
}

/// Parse an `EvalReq` payload. `dim` is looked up by the caller from the
/// model name, so coordinate-count validation happens there; this only
/// enforces the frame's own structure.
pub fn parse_eval_req(payload: &[u8]) -> Result<EvalRequest<'_>, ServeError> {
    if payload.len() < 10 {
        return Err(ServeError::BadFrame(format!(
            "eval request of {} bytes is shorter than its fixed fields",
            payload.len()
        )));
    }
    let name_len = u16::from_le_bytes([payload[0], payload[1]]) as usize;
    let Some(rest) = payload.get(2..2 + name_len) else {
        return Err(ServeError::BadFrame(format!(
            "eval request claims a {name_len}-byte model name but carries {} bytes",
            payload.len() - 2
        )));
    };
    let model = std::str::from_utf8(rest)
        .map_err(|_| ServeError::BadFrame("model name is not UTF-8".into()))?;
    let tail = &payload[2 + name_len..];
    if tail.len() < 8 {
        return Err(ServeError::BadFrame(
            "eval request truncated before deadline and point count".into(),
        ));
    }
    let deadline_ms = u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]);
    let npoints = u32::from_le_bytes([tail[4], tail[5], tail[6], tail[7]]) as usize;
    Ok(EvalRequest {
        model,
        deadline_ms,
        npoints,
        xs_bytes: &tail[8..],
    })
}

/// Serialize an `EvalReq` into `buf` (reused, cleared first).
/// `deadline_ms` of 0 means no deadline.
pub fn encode_eval_req(
    buf: &mut Vec<u8>,
    model: &str,
    deadline_ms: u32,
    npoints: usize,
    xs: &[f64],
) {
    assert!(model.len() <= u16::MAX as usize, "model name too long");
    assert!(
        npoints <= u32::MAX as usize,
        "point count overflows the frame"
    );
    buf.clear();
    buf.extend_from_slice(&(model.len() as u16).to_le_bytes());
    buf.extend_from_slice(model.as_bytes());
    buf.extend_from_slice(&deadline_ms.to_le_bytes());
    buf.extend_from_slice(&(npoints as u32).to_le_bytes());
    for &x in xs {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

/// Serialize an `EvalResp` into `buf` (reused, cleared first).
pub fn encode_eval_resp(buf: &mut Vec<u8>, ys: &[f64], degraded: bool) {
    buf.clear();
    buf.push(if degraded { RESP_FLAG_DEGRADED } else { 0 });
    buf.extend_from_slice(&(ys.len() as u32).to_le_bytes());
    for &y in ys {
        buf.extend_from_slice(&y.to_le_bytes());
    }
}

/// Parse an `EvalResp` payload into `out` (reused, cleared first).
/// Returns true when the response carries the degraded flag.
pub fn parse_eval_resp(payload: &[u8], out: &mut Vec<f64>) -> Result<bool, ServeError> {
    if payload.len() < 5 {
        return Err(ServeError::BadFrame("eval response truncated".into()));
    }
    let flags = payload[0];
    if flags & !RESP_FLAG_DEGRADED != 0 {
        return Err(ServeError::BadFrame(format!(
            "eval response carries unknown flags {flags:#04x}"
        )));
    }
    let n = u32::from_le_bytes([payload[1], payload[2], payload[3], payload[4]]) as usize;
    let body = &payload[5..];
    if body.len() != n * 8 {
        return Err(ServeError::BadFrame(format!(
            "eval response claims {n} points but carries {} value bytes",
            body.len()
        )));
    }
    out.clear();
    out.reserve(n);
    for chunk in body.chunks_exact(8) {
        out.push(f64::from_le_bytes(chunk.try_into().unwrap()));
    }
    Ok(flags & RESP_FLAG_DEGRADED != 0)
}

/// Serialize a typed error into `buf` as the JSON `Error` payload.
pub fn encode_error(buf: &mut Vec<u8>, err: &ServeError) {
    let doc = sg_json::json!({
        "error": err.code(),
        "message": err.message(),
    });
    buf.clear();
    buf.extend_from_slice(doc.to_string().as_bytes());
}

/// Decode an `Error` payload back into its `(code, message)` pair.
pub fn parse_error(payload: &[u8]) -> (String, String) {
    let fallback = || String::from_utf8_lossy(payload).into_owned();
    match std::str::from_utf8(payload)
        .ok()
        .and_then(|s| sg_json::parse(s).ok())
    {
        Some(doc) => {
            let code = doc.get("error").and_then(|v| v.as_str()).map(str::to_owned);
            let msg = doc
                .get("message")
                .and_then(|v| v.as_str())
                .map(str::to_owned);
            (code.unwrap_or_else(fallback), msg.unwrap_or_default())
        }
        None => (fallback(), String::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_roundtrip() {
        let mut buf = Vec::new();
        encode_eval_req(&mut buf, "m0", 0, 2, &[0.25, 0.5, 0.75, 1.0]);
        let req = parse_eval_req(&buf).unwrap();
        assert_eq!(req.model, "m0");
        assert_eq!(req.deadline_ms, 0);
        assert_eq!(req.npoints, 2);
        assert_eq!(req.xs_bytes.len(), 4 * 8);
        let mut resp = Vec::new();
        encode_eval_resp(&mut resp, &[1.5, -2.5], false);
        let mut out = Vec::new();
        assert!(!parse_eval_resp(&resp, &mut out).unwrap());
        assert_eq!(out, [1.5, -2.5]);
    }

    #[test]
    fn deadline_and_degraded_flag_roundtrip() {
        let mut buf = Vec::new();
        encode_eval_req(&mut buf, "m", 250, 1, &[0.5]);
        let req = parse_eval_req(&buf).unwrap();
        assert_eq!(req.deadline_ms, 250);
        let mut resp = Vec::new();
        encode_eval_resp(&mut resp, &[3.25], true);
        let mut out = Vec::new();
        assert!(parse_eval_resp(&resp, &mut out).unwrap());
        assert_eq!(out, [3.25]);
        // Unknown response flags are a framing error, not silently
        // accepted: a corrupted flag byte must not decode.
        resp[0] = 0x80;
        assert!(matches!(
            parse_eval_resp(&resp, &mut out),
            Err(ServeError::BadFrame(_))
        ));
    }

    #[test]
    fn new_error_codes_roundtrip_the_wire() {
        for err in [
            ServeError::DeadlineExceeded,
            ServeError::TimedOut("read stalled".into()),
        ] {
            let mut buf = Vec::new();
            encode_error(&mut buf, &err);
            let (code, msg) = parse_error(&buf);
            assert_eq!(ServeError::from_wire(&code, &msg), err);
        }
        assert!(ServeError::TimedOut(String::new()).is_fatal());
        assert!(!ServeError::DeadlineExceeded.is_fatal());
    }

    #[test]
    fn frame_roundtrip_and_limits() {
        let mut wire = Vec::new();
        let mut scratch = Vec::new();
        write_frame(&mut wire, FrameKind::CtrlReq, b"{}", &mut scratch).unwrap();
        let mut r = &wire[..];
        let mut buf = Vec::new();
        assert_eq!(
            read_frame(&mut r, &mut buf, DEFAULT_MAX_FRAME).unwrap(),
            Some(FrameKind::CtrlReq)
        );
        assert_eq!(buf, b"{}");
        // Clean EOF at a boundary is None, not an error.
        assert_eq!(
            read_frame(&mut r, &mut buf, DEFAULT_MAX_FRAME).unwrap(),
            None
        );
    }

    #[test]
    fn zero_and_oversized_prefixes_are_typed_errors() {
        let mut buf = Vec::new();
        let zero = [0x01u8, 0, 0, 0, 0];
        match read_frame(&mut &zero[..], &mut buf, 1024) {
            Err(ServeError::BadFrame(m)) => assert!(m.contains("zero-length"), "{m}"),
            other => panic!("expected BadFrame, got {other:?}"),
        }
        let mut oversized = vec![0x10u8];
        oversized.extend_from_slice(&u32::MAX.to_le_bytes());
        match read_frame(&mut &oversized[..], &mut buf, 1024) {
            Err(ServeError::BadFrame(m)) => assert!(m.contains("exceeds"), "{m}"),
            other => panic!("expected BadFrame, got {other:?}"),
        }
        let unknown = [0x7Fu8, 1, 0, 0, 0, 9];
        assert!(matches!(
            read_frame(&mut &unknown[..], &mut buf, 1024),
            Err(ServeError::BadFrame(_))
        ));
    }

    #[test]
    fn truncated_frames_are_typed_errors() {
        // Header cut mid-way.
        let partial_header = [0x10u8, 9];
        assert!(matches!(
            read_frame(&mut &partial_header[..], &mut buf_of(), 1024),
            Err(ServeError::BadFrame(_))
        ));
        // Payload shorter than the prefix promises.
        let mut wire = vec![0x10u8];
        wire.extend_from_slice(&8u32.to_le_bytes());
        wire.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(
            read_frame(&mut &wire[..], &mut buf_of(), 1024),
            Err(ServeError::BadFrame(_))
        ));
    }

    fn buf_of() -> Vec<u8> {
        Vec::new()
    }

    #[test]
    fn error_frame_roundtrip() {
        let mut buf = Vec::new();
        encode_error(&mut buf, &ServeError::UnknownModel("m9".into()));
        let (code, msg) = parse_error(&buf);
        assert_eq!(code, "unknown_model");
        assert!(msg.contains("m9"));
    }
}
