//! The `prefixrl.serve.v1` wire protocol: newline-delimited JSON over a
//! local TCP socket (std::net only).
//!
//! Every request is one JSON object on one line; every response is one
//! JSON object on one line. Requests carry `"proto": "prefixrl.serve.v1"`
//! (optional but, when present, it must match — a future v2 server can
//! then reject v1 clients loudly instead of misparsing them) and a
//! `"cmd"`. Responses always carry `"ok": true|false`; failures add
//! `"error"`. The full schema is documented in DESIGN.md §13:
//!
//! | cmd        | request fields                  | response payload            |
//! |------------|---------------------------------|-----------------------------|
//! | `ping`     | —                               | `server`, `jobs`, `cache`   |
//! | `submit`   | `job` ([`crate::JobSpec`])      | `id`                        |
//! | `status`   | `id`, optional `tail`           | job snapshot + event tail   |
//! | `list`     | —                               | `jobs` array                |
//! | `cancel`   | `id`                            | `result`                    |
//! | `frontier` | `task`, `backend`, `n`          | `points`, `count`, `key`, `known` |
//! | `query`    | `task`, `backend`, `n`, `mode`, mode params | `key`, `known`, `found`, `point`/`points`, `epoch` |
//! | `query_batch` | `queries` array of query payloads | `results` array, `epoch`  |
//! | `repl_subscribe` | `epoch`, `from_seq`, `follower` | stream header, then `repl_snapshot`/`repl_record` lines |
//! | `cluster`  | optional `key`                  | `topology`, hub + follower state, key owner |
//! | `shutdown` | —                               | acknowledges, then stops    |
//!
//! Query modes (DESIGN.md §15): `best_at_delay` takes `delay` and
//! answers with the minimum-area point meeting it (`met: false` + the
//! fastest point when nothing does); `best_at_weight` takes `w ∈ [0, 1]`
//! and answers the scalarized argmin; `range` takes `delay_lo`/`delay_hi`
//! and answers every point inside the inclusive window. All three accept
//! `include_graph: true` to attach stored graphs. `frontier`'s `points`
//! is `null` — and `known` false — for a key never merged, distinguishing
//! it from a merged key whose front is empty (`[]`). A batch is answered
//! against one snapshot: every result reflects the same `epoch`.

use serde::Serialize as _;
use serde_json::Value;

/// The protocol identifier every request/response line is stamped with.
pub const PROTOCOL: &str = "prefixrl.serve.v1";

/// Hard cap on one request line, in bytes. A peer that sends this much
/// without a newline has lost framing (or is hostile); the server answers
/// with an error and drops the connection rather than buffering without
/// bound. Generous enough for a `query_batch` at [`crate::query::MAX_BATCH`].
pub const MAX_REQUEST_LINE: u64 = 8 * 1024 * 1024;

/// A `{"proto": PROTOCOL, "cmd": cmd, ...fields}` request — the one
/// envelope every request is built in.
pub fn request(cmd: &str, mut fields: Vec<(String, Value)>) -> Value {
    let mut entries = vec![
        ("proto".to_string(), Value::String(PROTOCOL.to_string())),
        ("cmd".to_string(), Value::String(cmd.to_string())),
    ];
    entries.append(&mut fields);
    Value::Object(entries)
}

/// The `submit` request for `spec`.
pub(crate) fn submit_request(spec: &crate::JobSpec) -> Value {
    request("submit", vec![("job".to_string(), spec.to_value())])
}

/// The job id a `submit` response carries.
///
/// # Errors
///
/// Fails when the response has no non-negative integer `id`.
pub(crate) fn submitted_id(response: &Value) -> Result<u64, String> {
    match response.get("id") {
        Some(Value::Number(n)) => n.as_u64().ok_or_else(|| "non-integer id".to_string()),
        _ => Err("submit response lacks `id`".to_string()),
    }
}

/// The `task`/`backend`/`n` fields naming one frontier key, as
/// `frontier`, `query` and every `query_batch` entry carry them. The
/// inverse is [`req_key`].
pub fn key_fields(task: &str, backend: &str, n: u16) -> Vec<(String, Value)> {
    vec![
        ("task".to_string(), task.to_value()),
        ("backend".to_string(), backend.to_value()),
        ("n".to_string(), n.to_value()),
    ]
}

/// The required `task`/`backend`/`n` key fields of a request. Names are
/// not checked for `/` here: the read verbs that must refuse aliasing
/// names call [`crate::store::validate_names`] themselves.
///
/// # Errors
///
/// Fails when a field is absent or malformed, or when `n` does not fit a
/// `u16` (a lossy cast would alias 65544 onto width 8's key).
pub fn req_key(request: &Value) -> Result<(&str, &str, u16), String> {
    let task = req_str(request, "task")?;
    let backend = req_str(request, "backend")?;
    let n_raw = req_u64(request, "n")?;
    let n = u16::try_from(n_raw).map_err(|_| format!("field `n`: width {n_raw} exceeds u16"))?;
    Ok((task, backend, n))
}

/// A `{"ok": true, ...fields}` response line.
pub fn ok_response(mut fields: Vec<(String, Value)>) -> Value {
    let mut entries = vec![
        ("ok".to_string(), Value::Bool(true)),
        ("proto".to_string(), Value::String(PROTOCOL.to_string())),
    ];
    entries.append(&mut fields);
    Value::Object(entries)
}

/// A `{"ok": false, "error": ...}` response line.
pub fn error_response(message: &str) -> Value {
    Value::Object(vec![
        ("ok".to_string(), Value::Bool(false)),
        ("proto".to_string(), Value::String(PROTOCOL.to_string())),
        ("error".to_string(), Value::String(message.to_string())),
    ])
}

/// A `{"ok": false, "error": ...}` entry answering one query of a
/// `query_batch` inline, without failing the batch.
pub(crate) fn batch_error(message: String) -> Value {
    Value::Object(vec![
        ("ok".to_string(), Value::Bool(false)),
        ("error".to_string(), Value::String(message)),
    ])
}

/// Checks a request's optional `proto` stamp against [`PROTOCOL`].
///
/// # Errors
///
/// Fails when a stamp is present and names a different protocol.
pub fn check_proto(request: &Value) -> Result<(), String> {
    match request.get("proto") {
        None => Ok(()),
        Some(Value::String(p)) if p == PROTOCOL => Ok(()),
        Some(other) => Err(format!(
            "unsupported protocol {other:?} (this server speaks `{PROTOCOL}`)"
        )),
    }
}

/// A required string field.
///
/// # Errors
///
/// Fails when the field is absent or not a string.
pub fn req_str<'a>(request: &'a Value, key: &str) -> Result<&'a str, String> {
    match request.get(key) {
        Some(Value::String(s)) => Ok(s),
        Some(other) => Err(format!("field `{key}`: expected a string, got {other:?}")),
        None => Err(format!("missing field `{key}`")),
    }
}

/// A required non-negative integer field.
///
/// # Errors
///
/// Fails when the field is absent or not a non-negative integer.
pub fn req_u64(request: &Value, key: &str) -> Result<u64, String> {
    match request.get(key) {
        Some(Value::Number(n)) => n
            .as_u64()
            .ok_or_else(|| format!("field `{key}`: expected a non-negative integer")),
        Some(other) => Err(format!("field `{key}`: expected a number, got {other:?}")),
        None => Err(format!("missing field `{key}`")),
    }
}

/// An optional non-negative integer field with a default.
///
/// # Errors
///
/// Fails when the field is present but not a non-negative integer.
pub fn opt_u64(request: &Value, key: &str, default: u64) -> Result<u64, String> {
    match request.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(_) => req_u64(request, key),
    }
}

/// A required numeric field, as `f64` (integers widen losslessly).
///
/// # Errors
///
/// Fails when the field is absent or not a number.
pub fn req_f64(request: &Value, key: &str) -> Result<f64, String> {
    match request.get(key) {
        Some(Value::Number(n)) => Ok(n.as_f64()),
        Some(other) => Err(format!("field `{key}`: expected a number, got {other:?}")),
        None => Err(format!("missing field `{key}`")),
    }
}

/// An optional boolean field with a default.
///
/// # Errors
///
/// Fails when the field is present but not a boolean.
pub fn opt_bool(request: &Value, key: &str, default: bool) -> Result<bool, String> {
    match request.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(Value::Bool(b)) => Ok(*b),
        Some(other) => Err(format!("field `{key}`: expected a boolean, got {other:?}")),
    }
}
