//! The client side of the child's wire protocol: one request per
//! connection (the front door answers `Connection: close`), the JSON
//! mutation dialect, and the reply shapes the benchmark reads.

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::gen::Mutation;
use crate::json;

/// No request of any workload takes near this long on a healthy child;
/// one that does is a failed op rather than a hung benchmark.
const TIMEOUT: Duration = Duration::from_secs(30);

/// Status code and body of one reply.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Reply body.
    pub body: String,
}

impl Reply {
    /// True for any 2xx status.
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// Sends one request on a fresh connection and reads the reply to EOF.
///
/// # Errors
///
/// Connect, write, read or timeout failures, and replies that are not
/// HTTP.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    stream.set_nodelay(true)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| bad("reply has no header terminator"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("reply has no status code"))?;
    Ok(Reply {
        status,
        body: body.to_string(),
    })
}

/// `GET path`.
///
/// # Errors
///
/// See [`request`].
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<Reply> {
    request(addr, "GET", path, "")
}

/// `POST path` with `body`.
///
/// # Errors
///
/// See [`request`].
pub fn post(addr: SocketAddr, path: &str, body: &str) -> std::io::Result<Reply> {
    request(addr, "POST", path, body)
}

fn push_mutation(out: &mut String, m: &Mutation) {
    let op = if m.add { "add" } else { "delete" };
    let _ = write!(
        out,
        "{{\"src\":{},\"dst\":{},\"weight\":{},\"op\":\"{op}\"}}",
        m.edge.src, m.edge.dst, m.edge.weight
    );
}

/// The `POST /update` body for one mutation.
pub fn update_body(m: &Mutation) -> String {
    let mut out = String::new();
    push_mutation(&mut out, m);
    out
}

/// The `POST /batch` body for a run of mutations.
pub fn batch_body(mutations: &[Mutation]) -> String {
    let mut out = String::with_capacity(mutations.len() * 72 + 16);
    out.push_str("{\"mutations\":[");
    for (i, m) in mutations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_mutation(&mut out, m);
    }
    out.push_str("]}");
    out
}

fn value_of(v: &json::Value) -> Option<f64> {
    match v {
        // The door renders non-finite values (unreached vertices) as null.
        json::Value::Null => Some(f64::INFINITY),
        other => other.num(),
    }
}

/// The value in a `GET /query?vertex=K` reply.
pub fn vertex_value(body: &str) -> Option<f64> {
    value_of(json::parse(body).ok()?.get("value")?)
}

/// Every value in a `GET /query` reply.
pub fn all_values(body: &str) -> Option<Vec<f64>> {
    json::parse(body)
        .ok()?
        .get("values")?
        .arr()?
        .iter()
        .map(value_of)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbolt_graph::Edge;

    #[test]
    fn bodies_carry_full_precision_weights_and_ops() {
        let w = 0.1 + 0.2;
        let add = Mutation {
            edge: Edge::new(3, 7, w),
            add: true,
        };
        let del = Mutation { add: false, ..add };
        let body = update_body(&add);
        let v = json::parse(&body).unwrap();
        assert_eq!(v.get("weight").unwrap().num(), Some(w));
        assert_eq!(v.get("op").unwrap().str(), Some("add"));
        let batch = json::parse(&batch_body(&[add, del])).unwrap();
        let ms = batch.get("mutations").unwrap().arr().unwrap();
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[1].get("op").unwrap().str(), Some("delete"));
    }

    #[test]
    fn query_replies_parse_with_null_as_unreached() {
        assert_eq!(vertex_value("{\"vertex\":3,\"value\":1.25}"), Some(1.25));
        assert_eq!(
            vertex_value("{\"vertex\":3,\"value\":null}"),
            Some(f64::INFINITY)
        );
        assert_eq!(
            all_values("{\"values\":[0,null,2.5]}"),
            Some(vec![0.0, f64::INFINITY, 2.5])
        );
        assert_eq!(vertex_value("{\"error\":\"not_found\"}"), None);
    }
}
