//! Regression fixture, named for the bug: `StreamSession::query_within`
//! checked its deadline before enqueueing, then waited for the worker's
//! reply with a bare `recv()` — a stalled worker blocked a
//! deadline-carrying request forever. This is the fixed shape — the
//! reply wait is `recv_deadline`. The test puts the bare `recv()` back
//! and expects the original finding.

pub fn serve_query(session: &StreamSession, deadline: Instant) -> Reply {
    session.query_within(deadline)
}

impl StreamSession {
    pub fn query_within(&self, deadline: Instant) -> Reply {
        if Instant::now() >= deadline {
            return Reply::DeadlineExceeded;
        }
        let reply_rx = self.enqueue_query();
        let reply = reply_rx.recv_deadline(deadline);
        reply.unwrap_or(Reply::DeadlineExceeded)
    }
}
