//! Regression fixture, named for the bug: the front door's accept loop
//! used to read, parse and serve each connection inline, so one slow
//! client head-of-line-blocked every pending connection. This is the
//! fixed shape — the loop hands the connection to a scoped handler
//! thread (a spawn edge, which `hot-path-blocking` cuts). The test
//! puts the inline call back and expects the original finding.

fn accept_loop(listener: TcpListener, session: &Session) {
    std::thread::scope(|scope| {
        for conn in listener.incoming() {
            let Ok(mut stream) = conn else { continue };
            scope.spawn(move || serve_one(&mut stream, session));
        }
    });
}

fn serve_one(stream: &mut TcpStream, session: &Session) {
    let mut body = String::new();
    let _ = stream.read_to_string(&mut body);
    let reply = format!("{{\"accepted\":{}}}", session.apply(&body));
    let _ = stream.write_all(reply.as_bytes());
}
