//! The serving front end of [`super::Server`] (Unix socket) and the
//! fleet coordinator (TCP): a blocking accept loop, a thread per
//! connection running [`protocol::serve_frames`], and one wake for
//! SIGTERM and `shutdown`, the async-signal-safe `shutdown(fd, SHUT_RD)`
//! after which every `accept` fails at once and connects are refused.

use super::protocol::{self, Request, Response};
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicI32, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;
use std::time::Duration;

static TERM: AtomicBool = AtomicBool::new(false);
/// The listener the latest [`serve`] blocks on (-1: none). The signal
/// may land on any thread, so `EINTR` cannot be relied on to wake it.
static WAKE_FD: AtomicI32 = AtomicI32::new(-1);
/// SIGTERM handlers inside their load→`shutdown` of `WAKE_FD`. [`serve`]
/// clears `WAKE_FD` and waits for zero before its listener may close.
static WAKING: AtomicUsize = AtomicUsize::new(0);

// No libc crate in the vendor set: Linux values and symbols by hand.
const SIGTERM: i32 = 15;
const SHUT_RD: i32 = 0;

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
    fn shutdown(fd: i32, how: i32) -> i32;
    fn __errno_location() -> *mut i32;
}

/// Stop the listener on `fd`, keeping errno for whatever call a signal
/// interrupted. Safety: `fd` must be an open socket.
unsafe fn wake(fd: i32) {
    let errno = *__errno_location();
    shutdown(fd, SHUT_RD);
    *__errno_location() = errno;
}

extern "C" fn on_term(_sig: i32) {
    TERM.store(true, SeqCst);
    WAKING.fetch_add(1, SeqCst);
    let fd = WAKE_FD.load(SeqCst);
    if fd >= 0 {
        // SAFETY: loaded after raising `WAKING`, so `serve` still holds
        // this listener open.
        unsafe { wake(fd) };
    }
    WAKING.fetch_sub(1, SeqCst);
}

/// One connection's byte stream, on either end: a Unix socket of the
/// single-process server, or TCP to a fleet coordinator. Both carry
/// identical frames; only connection setup differs.
pub(super) trait Conn: Read + Write + Send + Sync + 'static {
    fn try_clone_conn(&self) -> std::io::Result<Box<dyn Conn>>;
    fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()>;
}

impl Conn for UnixStream {
    fn try_clone_conn(&self) -> std::io::Result<Box<dyn Conn>> {
        Ok(Box::new(self.try_clone()?))
    }
    fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        UnixStream::set_read_timeout(self, dur)
    }
}

impl Conn for TcpStream {
    fn try_clone_conn(&self) -> std::io::Result<Box<dyn Conn>> {
        Ok(Box::new(self.try_clone()?))
    }
    fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        TcpStream::set_read_timeout(self, dur)
    }
}

/// A listening socket the front end can serve.
pub(super) trait Listener: AsRawFd + Send + Sync + 'static {
    fn accept(&self) -> std::io::Result<Box<dyn Conn>>;
}

impl Listener for UnixListener {
    fn accept(&self) -> std::io::Result<Box<dyn Conn>> {
        Ok(Box::new(UnixListener::accept(self)?.0))
    }
}

impl Listener for TcpListener {
    fn accept(&self) -> std::io::Result<Box<dyn Conn>> {
        let (s, _) = TcpListener::accept(self)?;
        let _ = s.set_nodelay(true);
        Ok(Box::new(s))
    }
}

/// Serve `listener` with `handle` until SIGTERM or `stop`. A connection
/// answered `bye` wakes the loop once that reply is written. On return
/// the listener refuses new connections.
pub(super) fn serve<L: Listener>(
    listener: Arc<L>,
    stop: &AtomicBool,
    handle: impl Fn(Request) -> Response + Send + Sync + 'static,
) {
    // SAFETY: `on_term` has the `void (*)(int)` ABI `signal` expects
    // and only touches atomics and async-signal-safe libc calls.
    unsafe { signal(SIGTERM, on_term as extern "C" fn(i32) as usize) };
    let fd = listener.as_raw_fd();
    WAKE_FD.store(fd, SeqCst);
    let handle = Arc::new(handle);
    let stopped = || TERM.load(SeqCst) || stop.load(SeqCst);
    while !stopped() {
        match listener.accept() {
            Ok(mut conn) => {
                let (listener, handle) = (Arc::clone(&listener), Arc::clone(&handle));
                let _ = std::thread::Builder::new()
                    .name("hq-conn".to_string())
                    .spawn(move || {
                        let Ok(read_half) = conn.try_clone_conn() else {
                            return;
                        };
                        let mut reader = BufReader::new(read_half);
                        if protocol::serve_frames(&mut reader, &mut conn, &*handle) {
                            // SAFETY: this thread's `Arc` holds it open.
                            unsafe { wake(listener.as_raw_fd()) };
                        }
                    });
            }
            // A stopped listener fails every `accept`: leave, do not back off.
            Err(_) if stopped() => break,
            Err(e) => {
                // Persistent errors (EMFILE): back off, do not spin.
                eprintln!("service: accept: {e}");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    // SAFETY: `listener` is held open here.
    unsafe { wake(fd) };
    let _ = WAKE_FD.compare_exchange(fd, -1, SeqCst, SeqCst);
    while WAKING.load(SeqCst) > 0 {
        std::thread::yield_now();
    }
}
