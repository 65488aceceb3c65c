//! Readiness polling for the event-loop server core.
//!
//! The repo vendors no I/O crates, so this is a deliberately small
//! epoll(7) wrapper — [`Poller`], [`Events`], [`Waker`] — declared
//! straight against the C library (Linux-only, like the rest of the
//! serving stack's performance tier). Alongside it live the two other
//! pieces of event-loop plumbing the server and the connection-scale
//! test tier share: [`BufferPool`], the bounded free list that keeps
//! frame-decode allocations off the per-connection cost sheet, and the
//! `/proc` probes ([`fd_count`], [`rss_bytes`], [`raise_nofile_limit`])
//! the `exp_conn_scale` gates are measured with.
//!
//! Design notes:
//!
//! * **One-shot.** Every registration is `EPOLLONESHOT`: an event is
//!   delivered to one waiting thread, after which the fd reports nothing
//!   until [`Poller::rearm`]. Many threads can wait on one poller, and
//!   the thread an event lands on owns that fd until it re-arms it.
//!   Readiness is still level-checked at re-arm time, so an fd that is
//!   already readable (or writable) fires again at once.
//! * **One poller, shared.** `epoll_ctl` and `epoll_wait` are
//!   thread-safe; the server's whole pool waits on a single [`Poller`],
//!   and a [`Waker`] (an `eventfd` registered like any other fd) wakes
//!   it from outside.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

#[allow(non_camel_case_types)]
type c_int = i32;
#[allow(non_camel_case_types)]
type c_uint = u32;

// epoll event mask bits and control ops (linux/eventpoll.h).
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLONESHOT: u32 = 1 << 30;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0x80000;
const EFD_CLOEXEC: c_int = 0x80000;
const EFD_NONBLOCK: c_int = 0x800;
const RLIMIT_NOFILE: c_int = 7;

/// `struct epoll_event`; packed on x86-64, which is why field reads
/// below copy the value out instead of taking references.
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[repr(C)]
struct Rlimit {
    rlim_cur: u64,
    rlim_max: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
    fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
    fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// What a registration wants to hear about. Hangup and error conditions
/// are always delivered regardless of the mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Report when the fd has bytes to read (or the peer closed).
    pub readable: bool,
    /// Report when the fd can accept writes again.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };

    /// Write-only interest — a connection waiting to flush a reply.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };

    fn mask(self) -> u32 {
        let mut m = EPOLLONESHOT;
        // A half-closed peer stays "read-hung-up" for good, so it is only
        // asked about while reading; otherwise a write-only registration
        // would fire on it again after every re-arm.
        if self.readable {
            m |= EPOLLIN | EPOLLRDHUP;
        }
        if self.writable {
            m |= EPOLLOUT;
        }
        m
    }
}

/// One delivered readiness event.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Bytes are readable (or the peer half-closed: read to find out).
    pub readable: bool,
    /// The fd can accept writes.
    pub writable: bool,
    /// Error or hangup condition; the owner should read until EOF/error
    /// and close.
    pub failed: bool,
}

/// Reusable readiness-event buffer for [`Poller::wait`].
pub struct Events {
    buf: Vec<EpollEvent>,
    len: usize,
}

impl Events {
    /// A buffer receiving at most `cap` events per wait.
    pub fn with_capacity(cap: usize) -> Events {
        Events {
            buf: vec![EpollEvent { events: 0, data: 0 }; cap.max(1)],
            len: 0,
        }
    }

    /// The events delivered by the last [`Poller::wait`].
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.buf[..self.len].iter().map(|ev| {
            let (bits, data) = (ev.events, ev.data);
            Event {
                token: data,
                readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                writable: bits & EPOLLOUT != 0,
                failed: bits & (EPOLLERR | EPOLLHUP) != 0,
            }
        })
    }
}

/// An epoll instance: register fds one-shot with a token and an
/// [`Interest`], wait for readiness, re-arm.
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// A fresh epoll instance (close-on-exec).
    pub fn new() -> io::Result<Poller> {
        let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest.mask(),
            data: token,
        };
        cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) }).map(drop)
    }

    /// Start watching `fd` for one event; it carries `token` back.
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Watch a registered `fd` for one more event, with a new interest.
    /// Fires at once if the fd is already ready for it.
    pub fn rearm(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Stop watching `fd`. Safe to call for an fd the kernel already
    /// dropped from the set (the error is surfaced, not panicked).
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, data: 0 };
        cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) }).map(drop)
    }

    /// Block until readiness (or `timeout`), filling `events`. Returns
    /// the number of events delivered; 0 means the timeout elapsed.
    /// `None` blocks indefinitely. Spurious `EINTR` wakes surface as 0.
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms: c_int = match timeout {
            None => -1,
            // Round up so a 100µs timeout doesn't spin at 0ms.
            Some(d) => d.as_millis().clamp(1, c_int::MAX as u128) as c_int,
        };
        events.len = 0;
        let n = unsafe {
            epoll_wait(
                self.epfd,
                events.buf.as_mut_ptr(),
                events.buf.len() as c_int,
                timeout_ms,
            )
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        events.len = n as usize;
        Ok(events.len)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe { close(self.epfd) };
    }
}

/// A cross-thread wakeup for a [`Poller`]: an `eventfd` registered like
/// any other fd. [`Waker::wake`] makes one waiting thread's `wait`
/// return; [`Waker::drain`] resets it, and [`Waker::rearm`] lets it be
/// delivered again (at once, if it was not drained).
pub struct Waker {
    efd: RawFd,
    token: u64,
}

impl Waker {
    /// Create the eventfd and register it with `poller` under `token`.
    pub fn new(poller: &Poller, token: u64) -> io::Result<Waker> {
        let efd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        let waker = Waker { efd, token };
        poller.register(efd, token, Interest::READ)?;
        Ok(waker)
    }

    /// Re-arm the registration after its event was delivered.
    pub fn rearm(&self, poller: &Poller) -> io::Result<()> {
        poller.rearm(self.efd, self.token, Interest::READ)
    }

    /// Wake a thread waiting on the poller. Cheap and idempotent:
    /// concurrent wakes coalesce into one readable event.
    pub fn wake(&self) {
        let one: u64 = 1;
        unsafe { write(self.efd, one.to_ne_bytes().as_ptr(), 8) };
    }

    /// Reset after a wake, so a re-armed waker stays quiet.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        unsafe { read(self.efd, buf.as_mut_ptr(), 8) };
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        unsafe { close(self.efd) };
    }
}

/// A bounded free list of frame-decode buffers.
///
/// A connection's owner borrows a buffer when a frame's length prefix
/// completes and returns it once the request is handled,
/// so steady-state decode allocation is bounded by the number of frames
/// *concurrently* in flight — not by the connection count. An idle
/// connection holds no buffer at all, which is what keeps 10k+ mostly
/// idle connections cheap. `cap` bounds the free list: returns beyond
/// it free the allocation instead of hoarding it.
pub struct BufferPool {
    free: std::sync::Mutex<Vec<Vec<u8>>>,
    cap: usize,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
}

/// Counters describing a [`BufferPool`]'s behaviour so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Borrows served from the free list.
    pub hits: u64,
    /// Borrows that had to allocate fresh.
    pub misses: u64,
    /// Buffers currently parked on the free list.
    pub free: usize,
}

impl BufferPool {
    /// A pool whose free list retains at most `cap` buffers.
    pub fn new(cap: usize) -> BufferPool {
        BufferPool {
            free: std::sync::Mutex::new(Vec::new()),
            cap,
            hits: std::sync::atomic::AtomicU64::new(0),
            misses: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Borrow a buffer of exactly `len` bytes (contents unspecified —
    /// callers overwrite every byte before trusting it).
    pub fn get(&self, len: usize) -> Vec<u8> {
        use std::sync::atomic::Ordering::Relaxed;
        if let Some(mut buf) = self.free.lock().unwrap().pop() {
            self.hits.fetch_add(1, Relaxed);
            buf.resize(len, 0);
            return buf;
        }
        self.misses.fetch_add(1, Relaxed);
        vec![0u8; len]
    }

    /// Return a borrowed buffer; freed outright if the list is full.
    pub fn put(&self, buf: Vec<u8>) {
        let mut free = self.free.lock().unwrap();
        if free.len() < self.cap {
            free.push(buf);
        }
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        use std::sync::atomic::Ordering::Relaxed;
        PoolStats {
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            free: self.free.lock().unwrap().len(),
        }
    }
}

/// Open file descriptors of this process, by counting `/proc/self/fd`.
/// The readdir handle itself is included, so compare deltas, not
/// absolutes. This is what the connection-scale tier asserts leak
/// freedom with.
pub fn fd_count() -> io::Result<usize> {
    Ok(std::fs::read_dir("/proc/self/fd")?.count())
}

/// Resident set size of this process in bytes (from `/proc/self/status`
/// `VmRSS`).
pub fn rss_bytes() -> io::Result<u64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kib: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("VmRSS: {e}")))?;
            return Ok(kib * 1024);
        }
    }
    Err(io::Error::new(
        io::ErrorKind::NotFound,
        "no VmRSS in /proc/self/status",
    ))
}

/// Raise `RLIMIT_NOFILE`'s soft limit to at least `min`. A privileged
/// process may raise the hard limit too, so that is attempted first;
/// otherwise the soft limit is capped at the existing hard limit.
/// Returns the resulting soft limit. Holding 10k+ sockets plus their
/// peer ends in one process blows through the usual 1024 default; the
/// connection-scale bench calls this first.
pub fn raise_nofile_limit(min: u64) -> io::Result<u64> {
    let mut lim = Rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    cvt(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) })?;
    if lim.rlim_cur >= min {
        return Ok(lim.rlim_cur);
    }
    if min > lim.rlim_max {
        let raised = Rlimit {
            rlim_cur: min,
            rlim_max: min,
        };
        if cvt(unsafe { setrlimit(RLIMIT_NOFILE, &raised) }).is_ok() {
            return Ok(min);
        }
    }
    lim.rlim_cur = min.min(lim.rlim_max);
    cvt(unsafe { setrlimit(RLIMIT_NOFILE, &lim) })?;
    Ok(lim.rlim_cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    #[test]
    fn waker_wakes_and_drains() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new(&poller, 7).unwrap();
        let mut events = Events::with_capacity(4);
        // Quiet poller times out.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(1)))
            .unwrap();
        assert_eq!(n, 0);
        waker.wake();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(100)))
            .unwrap();
        assert_eq!(n, 1);
        let ev = events.iter().next().unwrap();
        assert_eq!(ev.token, 7);
        assert!(ev.readable);
        waker.drain();
        waker.rearm(&poller).unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(1)))
            .unwrap();
        assert_eq!(n, 0, "drained waker goes quiet");
    }

    #[test]
    fn one_shot_fires_once_until_rearmed() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        use std::os::fd::AsRawFd;
        let poller = Poller::new().unwrap();
        poller
            .register(server.as_raw_fd(), 9, Interest::READ)
            .unwrap();
        let mut events = Events::with_capacity(4);
        client.write_all(b"ping").unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(n, 1, "one event for the first bytes");
        assert_eq!(events.iter().next().unwrap().token, 9);

        // The bytes are still unread, and more arrive: silent until re-armed.
        client.write_all(b"pong").unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0, "a delivered one-shot registration stays silent");

        poller.rearm(server.as_raw_fd(), 9, Interest::READ).unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(n, 1, "re-arming a readable fd fires at once");
        let ev = events.iter().next().unwrap();
        assert!(ev.token == 9 && ev.readable && !ev.failed);
    }

    #[test]
    fn socket_readiness_round_trip() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = std::net::TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        use std::os::fd::AsRawFd;
        let poller = Poller::new().unwrap();
        poller
            .register(server.as_raw_fd(), 42, Interest::READ)
            .unwrap();
        let mut events = Events::with_capacity(4);
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(5)))
            .unwrap();
        assert_eq!(n, 0, "no bytes yet");

        client.write_all(b"ping").unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(n, 1);
        let ev = events.iter().next().unwrap();
        assert_eq!(ev.token, 42);
        assert!(ev.readable && !ev.failed);

        poller.deregister(server.as_raw_fd()).unwrap();
        client.write_all(b"more").unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(5)))
            .unwrap();
        assert_eq!(n, 0, "deregistered fd is silent");
    }

    #[test]
    fn buffer_pool_recycles_up_to_cap() {
        let pool = BufferPool::new(1);
        let a = pool.get(16);
        let b = pool.get(8);
        assert_eq!((a.len(), b.len()), (16, 8));
        pool.put(a);
        pool.put(b); // beyond cap: freed
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.free), (0, 2, 1));
        let c = pool.get(32);
        assert_eq!(c.len(), 32);
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn proc_probes_answer() {
        assert!(fd_count().unwrap() > 0);
        assert!(rss_bytes().unwrap() > 0);
        let cur = raise_nofile_limit(256).unwrap();
        assert!(cur >= 256);
    }
}
