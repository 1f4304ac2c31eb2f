//! Readiness-based I/O polling for the event-loop server.
//!
//! Unlike the other directories under `shims/` — which are offline
//! stand-ins for third-party crates — this is *first-party*
//! infrastructure written for qrec and linted like any hot-path crate.
//! It wraps Linux `epoll` behind a small safe API in the style of
//! `mio`:
//!
//! * [`Poller`] — an epoll instance: `register` / `reregister` /
//!   `deregister` file descriptors with a [`Token`] and an
//!   [`Interest`], then [`Poller::wait`] for readiness [`Event`]s.
//! * [`Waker`] — an `eventfd` the *completion side* (decode workers,
//!   shutdown) writes to from any thread to make a blocked
//!   [`Poller::wait`] return immediately.
//!
//! Everything is level-triggered: a socket with unread input (or free
//! outgoing buffer space under write interest) keeps reporting ready,
//! so partial reads and short writes need no edge-triggered re-arm
//! protocol. All `unsafe` is confined to the FFI calls in `sys`; the
//! public surface is safe.

#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!("shims/polling implements epoll and supports Linux only");

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::time::Duration;

/// Raw libc bindings. The build environment has no `libc` crate, so the
/// five syscall wrappers the poller needs are declared here directly;
/// they link against the libc every Rust std binary already carries.
mod sys {
    use std::os::raw::{c_int, c_uint, c_void};

    /// Mirrors `struct epoll_event`. On x86-64 Linux the kernel ABI is
    /// packed (no padding between the 32-bit mask and the 64-bit data).
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const EFD_CLOEXEC: c_int = 0o2000000;
    pub const EFD_NONBLOCK: c_int = 0o4000;

    pub const SOL_SOCKET: c_int = 1;
    pub const SO_SNDBUF: c_int = 7;

    extern "C" {
        pub fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    }
}

/// Identifies a registered file descriptor in the events a
/// [`Poller::wait`] call reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub usize);

/// Which readiness a registration cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    read: bool,
    write: bool,
}

impl Interest {
    /// Readable readiness only.
    pub const READABLE: Interest = Interest {
        read: true,
        write: false,
    };
    /// Writable readiness only.
    pub const WRITABLE: Interest = Interest {
        read: false,
        write: true,
    };
    /// Both readable and writable readiness.
    pub const BOTH: Interest = Interest {
        read: true,
        write: true,
    };
    /// No readiness: the fd stays registered but reports nothing.
    /// Used to park the accept socket during an `accept` backoff.
    pub const NONE: Interest = Interest {
        read: false,
        write: false,
    };

    /// True when read readiness is requested.
    pub fn is_readable(self) -> bool {
        self.read
    }

    /// True when write readiness is requested.
    pub fn is_writable(self) -> bool {
        self.write
    }

    fn mask(self) -> u32 {
        let mut m = 0;
        if self.read {
            // RDHUP distinguishes an orderly peer close from silence,
            // so idle connections and dead ones are told apart without
            // a read() probe.
            m |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if self.write {
            m |= sys::EPOLLOUT;
        }
        m
    }
}

impl std::ops::BitOr for Interest {
    type Output = Interest;
    fn bitor(self, rhs: Interest) -> Interest {
        Interest {
            read: self.read || rhs.read,
            write: self.write || rhs.write,
        }
    }
}

/// One readiness notification.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: Token,
    /// The fd has input (or a pending accept) to consume.
    pub readable: bool,
    /// The fd can accept more outgoing bytes.
    pub writable: bool,
    /// The peer closed its end (or the fd errored); a subsequent read
    /// reports the detail.
    pub hangup: bool,
}

/// Reusable buffer of [`Event`]s filled by [`Poller::wait`].
#[derive(Debug, Default)]
pub struct Events {
    ready: Vec<Event>,
}

impl Events {
    /// An empty event buffer.
    pub fn new() -> Events {
        Events::default()
    }

    /// Events reported by the last [`Poller::wait`].
    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.ready.iter()
    }

    /// Number of events from the last wait.
    pub fn len(&self) -> usize {
        self.ready.len()
    }

    /// True when the last wait timed out with nothing ready.
    pub fn is_empty(&self) -> bool {
        self.ready.is_empty()
    }
}

/// Capacity of the raw event buffer handed to one `epoll_wait` call.
/// Level triggering makes the exact value uncritical: readiness not
/// reported this tick is reported on the next.
const WAIT_BATCH: usize = 256;

/// A readiness poller: one epoll instance plus the scratch buffer for
/// kernel events.
///
/// Not `Sync` by design — one event-loop thread owns it. Cross-thread
/// signalling goes through a [`Waker`], which is freely shareable.
#[derive(Debug)]
pub struct Poller {
    epfd: OwnedFd,
}

impl Poller {
    /// Create a new epoll instance (close-on-exec).
    ///
    /// # Errors
    ///
    /// The OS error when the kernel refuses a new epoll instance
    /// (typically fd exhaustion).
    pub fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 takes no pointers; a negative return is
        // mapped to errno below and a valid fd is owned immediately.
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: fd was just returned by epoll_create1 and is owned by
        // nothing else; OwnedFd takes over closing it.
        let epfd = unsafe { OwnedFd::from_raw_fd(fd) };
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: std::os::raw::c_int, fd: RawFd, mask: u32, token: Token) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events: mask,
            data: token.0 as u64,
        };
        // SAFETY: epfd and fd are live descriptors and `ev` outlives
        // the call; the kernel copies the struct before returning.
        let rc = unsafe { sys::epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Start watching `fd` for `interest`, reporting events as `token`.
    ///
    /// # Errors
    ///
    /// The OS error (e.g. the fd is already registered or invalid).
    pub fn register(&self, fd: &impl AsRawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd.as_raw_fd(), interest.mask(), token)
    }

    /// Change the interest (and token) of an already registered fd.
    ///
    /// # Errors
    ///
    /// The OS error (e.g. the fd was never registered).
    pub fn reregister(
        &self,
        fd: &impl AsRawFd,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd.as_raw_fd(), interest.mask(), token)
    }

    /// Stop watching `fd`. Closing a registered fd deregisters it
    /// implicitly; this exists for fds that outlive their registration.
    ///
    /// # Errors
    ///
    /// The OS error (e.g. the fd was never registered).
    pub fn deregister(&self, fd: &impl AsRawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd.as_raw_fd(), 0, Token(0))
    }

    /// Block until at least one registered fd is ready, the timeout
    /// elapses (`events` left empty), or a [`Waker`] fires. A signal
    /// interrupting the wait is treated as a zero-event wakeup.
    ///
    /// # Errors
    ///
    /// The OS error for anything other than `EINTR`.
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        events.ready.clear();
        let timeout_ms: std::os::raw::c_int = match timeout {
            None => -1,
            // Round up so a 100µs timeout still sleeps rather than
            // degenerating into a busy loop of zero-timeouts.
            Some(t) => t
                .as_millis()
                .max(u128::from(!t.is_zero()))
                .min(i32::MAX as u128) as std::os::raw::c_int,
        };
        let mut raw = [sys::EpollEvent { events: 0, data: 0 }; WAIT_BATCH];
        // SAFETY: `raw` provides WAIT_BATCH valid writable slots and epfd
        // is a live epoll descriptor; the kernel writes at most that many.
        let rc = unsafe {
            sys::epoll_wait(
                self.epfd.as_raw_fd(),
                raw.as_mut_ptr(),
                WAIT_BATCH as std::os::raw::c_int,
                timeout_ms,
            )
        };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        for slot in raw.iter().take(rc as usize) {
            let mask = slot.events;
            events.ready.push(Event {
                token: Token(slot.data as usize),
                readable: mask & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                writable: mask & sys::EPOLLOUT != 0,
                hangup: mask & (sys::EPOLLHUP | sys::EPOLLERR | sys::EPOLLRDHUP) != 0,
            });
        }
        Ok(events.ready.len())
    }
}

/// Cap a socket's kernel send buffer (`SO_SNDBUF`).
///
/// Without a cap, Linux auto-tunes the send buffer toward
/// `net.ipv4.tcp_wmem[2]` (commonly megabytes), so a peer that stops
/// reading can park that much server memory in the kernel before the
/// caller's own userspace write queue ever backs up. Event loops that
/// enforce per-connection outbox limits set this to the same order as
/// those limits so their backpressure actually engages. The kernel
/// doubles the value for bookkeeping and clamps it to its per-socket
/// minimum; both are fine for this purpose.
///
/// # Errors
///
/// The OS error when the socket refuses the option (e.g. a closed fd).
pub fn set_send_buffer_size(socket: &impl AsRawFd, bytes: usize) -> io::Result<()> {
    let val: std::os::raw::c_int = bytes.min(i32::MAX as usize) as std::os::raw::c_int;
    // SAFETY: the fd is a live socket borrowed from `socket`; the value
    // pointer/length describe a valid c_int the kernel copies.
    let rc = unsafe {
        sys::setsockopt(
            socket.as_raw_fd(),
            sys::SOL_SOCKET,
            sys::SO_SNDBUF,
            (&val as *const std::os::raw::c_int).cast(),
            std::mem::size_of::<std::os::raw::c_int>() as u32,
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// A cross-thread wakeup handle: an `eventfd` registered with the
/// poller. Any thread may call [`Waker::wake`]; the owning loop sees a
/// readable event on the waker's token and calls [`Waker::drain`].
///
/// Writes accumulate in the eventfd counter, so any number of `wake`
/// calls between two loop ticks collapse into a single readiness event.
#[derive(Debug)]
pub struct Waker {
    efd: OwnedFd,
}

impl Waker {
    /// Create an eventfd and register it (readable) with `poller` under
    /// `token`.
    ///
    /// # Errors
    ///
    /// The OS error from eventfd creation or registration.
    pub fn new(poller: &Poller, token: Token) -> io::Result<Waker> {
        // SAFETY: eventfd takes no pointers; a negative return maps to
        // errno and a valid fd is owned immediately.
        let fd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: fd was just returned by eventfd and nothing else owns
        // it; OwnedFd takes over closing it.
        let efd = unsafe { OwnedFd::from_raw_fd(fd) };
        poller.register(&efd, token, Interest::READABLE)?;
        Ok(Waker { efd })
    }

    /// Wake the poller. Safe from any thread, never blocks: the
    /// eventfd is non-blocking and saturation (`EAGAIN` after 2^64-2
    /// accumulated wakes) still leaves the fd readable, which is all a
    /// wakeup needs.
    ///
    /// # Errors
    ///
    /// The OS error for failures other than `EAGAIN`.
    pub fn wake(&self) -> io::Result<()> {
        let one: u64 = 1;
        // SAFETY: the buffer is 8 valid bytes (an eventfd write must be
        // exactly a u64) and efd is a live descriptor.
        let rc = unsafe {
            sys::write(
                self.efd.as_raw_fd(),
                std::ptr::addr_of!(one).cast(),
                std::mem::size_of::<u64>(),
            )
        };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::WouldBlock {
                return Ok(()); // counter saturated: still readable
            }
            return Err(err);
        }
        Ok(())
    }

    /// Consume pending wakeups so level-triggered polling stops
    /// reporting the waker readable. Called by the loop when it sees
    /// the waker's token.
    pub fn drain(&self) {
        let mut count: u64 = 0;
        // SAFETY: the buffer is 8 valid writable bytes; an eventfd read
        // transfers exactly a u64 and resets it. EAGAIN is benign.
        let _ = unsafe {
            sys::read(
                self.efd.as_raw_fd(),
                std::ptr::addr_of_mut!(count).cast(),
                std::mem::size_of::<u64>(),
            )
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    const T_LISTEN: Token = Token(0);
    const T_WAKER: Token = Token(1);
    const T_CONN: Token = Token(2);

    #[test]
    fn timeout_expires_with_no_events() {
        let poller = Poller::new().unwrap();
        let mut events = Events::new();
        let t0 = Instant::now();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(30)))
            .unwrap();
        assert_eq!(n, 0);
        assert!(events.is_empty());
        assert!(t0.elapsed() >= Duration::from_millis(25), "really slept");
    }

    #[test]
    fn waker_unblocks_wait_from_another_thread() {
        let poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new(&poller, T_WAKER).unwrap());
        let w = std::sync::Arc::clone(&waker);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            w.wake().unwrap();
        });
        let mut events = Events::new();
        let t0 = Instant::now();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(n, 1);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "woke long before the timeout"
        );
        let ev = events.iter().next().unwrap();
        assert_eq!(ev.token, T_WAKER);
        assert!(ev.readable);
        waker.drain();
        // Drained: the waker no longer reports readable.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0, "drained waker is quiet");
        h.join().unwrap();
    }

    #[test]
    fn multiple_wakes_collapse_into_one_event() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new(&poller, T_WAKER).unwrap();
        for _ in 0..100 {
            waker.wake().unwrap();
        }
        let mut events = Events::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(1)))
            .unwrap();
        assert_eq!(n, 1, "level-triggered waker coalesces");
        waker.drain();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0, "one drain clears all accumulated wakes");
    }

    #[test]
    fn listener_reports_readable_on_pending_accept() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let poller = Poller::new().unwrap();
        poller
            .register(&listener, T_LISTEN, Interest::READABLE)
            .unwrap();

        let _client = TcpStream::connect(addr).unwrap();
        let mut events = Events::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events.iter().next().unwrap().token, T_LISTEN);
        let (stream, _) = listener.accept().unwrap();

        // A fresh connection with an empty send buffer is writable.
        stream.set_nonblocking(true).unwrap();
        poller
            .register(&stream, T_CONN, Interest::WRITABLE)
            .unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(n >= 1);
        let ev = events.iter().find(|e| e.token == T_CONN).unwrap();
        assert!(ev.writable);
    }

    #[test]
    fn reregister_switches_interest_and_none_parks() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let poller = Poller::new().unwrap();
        poller
            .register(&listener, T_LISTEN, Interest::READABLE)
            .unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let mut events = Events::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1, "pending accept is readable");

        // Park the listener: pending accept no longer reported.
        poller
            .reregister(&listener, T_LISTEN, Interest::NONE)
            .unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(30)))
            .unwrap();
        assert_eq!(n, 0, "parked listener is silent despite a pending accept");

        // Un-park: the still-pending accept is reported again
        // (level-triggered readiness is stateless across reregisters).
        poller
            .reregister(&listener, T_LISTEN, Interest::READABLE)
            .unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1, "un-parked listener reports the pending accept");
    }

    #[test]
    fn peer_close_reports_hangup() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller
            .register(&stream, T_CONN, Interest::READABLE)
            .unwrap();
        drop(client);
        let mut events = Events::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(n >= 1);
        let ev = events.iter().find(|e| e.token == T_CONN).unwrap();
        assert!(ev.hangup, "orderly peer close surfaces as hangup: {ev:?}");
    }

    #[test]
    fn deregistered_fd_reports_nothing() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let poller = Poller::new().unwrap();
        poller
            .register(&listener, T_LISTEN, Interest::READABLE)
            .unwrap();
        poller.deregister(&listener).unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let mut events = Events::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(30)))
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn interest_combinators() {
        assert!(Interest::READABLE.is_readable() && !Interest::READABLE.is_writable());
        assert!(Interest::WRITABLE.is_writable() && !Interest::WRITABLE.is_readable());
        let both = Interest::READABLE | Interest::WRITABLE;
        assert_eq!(both, Interest::BOTH);
        assert!(!Interest::NONE.is_readable() && !Interest::NONE.is_writable());
    }

    /// Partial-read friendliness: level triggering keeps reporting a
    /// socket readable until its input is fully consumed.
    #[test]
    fn level_triggered_readable_persists_until_drained() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        client.write_all(b"hello world\n").unwrap();

        let poller = Poller::new().unwrap();
        poller
            .register(&stream, T_CONN, Interest::READABLE)
            .unwrap();
        let mut events = Events::new();

        // Consume the payload a few bytes at a time; readiness must
        // re-report after every partial read.
        let mut got = Vec::new();
        while got.len() < 12 {
            let n = poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(n >= 1, "undrained socket stays readable");
            let mut chunk = [0u8; 4];
            let k = stream.read(&mut chunk).unwrap();
            got.extend_from_slice(&chunk[..k]);
        }
        assert_eq!(&got, b"hello world\n");
    }
}
