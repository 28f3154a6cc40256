//! Socket readiness for the reactor head: one safe wrapper around `poll(2)`
//! — and, because the crate's FFI lives in one file, [`confine`], which
//! keeps an emulated site on its own CPUs.
//!
//! The house rule is *no async runtime and no new dependency*, and std has
//! neither API, so this module declares the libc functions it needs itself
//! (std already links libc) and keeps the crate's only `unsafe` behind
//! [`wait`] and [`confine`]. Constants and types are the Linux ABI's.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_short, c_ulong};
use std::time::Duration;

/// There is data to read (or a connection to accept, or EOF).
pub(crate) const READABLE: c_short = 0x001;
/// Writing will not block.
pub(crate) const WRITABLE: c_short = 0x004;

/// `struct pollfd`: a descriptor, what to watch it for, what [`wait`] found.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: c_int,
    pub(crate) events: c_short,
    revents: c_short,
}

impl PollFd {
    pub(crate) fn listener(l: &TcpListener) -> PollFd {
        PollFd { fd: l.as_raw_fd(), events: READABLE, revents: 0 }
    }

    pub(crate) fn stream(s: &TcpStream) -> PollFd {
        PollFd { fd: s.as_raw_fd(), events: READABLE, revents: 0 }
    }

    /// Stop watching this slot: the kernel skips negative descriptors.
    pub(crate) fn ignore(&mut self) {
        self.fd = -1;
        self.revents = 0;
    }

    /// Whether the last [`wait`] reported anything here: readiness, hang-up
    /// or an error — the read or write that follows tells which.
    pub(crate) fn ready(&self) -> bool {
        self.revents != 0
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuMask) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuMask) -> c_int;
}

/// A `cpu_set_t`: one bit per CPU, 1024 of them.
type CpuMask = [u64; 16];

/// The CPUs the calling thread may run on, lowest first.
pub(crate) fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: the kernel writes at most the `size_of::<CpuMask>()` bytes it
    // is told `mask` has.
    if unsafe { sched_getaffinity(0, size_of::<CpuMask>(), &mut mask) } != 0 {
        return Vec::new();
    }
    (0..1024).filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1).collect()
}

/// Confine the calling thread — and every thread it spawns from here on,
/// which inherit the mask — to `n` of the CPUs it may run on, from the
/// `first`-th on and wrapping round. Best effort: with no more than `n` CPUs
/// to choose from, or where the kernel refuses, nothing changes.
pub(crate) fn confine(first: usize, n: usize) {
    let allowed = allowed_cpus();
    if allowed.len() <= n {
        return;
    }
    let mut mask: CpuMask = [0; 16];
    for cpu in (first..first + n).map(|i| allowed[i % allowed.len()]) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: the kernel reads the `size_of::<CpuMask>()` bytes of `mask`.
    let _ = unsafe { sched_setaffinity(0, size_of::<CpuMask>(), &mask) };
}

/// Block until a descriptor in `fds` is ready or `timeout` passes (`None` =
/// no timeout; a fraction of a millisecond rounds up, so a deadline is never
/// spun on). Returns how many entries are ready; a signal restarts the wait.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let ms =
        timeout.map_or(-1, |t| t.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as c_int);
    loop {
        // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)` structs
        // laid out as `struct pollfd`, and its length is passed with it; the
        // kernel writes only the `revents` fields.
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, ms) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::time::Instant;

    #[test]
    fn wait_times_out_on_silence_and_reports_a_written_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        let mut fds = [PollFd::listener(&listener), PollFd::stream(&server)];

        let began = Instant::now();
        assert_eq!(wait(&mut fds, Some(Duration::from_micros(20_500))).unwrap(), 0);
        assert!(began.elapsed() >= Duration::from_millis(20), "sub-ms remainders round up");

        client.write_all(b"x").unwrap();
        assert_eq!(wait(&mut fds, None).unwrap(), 1);
        assert!(!fds[0].ready() && fds[1].ready());

        fds[1].ignore();
        assert_eq!(wait(&mut fds, Some(Duration::ZERO)).unwrap(), 0, "ignored slots are skipped");
    }

    #[test]
    fn confine_narrows_the_caller_and_the_threads_it_spawns_and_nobody_else() {
        let before = allowed_cpus();
        assert!(!before.is_empty());
        let inside = std::thread::spawn(move || {
            confine(1, 1);
            let mine = allowed_cpus();
            // Asking for every CPU, or more, is a no-op rather than an error.
            confine(0, 4096);
            (mine, std::thread::spawn(allowed_cpus).join().unwrap(), allowed_cpus())
        });
        let (mine, child, after_noop) = inside.join().unwrap();
        let expected = if before.len() > 1 { vec![before[1]] } else { before.clone() };
        assert_eq!(mine, expected);
        assert_eq!(child, expected, "spawned threads inherit the mask");
        assert_eq!(after_noop, expected);
        assert_eq!(allowed_cpus(), before, "the spawning thread keeps its CPUs");
        // Wrapping: the last CPU and the first.
        if before.len() > 2 {
            let last = before.len() - 1;
            let wrapped = std::thread::spawn(move || {
                confine(last, 2);
                allowed_cpus()
            });
            assert_eq!(wrapped.join().unwrap(), vec![before[0], before[last]]);
        }
    }
}
