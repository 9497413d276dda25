//! In-memory byte pipes and a fault-injecting relay.
//!
//! The chaos harness needs to run a *real* coordinator against *real*
//! workers under deterministic transport faults, without the
//! nondeterminism (and per-test cost) of worker processes on sockets.
//! These pipes give worker threads the same blocking `Read`/`Write`
//! interface a TCP socket has — including the failure modes that matter:
//! reads return `Ok(0)` (EOF) once the write side is gone, writes fail
//! with `BrokenPipe` once the read side is gone, and a [`PipeCloser`]
//! can sever a pipe from a third thread, which is how the in-process
//! factory "kills" a worker.
//!
//! [`relay`] sits between two pipes and pushes whole protocol frames
//! (newline-delimited lines) through a
//! [`TransportFaults`](wlan_fault::TransportFaults) schedule — the
//! transport-level analogue of the sample-level fault chains.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use wlan_fault::TransportFaults;
use wlan_math::rng::WlanRng;

/// Lock, recovering from poisoning: pipe state is a byte queue plus two
/// flags, valid after any interleaving, and transport plumbing must
/// outlive panicking test threads.
fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct PipeState {
    buf: VecDeque<u8>,
    write_closed: bool,
    read_closed: bool,
}

type Shared = Arc<(Mutex<PipeState>, Condvar)>;

/// The write end of an in-memory pipe.
pub struct PipeWriter {
    shared: Shared,
}

/// The read end of an in-memory pipe.
pub struct PipeReader {
    shared: Shared,
}

/// A handle that severs a pipe from any thread: readers see EOF,
/// writers see `BrokenPipe` — exactly what a worker process dying does
/// to its socket.
#[derive(Clone)]
pub struct PipeCloser {
    shared: Shared,
}

impl PipeCloser {
    /// Sever the pipe now (idempotent).
    pub fn close(&self) {
        let (lock, cvar) = &*self.shared;
        let mut st = locked(lock);
        st.write_closed = true;
        st.read_closed = true;
        cvar.notify_all();
    }
}

/// An unbounded in-memory pipe: `(writer, reader, closer)`.
pub fn pipe() -> (PipeWriter, PipeReader, PipeCloser) {
    let shared: Shared = Arc::new((
        Mutex::new(PipeState {
            buf: VecDeque::new(),
            write_closed: false,
            read_closed: false,
        }),
        Condvar::new(),
    ));
    (
        PipeWriter {
            shared: Arc::clone(&shared),
        },
        PipeReader {
            shared: Arc::clone(&shared),
        },
        PipeCloser { shared },
    )
}

impl Write for PipeWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        let (lock, cvar) = &*self.shared;
        let mut st = locked(lock);
        if st.read_closed {
            return Err(std::io::ErrorKind::BrokenPipe.into());
        }
        st.buf.extend(data);
        cvar.notify_all();
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        let (lock, cvar) = &*self.shared;
        locked(lock).write_closed = true;
        cvar.notify_all();
    }
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let (lock, cvar) = &*self.shared;
        let mut st = locked(lock);
        loop {
            if !st.buf.is_empty() {
                let n = out.len().min(st.buf.len());
                for slot in out.iter_mut().take(n) {
                    // The queue holds ≥ n bytes under this lock.
                    *slot = st.buf.pop_front().unwrap_or_default();
                }
                return Ok(n);
            }
            if st.write_closed || st.read_closed {
                return Ok(0);
            }
            st = cvar
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

impl Drop for PipeReader {
    fn drop(&mut self) {
        let (lock, cvar) = &*self.shared;
        locked(lock).read_closed = true;
        cvar.notify_all();
    }
}

/// Pumps newline-delimited frames from `src` to `dst` through a
/// transport-fault schedule until EOF, then drops `dst` (propagating
/// the close). Frame `i`'s fate draws from `rng.fork(i)`, so a fault
/// schedule is a pure function of the relay seed. Runs on the calling
/// thread; spawn it.
pub fn relay(src: PipeReader, dst: PipeWriter, faults: TransportFaults, rng: WlanRng) {
    let mut src = BufReader::new(src);
    let mut dst = dst;
    let mut seq: u64 = 0;
    loop {
        let mut line = Vec::new();
        match src.read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        if faults.is_clean() {
            if dst.write_all(&line).is_err() {
                return;
            }
            seq += 1;
            continue;
        }
        let delivery = faults.perturb(&line, &mut rng.fork(seq));
        seq += 1;
        if delivery.stall_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(delivery.stall_ms));
        }
        for frame in delivery.frames {
            if dst.write_all(&frame).is_err() {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipe_moves_bytes_and_eofs_on_writer_drop() {
        let (mut w, mut r, _closer) = pipe();
        w.write_all(b"hello").unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(r.read(&mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"hello");
        drop(w);
        assert_eq!(r.read(&mut buf).unwrap(), 0, "EOF after writer drop");
    }

    #[test]
    fn blocked_reader_wakes_on_write_from_another_thread() {
        let (mut w, mut r, _closer) = pipe();
        let t = std::thread::spawn(move || {
            let mut buf = [0u8; 4];
            let n = r.read(&mut buf).unwrap();
            buf[..n].to_vec()
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        w.write_all(b"ok").unwrap();
        assert_eq!(t.join().unwrap(), b"ok");
    }

    #[test]
    fn closer_kills_both_directions() {
        let (mut w, mut r, closer) = pipe();
        closer.close();
        assert_eq!(r.read(&mut [0u8; 4]).unwrap(), 0, "reader sees EOF");
        assert!(w.write_all(b"x").is_err(), "writer sees broken pipe");
    }

    #[test]
    fn reader_drop_breaks_the_writer() {
        let (mut w, r, _closer) = pipe();
        drop(r);
        assert!(w.write_all(b"x").is_err());
    }

    #[test]
    fn clean_relay_is_transparent() {
        let (mut w_in, r_in, _c1) = pipe();
        let (w_out, mut r_out, _c2) = pipe();
        let t = std::thread::spawn(move || {
            relay(
                r_in,
                w_out,
                TransportFaults::none(),
                WlanRng::seed_from_u64(1),
            )
        });
        w_in.write_all(b"alpha\nbeta\n").unwrap();
        drop(w_in);
        t.join().unwrap();
        let mut all = Vec::new();
        r_out.read_to_end(&mut all).unwrap();
        assert_eq!(all, b"alpha\nbeta\n");
    }

    #[test]
    fn chaotic_relay_propagates_eof_and_never_hangs() {
        let (mut w_in, r_in, _c1) = pipe();
        let (w_out, mut r_out, _c2) = pipe();
        let faults = TransportFaults {
            stall_ms: 1,
            ..TransportFaults::chaos(1.0)
        };
        let t = std::thread::spawn(move || relay(r_in, w_out, faults, WlanRng::seed_from_u64(2)));
        for i in 0..200 {
            writeln!(w_in, "frame number {i}").unwrap();
        }
        drop(w_in);
        t.join().unwrap();
        let mut all = Vec::new();
        r_out.read_to_end(&mut all).unwrap(); // EOF propagated: returns
        // With drops/dups/truncations anything goes content-wise; the
        // contract here is liveness plus clean shutdown.
    }
}
