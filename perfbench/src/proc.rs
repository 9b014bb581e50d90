//! Child processes of the end-to-end runs: wall time, peak resident set
//! and exit status of each `repro` invocation, plus the closed-loop client
//! of a `repro serve` session.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A child still running longer than this is killed; the invocation then
/// counts as failed. Every workload command takes well under a second.
const DEADLINE: Duration = Duration::from_secs(60);

/// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 longs of which
/// `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, signal: i32) -> i32;
}

const SIGKILL: i32 = 9;

/// What one finished invocation produced.
pub struct Finished {
    pub stdout: Vec<u8>,
    pub stderr: Vec<u8>,
    pub wall: Duration,
    pub peak_rss_kib: i64,
    /// Exited normally with code 0.
    pub success: bool,
}

/// Kills its child if it has not been disarmed before the deadline.
struct Watchdog {
    disarm: mpsc::Sender<()>,
    thread: JoinHandle<()>,
}

impl Watchdog {
    fn arm(pid: u32) -> Watchdog {
        let (disarm, disarmed) = mpsc::channel::<()>();
        let thread = std::thread::spawn(move || {
            if disarmed.recv_timeout(DEADLINE) == Err(mpsc::RecvTimeoutError::Timeout) {
                // SAFETY: `kill` only sends a signal; the pid is our own
                // child, which is not reaped before the watchdog is joined.
                unsafe { kill(pid as i32, SIGKILL) };
            }
        });
        Watchdog { disarm, thread }
    }

    fn disarm(self) {
        let _ = self.disarm.send(());
        self.thread.join().expect("watchdog thread does not panic");
    }
}

/// Reaps `child` with `wait4`, returning (exited with 0, peak RSS in KiB).
fn reap(child: &Child) -> io::Result<(bool, i64)> {
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: both pointers refer to live, correctly sized locals, and the
    // pid belongs to a child this process spawned and has not reaped.
    let reaped = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
    if reaped < 0 {
        return Err(io::Error::last_os_error());
    }
    let exited_zero = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok((exited_zero, usage.maxrss))
}

fn command(repro: &Path, args: &[&str], threads: u32) -> Command {
    let mut command = Command::new(repro);
    command
        .args(args)
        .env("RAYON_NUM_THREADS", threads.to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    command
}

/// Runs `repro args...` to completion with `threads` worker threads.
pub fn run(repro: &Path, args: &[&str], threads: u32) -> io::Result<Finished> {
    let start = Instant::now();
    let mut child = command(repro, args, threads).stdin(Stdio::null()).spawn()?;
    let watchdog = Watchdog::arm(child.id());
    let mut stdout = Vec::new();
    let mut stderr = Vec::new();
    // stderr carries a few progress lines, far below a pipe buffer, so
    // draining stdout first cannot deadlock.
    child
        .stdout
        .take()
        .expect("piped")
        .read_to_end(&mut stdout)?;
    child
        .stderr
        .take()
        .expect("piped")
        .read_to_end(&mut stderr)?;
    watchdog.disarm();
    let (success, peak_rss_kib) = reap(&child)?;
    Ok(Finished {
        stdout,
        stderr,
        wall: start.elapsed(),
        peak_rss_kib,
        success,
    })
}

/// Reads one reply of `lines` lines (a multi-line reply, such as `hist`,
/// is a head line plus its indented body) and returns it without the
/// final newline. A reply cut short by end of stream is returned as read.
pub fn read_reply(reader: &mut impl BufRead, lines: usize) -> io::Result<String> {
    let mut reply = String::new();
    for _ in 0..lines {
        if reader.read_line(&mut reply)? == 0 {
            break;
        }
    }
    if reply.ends_with('\n') {
        reply.pop();
    }
    Ok(reply)
}

/// One `repro serve` session driven as a closed loop by a single client:
/// each query is written only after the previous reply was read.
pub struct ServeSession {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    watchdog: Option<Watchdog>,
    start: Instant,
}

impl ServeSession {
    pub fn start(repro: &Path, corpus: &Path) -> io::Result<ServeSession> {
        let start = Instant::now();
        let corpus = corpus.to_str().expect("work paths are UTF-8");
        let mut child = command(repro, &["serve", "--corpus", corpus], 1)
            .stdin(Stdio::piped())
            .spawn()?;
        let watchdog = Some(Watchdog::arm(child.id()));
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped"));
        Ok(ServeSession {
            child,
            stdin,
            stdout,
            watchdog,
            start,
        })
    }

    /// Sends `query` and reads a reply of `lines` lines; returns the reply
    /// and the time from writing the query to reading its last line.
    pub fn ask(&mut self, query: &str, lines: usize) -> io::Result<(String, Duration)> {
        let stdin = self.stdin.as_mut().expect("session is open");
        let line = format!("{query}\n");
        let sent = Instant::now();
        stdin.write_all(line.as_bytes())?;
        let reply = read_reply(&mut self.stdout, lines)?;
        Ok((reply, sent.elapsed()))
    }

    /// Ends the session (EOF on stdin) and reaps the server.
    pub fn finish(mut self) -> io::Result<Finished> {
        drop(self.stdin.take());
        let mut stdout = Vec::new();
        self.stdout.read_to_end(&mut stdout)?;
        let mut stderr = Vec::new();
        self.child
            .stderr
            .take()
            .expect("piped")
            .read_to_end(&mut stderr)?;
        self.watchdog.take().expect("armed once").disarm();
        let (success, peak_rss_kib) = reap(&self.child)?;
        Ok(Finished {
            stdout,
            stderr,
            wall: self.start.elapsed(),
            peak_rss_kib,
            success,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_line_replies_are_read_whole() {
        let transcript = "policy=adaptive speedup histogram\n   1.10x | ### 3\n   1.15x | # 1\n\
                          reports=1 jobs=4 cycles=100\n";
        let mut reader = io::Cursor::new(transcript);
        assert_eq!(
            read_reply(&mut reader, 3).unwrap(),
            "policy=adaptive speedup histogram\n   1.10x | ### 3\n   1.15x | # 1"
        );
        assert_eq!(
            read_reply(&mut reader, 1).unwrap(),
            "reports=1 jobs=4 cycles=100"
        );
        // End of stream: an empty reply, never a hang or a panic.
        assert_eq!(read_reply(&mut reader, 2).unwrap(), "");
    }
}
