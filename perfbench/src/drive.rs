//! The closed-loop load generator: one thread and at most two
//! connections; each frame is sent only after the reply to the previous
//! one. Latency runs from the write of a pre-encoded request
//! to the read of its reply.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rps_serve::wire::{self, Frame, Opcode, DEFAULT_MAX_FRAME_BYTES};

use crate::check::Reply;
use crate::gen::{Kind, Req, Workload};

/// Reads that stall this long fail the run instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One connection's log: every reply in send order (frame `k` was
/// `pool[k % pool.len()]`), plus the latencies (ns) of its timed frames.
#[derive(Debug, Default)]
pub struct ConnLog {
    pub replies: Vec<Reply>,
    pub read: Vec<u64>,
    pub update: Vec<u64>,
}

impl ConnLog {
    fn record(&mut self, kind: Kind, ns: u64) {
        match kind {
            Kind::Read => self.read.push(ns),
            Kind::Update => self.update.push(ns),
        }
    }
}

/// The outcome of one closed-loop phase.
#[derive(Debug)]
pub struct Phase {
    pub conns: Vec<ConnLog>,
    /// Length of the timed part.
    pub timed: Duration,
    /// The host's steal share of this machine's busy CPU time during
    /// the timed part, if the kernel reports it.
    pub steal: Option<f64>,
}

impl Phase {
    pub fn frames(&self) -> usize {
        self.conns.iter().map(|c| c.replies.len()).sum()
    }

    pub fn failed(&self) -> usize {
        self.conns
            .iter()
            .flat_map(|c| &c.replies)
            .filter(|r| matches!(r, Reply::Failed(_)))
            .count()
    }

    /// Latencies (ns) of every timed frame of `kind`; `None` = all kinds.
    pub fn latencies(&self, kind: Option<Kind>) -> Vec<u64> {
        self.conns
            .iter()
            .flat_map(|c| {
                let (reads, updates): (&[u64], &[u64]) = match kind {
                    Some(Kind::Read) => (&c.read, &[]),
                    Some(Kind::Update) => (&[], &c.update),
                    None => (&c.read, &c.update),
                };
                reads.iter().chain(updates)
            })
            .copied()
            .collect()
    }

    /// Frames per second completed in the timed part.
    pub fn rate(&self) -> f64 {
        self.latencies(None).len() as f64 / self.timed.as_secs_f64()
    }
}

/// `(steal, busy)` CPU ticks since boot, summed over CPUs, from the
/// first line of `/proc/stat`. Busy is user, nice, system, irq, softirq
/// and steal: the time this machine wanted to run.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let f: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    let steal = *f.get(7)?;
    Some((steal, f[0] + f[1] + f[2] + f[5] + f[6] + steal))
}

fn steal_between(a: Option<(u64, u64)>, b: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, b0), (s1, b1)) = (a?, b?);
    Some((s1 - s0) as f64 / (b1 - b0).max(1) as f64)
}

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { writer: s, reader })
    }

    /// Sends one request and returns its reply and latency.
    fn call(&mut self, req: &Req) -> Result<(Reply, u64), String> {
        let t0 = Instant::now();
        self.writer
            .write_all(&req.bytes)
            .map_err(|e| format!("send: {e}"))?;
        let frame = Frame::read_from(&mut self.reader, DEFAULT_MAX_FRAME_BYTES);
        let ns = t0.elapsed().as_nanos() as u64;
        let frame = match frame {
            Ok(Ok(Some(f))) => f,
            Ok(Ok(None)) => return Err("server closed the connection".to_string()),
            Ok(Err(e)) => return Ok((Reply::Failed(format!("wire: {e}")), ns)),
            Err(e) => return Err(format!("receive: {e}")),
        };
        Ok((decode_reply(&frame), ns))
    }
}

/// Reduces a reply frame to what the checkers compare.
fn decode_reply(frame: &Frame) -> Reply {
    match frame.opcode {
        Opcode::Sums => wire::decode_sums(&frame.payload).map_or_else(
            || Reply::Failed("undecodable sums".to_string()),
            Reply::Sums,
        ),
        Opcode::Ack => wire::decode_u64(&frame.payload)
            .map_or_else(|| Reply::Failed("undecodable ack".to_string()), Reply::Ack),
        Opcode::Error => Reply::Failed(wire::decode_error(&frame.payload).map_or_else(
            || "undecodable error".to_string(),
            |(c, m)| format!("{}: {m}", c.as_str()),
        )),
        other => Reply::Failed(format!("unexpected reply opcode {other:?}")),
    }
}

/// Drives workload `w` against `addr`: `warmup`, then `timed`, from the
/// calling thread. Connection 0 paces the run; in the dashboard, after
/// every `writer_every` frames of connection 0, connection 1 sends one
/// frame and waits for its reply, so every run publishes the same
/// number of versions per read and the order of frames is fixed.
/// `on_timed` runs once, when warm-up ends.
pub fn run(
    addr: SocketAddr,
    w: &Workload,
    warmup: Duration,
    timed: Duration,
    on_timed: &mut dyn FnMut() -> Result<(), String>,
) -> Result<Phase, String> {
    let mut conns = w
        .pools
        .iter()
        .map(|_| Conn::open(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let mut logs: Vec<ConnLog> = w.pools.iter().map(|_| ConnLog::default()).collect();
    let mut send = |c: usize, k: usize, is_timed: bool| -> Result<(), String> {
        let pool = &w.pools[c];
        let req = &pool[k % pool.len()];
        let (reply, ns) = conns[c].call(req)?;
        if is_timed {
            logs[c].record(req.kind(), ns);
        }
        logs[c].replies.push(reply);
        Ok(())
    };
    let warm_end = Instant::now() + warmup;
    // Start of the timed part, with the CPU ticks at that moment.
    let mut timed_from: Option<(Instant, Option<(u64, u64)>)> = None;
    let mut k = 0usize;
    let (span, steal) = loop {
        if let Some((t0, ticks)) = timed_from {
            let span = t0.elapsed();
            if span >= timed {
                break (span, steal_between(ticks, cpu_ticks()));
            }
        } else if Instant::now() >= warm_end {
            on_timed()?;
            timed_from = Some((Instant::now(), cpu_ticks()));
        }
        let is_timed = timed_from.is_some();
        send(0, k, is_timed)?;
        k += 1;
        if let Some(every) = w.writer_every {
            if k.is_multiple_of(every) {
                send(1, k / every - 1, is_timed)?;
            }
        }
    };
    Ok(Phase {
        conns: logs,
        timed: span,
        steal,
    })
}
