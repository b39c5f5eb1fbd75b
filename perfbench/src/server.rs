//! The `rps-serve` child process: start, set-up clock, peak memory,
//! `/metrics` scrapes, drain. Also seeds the durable tenant's directory
//! through `rps_storage`'s public API.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use rps_core::RpsEngine;
use rps_serve::Client;
use rps_storage::{encode_snapshot, FsSnapshotDir, SnapshotStore, Wal};

use crate::check::Oracle;
use crate::gen::{DurableSeed, Workload};

/// How to start the server for one workload.
#[derive(Debug, Clone)]
pub struct Launch {
    pub bin: PathBuf,
    /// Tenant name and dimensions.
    pub tenant: (String, Vec<usize>),
    /// Durable data directory and `--snapshot-records`.
    pub durable: Option<(PathBuf, u64)>,
    /// `--timing on`: the server records its latency histograms.
    pub timing: bool,
    /// CPUs the server runs on (through `taskset`), if pinned.
    pub cpus: Option<String>,
}

/// A running server. Dropping it kills and reaps the process.
#[derive(Debug)]
pub struct Server {
    child: Option<Child>,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Launch {
    pub fn new(bin: &Path, w: &Workload, data_dir: Option<&Path>, cpus: Option<&str>) -> Launch {
        Launch {
            cpus: cpus.map(str::to_string),
            bin: bin.to_path_buf(),
            tenant: w.tenant.clone(),
            durable: match (data_dir, &w.durable) {
                (Some(dir), Some(seed)) => Some((dir.to_path_buf(), seed.records_per_checkpoint)),
                _ => None,
            },
            timing: false,
        }
    }

    /// Starts the server and returns it with its set-up time: from
    /// process start (it binds first) until it reports that the tenant
    /// is provisioned or recovered and it is listening.
    pub fn start(&self) -> Result<(Server, Duration), String> {
        let mut cmd = match &self.cpus {
            Some(cpus) => {
                let mut c = Command::new("taskset");
                c.args(["-c", cpus]).arg(&self.bin);
                c
            }
            None => Command::new(&self.bin),
        };
        cmd.args(["--addr", "127.0.0.1:0"]);
        let (name, dims) = &self.tenant;
        let dims: Vec<String> = dims.iter().map(ToString::to_string).collect();
        cmd.arg("--tenant")
            .arg(format!("{name}={}", dims.join("x")));
        if let Some((dir, records)) = &self.durable {
            cmd.arg("--data-dir").arg(dir);
            cmd.args(["--snapshot-records", &records.to_string()]);
            // The record count is the only trigger.
            cmd.args(["--snapshot-wal-bytes", &u64::MAX.to_string()]);
        }
        if self.timing {
            cmd.args(["--timing", "on"]);
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let t0 = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", self.bin.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _reap = child.kill().and_then(|()| child.wait());
            return Err("no server stdout".to_string());
        };
        let mut server = Server {
            child: Some(child),
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        let read = server.stdout.read_line(&mut line);
        let setup = t0.elapsed();
        read.map_err(|e| format!("server stdout: {e}"))?;
        let addr = line
            .trim()
            .strip_prefix("rps-serve listening on ")
            .ok_or_else(|| format!("server did not start: {line:?}"))?;
        server.addr = addr
            .parse()
            .map_err(|e| format!("server address {addr:?}: {e}"))?;
        Ok((server, setup))
    }
}

impl Server {
    fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    /// Peak resident memory of the server process so far, in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let pid = self.pid().ok_or("server gone")?;
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
        let kib: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM in /proc status")?;
        Ok(kib / 1024.0)
    }

    /// Drains the server through a wire `shutdown` and waits for it to
    /// exit; a non-zero exit (e.g. a failed final checkpoint) is an error.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut client =
            Client::connect(self.addr).map_err(|e| format!("connect for shutdown: {e}"))?;
        client
            .shutdown()
            .map_err(|e| format!("shutdown request: {e}"))?;
        let mut rest = String::new();
        let _drain_report_is_informational = self.stdout.read_to_string(&mut rest);
        let mut child = self.child.take().ok_or("server gone")?;
        let status = child.wait().map_err(|e| format!("wait for server: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("server exited with {status}: {rest}"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _already_exited_is_fine = child.kill();
            let _reap = child.wait();
        }
    }
}

/// Scrapes `/metrics` and sums `name` over every label set.
pub fn scrape_sum(addr: SocketAddr, name: &str) -> Result<f64, String> {
    let text = rps_serve::scrape_metrics(addr).map_err(|e| format!("scrape /metrics: {e}"))?;
    Ok(text
        .lines()
        .filter(|l| {
            l.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with('{') || rest.starts_with(' '))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum())
}

/// Writes the durable tenant's directory as a server would have left
/// it: a WAL holding every record of `seed.history`, and one snapshot
/// at `seed.snapshot_lsn`. Returns the oracle of the full history.
pub fn seed_durable(
    root: &Path,
    name: &str,
    dims: &[usize],
    seed: &DurableSeed,
) -> Result<Oracle, String> {
    let dir = root.join(name);
    let snap_dir = dir.join("snapshots");
    std::fs::create_dir_all(&snap_dir)
        .map_err(|e| format!("create {}: {e}", snap_dir.display()))?;
    let mut wal = Wal::open(&dir.join("wal.log")).map_err(|e| e.to_string())?;
    let mut oracle = Oracle::new(dims);
    let box_size = RpsEngine::<i64>::zeros(dims)
        .map_err(|e| e.to_string())?
        .grid()
        .box_size()
        .to_vec();
    for (i, (coords, delta)) in seed.history.iter().enumerate() {
        wal.append(coords, *delta).map_err(|e| e.to_string())?;
        oracle.add(coords, *delta);
        if i as u64 + 1 == seed.snapshot_lsn {
            let bytes = encode_snapshot(seed.snapshot_lsn, dims, &box_size, oracle.cells())
                .map_err(|e| e.to_string())?;
            let mut store = FsSnapshotDir::open(&snap_dir).map_err(|e| e.to_string())?;
            store
                .write(seed.snapshot_lsn, &bytes)
                .map_err(|e| e.to_string())?;
        }
    }
    wal.sync().map_err(|e| e.to_string())?;
    Ok(oracle)
}

/// Copies a directory tree (the pristine seed, before each restart).
pub fn copy_tree(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let target = to.join(entry.file_name());
        if entry.file_type().map_err(|e| e.to_string())?.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)
                .map_err(|e| format!("copy {}: {e}", target.display()))?;
        }
    }
    Ok(())
}

/// The filesystem type holding `path`, from /proc/self/mounts.
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mnt, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mnt).then(|| (mnt.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}
