//! `rps-perfbench`: drives one workload against an `rps-serve` child
//! process over loopback `RPSWIRE1`, checks every reply, and prints the
//! end-to-end metrics (or, with `--trace 1`, the per-layer metrics) as
//! one JSON object on the last line of standard output.
//!
//! ```text
//! rps-perfbench --workload dashboard --seed 1 --seconds 10 --trace 0 \
//!               --server-bin target/release/rps-serve --work-dir .bench_work/run
//! ```
//!
//! `perfbench/run.py` builds both binaries and supplies the last two
//! flags. Exit status 0 means every reply matched the oracle.

mod check;
mod drive;
mod gen;
mod server;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use check::Oracle;
use drive::Phase;
use gen::{Kind, Workload};
use server::{Launch, Server};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
    work_dir: PathBuf,
    server_cpus: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == flag)?;
        argv.get(i + 1).cloned()
    };
    let need = |v: Option<String>, flag: &str| v.ok_or_else(|| format!("missing {flag}"));
    let workload = need(get("--workload"), "--workload")?;
    let seed = need(get("--seed"), "--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = need(get("--seconds"), "--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match need(get("--trace"), "--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        server_bin: need(get("--server-bin"), "--server-bin")?.into(),
        work_dir: need(get("--work-dir"), "--work-dir")?.into(),
        server_cpus: get("--server-cpus"),
    })
}

/// One printed metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity; a missing figure prints as null.
            let v = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The inputs shared by every phase of one run.
struct Bench {
    args: Args,
    w: Workload,
    /// The durable tenant's pristine directory (a copy is recovered by
    /// each server start).
    seed_dir: Option<PathBuf>,
    /// The tenant's state before the first frame.
    base: Oracle,
}

impl Bench {
    /// Starts a server; durable workloads recover a fresh copy of the
    /// seed under `work_dir/<tag>`.
    fn start(&self, tag: &str, timing: bool) -> Result<(Server, Duration, Launch), String> {
        let data = match &self.seed_dir {
            Some(seed) => {
                let dir = self.args.work_dir.join(tag);
                remove_dir(&dir)?;
                server::copy_tree(seed, &dir)?;
                Some(dir)
            }
            None => None,
        };
        // Flush the copy so its write-back does not land in the timed phase.
        sync_disks()?;
        let mut launch = Launch::new(
            &self.args.server_bin,
            &self.w,
            data.as_deref(),
            self.args.server_cpus.as_deref(),
        );
        launch.timing = timing;
        let (srv, setup) = launch.start()?;
        Ok((srv, setup, launch))
    }

    /// One closed-loop phase; `on_timed` runs when warm-up ends.
    fn phase(
        &self,
        srv: &Server,
        seconds: f64,
        on_timed: &mut dyn FnMut() -> Result<(), String>,
    ) -> Result<Phase, String> {
        let warmup = Duration::from_secs_f64((0.1 * seconds).min(1.0));
        drive::run(
            srv.addr,
            &self.w,
            warmup,
            Duration::from_secs_f64(seconds),
            on_timed,
        )
    }

    /// The correctness gate for one phase, run after its server drained.
    fn verify(&self, phase: &Phase, launch: &Launch) -> Result<(), String> {
        let mut oracle = self.base.clone();
        if self.w.writer_every.is_some() {
            check::check_dashboard(
                &mut oracle,
                &self.w.pools[0],
                &phase.conns[0].replies,
                &self.w.pools[1],
                &phase.conns[1].replies,
            )?;
        } else {
            check::check_sequential(&mut oracle, &self.w.pools[0], &phase.conns[0].replies)?;
        }
        if launch.durable.is_some() {
            // Provision the tenant again: every acknowledged write must
            // survive the drain and restart.
            let (srv, _) = launch.start()?;
            let cells = read_all_cells(&srv, &self.w.tenant)?;
            srv.shutdown()?;
            check::check_recovered(&oracle, &cells)?;
        }
        Ok(())
    }
}

/// Reads every cell of the 2-D tenant, row-major, through `query_many`.
fn read_all_cells(srv: &Server, (name, dims): &(String, Vec<usize>)) -> Result<Vec<i64>, String> {
    let mut client = rps_serve::Client::connect(srv.addr).map_err(|e| e.to_string())?;
    let rows_per_frame = (8192 / dims[1]).max(1);
    let mut cells = Vec::with_capacity(dims[0] * dims[1]);
    for r0 in (0..dims[0]).step_by(rows_per_frame) {
        let regions: Vec<(Vec<usize>, Vec<usize>)> = (r0..(r0 + rows_per_frame).min(dims[0]))
            .flat_map(|r| (0..dims[1]).map(move |c| (vec![r, c], vec![r, c])))
            .collect();
        cells.extend(
            client
                .query_many(name, &regions)
                .map_err(|e| format!("read back: {e}"))?,
        );
    }
    Ok(cells)
}

fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("remove {}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}

/// CPUs online on the host (the load generator itself may be pinned to
/// fewer), from `/sys/devices/system/cpu/online`, e.g. `0-1`.
fn online_cpus() -> usize {
    let list = std::fs::read_to_string("/sys/devices/system/cpu/online").unwrap_or_default();
    list.trim()
        .split(',')
        .filter_map(|r| match r.split_once('-') {
            Some((a, b)) => Some(b.parse::<usize>().ok()? + 1 - a.parse::<usize>().ok()?),
            None => r.parse::<usize>().ok().map(|_| 1),
        })
        .sum()
}

/// Writes back every dirty page (`sync`), so the write-back of set-up
/// work does not land in a timed phase.
fn sync_disks() -> Result<(), String> {
    let status = std::process::Command::new("sync")
        .status()
        .map_err(|e| format!("sync: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("sync exited with {status}"))
    }
}

/// Prints the first failed frame and any mismatch.
fn report(phase: &Phase, verdict: &Result<(), String>) {
    for (c, conn) in phase.conns.iter().enumerate() {
        let first = conn.replies.iter().enumerate().find_map(|(k, r)| match r {
            check::Reply::Failed(why) => Some((k, why)),
            _ => None,
        });
        if let Some((k, why)) = first {
            println!("# first failed frame on connection {c}: frame {k}: {why}");
        }
    }
    if let Err(e) = verdict {
        println!("# MISMATCH: {e}");
    }
}

fn us(ns: f64) -> f64 {
    ns / 1000.0
}

/// The end-to-end metrics of one timed phase, in `BENCHMARK.json` order.
fn phase_metrics(setup: Duration, rss: f64, phase: &Phase) -> Vec<Metric> {
    let mut metrics = vec![
        ("setup_s", setup.as_secs_f64(), "s"),
        ("rss_peak_mib", rss, "MiB"),
        ("requests_per_s", phase.rate(), "1/s"),
    ];
    let mut counts = Vec::new();
    for (kind, p50, p99) in [
        (Kind::Read, "read_p50_us", "read_p99_us"),
        (Kind::Update, "update_p50_us", "update_p99_us"),
    ] {
        let mut lat = phase.latencies(Some(kind));
        lat.sort_unstable();
        counts.push(lat.len());
        metrics.push((p50, us(stats::quantile(&lat, 0.5)), "us"));
        metrics.push((p99, us(stats::quantile(&lat, 0.99)), "us"));
    }
    println!(
        "# phase: {:.2} s, {} reads, {} updates, host CPU steal {}: {}",
        phase.timed.as_secs_f64(),
        counts[0],
        counts[1],
        phase
            .steal
            .map_or("unknown".to_string(), |s| format!("{:.1} %", 100.0 * s)),
        metrics
            .iter()
            .map(|(n, v, _)| format!("{n}={v:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    metrics
}

/// Untraced run: the end-to-end metrics. The run is the workload's
/// number of timed phases, each against a freshly started server.
/// `setup_s` is the median of its per-phase values, every other metric
/// the mean: the phases mix the host's fast and slow stretches, and the
/// mean moves smoothly with their shares where the median jumps between
/// them. The mean also keeps a stall that hits a single phase.
fn end_to_end(b: &Bench) -> Result<(bool, usize, usize, Vec<Metric>), String> {
    let mut per_phase = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let phases = b.w.phases;
    for r in 0..phases {
        let (srv, setup, launch) = b.start(&format!("data{r}"), false)?;
        let phase = b.phase(&srv, b.args.seconds / phases as f64, &mut || Ok(()))?;
        let rss = srv.peak_rss_mib()?;
        srv.shutdown()?;
        let verdict = b.verify(&phase, &launch);
        report(&phase, &verdict);
        correct &= verdict.is_ok();
        attempted += phase.frames();
        failed += phase.failed();
        per_phase.push(phase_metrics(setup, rss, &phase));
    }
    let metrics = (0..per_phase[0].len())
        .map(|i| {
            let (name, _, unit) = per_phase[0][i];
            let values: Vec<f64> = per_phase.iter().map(|m| m[i].1).collect();
            let value = if name == "setup_s" {
                stats::median_f(&values)
            } else {
                stats::mean_f(&values)
            };
            (name, value, unit)
        })
        .collect();
    println!("# setup_s: the median over {phases} phases; every other metric: the mean");
    Ok((correct, attempted, failed, metrics))
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let w = gen::build(&args.workload, args.seed).ok_or_else(|| {
        format!(
            "unknown workload {:?} (expected one of {:?})",
            args.workload,
            gen::NAMES
        )
    })?;
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("create {}: {e}", args.work_dir.display()))?;
    let (name, dims) = &w.tenant;
    let (base, seed_dir) = match &w.durable {
        Some(seed) => {
            let dir = args.work_dir.join("seed");
            remove_dir(&dir)?;
            (server::seed_durable(&dir, name, dims, seed)?, Some(dir))
        }
        None => (Oracle::new(dims), None),
    };
    println!(
        "# workload={} seed={} seconds={} trace={} nproc={} data_fs={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        online_cpus(),
        server::filesystem_of(&args.work_dir)
    );
    for line in &w.describe {
        println!("# {line}");
    }
    let b = Bench {
        args,
        w,
        seed_dir,
        base,
    };
    let (correct, attempted, failed, metrics) = if b.args.trace {
        trace::run(&b)?
    } else {
        end_to_end(&b)?
    };
    println!("{}", json_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("rps-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
