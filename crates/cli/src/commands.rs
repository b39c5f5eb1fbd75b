//! The `rps-cube` subcommands, written against `io::Write` so tests can
//! capture output.

use std::error::Error;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;

use ndcube::{NdCube, Region};
use rps_analysis::Table;
use rps_core::{NaiveEngine, PrefixSumEngine, RangeSumEngine, RpsEngine, SumCount};
use rps_storage::{decode_snapshot, encode_snapshot, write_atomic, SnapshotHeader, SnapshotState};
use rps_workload::CubeGen;

use crate::args::{parse_cell, parse_dims, parse_range, Args};
use crate::csv::read_csv;
use crate::spec::{parse_schema_spec, parse_where};

/// Top-level error type for command execution.
pub type CmdResult = Result<(), Box<dyn Error>>;

/// A loaded cube file. Every file is `RPSSNAP1` (docs/FORMATS.md): one
/// artifact holds a cube (box = dims) or an RPS engine and loads with
/// its stored box; two back-to-back artifacts of one geometry, SUM then
/// COUNT, hold a facts cube.
enum CubeFile {
    /// One artifact, with the LSN in its header.
    Engine(Box<RpsEngine<i64>>, u64),
    /// Two artifacts: (sum, count) per cell.
    Facts(NdCube<SumCount<i64>>),
}

fn decode(path: &str, bytes: &[u8]) -> Result<(SnapshotHeader, Vec<i64>), Box<dyn Error>> {
    decode_snapshot(bytes).map_err(|check| format!("{path}: not an RPSSNAP1 file: {check}").into())
}

fn load(path: &str) -> Result<CubeFile, Box<dyn Error>> {
    let bytes = std::fs::read(path)?;
    let (header, cells) = decode(path, &bytes)?;
    let rest = &bytes[header.total_len()..];
    if rest.is_empty() {
        let engine = RpsEngine::restore(&header.dims, &header.box_size, cells)?;
        return Ok(CubeFile::Engine(Box::new(engine), header.lsn));
    }
    let (count_header, counts) = decode(path, rest)?;
    if count_header.dims != header.dims || count_header.total_len() != rest.len() {
        return Err(format!("{path}: neither one artifact nor a SUM/COUNT pair").into());
    }
    let facts = cells
        .into_iter()
        .zip(counts)
        .map(|(s, c)| SumCount::new(s, c));
    let facts = NdCube::from_vec(&header.dims, facts.collect())?;
    Ok(CubeFile::Facts(facts))
}

/// Loads a one-artifact file (cube or engine) and its LSN.
fn load_engine(path: &str) -> Result<(RpsEngine<i64>, u64), Box<dyn Error>> {
    match load(path)? {
        CubeFile::Engine(engine, lsn) => Ok((*engine, lsn)),
        CubeFile::Facts(_) => Err(format!("{path} is a facts file, not a cube").into()),
    }
}

/// Saves one artifact per cube in `cubes`, back to back, via
/// [`write_atomic`] (staged to `<path>.tmp`, fsynced, renamed): a failed
/// or interrupted save never destroys the existing file.
fn save(path: &str, lsn: u64, box_size: &[usize], cubes: &[&NdCube<i64>]) -> CmdResult {
    let mut bytes = Vec::new();
    for cube in cubes {
        let dims = cube.shape().dims();
        bytes.extend(encode_snapshot(lsn, dims, box_size, cube.as_slice())?);
    }
    Ok(write_atomic(Path::new(path), &bytes)?)
}

fn save_engine(path: &str, lsn: u64, engine: &RpsEngine<i64>) -> CmdResult {
    save(path, lsn, engine.grid().box_size(), &[&engine.to_cube()])
}

/// Forces every metric family in the workspace to register, so a stats
/// dump or `--metrics-file` export shows the full catalog (zeros
/// included) even when a command never touched some subsystem.
fn touch_registries() {
    let _ = rps_core::obs::core();
    let _ = rps_storage::obs::storage();
}

/// Dispatches a parsed command line.
///
/// Every command accepts `--metrics-file FILE`: after the command runs
/// (successfully or not), the process-wide metric registry is written to
/// FILE in Prometheus text format. The flag also enables latency timing
/// (`rps_obs::set_timing`) so the `*_ns` histograms populate.
pub fn run(args: &Args, out: &mut dyn Write) -> CmdResult {
    if args.optional("metrics-file").is_some() {
        rps_obs::set_timing(true);
        touch_registries();
    }
    let takes_sub = args.command == "snapshot" || args.command == "client";
    let result = if !takes_sub && args.sub.is_some() {
        Err(format!(
            "`{}` takes no sub-action (got `{}`)",
            args.command,
            args.sub.as_deref().unwrap_or_default()
        )
        .into())
    } else {
        match args.command.as_str() {
            "help" => help(out),
            "generate" => generate(args, out),
            "ingest" => ingest(args, out),
            "build" => build(args, out),
            "info" => info(args, out),
            "query" => query(args, out),
            "update" => update(args, out),
            "bench" => bench(args, out),
            "rollup" => rollup(args, out),
            "verify" => verify(args, out),
            "recover" => recover(args, out),
            "snapshot" => snapshot_cmd(args, out),
            "record" => record(args, out),
            "replay" => replay(args, out),
            "stats" => stats(args, out),
            "client" => crate::client_cmd::client(args, out),
            other => {
                help(out)?;
                Err(format!("unknown command `{other}`").into())
            }
        }
    };
    if let Some(path) = args.optional("metrics-file") {
        touch_registries();
        if let Err(e) = std::fs::write(path, rps_obs::registry().render()) {
            // A command failure outranks a failed metrics export.
            if result.is_ok() {
                return Err(e.into());
            }
        }
    }
    result
}

/// Prints usage.
pub fn help(out: &mut dyn Write) -> CmdResult {
    writeln!(
        out,
        "rps-cube — relative prefix sums for dynamic OLAP data cubes (ICDE 1999)\n\
         \n\
         commands:\n\
         \x20 generate --dims 64x64 [--seed N] [--dist uniform|sparse|zipf] --out FILE\n\
         \x20     synthesize a data cube and write it as a cube file (RPSSNAP1)\n\
         \x20 ingest   --csv FILE --spec SPEC --measure COL [--kind sum|facts] --out FILE\n\
         \x20     load facts from CSV into a cube snapshot; SPEC is per dimension\n\
         \x20     NAME:num:MIN:MAX or NAME:cat:A|B|C, comma-separated;\n\
         \x20     --kind facts keeps (sum,count) pairs for AVERAGE queries\n\
         \x20 build    --cube FILE [--k N] --out FILE\n\
         \x20     build an RPS engine snapshot from a cube (default k = ceil(sqrt(n)))\n\
         \x20 info     --file FILE\n\
         \x20     describe a snapshot (kind, dims, box size, storage)\n\
         \x20 query    --file FILE (--range LO:HI | --spec SPEC --where CLAUSE)\n\
         \x20          [--agg sum|count|avg]\n\
         \x20     range query against a cube or engine file (sum) or a facts\n\
         \x20     file (sum/count/avg); --range 0,0:63,63 uses raw\n\
         \x20     indices, --where \"AGE=37..52,REGION=East\" uses the schema\n\
         \x20 update   --file FILE (--cell R,C | --region LO:HI) --delta N\n\
         \x20     apply a point update, or add N to every cell of an\n\
         \x20     inclusive rectangle, and write the snapshot back\n\
         \x20 bench    [--dims 256x256] [--ops N] [--seed N]\n\
         \x20     compare all methods on a mixed workload (cells touched)\n\
         \x20 rollup   --file FILE --dim D --bucket B [--range LO:HI]\n\
         \x20     GROUP BY along dimension D in buckets of B (cube or engine files)\n\
         \x20 verify   [--file FILE] [--wal FILE]\n\
         \x20     audit an engine snapshot's structural invariants and/or a\n\
         \x20     write-ahead log (intact records, last LSN, torn-tail bytes)\n\
         \x20 recover  --dir DIR --wal FILE --dims 64x64 [--out FILE]\n\
         \x20     crash recovery: trim the WAL's torn tail, load the newest\n\
         \x20     valid binary snapshot (corrupt ones are quarantined aside),\n\
         \x20     replay the WAL tail past its LSN, degrade to full replay if\n\
         \x20     needed; --out saves the recovered engine\n\
         \x20 snapshot take   --dir DIR --wal FILE --dims 64x64\n\
         \x20     recover, then cut a checkpointed binary snapshot (RPSSNAP1,\n\
         \x20     see docs/FORMATS.md) into DIR\n\
         \x20 snapshot list   --dir DIR\n\
         \x20     list the snapshot chain (LSN, geometry, size)\n\
         \x20 snapshot verify --dir DIR\n\
         \x20     CRC-check every artifact; exits nonzero if any is corrupt\n\
         \x20 record   [--dims 128x128] [--ops N] [--seed N] [--ratio PCT] --out FILE\n\
         \x20     record a mixed workload as a replayable trace file\n\
         \x20 replay   --trace FILE [--method naive|chunked|prefix|rps|fenwick]\n\
         \x20     replay a trace (default: all methods, with a cost table)\n\
         \x20 stats    [--from FILE] [--format table|prom] [--watch SECS] [--count N]\n\
         \x20     dump process metrics (or pretty-print an exported FILE);\n\
         \x20     --watch re-renders every SECS seconds, --count bounds it\n\
         \x20 client ACTION --addr HOST:PORT [flags]\n\
         \x20     drive a running rps-serve server over RPSWIRE1\n\
         \x20     (docs/SERVING.md); actions:\n\
         \x20       create   --tenant T --dims 64x64\n\
         \x20       query    --tenant T --region 0,0:63,63\n\
         \x20       update   --tenant T --cell 1,2 [--delta N]\n\
         \x20       batch    --tenant T --updates \"1,2:+5;3,4:-2\"\n\
         \x20       stats    --tenant T\n\
         \x20       snapshot --tenant T     (force a durable checkpoint)\n\
         \x20       shutdown                (graceful drain)\n\
         \x20       metrics                 (scrape /metrics as text)\n\
         \x20 help\n\
         \n\
         every command also accepts --metrics-file FILE: after the command\n\
         runs, the metric registry is exported there in Prometheus text\n\
         format (see docs/OBSERVABILITY.md)\n"
    )?;
    Ok(())
}

fn generate(args: &Args, out: &mut dyn Write) -> CmdResult {
    let dims = parse_dims(args.required("dims")?)?;
    let seed = args.u64_or("seed", 42)?;
    let dist = args.optional("dist").unwrap_or("uniform");
    let path = args.required("out")?;

    let mut gen = CubeGen::new(seed);
    let cube = match dist {
        "uniform" => gen.uniform(&dims, 0, 99)?,
        "sparse" => gen.sparse(&dims, 0.1, 99)?,
        "zipf" => gen.zipf_rows(&dims, 1.0, 100)?,
        other => return Err(format!("unknown --dist `{other}`").into()),
    };
    save(path, 0, &dims, &[&cube])?;
    writeln!(
        out,
        "wrote {dist} cube {:?} ({} cells) to {path} [seed {seed}]",
        dims,
        cube.len()
    )?;
    Ok(())
}

fn ingest(args: &Args, out: &mut dyn Write) -> CmdResult {
    use rps_workload::{Dimension, Key};

    let csv_path = args.required("csv")?;
    let schema = parse_schema_spec(args.required("spec")?)?;
    let measure = args.required("measure")?;
    let out_path = args.required("out")?;

    let (header, rows) = read_csv(BufReader::new(File::open(csv_path)?))?;
    // Locate each dimension's column plus the measure column.
    let col_of = |name: &str| -> Result<usize, Box<dyn std::error::Error>> {
        header
            .iter()
            .position(|h| h.eq_ignore_ascii_case(name))
            .ok_or_else(|| format!("column `{name}` not in CSV header {header:?}").into())
    };
    let dim_cols: Vec<usize> = schema
        .dimensions()
        .iter()
        .map(|d| col_of(d.name()))
        .collect::<Result<_, _>>()?;
    let measure_col = col_of(measure)?;

    let kind = args.optional("kind").unwrap_or("sum");
    if !matches!(kind, "sum" | "facts") {
        return Err(format!("unknown --kind `{kind}` (expected sum or facts)").into());
    }
    let dims = schema.dims();
    let mut cube = NdCube::<i64>::zeros(&dims);
    let mut counts = NdCube::<i64>::zeros(&dims);
    let mut loaded = 0u64;
    let mut volume = 0i64;
    for (i, row) in rows.iter().enumerate() {
        let record = i + 2; // 1-based, after the header
        let mut keys = Vec::with_capacity(dim_cols.len());
        for (dim, &col) in dim_cols.iter().enumerate() {
            let raw = row[col].trim();
            match &schema.dimensions()[dim] {
                Dimension::Numeric { name, .. } => {
                    let v: i64 = raw
                        .parse()
                        .map_err(|e| format!("record {record}: bad {name} value `{raw}`: {e}"))?;
                    keys.push(Key::Num(v));
                }
                Dimension::Categorical { .. } => keys.push(Key::Cat(raw)),
            }
        }
        let coords = schema
            .coords(&keys)
            .map_err(|e| format!("record {record}: coordinate out of schema domain: {e}"))?;
        let amount: i64 = row[measure_col]
            .trim()
            .parse()
            .map_err(|e| format!("record {record}: bad measure `{}`: {e}", row[measure_col]))?;
        let lin = cube.shape().linear_unchecked(&coords);
        *cube.get_linear_mut(lin) += amount;
        *counts.get_linear_mut(lin) += 1;
        loaded += 1;
        volume += amount;
    }
    if kind == "facts" {
        save(out_path, 0, &dims, &[&cube, &counts])?;
    } else {
        save(out_path, 0, &dims, &[&cube])?;
    }
    writeln!(
        out,
        "ingested {loaded} facts (total measure {volume}) into {kind} cube {dims:?} → {out_path}"
    )?;
    Ok(())
}

fn build(args: &Args, out: &mut dyn Write) -> CmdResult {
    let cube_path = args.required("cube")?;
    let out_path = args.required("out")?;
    let cube = load_engine(cube_path)?.0.to_cube();
    let engine = match args.optional_usize("k")? {
        Some(k) => RpsEngine::from_cube_uniform(&cube, k)?,
        None => RpsEngine::from_cube(&cube),
    };
    save_engine(out_path, 0, &engine)?;
    writeln!(
        out,
        "built RPS engine over {:?}, box size {:?}, storage {} cells ({} overlay) → {out_path}",
        engine.shape().dims(),
        engine.grid().box_size(),
        engine.storage_cells(),
        engine.overlay().storage_cells(),
    )?;
    Ok(())
}

fn info(args: &Args, out: &mut dyn Write) -> CmdResult {
    let path = args.required("file")?;
    match load(path)? {
        CubeFile::Engine(engine, _) if engine.grid().box_size() == engine.shape().dims() => {
            writeln!(out, "{path}: cube snapshot")?;
            writeln!(out, "  dims        {:?}", engine.shape().dims())?;
            writeln!(out, "  cells       {}", engine.shape().len())?;
            writeln!(out, "  total sum   {}", engine.total())?;
        }
        CubeFile::Engine(engine, _) => {
            writeln!(out, "{path}: RPS engine snapshot")?;
            writeln!(out, "  dims        {:?}", engine.shape().dims())?;
            writeln!(out, "  box size    {:?}", engine.grid().box_size())?;
            writeln!(out, "  boxes       {}", engine.grid().num_boxes())?;
            writeln!(out, "  rp cells    {}", engine.shape().len())?;
            writeln!(
                out,
                "  overlay     {} cells ({:.2}% of RP)",
                engine.overlay().storage_cells(),
                100.0 * engine.overlay().storage_cells() as f64 / engine.shape().len() as f64
            )?;
            writeln!(out, "  total sum   {}", engine.total())?;
        }
        CubeFile::Facts(facts) => {
            let (mut sum, mut count) = (0i64, 0i64);
            for sc in facts.as_slice() {
                sum += sc.sum;
                count += sc.count;
            }
            writeln!(out, "{path}: facts snapshot (sum, count per cell)")?;
            writeln!(out, "  dims        {:?}", facts.shape().dims())?;
            writeln!(out, "  cells       {}", facts.len())?;
            writeln!(out, "  facts       {count}")?;
            writeln!(out, "  total sum   {sum}")?;
        }
    }
    Ok(())
}

fn query(args: &Args, out: &mut dyn Write) -> CmdResult {
    let path = args.required("file")?;
    // Regions come either as raw indices (--range) or attribute values
    // (--spec + --where).
    let region = match (args.optional("range"), args.optional("where")) {
        (Some(range), _) => {
            let (lo, hi) = parse_range(range)?;
            Region::new(&lo, &hi)?
        }
        (None, Some(clause)) => {
            let schema = parse_schema_spec(args.required("spec")?)?;
            parse_where(&schema, clause)?
        }
        (None, None) => return Err("query needs --range or --spec + --where".into()),
    };
    let agg = args.optional("agg").unwrap_or("sum");
    let (lo, hi) = (region.lo(), region.hi());

    // Facts files answer sum/count/avg; cube and engine files answer sum.
    let engine = match load(path)? {
        CubeFile::Engine(engine, _) => engine,
        CubeFile::Facts(facts) => {
            let engine = rps_core::aggregate::AverageCube::new(RpsEngine::from_cube(&facts));
            let answer = match agg {
                "sum" => engine.sum(&region)?.to_string(),
                "count" => engine.count(&region)?.to_string(),
                "avg" => match engine.average(&region)? {
                    Some(a) => format!("{a:.3}"),
                    None => "(no facts in region)".into(),
                },
                other => return Err(format!("unknown --agg `{other}`").into()),
            };
            writeln!(out, "{agg} over {lo:?}..={hi:?} = {answer}")?;
            return Ok(());
        }
    };
    if agg != "sum" {
        return Err(
            format!("--agg {agg} needs a facts snapshot (ingest with --kind facts)").into(),
        );
    }
    engine.reset_stats();
    let sum = engine.query(&region)?;
    writeln!(
        out,
        "sum over {lo:?}..={hi:?} = {sum}  ({} cells in region, {} cell reads)",
        region.cell_count(),
        engine.stats().cell_reads
    )?;
    Ok(())
}

fn update(args: &Args, out: &mut dyn Write) -> CmdResult {
    let path = args.required("file")?;
    let delta = args.i64_or("delta", 1)?;
    let (mut engine, lsn) = load_engine(path)?;
    engine.reset_stats();
    match (args.optional("cell"), args.optional("region")) {
        (Some(_), Some(_)) => {
            return Err("update takes --cell R,C or --region LO:HI, not both".into())
        }
        (None, None) => return Err("update needs --cell R,C or --region LO:HI".into()),
        (Some(cell_s), None) => {
            let cell = parse_cell(cell_s)?;
            engine.update(&cell, delta)?;
            let writes = engine.stats().cell_writes;
            // In-place rewrite of the only copy: go through a temp file so a
            // crash or full disk mid-save can't truncate the snapshot.
            save_engine(path, lsn, &engine)?;
            writeln!(
                out,
                "applied {delta:+} at {cell:?} ({writes} cells written); new cell value {}",
                engine.cell(&cell)?
            )?;
        }
        (None, Some(region_s)) => {
            let (lo, hi) = parse_range(region_s)?;
            let region = Region::new(&lo, &hi)?;
            engine.range_update(&region, delta)?;
            let writes = engine.stats().cell_writes;
            save_engine(path, lsn, &engine)?;
            writeln!(
                out,
                "applied {delta:+} to each of {} cells in {lo:?}..={hi:?} \
                 ({writes} cells written)",
                region.cell_count()
            )?;
        }
    }
    Ok(())
}

fn verify(args: &Args, out: &mut dyn Write) -> CmdResult {
    let file = args.optional("file");
    let wal = args.optional("wal");
    if file.is_none() && wal.is_none() {
        return Err("verify needs --file and/or --wal".into());
    }
    if let Some(path) = file {
        let (engine, _) = load_engine(path)?;
        let violations = engine.check_invariants();
        if violations.is_empty() {
            writeln!(
                out,
                "{path}: OK — RP, anchors and borders all consistent ({} cells audited)",
                engine.storage_cells()
            )?;
        } else {
            for v in violations.iter().take(10) {
                writeln!(out, "{path}: VIOLATION: {v}")?;
            }
            return Err(format!("{} structural violation(s) found", violations.len()).into());
        }
    }
    if let Some(path) = wal {
        let bytes = std::fs::read(path)?;
        let (records, valid_len) = rps_storage::decode_log(&bytes)?;
        let torn = bytes.len() as u64 - valid_len;
        let last_lsn = records.last().map_or(0, |r| r.lsn);
        if torn == 0 {
            writeln!(
                out,
                "{path}: OK — {} intact record(s), last LSN {last_lsn}, no torn tail",
                records.len()
            )?;
        } else {
            writeln!(
                out,
                "{path}: {} intact record(s), last LSN {last_lsn}; \
                 WARNING: {torn} torn trailing byte(s) — run `recover` to trim and replay",
                records.len()
            )?;
        }
    }
    Ok(())
}

/// Opens a durable engine from a checkpoint directory + WAL: the newest
/// valid binary snapshot is the base, records with higher LSNs replay
/// on top, corrupt artifacts are quarantined on the way down, and a
/// fresh `--dims` engine is the full-replay floor.
#[allow(clippy::type_complexity)]
fn recover_from_dir(
    dir: &str,
    wal: &str,
    dims: &[usize],
) -> Result<
    (
        rps_storage::DurableEngine<RpsEngine<i64>, rps_storage::FsLogFile>,
        rps_storage::RecoveryReport,
    ),
    Box<dyn std::error::Error>,
> {
    let dims = dims.to_vec();
    let fresh = move || Ok::<_, rps_storage::StorageError>(RpsEngine::<i64>::zeros(&dims)?);
    Ok(rps_storage::DurableEngine::recover(
        std::path::Path::new(dir),
        std::path::Path::new(wal),
        fresh,
    )?)
}

/// `snapshot take|list|verify` — operate on a checkpoint directory of
/// binary `RPSSNAP1` artifacts (see docs/FORMATS.md).
fn snapshot_cmd(args: &Args, out: &mut dyn Write) -> CmdResult {
    use rps_storage::SnapshotStore;
    let action = args
        .sub
        .as_deref()
        .ok_or("snapshot needs a sub-action: take | list | verify")?;
    let dir = args.required("dir")?;
    let mut store = rps_storage::FsSnapshotDir::open(std::path::Path::new(dir))?;
    match action {
        "take" => {
            let wal = args.required("wal")?;
            let dims = parse_dims(args.required("dims")?)?;
            let (mut d, report) = recover_from_dir(dir, wal, &dims)?;
            writeln!(out, "{report}")?;
            let lsn = d.checkpoint_to(&mut store)?;
            writeln!(
                out,
                "checkpointed snapshot at LSN {lsn} → {}",
                store.slot_path(lsn).display()
            )?;
        }
        "list" => {
            let lsns = store.list()?;
            if lsns.is_empty() {
                writeln!(out, "{dir}: no snapshots")?;
            }
            for lsn in lsns {
                let bytes = store.read(lsn)?;
                match rps_storage::peek_header(&bytes) {
                    Ok(h) => writeln!(
                        out,
                        "LSN {lsn:>6}  dims {:?}  box {:?}  {} bytes",
                        h.dims,
                        h.box_size,
                        bytes.len()
                    )?,
                    Err(check) => writeln!(out, "LSN {lsn:>6}  CORRUPT: {check}")?,
                }
            }
        }
        "verify" => {
            let lsns = store.list()?;
            let mut bad = 0usize;
            for &lsn in &lsns {
                let bytes = store.read(lsn)?;
                match rps_storage::decode_snapshot(&bytes) {
                    Ok((h, cells)) => writeln!(
                        out,
                        "LSN {lsn:>6}  OK — {} cells, dims {:?}, payload CRC verified",
                        cells.len(),
                        h.dims
                    )?,
                    Err(check) => {
                        bad += 1;
                        writeln!(out, "LSN {lsn:>6}  CORRUPT: {check}")?;
                    }
                }
            }
            writeln!(out, "{} snapshot(s), {bad} corrupt", lsns.len())?;
            if bad > 0 {
                return Err(format!(
                    "{bad} corrupt snapshot(s) — recovery will quarantine and fall back"
                )
                .into());
            }
        }
        other => {
            return Err(
                format!("unknown snapshot sub-action `{other}` (take | list | verify)").into(),
            )
        }
    }
    Ok(())
}

fn recover(args: &Args, out: &mut dyn Write) -> CmdResult {
    // Newest valid binary snapshot, then the WAL tail past its LSN;
    // optionally save the recovered state as an engine snapshot.
    let dir = args.required("dir")?;
    let wal = args.required("wal")?;
    let dims = parse_dims(args.required("dims")?)?;
    let (d, report) = recover_from_dir(dir, wal, &dims)?;
    writeln!(out, "{report}")?;
    if let Some(out_path) = args.optional("out") {
        save_engine(out_path, d.last_lsn(), d.engine())?;
        writeln!(out, "saved recovered engine → {out_path}")?;
    }
    Ok(())
}

fn rollup(args: &Args, out: &mut dyn Write) -> CmdResult {
    let path = args.required("file")?;
    let dim = args.optional_usize("dim")?.ok_or("rollup needs --dim")?;
    let bucket = args
        .optional_usize("bucket")?
        .ok_or("rollup needs --bucket")?;
    let (engine, _) = load_engine(path)?;
    if dim >= engine.shape().ndim() {
        return Err(format!("--dim {dim} out of range for {:?}", engine.shape().dims()).into());
    }
    if bucket == 0 {
        return Err("--bucket must be ≥ 1".into());
    }
    let base = match args.optional("range") {
        Some(range) => {
            let (lo, hi) = parse_range(range)?;
            Region::new(&lo, &hi)?
        }
        None => engine.shape().full_region(),
    };
    let sums = rps_core::aggregate::group_by_sums(&engine, &base, dim, bucket)?;
    let mut table = Table::new(&["bucket", "range", "sum"]);
    let lo_d = base.lo()[dim];
    let hi_d = base.hi()[dim];
    for (i, sum) in sums.iter().enumerate() {
        let start = lo_d + i * bucket;
        let end = (start + bucket - 1).min(hi_d);
        table.row(&[i.to_string(), format!("{start}..={end}"), sum.to_string()]);
    }
    write!(out, "{}", table.render())?;
    writeln!(
        out,
        "\ntotal over {} buckets: {}",
        sums.len(),
        sums.iter().sum::<i64>()
    )?;
    Ok(())
}

fn record(args: &Args, out: &mut dyn Write) -> CmdResult {
    let dims = parse_dims(args.optional("dims").unwrap_or("128x128"))?;
    let ops = args.u64_or("ops", 1000)? as usize;
    let seed = args.u64_or("seed", 1)?;
    let ratio = args.u64_or("ratio", 50)?.min(100) as f64 / 100.0;
    let path = args.required("out")?;

    let batch = rps_workload::MixedWorkload::new(
        rps_workload::UpdateGen::uniform(&dims, seed + 1, 100),
        rps_workload::QueryGen::new(&dims, seed + 2, rps_workload::RegionSpec::Fraction(0.5)),
        ratio,
        seed + 3,
    )
    .take(ops);
    rps_workload::save_trace(&dims, &batch, BufWriter::new(File::create(path)?))?;
    writeln!(
        out,
        "recorded {ops} ops ({:.0}% queries) on {dims:?} → {path}",
        ratio * 100.0
    )?;
    Ok(())
}

fn replay(args: &Args, out: &mut dyn Write) -> CmdResult {
    let path = args.required("trace")?;
    let (dims, ops) = rps_workload::load_trace(BufReader::new(File::open(path)?))?;
    let methods: Vec<&str> = match args.optional("method") {
        Some(m) => vec![m],
        None => vec!["naive", "chunked", "prefix", "rps", "fenwick"],
    };

    writeln!(out, "replaying {} ops on {dims:?} from {path}\n", ops.len())?;
    let mut table = Table::new(&["method", "reads/query", "writes/update", "checksum"]);
    let mut checksums: Vec<i64> = Vec::new();
    for m in methods {
        let mut engine: Box<dyn RangeSumEngine<i64>> = match m {
            "naive" => Box::new(NaiveEngine::zeros(&dims)?),
            "chunked" => Box::new(rps_core::ChunkedEngine::zeros(&dims)?),
            "prefix" => Box::new(PrefixSumEngine::zeros(&dims)?),
            "rps" => Box::new(RpsEngine::zeros(&dims)?),
            "fenwick" => Box::new(rps_core::FenwickEngine::zeros(&dims)?),
            other => return Err(format!("unknown --method `{other}`").into()),
        };
        let mut checksum = 0i64;
        for op in &ops {
            match op {
                rps_workload::Op::Query(r) => {
                    checksum = checksum.wrapping_add(engine.query(r)?);
                }
                rps_workload::Op::Update { coords, delta } => {
                    engine.update(coords, *delta)?;
                }
            }
        }
        checksums.push(checksum);
        let s = engine.stats();
        table.row(&[
            engine.name().into(),
            format!("{:.1}", s.reads_per_query().unwrap_or(0.0)),
            format!("{:.1}", s.writes_per_update().unwrap_or(0.0)),
            checksum.to_string(),
        ]);
    }
    write!(out, "{}", table.render())?;
    if checksums.windows(2).any(|w| w[0] != w[1]) {
        return Err("methods disagreed on the trace".into());
    }
    Ok(())
}

/// Splits a Prometheus series into (family name, label block).
fn split_series(series: &str) -> (&str, &str) {
    match series.find('{') {
        Some(i) => series.split_at(i),
        None => (series, ""),
    }
}

/// Pretty-prints Prometheus exposition text as a two-column table.
/// Histogram families collapse to one `count …, mean …` row; counters
/// and gauges print their raw value.
fn render_stats_table(text: &str, out: &mut dyn Write) -> CmdResult {
    let mut table = Table::new(&["metric", "value"]);
    let mut sums: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
    let mut series_count = 0usize;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let (name, labels) = split_series(series);
        if name.ends_with("_bucket") {
            continue;
        }
        if let Some(base) = name.strip_suffix("_sum") {
            sums.insert(format!("{base}{labels}"), value.parse().unwrap_or(0.0));
            continue;
        }
        if let Some(base) = name.strip_suffix("_count") {
            let key = format!("{base}{labels}");
            if let Some(sum) = sums.get(&key) {
                let count: f64 = value.parse().unwrap_or(0.0);
                let mean = if count > 0.0 { sum / count } else { 0.0 };
                table.row(&[key, format!("count {value}, mean {mean:.0}")]);
                series_count += 1;
                continue;
            }
        }
        table.row(&[series.to_string(), value.to_string()]);
        series_count += 1;
    }
    write!(out, "{}", table.render())?;
    writeln!(out, "\n{series_count} series")?;
    Ok(())
}

fn stats(args: &Args, out: &mut dyn Write) -> CmdResult {
    let from = args.optional("from");
    let format = args.optional("format").unwrap_or("table");
    if !matches!(format, "table" | "prom") {
        return Err(format!("unknown --format `{format}` (expected table or prom)").into());
    }
    let watch = args.optional_usize("watch")?;
    let count = args.optional_usize("count")?;
    let mut rounds = 0usize;
    loop {
        let text = if let Some(path) = from {
            std::fs::read_to_string(path)?
        } else {
            touch_registries();
            rps_obs::registry().render()
        };
        if format == "prom" {
            write!(out, "{text}")?;
        } else {
            render_stats_table(&text, out)?;
        }
        rounds += 1;
        let Some(secs) = watch else { break };
        if count.is_some_and(|n| rounds >= n) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_secs(
            u64::try_from(secs).unwrap_or(u64::MAX),
        ));
    }
    Ok(())
}

fn bench(args: &Args, out: &mut dyn Write) -> CmdResult {
    let dims = parse_dims(args.optional("dims").unwrap_or("128x128"))?;
    let ops = args.u64_or("ops", 1000)? as usize;
    let seed = args.u64_or("seed", 1)?;

    let cube = CubeGen::new(seed).uniform(&dims, 0, 9)?;
    let workload = rps_workload::MixedWorkload::new(
        rps_workload::UpdateGen::uniform(&dims, seed + 1, 100),
        rps_workload::QueryGen::new(&dims, seed + 2, rps_workload::RegionSpec::Fraction(0.5)),
        0.5,
        seed + 3,
    )
    .take(ops);

    let mut engines: Vec<Box<dyn RangeSumEngine<i64>>> = vec![
        Box::new(NaiveEngine::from_cube(cube.clone())),
        Box::new(rps_core::ChunkedEngine::from_cube(&cube)),
        Box::new(PrefixSumEngine::from_cube(&cube)),
        Box::new(RpsEngine::from_cube(&cube)),
        Box::new(rps_core::FenwickEngine::from_cube(&cube)),
    ];

    writeln!(out, "mixed workload: {ops} ops on {dims:?} (seed {seed})\n")?;
    let mut table = Table::new(&["method", "reads/query", "writes/update", "q·u"]);
    let mut checksums = Vec::new();
    for engine in &mut engines {
        let mut checksum = 0i64;
        for op in &workload {
            match op {
                rps_workload::Op::Query(r) => {
                    checksum = checksum.wrapping_add(engine.query(r)?);
                }
                rps_workload::Op::Update { coords, delta } => engine.update(coords, *delta)?,
            }
        }
        checksums.push(checksum);
        let s = engine.stats();
        let rq = s.reads_per_query().unwrap_or(0.0);
        let wu = s.writes_per_update().unwrap_or(0.0);
        table.row(&[
            engine.name().into(),
            format!("{rq:.1}"),
            format!("{wu:.1}"),
            format!("{:.0}", rq * wu),
        ]);
    }
    write!(out, "{}", table.render())?;
    if checksums.windows(2).all(|w| w[0] == w[1]) {
        writeln!(out, "\nall methods agree (checksum {})", checksums[0])?;
    } else {
        return Err("engines disagreed on query answers".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn run_capture(argv: &[&str]) -> (String, bool) {
        let args = Args::parse(argv.iter().map(std::string::ToString::to_string)).unwrap();
        let mut buf = Vec::new();
        let ok = run(&args, &mut buf).is_ok();
        (String::from_utf8(buf).unwrap(), ok)
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("rps-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn help_lists_commands() {
        let (out, ok) = run_capture(&["help"]);
        assert!(ok);
        for cmd in ["generate", "build", "query", "update", "bench"] {
            assert!(out.contains(cmd), "help missing {cmd}");
        }
    }

    #[test]
    fn unknown_command_prints_help_and_fails() {
        let args = Args::parse(["frobnicate".to_string()]).unwrap();
        let mut buf = Vec::new();
        let err = run(&args, &mut buf).expect_err("unknown command must exit nonzero");
        assert!(err.to_string().contains("unknown command"));
        let out = String::from_utf8(buf).unwrap();
        assert!(out.contains("commands:"), "help text still printed: {out}");
    }

    #[test]
    fn full_pipeline_generate_build_query_update() {
        let cube = tmp("pipe.cube");
        let engine = tmp("pipe.rps");

        let (out, ok) =
            run_capture(&["generate", "--dims", "16x16", "--seed", "3", "--out", &cube]);
        assert!(ok, "{out}");
        assert!(out.contains("256 cells"));

        let (out, ok) = run_capture(&["build", "--cube", &cube, "--k", "4", "--out", &engine]);
        assert!(ok, "{out}");
        assert!(out.contains("box size [4, 4]"));

        let (out, ok) = run_capture(&["info", "--file", &engine]);
        assert!(ok, "{out}");
        assert!(out.contains("RPS engine snapshot"));

        let (q1, ok) = run_capture(&["query", "--file", &engine, "--range", "0,0:15,15"]);
        assert!(ok, "{q1}");

        let (out, ok) = run_capture(&[
            "update", "--file", &engine, "--cell", "3,4", "--delta", "10",
        ]);
        assert!(ok, "{out}");
        assert!(out.contains("+10"));

        let (q2, ok) = run_capture(&["query", "--file", &engine, "--range", "0,0:15,15"]);
        assert!(ok, "{q2}");

        // Sum must have moved by exactly the delta.
        let parse_sum = |s: &str| -> i64 {
            // Output shape: "sum over [..]..=[..] = N  (…)"
            s.split(" = ")
                .nth(1)
                .unwrap()
                .split_whitespace()
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        assert_eq!(parse_sum(&q2), parse_sum(&q1) + 10);
    }

    #[test]
    fn region_update_moves_sum_by_cells_times_delta() {
        let cube = tmp("rect.cube");
        let engine = tmp("rect.rps");
        let (out, ok) =
            run_capture(&["generate", "--dims", "16x16", "--seed", "9", "--out", &cube]);
        assert!(ok, "{out}");
        let (out, ok) = run_capture(&["build", "--cube", &cube, "--k", "4", "--out", &engine]);
        assert!(ok, "{out}");

        let parse_sum = |s: &str| -> i64 {
            s.split(" = ")
                .nth(1)
                .unwrap()
                .split_whitespace()
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        let (q1, ok) = run_capture(&["query", "--file", &engine, "--range", "0,0:15,15"]);
        assert!(ok, "{q1}");

        // A 3×5 rectangle at +7 per cell moves the total by 105.
        let (out, ok) = run_capture(&[
            "update", "--file", &engine, "--region", "2,1:4,5", "--delta", "7",
        ]);
        assert!(ok, "{out}");
        assert!(out.contains("15 cells"), "{out}");

        let (q2, ok) = run_capture(&["query", "--file", &engine, "--range", "0,0:15,15"]);
        assert!(ok, "{q2}");
        assert_eq!(parse_sum(&q2), parse_sum(&q1) + 15 * 7);

        // A region query strictly inside the rectangle also moved.
        let (inner, ok) = run_capture(&["query", "--file", &engine, "--range", "3,2:3,2"]);
        assert!(ok, "{inner}");

        // Flag misuse is rejected loudly.
        let (_, ok) = run_capture(&[
            "update", "--file", &engine, "--cell", "1,1", "--region", "0,0:1,1",
        ]);
        assert!(!ok, "--cell plus --region must be rejected");
        let (_, ok) = run_capture(&["update", "--file", &engine, "--delta", "3"]);
        assert!(
            !ok,
            "update with neither --cell nor --region must be rejected"
        );
    }

    #[test]
    fn ingest_from_csv_then_query() {
        let csv = tmp("facts.csv");
        let cube = tmp("facts.cube");
        let engine = tmp("facts.rps");
        std::fs::write(
            &csv,
            "age,region,sales\n20,East,100\n25,West,250\n20,East,50\n",
        )
        .unwrap();
        let (out, ok) = run_capture(&[
            "ingest",
            "--csv",
            &csv,
            "--spec",
            "AGE:num:18:29,REGION:cat:East|West",
            "--measure",
            "sales",
            "--out",
            &cube,
        ]);
        assert!(ok, "{out}");
        assert!(
            out.contains("ingested 3 facts (total measure 400)"),
            "{out}"
        );

        run_capture(&["build", "--cube", &cube, "--out", &engine]);
        // AGE 20 = index 2; EAST = col 0 → cell (2, 0) holds 150.
        let (q, ok) = run_capture(&["query", "--file", &engine, "--range", "2,0:2,0"]);
        assert!(ok, "{q}");
        assert!(q.contains("= 150"), "{q}");
    }

    #[test]
    fn ingest_facts_and_average_query() {
        let csv = tmp("avg.csv");
        let facts = tmp("avg.facts");
        std::fs::write(&csv, "age,sales\n20,100\n20,200\n25,60\n").unwrap();
        let (out, ok) = run_capture(&[
            "ingest",
            "--csv",
            &csv,
            "--spec",
            "AGE:num:18:29",
            "--measure",
            "sales",
            "--kind",
            "facts",
            "--out",
            &facts,
        ]);
        assert!(ok, "{out}");

        let (q, ok) = run_capture(&["query", "--file", &facts, "--range", "0:11", "--agg", "avg"]);
        assert!(ok, "{q}");
        assert!(q.contains("= 120.000"), "{q}"); // (100+200+60)/3

        let (q, ok) = run_capture(&[
            "query", "--file", &facts, "--range", "2:2", "--agg", "count",
        ]);
        assert!(ok, "{q}");
        assert!(q.contains("= 2"), "{q}"); // two facts at age 20

        let (q, ok) = run_capture(&["query", "--file", &facts, "--range", "3:11", "--agg", "avg"]);
        assert!(ok, "{q}");
        assert!(q.contains("no facts") || q.contains("= 60.000"), "{q}");
    }

    #[test]
    fn agg_on_engine_snapshot_rejected() {
        let cube = tmp("agg_rej.cube");
        let engine = tmp("agg_rej.rps");
        run_capture(&["generate", "--dims", "4x4", "--out", &cube]);
        run_capture(&["build", "--cube", &cube, "--out", &engine]);
        let args = Args::parse(
            [
                "query",
                "--file",
                engine.as_str(),
                "--range",
                "0,0:3,3",
                "--agg",
                "avg",
            ]
            .iter()
            .map(std::string::ToString::to_string),
        )
        .unwrap();
        let mut buf = Vec::new();
        let err = run(&args, &mut buf).unwrap_err();
        assert!(err.to_string().contains("facts snapshot"), "{err}");
    }

    #[test]
    fn ingest_rejects_out_of_domain_rows() {
        let csv = tmp("bad.csv");
        let cube = tmp("bad_out.cube");
        std::fs::write(&csv, "age,sales\n17,10\n").unwrap(); // below min age
        let args = Args::parse(
            [
                "ingest",
                "--csv",
                csv.as_str(),
                "--spec",
                "AGE:num:18:29",
                "--measure",
                "sales",
                "--out",
                cube.as_str(),
            ]
            .iter()
            .map(std::string::ToString::to_string),
        )
        .unwrap();
        let mut buf = Vec::new();
        let err = run(&args, &mut buf).unwrap_err();
        assert!(err.to_string().contains("record 2"), "{err}");
    }

    #[test]
    fn ingest_rejects_missing_column() {
        let csv = tmp("nocol.csv");
        std::fs::write(&csv, "age,sales\n20,10\n").unwrap();
        let args = Args::parse(
            [
                "ingest",
                "--csv",
                csv.as_str(),
                "--spec",
                "DAY:num:0:9",
                "--measure",
                "sales",
                "--out",
                "/dev/null",
            ]
            .iter()
            .map(std::string::ToString::to_string),
        )
        .unwrap();
        let mut buf = Vec::new();
        let err = run(&args, &mut buf).unwrap_err();
        assert!(err.to_string().contains("column `DAY`"), "{err}");
    }

    #[test]
    fn info_on_facts_snapshot() {
        let csv = tmp("infof.csv");
        let facts = tmp("infof.facts");
        std::fs::write(&csv, "age,sales\n20,10\n21,20\n").unwrap();
        run_capture(&[
            "ingest",
            "--csv",
            &csv,
            "--spec",
            "AGE:num:18:29",
            "--measure",
            "sales",
            "--kind",
            "facts",
            "--out",
            &facts,
        ]);
        let (out, ok) = run_capture(&["info", "--file", &facts]);
        assert!(ok, "{out}");
        assert!(out.contains("facts snapshot"), "{out}");
        assert!(out.contains("facts       2"), "{out}");
        assert!(out.contains("total sum   30"), "{out}");
    }

    #[test]
    fn update_failure_cannot_destroy_snapshot() {
        // A crash mid-save is simulated by checking the happy path goes
        // through a temp file: after update, no stray `.tmp` file remains and the
        // snapshot is valid.
        let cube = tmp("atomic.cube");
        let engine = tmp("atomic.rps");
        run_capture(&["generate", "--dims", "8x8", "--out", &cube]);
        run_capture(&["build", "--cube", &cube, "--out", &engine]);
        let before = std::fs::read(&engine).unwrap();
        let (out, ok) =
            run_capture(&["update", "--file", &engine, "--cell", "1,1", "--delta", "5"]);
        assert!(ok, "{out}");
        assert!(!std::path::Path::new(&format!("{engine}.tmp")).exists());
        let after = std::fs::read(&engine).unwrap();
        assert_ne!(before, after, "snapshot must have been rewritten");
        let (v, ok) = run_capture(&["verify", "--file", &engine]);
        assert!(ok, "{v}");
    }

    #[test]
    fn verify_reports_healthy_snapshot() {
        let cube = tmp("v.cube");
        let engine = tmp("v.rps");
        run_capture(&["generate", "--dims", "12x12", "--out", &cube]);
        run_capture(&["build", "--cube", &cube, "--out", &engine]);
        let (out, ok) = run_capture(&["verify", "--file", &engine]);
        assert!(ok, "{out}");
        assert!(out.contains("OK"), "{out}");
    }

    fn query_sum(engine: &str, range: &str) -> i64 {
        let (q, ok) = run_capture(&["query", "--file", engine, "--range", range]);
        assert!(ok, "{q}");
        q.split(" = ")
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap()
    }

    #[test]
    fn recover_trims_torn_tail_before_replay() {
        let dir = tmp("torn-recover");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let wal = format!("{dir}/cube.wal");
        let engine = format!("{dir}/recovered.rps");

        let mut w = rps_storage::Wal::open(std::path::Path::new(&wal)).unwrap();
        w.append(&[2, 2], 5).unwrap();
        w.append_range(&[0, 0], &[3, 3], 1).unwrap();
        w.sync().unwrap();
        drop(w);
        // A torn append: half a record of junk past the intact prefix.
        let mut bytes = std::fs::read(&wal).unwrap();
        let intact = bytes.len();
        bytes.extend_from_slice(&[0xEE; 13]);
        std::fs::write(&wal, &bytes).unwrap();

        let (out, ok) = run_capture(&[
            "recover", "--dir", &dir, "--wal", &wal, "--dims", "8x8", "--out", &engine,
        ]);
        assert!(ok, "{out}");
        assert!(out.contains("2 records replayed"), "{out}");
        assert_eq!(std::fs::metadata(&wal).unwrap().len(), intact as u64);
        // The range record replays as a 4x4 box, not as one cell.
        assert_eq!(query_sum(&engine, "0,0:7,7"), 5 + 16);
        assert_eq!(query_sum(&engine, "3,3:3,3"), 1);
    }

    #[test]
    fn recover_refuses_a_non_wal_file_and_leaves_it_intact() {
        // `--wal` pointed at a cube file (a 180-byte RPSSNAP1 artifact)
        // used to be truncated to 0 bytes as a "torn tail".
        let dir = tmp("not-a-wal");
        let cube = tmp("not-a-wal.cube");
        let (out, ok) = run_capture(&["generate", "--dims", "4x4", "--out", &cube]);
        assert!(ok, "{out}");
        let before = std::fs::read(&cube).unwrap();
        let args = Args::parse(
            ["recover", "--dir", &dir, "--wal", &cube, "--dims", "4x4"]
                .iter()
                .map(std::string::ToString::to_string),
        )
        .unwrap();
        let err = run(&args, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("not an RPSWAL02 log"), "{err}");
        assert_eq!(
            std::fs::read(&cube).unwrap(),
            before,
            "the cube file was modified"
        );
    }

    #[test]
    fn snapshot_take_list_verify_and_dir_recover() {
        let dir = tmp("snapcli");
        let _ = std::fs::remove_dir_all(&dir);
        let wal = format!("{dir}/cube.wal");
        std::fs::create_dir_all(&dir).unwrap();

        // Three WAL'd updates, then cut a checkpoint.
        let mut w = rps_storage::Wal::open(std::path::Path::new(&wal)).unwrap();
        w.append(&[1, 2], 10).unwrap();
        w.append(&[3, 3], -4).unwrap();
        w.sync().unwrap();
        drop(w);
        let (out, ok) = run_capture(&[
            "snapshot", "take", "--dir", &dir, "--wal", &wal, "--dims", "8x8",
        ]);
        assert!(ok, "{out}");
        assert!(out.contains("full WAL replay"), "{out}");
        assert!(out.contains("checkpointed snapshot at LSN 2"), "{out}");

        let (out, ok) = run_capture(&["snapshot", "list", "--dir", &dir]);
        assert!(ok, "{out}");
        assert!(out.contains("LSN      2"), "{out}");
        assert!(out.contains("dims [8, 8]"), "{out}");

        let (out, ok) = run_capture(&["snapshot", "verify", "--dir", &dir]);
        assert!(ok, "{out}");
        assert!(out.contains("1 snapshot(s), 0 corrupt"), "{out}");

        // More updates land only in the WAL; recovery prefers the
        // snapshot and replays just the tail.
        let mut w = rps_storage::Wal::open(std::path::Path::new(&wal)).unwrap();
        w.append(&[1, 2], 5).unwrap();
        w.sync().unwrap();
        drop(w);
        let engine = format!("{dir}/recovered.rps");
        let (out, ok) = run_capture(&[
            "recover", "--dir", &dir, "--wal", &wal, "--dims", "8x8", "--out", &engine,
        ]);
        assert!(ok, "{out}");
        assert!(out.contains("recovered from snapshot at LSN 2"), "{out}");
        assert!(out.contains("1 records replayed"), "{out}");
        assert_eq!(query_sum(&engine, "0,0:7,7"), 10 - 4 + 5);

        // Rot the artifact: `snapshot verify` turns red, and recovery
        // provably falls back to full WAL replay with no data loss.
        let store = rps_storage::FsSnapshotDir::open(std::path::Path::new(&dir)).unwrap();
        let snap_path = store.slot_path(2);
        let mut bytes = std::fs::read(&snap_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        std::fs::write(&snap_path, &bytes).unwrap();
        let args = Args::parse(
            ["snapshot", "verify", "--dir", dir.as_str()]
                .iter()
                .map(std::string::ToString::to_string),
        )
        .unwrap();
        let mut buf = Vec::new();
        let err = run(&args, &mut buf).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");

        let (out, ok) = run_capture(&[
            "recover", "--dir", &dir, "--wal", &wal, "--dims", "8x8", "--out", &engine,
        ]);
        assert!(ok, "{out}");
        assert!(out.contains("full WAL replay"), "{out}");
        assert!(out.contains("quarantined"), "{out}");
        assert_eq!(query_sum(&engine, "0,0:7,7"), 11);
    }

    #[test]
    fn stray_sub_action_is_rejected() {
        let args = Args::parse(
            ["bench", "hard"]
                .iter()
                .map(std::string::ToString::to_string),
        )
        .unwrap();
        let mut buf = Vec::new();
        let err = run(&args, &mut buf).unwrap_err();
        assert!(err.to_string().contains("no sub-action"), "{err}");

        let args = Args::parse(["snapshot"].iter().map(std::string::ToString::to_string)).unwrap();
        let err = run(&args, &mut buf).unwrap_err();
        assert!(err.to_string().contains("take | list | verify"), "{err}");
    }

    #[test]
    fn verify_wal_reports_intact_records_and_torn_tail() {
        let wal = tmp("vw.wal");
        let _ = std::fs::remove_file(&wal);
        let mut w = rps_storage::Wal::open(std::path::Path::new(&wal)).unwrap();
        w.append(&[0, 1], 2).unwrap();
        w.append(&[1, 0], 3).unwrap();
        w.sync().unwrap();
        drop(w);

        let (out, ok) = run_capture(&["verify", "--wal", &wal]);
        assert!(ok, "{out}");
        assert!(out.contains("OK — 2 intact record(s), last LSN 2"), "{out}");

        let mut bytes = std::fs::read(&wal).unwrap();
        bytes.truncate(bytes.len() - 5);
        std::fs::write(&wal, &bytes).unwrap();
        let (out, ok) = run_capture(&["verify", "--wal", &wal]);
        assert!(ok, "{out}");
        assert!(out.contains("1 intact record(s)"), "{out}");
        assert!(out.contains("torn trailing byte(s)"), "{out}");
    }

    #[test]
    fn verify_without_any_target_is_an_error() {
        let args = Args::parse(["verify"].iter().map(std::string::ToString::to_string)).unwrap();
        let mut buf = Vec::new();
        let err = run(&args, &mut buf).unwrap_err();
        assert!(err.to_string().contains("--file and/or --wal"), "{err}");
    }

    #[test]
    fn rollup_buckets_partition_total() {
        let cube = tmp("roll.cube");
        let engine = tmp("roll.rps");
        run_capture(&["generate", "--dims", "6x12", "--seed", "3", "--out", &cube]);
        run_capture(&["build", "--cube", &cube, "--out", &engine]);
        let (info, _) = run_capture(&["info", "--file", &engine]);
        let total: i64 = info
            .lines()
            .find(|l| l.contains("total sum"))
            .unwrap()
            .split_whitespace()
            .last()
            .unwrap()
            .parse()
            .unwrap();
        let (out, ok) = run_capture(&["rollup", "--file", &engine, "--dim", "1", "--bucket", "5"]);
        assert!(ok, "{out}");
        assert!(
            out.contains(&format!("total over 3 buckets: {total}")),
            "{out}"
        );
    }

    #[test]
    fn where_clause_query_end_to_end() {
        let csv = tmp("wq.csv");
        let facts = tmp("wq.facts");
        std::fs::write(
            &csv,
            "age,region,sales\n20,East,100\n25,West,250\n20,West,50\n",
        )
        .unwrap();
        let spec = "AGE:num:18:29,REGION:cat:East|West";
        run_capture(&[
            "ingest",
            "--csv",
            &csv,
            "--spec",
            spec,
            "--measure",
            "sales",
            "--kind",
            "facts",
            "--out",
            &facts,
        ]);
        let (out, ok) = run_capture(&[
            "query",
            "--file",
            &facts,
            "--spec",
            spec,
            "--where",
            "REGION=West",
            "--agg",
            "sum",
        ]);
        assert!(ok, "{out}");
        assert!(out.contains("= 300"), "{out}"); // 250 + 50 in the West
        let (out, ok) = run_capture(&[
            "query", "--file", &facts, "--spec", spec, "--where", "AGE=20", "--agg", "count",
        ]);
        assert!(ok, "{out}");
        assert!(out.contains("= 2"), "{out}");
    }

    #[test]
    fn record_then_replay_round_trip() {
        let trace = tmp("w.trace");
        let (out, ok) = run_capture(&[
            "record", "--dims", "16x16", "--ops", "80", "--seed", "5", "--out", &trace,
        ]);
        assert!(ok, "{out}");
        let (out, ok) = run_capture(&["replay", "--trace", &trace]);
        assert!(ok, "{out}");
        assert!(out.contains("replaying 80 ops"));
        // All five method rows appear with one checksum column each.
        for m in [
            "naive",
            "chunked",
            "prefix-sum",
            "relative-prefix-sum",
            "fenwick",
        ] {
            assert!(out.contains(m), "missing {m} in:\n{out}");
        }
    }

    #[test]
    fn replay_single_method() {
        let trace = tmp("single.trace");
        run_capture(&["record", "--dims", "8x8", "--ops", "20", "--out", &trace]);
        let (out, ok) = run_capture(&["replay", "--trace", &trace, "--method", "rps"]);
        assert!(ok, "{out}");
        assert!(out.contains("relative-prefix-sum"));
        assert!(!out.contains("fenwick"));
    }

    #[test]
    fn bench_agrees_across_methods() {
        let (out, ok) = run_capture(&["bench", "--dims", "24x24", "--ops", "60"]);
        assert!(ok, "{out}");
        assert!(out.contains("all methods agree"));
    }

    #[test]
    fn generate_rejects_unknown_dist() {
        let cube = tmp("bad.cube");
        let args = Args::parse(
            [
                "generate",
                "--dims",
                "4x4",
                "--dist",
                "gauss",
                "--out",
                cube.as_str(),
            ]
            .iter()
            .map(std::string::ToString::to_string),
        )
        .unwrap();
        let mut buf = Vec::new();
        assert!(run(&args, &mut buf).is_err());
    }

    #[test]
    fn stats_live_dump_lists_catalog() {
        let (out, ok) = run_capture(&["stats"]);
        assert!(ok, "{out}");
        for name in [
            "rps_engine_queries_total",
            "storage_wal_fsyncs_total",
            "storage_faults_injected_total",
        ] {
            assert!(out.contains(name), "stats missing {name}:\n{out}");
        }
        assert!(out.contains("series"), "{out}");
    }

    #[test]
    fn stats_rejects_unknown_format() {
        let args = Args::parse(
            ["stats", "--format", "json"]
                .iter()
                .map(std::string::ToString::to_string),
        )
        .unwrap();
        let mut buf = Vec::new();
        assert!(run(&args, &mut buf).is_err());
    }

    #[test]
    fn metrics_file_exports_prometheus_text() {
        let cube = tmp("m.cube");
        let engine = tmp("m.rps");
        let metrics = tmp("m.prom");
        run_capture(&["generate", "--dims", "8x8", "--out", &cube]);
        run_capture(&["build", "--cube", &cube, "--out", &engine]);
        let (out, ok) = run_capture(&[
            "query",
            "--file",
            &engine,
            "--range",
            "0,0:7,7",
            "--metrics-file",
            &metrics,
        ]);
        assert!(ok, "{out}");
        let text = std::fs::read_to_string(&metrics).unwrap();
        assert!(
            text.contains("# TYPE rps_engine_queries_total counter"),
            "{text}"
        );
        assert!(
            text.lines()
                .any(|l| l.starts_with("rps_engine_queries_total{engine=\"rps\"}")),
            "{text}"
        );
        // The export carries the full catalog, including subsystems this
        // command never touched.
        assert!(text.contains("storage_checkpoints_total"), "{text}");

        // And `stats --from` pretty-prints it, folding histograms.
        let (out, ok) = run_capture(&["stats", "--from", &metrics]);
        assert!(ok, "{out}");
        assert!(out.contains("rps_engine_queries_total"), "{out}");
        assert!(!out.contains("_bucket"), "{out}");

        // `--watch 0 --count 2` renders twice and terminates.
        let (out, ok) = run_capture(&[
            "stats", "--from", &metrics, "--watch", "0", "--count", "2", "--format", "prom",
        ]);
        assert!(ok, "{out}");
        assert_eq!(
            out.matches("# TYPE rps_engine_queries_total counter")
                .count(),
            2,
            "{out}"
        );
    }

    #[test]
    fn info_on_cube_snapshot() {
        let cube = tmp("info.cube");
        run_capture(&["generate", "--dims", "8x8", "--out", &cube]);
        let (out, ok) = run_capture(&["info", "--file", &cube]);
        assert!(ok);
        assert!(out.contains("cube snapshot"));
        assert!(out.contains("total sum"));
    }
}
