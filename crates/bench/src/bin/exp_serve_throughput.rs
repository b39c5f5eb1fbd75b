//! Serve-path throughput: loopback clients driving a real `rps-serve`
//! TCP server (RPSWIRE1 frames, worker thread pool, per-tenant
//! `VersionedEngine` reads), emitted as the `exp_serve_throughput`
//! section of `BENCH_THROUGHPUT.json` (see `rps_bench::throughput`).
//!
//! ```text
//! cargo run --release -p rps-bench --bin exp_serve_throughput            # full
//! cargo run --release -p rps-bench --bin exp_serve_throughput -- --smoke # CI
//! cargo run --release -p rps-bench --bin exp_serve_throughput -- --out s.json
//! ```
//!
//! Each client thread owns one tenant and keeps a dense local mirror of
//! its cube; before any timing, a correctness pass asserts every wire
//! answer bit-identical to the mirror (a serial oracle). The timed
//! passes then measure end-to-end request latency: framing + CRC + TCP
//! round-trip + routing + engine, amortized per request. Each
//! `mixed_t{threads}` row goes through [`rps_bench::measure`]: a pass is
//! one fan-out over client connections opened in the untimed setup; its
//! `allocs_per_op` is `null` because the requests run on client and
//! server threads, which the per-thread counter cannot see.
//!
//! Numbers are loopback-host-bound: on a single-CPU container the
//! client threads, worker pool, and acceptor share one core, so the
//! `t2`/`t4`/`t8` rows measure contention, not scaling. The committed
//! baseline records `host_cpus` for exactly this reason
//! (docs/PERFORMANCE.md §9).

use std::net::SocketAddr;

use rps_bench::alloc_counter::CountingAllocator;
use rps_bench::measure::{measure_with, Args, Scenario};
use rps_bench::throughput::{section_json, write_section};
use rps_serve::{Client, Server, ServerConfig};
use rps_storage::SimRng;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const DIMS: [usize; 2] = [64, 64];

/// Dense serial oracle for one tenant.
struct Mirror {
    cells: Vec<i64>,
}

impl Mirror {
    fn new() -> Mirror {
        Mirror {
            cells: vec![0; DIMS[0] * DIMS[1]],
        }
    }

    fn update(&mut self, c: &[usize], delta: i64) {
        self.cells[c[0] * DIMS[1] + c[1]] += delta;
    }

    fn sum(&self, lo: &[usize], hi: &[usize]) -> i64 {
        let mut s = 0;
        for x in lo[0]..=hi[0] {
            for y in lo[1]..=hi[1] {
                s += self.cells[x * DIMS[1] + y];
            }
        }
        s
    }
}

/// The tenant client `i` owns.
fn tenant(i: usize) -> String {
    format!("bench{i}")
}

/// One connected client per tenant, each past one served request, so a
/// timed pass times requests on open connections, not connection setup.
fn connect(addr: SocketAddr, threads: usize) -> Vec<Client> {
    let mut clients: Vec<Client> = (0..threads)
        .map(|_| Client::connect(addr).expect("loopback connect"))
        .collect();
    for (i, client) in clients.iter_mut().enumerate() {
        client.query(&tenant(i), &[0, 0], &[0, 0]).expect("query");
    }
    clients
}

/// One client thread's request mix: 1 update per 3 queries, seeded.
/// With `check`, every answer is asserted against the mirror.
fn drive(mut client: Client, tenant: &str, seed: u64, ops: usize, check: bool) -> i64 {
    let mut rng = SimRng::new(seed);
    let mut mirror = if check { Some(Mirror::new()) } else { None };
    let mut sink = 0i64;
    for _ in 0..ops {
        if rng.next_u64().is_multiple_of(4) {
            let c = vec![
                (rng.next_u64() as usize) % DIMS[0],
                (rng.next_u64() as usize) % DIMS[1],
            ];
            let delta = (rng.next_u64() % 21) as i64 - 10;
            client.update(tenant, &c, delta).expect("update");
            if let Some(m) = mirror.as_mut() {
                m.update(&c, delta);
            }
        } else {
            let mut lo = Vec::with_capacity(2);
            let mut hi = Vec::with_capacity(2);
            for &d in &DIMS {
                let a = (rng.next_u64() as usize) % d;
                let b = (rng.next_u64() as usize) % d;
                lo.push(a.min(b));
                hi.push(a.max(b));
            }
            let sum = client.query(tenant, &lo, &hi).expect("query");
            if let Some(m) = mirror.as_ref() {
                assert_eq!(
                    sum,
                    m.sum(&lo, &hi),
                    "wire answer diverged from serial oracle"
                );
            }
            sink = sink.wrapping_add(sum);
        }
    }
    sink
}

/// Fans the clients (one tenant each) out over the server, one thread
/// each.
fn fan_out(clients: Vec<Client>, ops_per_thread: usize, check: bool) -> i64 {
    let handles: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(i, client)| {
            std::thread::spawn(move || {
                drive(client, &tenant(i), 0xBE9C + i as u64, ops_per_thread, check)
            })
        })
        .collect();
    let mut sink = 0i64;
    for h in handles {
        sink = sink.wrapping_add(h.join().expect("client thread"));
    }
    sink
}

/// Each `mixed_t*` row sends about `ops_per_thread` requests per client
/// in all, split across `repeats` passes.
fn run_scenario(
    name: &str,
    thread_counts: &[usize],
    repeats: usize,
    ops_per_thread: usize,
) -> Scenario {
    let max_threads = thread_counts.iter().copied().max().unwrap_or(1);
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: max_threads,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    for i in 0..max_threads {
        server.create_tenant(&tenant(i), &DIMS).expect("tenant");
    }
    let handle = server.shutdown_handle();
    let running = std::thread::spawn(move || server.run());

    // Correctness pass: every thread's wire answers must match its
    // serial oracle before anything is timed.
    fan_out(connect(addr, max_threads), ops_per_thread.min(300), true);

    let per_pass = ops_per_thread.div_ceil(repeats);
    let rows = thread_counts
        .iter()
        .map(|&threads| {
            let (m, _) = measure_with(
                repeats,
                1,
                threads * per_pass,
                || connect(addr, threads),
                |clients| fan_out(std::mem::take(clients), per_pass, false),
            );
            (format!("mixed_t{threads}"), m.without_allocs())
        })
        .collect();

    handle.shutdown();
    let report = running
        .join()
        .expect("server thread")
        .expect("graceful drain");
    assert_eq!(
        report.workers_joined, max_threads,
        "a worker panicked during the bench"
    );

    Scenario {
        name: name.to_string(),
        dims: DIMS.to_vec(),
        box_size: Vec::new(),
        rows,
    }
}

fn main() {
    let args = Args::parse("BENCH_THROUGHPUT.json");
    let threads: &[usize] = if args.smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    let ops_per_thread = if args.smoke { 200 } else { 2000 };
    let scenarios = vec![run_scenario(
        "loopback_mixed_1u3q",
        threads,
        args.repeats(),
        ops_per_thread,
    )];

    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let section = section_json(args.mode(), host_cpus, &scenarios);

    println!("=== serve-path throughput, loopback clients ({host_cpus} host cpus) ===\n");
    for s in &scenarios {
        println!("1 update : 3 queries per client, ns per request:");
        s.print();
    }

    write_section(&args.out, "exp_serve_throughput", &section);
    println!("\nwrote {} (section exp_serve_throughput)", args.out);
}
