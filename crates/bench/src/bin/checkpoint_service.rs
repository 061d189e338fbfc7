//! Checkpoint-service timing: a chunked-compressed `.pmb` write, a delta
//! checkpoint after a sparse touch pass, and many concurrent clients
//! restoring disjoint slices of one checkpoint through the shared chunk
//! cache of `pumi-serve`.
//!
//! The default pass runs at ~10^6 triangles; `--large` adds a ~10^7 pass
//! (one rep). Each leg reports the median wall time and the bytes the leg
//! put on disk; the write must put fewer bytes on disk than its sections
//! hold raw (the section tables record both) or the bin aborts.
//!
//! Usage: `checkpoint_service [--parts N] [--reps N] [--clients N]
//! [--large]`.
//!
//! Not a paper table or figure: this binary stays only because it is the
//! sole way to run the 10^7-element serve leg ROADMAP item 2 must re-take
//! (`benchmark`'s `ckpt_write`/`ckpt_restore` run at 24 200 elements). The
//! `benchmark` PR that adds `--scale large` deletes it.

use pumi_bench::report::{f, print_table, Table};
use pumi_core::{distribute, DistMesh, PartMap};
use pumi_field::{DistField, Field, FieldShape};
use pumi_io::{write_checkpoint, write_delta_checkpoint, PartFile};
use pumi_meshgen::{jitter, tri_rect};
use pumi_partition::partition_mesh;
use pumi_pcu::execute;
use pumi_serve::CheckpointServer;
use pumi_util::stats::Timer;
use pumi_util::Dim;
use std::path::PathBuf;

struct Leg {
    name: String,
    median_ns: u64,
    samples: u64,
    bytes: u64,
    detail: String,
}

fn median_ns(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

fn parse_args() -> (usize, usize, usize, bool) {
    let (mut parts, mut reps, mut clients, mut large) = (4usize, 3usize, 8usize, false);
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--large" => {
                large = true;
                i += 1;
            }
            flag => {
                let v = args
                    .get(i + 1)
                    .unwrap_or_else(|| panic!("{flag} needs a value"));
                match flag {
                    "--parts" => parts = v.parse().expect("--parts"),
                    "--reps" => reps = v.parse().expect("--reps"),
                    "--clients" => clients = v.parse().expect("--clients"),
                    other => panic!("unknown flag {other}"),
                }
                i += 2;
            }
        }
    }
    (parts, reps, clients, large)
}

fn make_fields(dm: &DistMesh) -> DistField {
    dm.parts
        .iter()
        .map(|part| {
            let mut fld = Field::new("temp", FieldShape::Linear, 3);
            for v in part.mesh.iter(Dim::Vertex) {
                let x = part.mesh.coords(v);
                fld.set(v, &[x[0] + x[1], x[1] * x[2], x[2] - x[0]]);
            }
            fld
        })
        .collect()
}

/// Elementwise max across ranks: the slowest rank's wall time is the leg's.
fn fold_max(out: Vec<Vec<u64>>) -> Vec<u64> {
    let mut acc = out[0].clone();
    for row in &out[1..] {
        for (a, b) in acc.iter_mut().zip(row) {
            *a = (*a).max(*b);
        }
    }
    acc
}

/// One full pass at a given mesh scale; pushes write/delta/serve legs.
fn run_scale(
    scale: &str,
    nx: usize,
    parts: usize,
    reps: usize,
    clients: usize,
    legs: &mut Vec<Leg>,
) {
    let mut serial = tri_rect(nx, nx, 1.0, 1.0);
    jitter(&mut serial, 0.15, 42);
    let elements = serial.count(Dim::Face) as u64;
    eprintln!("checkpoint_service[{scale}]: {elements} tris, {parts} parts, {reps} reps");
    let labels = partition_mesh(&serial, parts);
    let tag = format!("pumi_io_serve_{}_{scale}", std::process::id());
    let dir: PathBuf = std::env::temp_dir().join(format!("{tag}_ckpt"));
    let _ = std::fs::remove_dir_all(&dir);

    // One world does all the writing: distribute once, then time each leg.
    let out = execute(parts, |c| {
        let mut dm = distribute(c, PartMap::contiguous(parts, parts), &serial, &labels);
        let mut fields = make_fields(&dm);

        let mut write_ns = Vec::with_capacity(reps);
        let mut disk_bytes = 0u64;
        for _ in 0..reps {
            let t = Timer::start();
            let stats = write_checkpoint(c, &dm, &[&fields], &dir).expect("write");
            write_ns.push((t.seconds() * 1e9) as u64);
            disk_bytes = stats.bytes_global;
        }

        // Sparse touch pass (~1% of vertices) and one delta round on top
        // of the base — the between-adapt-rounds checkpoint shape.
        dm.start_dirty_tracking();
        for (part, fld) in dm.parts.iter_mut().zip(fields.iter_mut()) {
            let vs: Vec<_> = part.mesh.iter(Dim::Vertex).step_by(97).collect();
            for v in vs {
                let mut x = part.mesh.coords(v);
                x[2] += 0.001;
                part.mesh.set_coords(v, x);
                fld.set(v, &[x[0] + x[1], x[1] * x[2], x[2] - x[0]]);
                part.mark_dirty(v);
            }
        }
        let t = Timer::start();
        let stats = write_delta_checkpoint(c, &mut dm, &[&fields], &dir).expect("delta write");
        let delta_ns = (t.seconds() * 1e9) as u64;
        (write_ns, vec![delta_ns], stats.bytes_global, disk_bytes)
    });
    let (_, _, delta_bytes, disk_bytes) = out[0].clone();
    let write_ns = fold_max(out.iter().map(|o| o.0.clone()).collect());
    let delta_ns = fold_max(out.iter().map(|o| o.1.clone()).collect());

    // What the base snapshot's sections hold uncompressed, off the tables.
    let raw_bytes: u64 = (0..parts as u32)
        .map(|p| PartFile::read(&dir, p, None).expect("part file"))
        .flat_map(|f| f.header.sections)
        .map(|e| e.raw_len)
        .sum();
    assert!(
        disk_bytes < raw_bytes,
        "[{scale}] the checkpoint on disk ({disk_bytes} B) must be smaller than its raw sections ({raw_bytes} B)"
    );

    legs.push(Leg {
        name: format!("write@{scale}"),
        median_ns: median_ns(write_ns),
        samples: reps as u64,
        bytes: disk_bytes,
        detail: format!("{:.2}x of raw", disk_bytes as f64 / raw_bytes as f64),
    });
    legs.push(Leg {
        name: format!("delta@{scale}"),
        median_ns: delta_ns[0],
        samples: 1,
        bytes: delta_bytes,
        detail: "~1% touched".into(),
    });

    // Many-reader leg: fresh server each rep (cold cache), `clients`
    // concurrent PCU clients each restoring a disjoint slice.
    let mut serve_ns = Vec::with_capacity(reps);
    let mut detail = String::new();
    for _ in 0..reps {
        let server = CheckpointServer::open(&dir).expect("open");
        let t = Timer::start();
        let counts = execute(clients, |c| {
            let slice = server
                .restore_slice(c.rank(), c.nranks())
                .expect("slice restore");
            slice
                .parts
                .iter()
                .map(|p| p.mesh.count(Dim::Face) as u64)
                .sum::<u64>()
        });
        serve_ns.push((t.seconds() * 1e9) as u64);
        let total: u64 = counts.iter().sum();
        assert_eq!(total, elements, "slices must tile the mesh");
        let s = server.stats();
        detail = format!(
            "{} hits / {} misses, {} disk B",
            s.chunk_hits, s.chunk_misses, s.disk_bytes
        );
    }
    legs.push(Leg {
        name: format!("serve{clients}@{scale}"),
        median_ns: median_ns(serve_ns),
        samples: reps as u64,
        bytes: disk_bytes + delta_bytes,
        detail,
    });

    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    let (parts, reps, clients, large) = parse_args();
    assert!(clients >= 8, "the many-reader leg wants ≥8 clients");
    let mut legs: Vec<Leg> = Vec::new();

    // 2 * 707^2 ≈ 1.0e6 triangles; 2 * 2236^2 ≈ 1.0e7.
    run_scale("1e6", 707, parts, reps, clients, &mut legs);
    if large {
        run_scale("1e7", 2236, parts, 1, clients, &mut legs);
    }

    let mut table = Table::new(
        &format!("Checkpoint service, {parts} parts, {clients} clients"),
        &["leg", "median (ms)", "samples", "bytes", "detail"],
    );
    for leg in &legs {
        table.row(vec![
            leg.name.clone(),
            f(leg.median_ns as f64 * 1e-6, 3),
            leg.samples.to_string(),
            leg.bytes.to_string(),
            leg.detail.clone(),
        ]);
    }
    print_table(&table);
}
