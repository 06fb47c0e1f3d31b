//! Compile-server benchmark: cold vs warm cache throughput plus the
//! byte-identity invariants (EXPERIMENTS.md row B13, DESIGN.md §14).
//!
//! A block of generated multi-unit programs is pushed through a
//! [`compiler::Server`] twice over one cache directory: the **cold** pass
//! compiles and populates the cache, the **warm** pass must be served
//! entirely from disk. Three determinism anchors are asserted in-process
//! (a violation is a failed run, not a footnote):
//!
//! * every warm artifact is byte-identical to its cold artifact;
//! * the cold responses are byte-identical under `--jobs 1`, `4` and `16`
//!   (an FNV checksum over the response bytes is embedded in the report);
//! * a fresh server process over the same cache directory (a restart)
//!   serves byte-identical warm responses, and a partial edit of one unit
//!   in a three-unit batch hits on the two untouched siblings.
//!
//! Usage:
//!
//! ```text
//! serve_campaign [--out PATH] [--check PATH] [--min-ratio R]
//! ```
//!
//! `--out` writes a `compcerto-serve-bench/1` report (`BENCH_PR9.json`).
//! `--check` re-runs and gates against a committed report: the artifact
//! checksum must match exactly (mandatory — caching must be
//! observationally invisible), and the warm speedup must clear
//! `--min-ratio` (default 5, advisory on boxes with fewer than 4 cores,
//! where timings are too noisy to gate).

use std::process::ExitCode;
use std::time::Instant;

use bench::campaign::{self, Args, Baseline, Fail};
use bench::json::{self, Json};
use compcerto_gen::{generate, GenCfg};
use compiler::{
    available_parallelism, fnv1a, CompilerOptions, Jobs, ServeConfig, Server, FNV_OFFSET,
};

/// Number of generated batches (one `compile` request each).
const BATCHES: u64 = 24;
/// Warm-pass repetitions (median taken; the cold pass runs once — a
/// second cold pass over the same directory would be a warm pass).
const WARM_REPS: usize = 5;
/// The `--jobs` settings the cold responses must be invariant under.
const JOBS_MATRIX: [u64; 3] = [1, 4, 16];

/// The fixed three-unit batch for the partial-hit invariant: editing one
/// function body must leave its siblings' cache keys untouched.
const PARTIAL_A: &str = "int add(int x, int y) { return x + y; }";
const PARTIAL_B: &str =
    "extern int add(int, int); int twice(int n) { int r; r = add(n, n); return r; }";
const PARTIAL_C: &str = "int scale(int x) { return x * 3 + 7; }";
const PARTIAL_C2: &str = "int scale(int x) { return x * 4 + 7; }";

/// Render one `compile` request frame over the given unit sources.
fn compile_frame(id: u64, sources: &[String]) -> String {
    let units: Vec<String> = sources
        .iter()
        .map(|s| format!("{{\"source\":\"{}\"}}", json::escape(s)))
        .collect();
    format!(
        "{{\"schema\":\"compcerto-serve/1\",\"op\":\"compile\",\"id\":{id},\"units\":[{}]}}",
        units.join(",")
    )
}

/// The generated workload: one multi-unit batch per seed. The programs
/// are deliberately larger than the difftest default — back-end work per
/// unit grows much faster than the front-end parse the warm pass still
/// pays for the symbol table, which is what the cold/warm ratio measures.
fn workload() -> Vec<Vec<String>> {
    let cfg = GenCfg {
        units: 3,
        fns_per_unit: 4,
        stmts_per_fn: 12,
        ..GenCfg::default()
    };
    (0..BATCHES)
        .map(|seed| generate(seed, &cfg).render())
        .collect()
}

/// A response with its cache-state members removed: the bytes that must
/// be identical across cold, warm, restarted and differently-parallel
/// runs.
fn artifacts_only(resp: &str) -> Result<String, String> {
    let stripped = resp
        .replace("\"cache\":\"miss\",", "")
        .replace("\"cache\":\"hit\",", "")
        .replace("\"cache\":\"evict-miss\",", "");
    let stats = stripped
        .rfind(",\"cache\":{")
        .ok_or_else(|| format!("response has no stats object: {resp}"))?;
    Ok(stripped[..stats].to_string())
}

/// The `"cache":{...}` request-stats member of a `compile-result`.
fn request_stats(resp: &str) -> Result<&str, String> {
    let at = resp
        .rfind("\"cache\":{")
        .ok_or_else(|| format!("response has no stats object: {resp}"))?;
    Ok(resp[at..].trim_end_matches('}'))
}

fn fresh_dir(tag: &str) -> Result<String, String> {
    let dir = std::env::temp_dir().join(format!("serve-campaign-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
    Ok(dir.to_string_lossy().into_owned())
}

fn server(cache_dir: &str, jobs: Jobs) -> Result<Server, String> {
    Server::new(ServeConfig {
        opts: CompilerOptions::validated().with_metrics(),
        jobs,
        cache_dir: cache_dir.to_string(),
    })
}

/// Push every batch through `server` once; returns the elapsed seconds
/// and the raw responses (in batch order).
fn pass(server: &mut Server, frames: &[String]) -> Result<(f64, Vec<String>), String> {
    let t0 = Instant::now();
    let mut responses = Vec::with_capacity(frames.len());
    for f in frames {
        responses.push(
            server
                .handle_line(f)
                .ok_or("server returned no response to a compile frame")?,
        );
    }
    Ok((t0.elapsed().as_secs_f64(), responses))
}

/// Sum the per-request hit/miss/evict tallies over a pass's responses.
fn tally(responses: &[String]) -> Result<(u64, u64, u64), String> {
    let (mut h, mut m, mut e) = (0, 0, 0);
    for r in responses {
        let stats = request_stats(r)?;
        let field = |name: &str| -> Result<u64, String> {
            let tag = format!("\"{name}\":");
            let at = stats
                .find(&tag)
                .ok_or_else(|| format!("stats without `{name}`: {stats}"))?;
            stats[at + tag.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse::<u64>()
                .map_err(|err| format!("bad `{name}`: {err}"))
        };
        h += field("hit")?;
        m += field("miss")?;
        e += field("evict")?;
    }
    Ok((h, m, e))
}

struct Measurement {
    batches: u64,
    units: u64,
    cold_secs: f64,
    warm_secs: f64,
    cold_tally: (u64, u64, u64),
    warm_tally: (u64, u64, u64),
    checksum: u64,
}

fn measure() -> Result<Measurement, String> {
    let batches = workload();
    let units: u64 = batches.iter().map(|b| b.len() as u64).sum();
    let frames: Vec<String> = batches
        .iter()
        .enumerate()
        .map(|(i, b)| compile_frame(i as u64, b))
        .collect();

    // Invariant 1 — `--jobs` invariance: three cold passes over three
    // fresh directories must produce byte-identical responses.
    let mut jobs_responses: Vec<Vec<String>> = Vec::new();
    for jobs in JOBS_MATRIX {
        let dir = fresh_dir(&format!("jobs{jobs}"))?;
        let mut srv = server(&dir, Jobs::N(jobs as usize))?;
        let (_, responses) = pass(&mut srv, &frames)?;
        let _ = std::fs::remove_dir_all(&dir);
        jobs_responses.push(responses);
    }
    for (jobs, responses) in JOBS_MATRIX.iter().zip(&jobs_responses[1..]) {
        if responses != &jobs_responses[0] {
            return Err(format!(
                "cold responses differ between --jobs {} and --jobs {jobs}",
                JOBS_MATRIX[0]
            ));
        }
    }
    let checksum = jobs_responses[0]
        .iter()
        .fold(FNV_OFFSET, |h, r| fnv1a(h, r.as_bytes()));

    // The timed cold/warm passes (jobs auto, one shared directory).
    let dir = fresh_dir("timed")?;
    let mut srv = server(&dir, Jobs::Auto)?;
    let (cold_secs, cold) = pass(&mut srv, &frames)?;
    let cold_tally = tally(&cold)?;
    if cold_tally.0 != 0 || cold_tally.1 != units {
        return Err(format!(
            "cold pass expected 0 hits / {units} misses, got {cold_tally:?}"
        ));
    }

    let mut warm_times = Vec::with_capacity(WARM_REPS);
    let mut warm = Vec::new();
    for _ in 0..WARM_REPS {
        let (secs, responses) = pass(&mut srv, &frames)?;
        warm_times.push(secs);
        warm = responses;
    }
    warm_times.sort_by(f64::total_cmp);
    let warm_secs = warm_times[warm_times.len() / 2];
    let warm_tally = tally(&warm)?;
    if warm_tally.1 != 0 || warm_tally.0 != units {
        return Err(format!(
            "warm pass expected {units} hits / 0 misses, got {warm_tally:?}"
        ));
    }

    // Invariant 2 — warm artifacts are the cold artifacts, byte for byte.
    for (c, w) in cold.iter().zip(&warm) {
        if artifacts_only(c)? != artifacts_only(w)? {
            return Err("a warm artifact differs from its cold compilation".into());
        }
    }

    // Invariant 3 — a restarted server over the same directory serves the
    // same warm bytes (stats included: both are all-hit passes).
    drop(srv);
    let mut restarted = server(&dir, Jobs::Auto)?;
    let (_, warm2) = pass(&mut restarted, &frames)?;
    if warm2 != warm {
        return Err("warm responses changed across a server restart".into());
    }

    // Invariant 4 — partial hit: edit one body in a three-unit batch; the
    // two untouched siblings must hit and serve their cold bytes.
    let three = |c: &str| vec![PARTIAL_A.to_string(), PARTIAL_B.to_string(), c.to_string()];
    let full = restarted
        .handle_line(&compile_frame(100, &three(PARTIAL_C)))
        .ok_or("no response")?;
    let partial = restarted
        .handle_line(&compile_frame(100, &three(PARTIAL_C2)))
        .ok_or("no response")?;
    if request_stats(&partial)? != "\"cache\":{\"hit\":2,\"miss\":1,\"evict\":0" {
        return Err(format!(
            "partial edit expected 2 hits / 1 miss, got: {}",
            request_stats(&partial)?
        ));
    }
    let unit_frames = |resp: &str| -> Vec<String> {
        resp.split("{\"unit\":").skip(1).map(str::to_string).collect()
    };
    let (fu, pu) = (unit_frames(&full), unit_frames(&partial));
    let tagless = |s: &str| s.replace("\"cache\":\"miss\",", "").replace("\"cache\":\"hit\",", "");
    if fu.len() != 3 || pu.len() != 3 || tagless(&fu[0]) != tagless(&pu[0]) || tagless(&fu[1]) != tagless(&pu[1]) {
        return Err("a partial edit invalidated an untouched sibling unit".into());
    }
    let _ = std::fs::remove_dir_all(&dir);

    Ok(Measurement {
        batches: BATCHES,
        units,
        cold_secs,
        warm_secs,
        cold_tally,
        warm_tally,
        checksum,
    })
}

fn report_json(m: &Measurement, cores: usize) -> String {
    let speedup = m.cold_secs / m.warm_secs.max(1e-9);
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"schema\": \"compcerto-serve-bench/1\",\n");
    j.push_str(&format!("  \"batches\": {},\n", m.batches));
    j.push_str(&format!("  \"units\": {},\n", m.units));
    j.push_str(&format!("  \"warm_reps\": {WARM_REPS},\n"));
    j.push_str(&format!(
        "  \"jobs_matrix\": [{}],\n",
        JOBS_MATRIX.map(|n| n.to_string()).join(", ")
    ));
    j.push_str(&format!("  \"cores\": {cores},\n"));
    j.push_str(&format!("  \"cold_secs\": {:.6},\n", m.cold_secs));
    j.push_str(&format!("  \"warm_secs\": {:.6},\n", m.warm_secs));
    j.push_str(&format!("  \"warm_speedup\": {speedup:.2},\n"));
    j.push_str(&format!(
        "  \"cold\": {{\"hit\": {}, \"miss\": {}, \"evict\": {}}},\n",
        m.cold_tally.0, m.cold_tally.1, m.cold_tally.2
    ));
    j.push_str(&format!(
        "  \"warm\": {{\"hit\": {}, \"miss\": {}, \"evict\": {}}},\n",
        m.warm_tally.0, m.warm_tally.1, m.warm_tally.2
    ));
    j.push_str(&format!(
        "  \"artifact_checksum\": \"{:016x}\"\n",
        m.checksum
    ));
    j.push_str("}\n");
    j
}

struct Cli {
    out: Option<String>,
    check: Option<String>,
    min_ratio: f64,
}

fn parse_args(args: &mut Args) -> Result<Cli, String> {
    let mut cli = Cli {
        out: None,
        check: None,
        min_ratio: 5.0,
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--out" => cli.out = Some(args.value(&flag)?),
            "--check" => cli.check = Some(args.value(&flag)?),
            "--min-ratio" => cli.min_ratio = args.value(&flag)?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if cli.out.is_none() && cli.check.is_none() {
        cli.out = Some("BENCH_PR9.json".to_string());
    }
    Ok(cli)
}

fn run(cli: &Cli) -> Result<(), Fail> {
    let check = match &cli.check {
        Some(path) => Some(Baseline::load(path, "compcerto-serve-bench/1")?),
        None => None,
    };
    let cores = available_parallelism();
    println!("serve_campaign: {BATCHES} batches, warm median of {WARM_REPS}, jobs matrix {JOBS_MATRIX:?}");
    let m = measure().map_err(Fail::Finding)?;
    let speedup = m.cold_secs / m.warm_secs.max(1e-9);
    println!(
        "cold: {:.3}s ({} units compiled), warm: {:.3}s (all {} hits) — {speedup:.2}x",
        m.cold_secs, m.units, m.warm_secs, m.units
    );
    println!("artifact checksum: {:016x} (jobs-invariant, restart-invariant)", m.checksum);

    if let Some(base) = &check {
        let path = &base.path;
        let committed_ck = base
            .doc
            .get("artifact_checksum")
            .and_then(Json::as_str)
            .ok_or_else(|| Fail::Usage(format!("`{path}` has no artifact_checksum")))?;
        let now_ck = format!("{:016x}", m.checksum);
        if now_ck != committed_ck {
            return Err(Fail::Finding(format!(
                "artifact checksum {now_ck} != committed {committed_ck} in `{path}` — \
                 the server's compiled output drifted"
            )));
        }
        println!("checksum gate: matches `{path}` ✓");
        let gated = cores >= 4;
        println!(
            "warm speedup: {speedup:.2}x (floor {:.1}x, {})",
            cli.min_ratio,
            if gated { "gated" } else { "advisory: <4 cores" }
        );
        if gated && speedup < cli.min_ratio {
            return Err(Fail::Finding(format!(
                "warm-cache speedup regressed: {speedup:.2}x < {:.1}x floor",
                cli.min_ratio
            )));
        }
        return Ok(());
    }

    match &cli.out {
        Some(out) => campaign::deliver(&report_json(&m, cores), None, out),
        None => Ok(()),
    }
}

fn main() -> ExitCode {
    campaign::main(
        "serve_campaign [--out PATH] [--check PATH] [--min-ratio R]",
        parse_args,
        run,
    )
}
