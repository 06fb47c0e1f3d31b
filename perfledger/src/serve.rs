//! The `serve` workload: an in-process compile server with the
//! `ccomp-o serve` defaults (validated, metrics on, `--jobs auto`) and its
//! own fresh cache directory.
//!
//! Set-up fills the cache cold with the batches of generator seeds
//! `0..BATCHES`. The loop then re-sends them in an order drawn from the
//! workload seed; every 4th request edits the body of one function with a
//! value never sent before, which leaves the symbol table as it was, so
//! that request is exactly 1 miss + 2 hits. All other requests are all
//! hits. With an odd batch count, one pass of `12 × BATCHES` requests
//! edits every unit of every batch exactly once.

use std::path::PathBuf;
use std::time::Instant;

use clight::build_symtab;
use compcerto_core::rng::SplitMix64;
use compcerto_gen::{generate, GExpr, GProgram, GenCfg};
use compiler::driver::compile_typed_jobs;
use compiler::json;
use compiler::{front_end, CompilerOptions, Jobs, ObsSnapshot, ServeConfig, Server};

use crate::harness::{shuffled_block, Workload};
use crate::rawjson::{self, Value};
use crate::trace::{probe_validators, Trace};

/// Batches in the pool (odd, so the edit slot rotates over all of them).
pub const BATCHES: usize = 9;
/// Requests per batch in one pass: 3 of them are edits, one per unit.
const ROUNDS: usize = 12;

/// The batch shape of the `serve_campaign` bench: 3 units × 4 functions ×
/// 12 statements.
pub fn batch_cfg() -> GenCfg {
    GenCfg {
        units: 3,
        fns_per_unit: 4,
        stmts_per_fn: 12,
        ..GenCfg::default()
    }
}

/// The options `ccomp-o serve` compiles with by default.
pub fn serve_opts() -> CompilerOptions {
    CompilerOptions::validated().with_metrics()
}

/// `prog` with function `func` of unit `unit` returning `ret + k`. Only the
/// body changes, so the batch symbol table stays the same.
pub fn edited(prog: &GProgram, unit: usize, func: usize, k: i32) -> GProgram {
    let mut p = prog.clone();
    let f = &mut p.units[unit].funcs[func];
    let ret = std::mem::replace(&mut f.ret, GExpr::Const(0));
    f.ret = GExpr::Add(Box::new(ret), Box::new(GExpr::Const(k)));
    p
}

/// One `compile` request frame over the given unit sources.
pub fn compile_frame(id: u64, sources: &[String]) -> String {
    let units: Vec<String> = sources
        .iter()
        .map(|s| format!("{{\"source\":\"{}\"}}", json::escape(s)))
        .collect();
    format!(
        "{{\"schema\":\"compcerto-serve/1\",\"op\":\"compile\",\"id\":{id},\"units\":[{}]}}",
        units.join(",")
    )
}

/// A cache directory inside the working directory, removed on drop.
pub struct CacheDir(PathBuf);

impl CacheDir {
    pub fn new(tag: &str) -> Result<CacheDir, String> {
        let dir =
            PathBuf::from(".perfledger-tmp").join(format!("serve-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
        Ok(CacheDir(dir))
    }

    pub fn path(&self) -> String {
        self.0.to_string_lossy().into_owned()
    }

    /// Total bytes of the cache entries.
    pub fn bytes(&self) -> u64 {
        std::fs::read_dir(&self.0)
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for CacheDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once the last cache directory is gone.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

struct Batch {
    prog: GProgram,
    sources: Vec<String>,
    /// The function an edit of each unit changes.
    edit_fn: Vec<usize>,
    /// Each unit's artifact from the cold fill, as the server wrote it.
    cold: Vec<String>,
}

pub struct Req {
    batch: usize,
    /// The edited unit, for an edit request.
    edit: Option<usize>,
    sources: Vec<String>,
    id: u64,
    frame: String,
}

/// What a traced request leaves for the probes.
struct Traced {
    sources: Vec<String>,
    edit: Option<usize>,
    wall_ms: f64,
    resp: String,
}

pub struct Serve {
    batches: Vec<Batch>,
    /// One pass: each request's batch and, for an edit, the edited unit.
    schedule: Vec<(usize, Option<usize>)>,
    server: Server,
    /// A one-thread server over the same cache, for the traced pass.
    traced: Option<Server>,
    last: Option<Traced>,
    next_id: u64,
    next_edit: i32,
    // Dropped last: the servers above write into it.
    dir: CacheDir,
}

fn server(dir: &CacheDir, jobs: Jobs) -> Result<Server, String> {
    Server::new(ServeConfig {
        opts: serve_opts(),
        jobs,
        cache_dir: dir.path(),
    })
}

impl Serve {
    /// Draw the batches from `seed`, start a server on a fresh cache
    /// directory and fill it cold.
    pub fn new(seed: u64, tag: &str) -> Result<Serve, String> {
        Serve::with_batches(seed, BATCHES, tag)
    }

    /// The workload over the batches of generator seeds `0..batches`
    /// (`batches` odd).
    pub fn with_batches(seed: u64, batches: usize, tag: &str) -> Result<Serve, String> {
        assert!(batches % 2 == 1, "an odd batch count rotates the edit slot");
        let dir = CacheDir::new(tag)?;
        let server = server(&dir, Jobs::Auto)?;
        let mut s = Serve {
            batches: Vec::with_capacity(batches),
            schedule: Vec::new(),
            server,
            traced: None,
            last: None,
            next_id: 0,
            next_edit: 1,
            dir,
        };
        let mut rng = SplitMix64::new(seed);
        for b in 0..batches {
            let prog = generate(b as u64, &batch_cfg());
            let edit_fn = prog
                .units
                .iter()
                .map(|u| rng.next_u64() as usize % u.funcs.len())
                .collect();
            let sources = prog.render();
            let id = s.next_id;
            s.next_id += 1;
            let resp = s
                .server
                .handle_line(&compile_frame(id, &sources))
                .ok_or("no response to a compile request")?;
            let cold = check_response(&resp, id, sources.len(), |_| true)
                .map_err(|e| format!("cold fill of batch {b}: {e}"))?
                .into_iter()
                .map(str::to_string)
                .collect();
            s.batches.push(Batch {
                prog,
                sources,
                edit_fn,
                cold,
            });
        }
        // Request `i` goes to batch `order[i % batches]` and is an edit when
        // `i % 4 == 3`; as `batches` is odd, each batch gets ROUNDS / 4 edits
        // per pass, which walk its units from a drawn start.
        let order = shuffled_block(batches, rng.next_u64());
        let mut next_unit: Vec<usize> = s
            .batches
            .iter()
            .map(|b| rng.next_u64() as usize % b.sources.len())
            .collect();
        s.schedule = (0..ROUNDS * batches)
            .map(|i| {
                let b = order[i % batches] as usize;
                let edit = (i % 4 == 3).then(|| {
                    let u = next_unit[b] % s.batches[b].sources.len();
                    next_unit[b] += 1;
                    u
                });
                (b, edit)
            })
            .collect();
        Ok(s)
    }

    /// The cache directory of this instance.
    #[cfg(test)]
    pub fn cache_dir(&self) -> String {
        self.dir.path()
    }
}

#[cfg(test)]
impl Req {
    pub fn batch(&self) -> usize {
        self.batch
    }

    pub fn edited_unit(&self) -> Option<usize> {
        self.edit
    }
}

/// Check a `compile-result` frame: the right id, one clean artifact per
/// unit, and a miss exactly where `is_miss` says (hits elsewhere). Returns
/// the artifacts' text.
fn check_response(
    resp: &str,
    id: u64,
    units: usize,
    is_miss: impl Fn(usize) -> bool,
) -> Result<Vec<&str>, String> {
    let j = rawjson::parse(resp).map_err(|e| format!("unparsable response: {e}"))?;
    let op = j.get("op").and_then(Value::str).unwrap_or("");
    if op != "compile-result" {
        return Err(format!("`{op}` frame: {resp:.200}"));
    }
    if j.get("id").and_then(Value::u64) != Some(id) {
        return Err(format!("response is not for request {id}"));
    }
    let misses = (0..units).filter(|&i| is_miss(i)).count() as u64;
    let stat = |k: &str| j.get("cache").and_then(|c| c.get(k)).and_then(Value::u64);
    let want = (Some(units as u64 - misses), Some(misses), Some(0));
    let got = (stat("hit"), stat("miss"), stat("evict"));
    if got != want {
        return Err(format!("cache hit/miss/evict {got:?}, expected {want:?}"));
    }
    let frames = j.get("units").and_then(Value::arr).unwrap_or(&[]);
    if frames.len() != units {
        return Err(format!("{} unit frames for {units} units", frames.len()));
    }
    let mut artifacts = Vec::with_capacity(units);
    for (i, f) in frames.iter().enumerate() {
        let tag = if is_miss(i) { "miss" } else { "hit" };
        if f.get("unit").and_then(Value::u64) != Some(i as u64)
            || f.get("cache").and_then(Value::str) != Some(tag)
        {
            return Err(format!("unit frame {i} is not a {tag}"));
        }
        let a = f
            .get("artifact")
            .ok_or(format!("unit {i} has no artifact"))?;
        let clean = a.get("status").and_then(Value::str) == Some("ok")
            && a.get("diagnostics")
                .and_then(Value::arr)
                .map(<[Value]>::len)
                == Some(0);
        if !clean {
            return Err(format!("unit {i} did not compile and validate clean"));
        }
        artifacts.push(a.text);
    }
    Ok(artifacts)
}

impl Workload for Serve {
    type Req = Req;
    type Resp = Option<String>;

    fn pass_len(&self) -> usize {
        self.schedule.len()
    }

    fn prepare(&mut self, i: usize) -> Req {
        let (batch, edit) = self.schedule[i];
        let b = &self.batches[batch];
        let id = self.next_id;
        self.next_id += 1;
        let sources = match edit {
            Some(unit) => {
                let k = self.next_edit;
                self.next_edit += 1;
                edited(&b.prog, unit, b.edit_fn[unit], k).render()
            }
            None => b.sources.clone(),
        };
        let frame = compile_frame(id, &sources);
        Req {
            batch,
            edit,
            sources,
            id,
            frame,
        }
    }

    /// One hit request: the first of the pass. The cold fill before it is
    /// most of set-up.
    fn warm_up_reqs(&mut self) -> Vec<Req> {
        vec![self.prepare(0)]
    }

    fn run(&mut self, req: &Req) -> Option<String> {
        self.server.handle_line(&req.frame)
    }

    fn run_traced(&mut self, req: &Req, tr: &mut Trace) -> Option<String> {
        if self.traced.is_none() {
            self.traced =
                Some(server(&self.dir, Jobs::N(1)).expect("the cache directory exists already"));
        }
        let traced = self.traced.as_mut().expect("set just above");
        let snap = ObsSnapshot::take();
        let t = Instant::now();
        let resp = traced.handle_line(&req.frame);
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        tr.obs(&snap.delta());
        self.last = Some(Traced {
            sources: req.sources.clone(),
            edit: req.edit,
            wall_ms,
            resp: resp.clone().unwrap_or_default(),
        });
        resp
    }

    /// Time the layers of the request just served by repeating them: the
    /// front end of every unit, the batch symbol table, and for an edit the
    /// compile of the missed unit. The response carries no pass spans, so
    /// this is where the miss's pass and validator times come from.
    fn probe(&mut self, tr: &mut Trace) {
        let Some(last) = self.last.take() else { return };
        tr.add(
            "clight.source_bytes",
            last.sources.iter().map(String::len).sum::<usize>() as f64,
        );
        let t = Instant::now();
        let typed: Vec<clight::Program> = last
            .sources
            .iter()
            .filter_map(|s| front_end(s).ok())
            .collect();
        let front_ms = t.elapsed().as_secs_f64() * 1e3;
        tr.add("clight.front_end_ms", front_ms);
        let refs: Vec<&clight::Program> = typed.iter().collect();
        let t = Instant::now();
        let symtab = build_symtab(&refs);
        let symtab_ms = t.elapsed().as_secs_f64() * 1e3;
        tr.add("clight.symtab_ms", symtab_ms);
        let mut miss_ms = 0.0;
        if let (Some(u), Ok(symtab)) = (last.edit, &symtab) {
            if u < typed.len() {
                let t = Instant::now();
                let units = compile_typed_jobs(&typed[u..=u], symtab, serve_opts(), Jobs::N(1));
                miss_ms = t.elapsed().as_secs_f64() * 1e3;
                if let Ok(units) = units {
                    tr.units(&units);
                    probe_validators(tr, &units, symtab);
                }
            }
        }
        tr.add("serve.miss_compile_ms", miss_ms);
        tr.add(
            "serve.request_self_ms",
            last.wall_ms - front_ms - symtab_ms - miss_ms,
        );
        if let Ok(j) = rawjson::parse(&last.resp) {
            for k in ["hit", "miss", "evict"] {
                let n = j.get("cache").and_then(|c| c.get(k)).and_then(Value::u64);
                tr.add(&format!("serve.{k}"), n.unwrap_or(0) as f64);
            }
        }
    }

    fn check(&mut self, req: &Req, resp: Option<String>) -> Result<String, String> {
        let resp = resp.ok_or("no response to a compile request")?;
        let b = &self.batches[req.batch];
        let got = check_response(&resp, req.id, b.sources.len(), |i| req.edit == Some(i))?;
        for (i, (a, cold)) in got.iter().zip(&b.cold).enumerate() {
            if req.edit != Some(i) && a != cold {
                return Err(format!(
                    "batch {}: unit {i} differs from the cold fill",
                    req.batch
                ));
            }
        }
        Ok(match req.edit {
            Some(u) => format!("batch {} edit unit {u}", req.batch),
            None => format!("batch {} hit", req.batch),
        })
    }

    fn finish_trace(&mut self, tr: &mut Trace) {
        tr.set("serve.cache_bytes", self.dir.bytes() as f64);
        let (hit, miss) = (tr.get("serve.hit"), tr.get("serve.miss"));
        tr.set("serve.hit_ratio", hit / (hit + miss).max(1.0));
    }
}
