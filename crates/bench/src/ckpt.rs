//! Campaign checkpoint/resume helpers (resilience layer, DESIGN.md §11).
//!
//! Long campaigns die for infrastructure reasons — OOM killers, CI
//! timeouts, a laptop lid. A campaign that loses three hours of seeds to a
//! kill signal is not resilient, whatever its oracle does. The campaign
//! bins therefore write a small JSON checkpoint (schema
//! [`CKPT_SCHEMA`]) after every completed block of work, and `--resume`
//! continues from the last completed block. Two invariants make this safe:
//!
//! * **Byte-identical results.** Campaign aggregation is commutative
//!   per-seed/per-class folding, so "fold blocks 0..k from the checkpoint,
//!   then keep going" produces exactly the bytes of the uninterrupted run
//!   (`ci.sh` kill-and-resume smoke asserts this).
//! * **Config fingerprinting.** A checkpoint embeds a fingerprint of every
//!   result-affecting flag; resuming under a different configuration is a
//!   usage error (exit 2), never a silently mixed report.
//!
//! Checkpoints are written atomically (temp file + rename) so a kill
//! *during* a checkpoint write leaves the previous checkpoint intact.

use std::collections::BTreeMap;

use compiler::json::{self, Json};
use compiler::Counters;

/// Schema stamped on every campaign checkpoint.
pub const CKPT_SCHEMA: &str = "compcerto-ckpt/1";

/// Minimal JSON string escaping (no serde in the offline workspace). The
/// exact inverse of what [`compiler::json`] unescapes.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Write `contents` to `path` atomically: a kill mid-write leaves either
/// the old checkpoint or the new one, never a torn file.
///
/// # Errors
/// Reports the failing filesystem operation.
pub fn write_atomic(path: &str, contents: &str) -> Result<(), String> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, contents).map_err(|e| format!("cannot write `{tmp}`: {e}"))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("cannot rename `{tmp}` -> `{path}`: {e}"))
}

/// Load and validate a checkpoint: the file must parse, carry
/// [`CKPT_SCHEMA`], name the expected `bin`, and match the caller's config
/// `fingerprint` exactly.
///
/// # Errors
/// A message suitable for a usage error (exit 2): missing file, parse
/// failure, or a schema/bin/fingerprint mismatch.
pub fn load(path: &str, bin: &str, fingerprint: &str) -> Result<Json, String> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read checkpoint `{path}`: {e}"))?;
    let j = json::parse(&src).map_err(|e| format!("checkpoint `{path}`: {e}"))?;
    let schema = j.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != CKPT_SCHEMA {
        return Err(format!(
            "checkpoint `{path}`: schema `{schema}` != `{CKPT_SCHEMA}`"
        ));
    }
    let got_bin = j.get("bin").and_then(Json::as_str).unwrap_or("");
    if got_bin != bin {
        return Err(format!(
            "checkpoint `{path}` belongs to `{got_bin}`, not `{bin}`"
        ));
    }
    let got_fp = j.get("cfg").and_then(Json::as_str).unwrap_or("");
    if got_fp != fingerprint {
        return Err(format!(
            "checkpoint `{path}` was taken under a different configuration\n  \
             checkpoint: {got_fp}\n  requested:  {fingerprint}"
        ));
    }
    Ok(j)
}

/// Remove a checkpoint file (after the final report was written). Missing
/// files are fine; other errors are reported but non-fatal by convention.
pub fn remove(path: &str) {
    if let Err(e) = std::fs::remove_file(path) {
        if e.kind() != std::io::ErrorKind::NotFound {
            eprintln!("warning: cannot remove checkpoint `{path}`: {e}");
        }
    }
}

/// The unsigned integer member `key` of a checkpoint object.
///
/// # Errors
/// A missing or non-integer member.
pub fn u64_field(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing `{key}`"))
}

/// Decode the member `key`, an object whose members are all unsigned
/// integers.
///
/// # Errors
/// A missing member, or the first non-integer entry.
pub fn u64_map(doc: &Json, key: &str) -> Result<BTreeMap<String, u64>, String> {
    let obj = doc
        .get(key)
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("missing object `{key}`"))?;
    let mut out = BTreeMap::new();
    for (k, v) in obj {
        let n = v.as_u64().ok_or_else(|| format!("{key}.{k}: not a u64"))?;
        out.insert(k.clone(), n);
    }
    Ok(out)
}

/// Encode a `String -> u64` map as a compact single-line JSON object (the
/// checkpoint format; key order is the map's, i.e. deterministic).
#[must_use]
pub fn u64_map_json(map: &BTreeMap<String, u64>) -> String {
    let members: Vec<String> = map
        .iter()
        .map(|(k, v)| format!("\"{}\": {v}", json_str(k)))
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// Encode deterministic counters like [`u64_map_json`].
#[must_use]
pub fn counters_json(counters: &Counters) -> String {
    let owned = counters.0.iter().map(|(k, v)| ((*k).to_string(), *v)).collect();
    u64_map_json(&owned)
}

/// Decode the map member `key` like [`u64_map`], mapping each name back
/// to its `&'static` key through `intern`.
///
/// # Errors
/// A malformed member or a name `intern` does not know.
pub fn interned(
    doc: &Json,
    key: &str,
    intern: impl Fn(&str) -> Option<&'static str>,
) -> Result<BTreeMap<&'static str, u64>, String> {
    u64_map(doc, key)?
        .into_iter()
        .map(|(k, v)| {
            intern(&k)
                .map(|name| (name, v))
                .ok_or_else(|| format!("{key}: unknown key `{k}`"))
        })
        .collect()
}

/// Decode the counters member `key` (see [`interned`]).
///
/// # Errors
/// A malformed member or a counter name `intern` does not know.
pub fn counters(
    doc: &Json,
    key: &str,
    intern: fn(&str) -> Option<&'static str>,
) -> Result<Counters, String> {
    interned(doc, key, intern).map(Counters)
}

/// One campaign finding, owned so that checkpoints round-trip it.
#[derive(Debug, PartialEq, Eq)]
pub struct Finding {
    /// The generator seed.
    pub seed: u64,
    /// The finding's kind.
    pub kind: String,
    /// What disagreed.
    pub detail: String,
    /// Statements in the shrunk reproducer (`-1` when none).
    pub stmts: i64,
    /// The shrunk reproducer (empty when none).
    pub source: String,
}

/// Encode findings as a JSON array, one row per line.
#[must_use]
pub fn findings_json(rows: &[Finding]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|f| {
            format!(
                "\n    {{\"seed\": {}, \"kind\": \"{}\", \"detail\": \"{}\", \
                 \"stmts\": {}, \"source\": \"{}\"}}",
                f.seed,
                json_str(&f.kind),
                json_str(&f.detail),
                f.stmts,
                json_str(&f.source)
            )
        })
        .collect();
    format!("[{}\n  ]", rows.join(","))
}

/// Decode the findings array written by [`findings_json`].
///
/// # Errors
/// A missing array or a row without a seed.
pub fn findings(doc: &Json) -> Result<Vec<Finding>, String> {
    let rows = doc
        .get("findings")
        .and_then(Json::as_arr)
        .ok_or("missing `findings`")?;
    let text = |f: &Json, key: &str| f.get(key).and_then(Json::as_str).unwrap_or("").to_string();
    rows.iter()
        .map(|f| {
            Ok(Finding {
                seed: u64_field(f, "seed")?,
                kind: text(f, "kind"),
                detail: text(f, "detail"),
                stmts: f.get("stmts").and_then(Json::as_i64).unwrap_or(-1),
                source: text(f, "source"),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_then_load_round_trips() {
        let dir = std::env::temp_dir();
        let path = dir
            .join("compcerto_ckpt_test.json")
            .to_string_lossy()
            .into_owned();
        let body = format!(
            "{{\"schema\": \"{CKPT_SCHEMA}\", \"bin\": \"t\", \"cfg\": \"a=1\", \"completed\": 7}}"
        );
        write_atomic(&path, &body).expect("write");
        let j = load(&path, "t", "a=1").expect("load");
        assert_eq!(j.get("completed").and_then(Json::as_u64), Some(7));
        // Wrong fingerprint or bin is a usage error.
        assert!(load(&path, "t", "a=2").is_err());
        assert!(load(&path, "other", "a=1").is_err());
        remove(&path);
        assert!(load(&path, "t", "a=1").is_err());
    }

    #[test]
    fn u64_map_round_trips_through_json() {
        let mut m = BTreeMap::new();
        m.insert("lts.runs".to_string(), u64::MAX - 1);
        m.insert("mem.allocs".to_string(), 0);
        let encoded = format!("{{\"m\": {}}}", u64_map_json(&m));
        let parsed = compiler::json::parse(&encoded).expect("parses");
        let back = u64_map(&parsed, "m").expect("decodes");
        assert_eq!(back, m);
    }

    #[test]
    fn findings_round_trip_through_json() {
        let rows = vec![
            Finding {
                seed: 7,
                kind: "disagree".to_string(),
                detail: "rtl says \"3\"\n".to_string(),
                stmts: 2,
                source: "int f() {\n\treturn 1;\n}".to_string(),
            },
            Finding {
                seed: 9,
                kind: "stuck".to_string(),
                detail: String::new(),
                stmts: -1,
                source: String::new(),
            },
        ];
        let doc = format!("{{\"findings\": {}}}", findings_json(&rows));
        let parsed = compiler::json::parse(&doc).expect("parses");
        assert_eq!(findings(&parsed).expect("decodes"), rows);
    }
}
