//! The documentation's cross-references resolve: every artifact that
//! docs/PAPER_MAP.md or docs/BENCHMARKS.md names is committed, every
//! binary PAPER_MAP names exists and comes with a committed artifact,
//! and every `BENCH_lemmas.json` claim key PAPER_MAP cites has rows in
//! the committed artifact (and every claim the artifact holds is cited).
//! The code's own cross-references resolve too: every Markdown path a
//! source file names exists.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    let path = root().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Every `BENCH_<name>.json` file name in `text` (the `BENCH_*.json`
/// wildcard is not a name).
fn artifacts(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (start, _) in text.match_indices("BENCH_") {
        let token: String = text[start..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '.')
            .collect();
        let name = token.trim_end_matches('.');
        if let Some(stem) = name.strip_suffix(".json") {
            if stem.len() > "BENCH_".len() {
                out.insert(name.to_string());
            }
        }
    }
    out
}

/// The backticked token that ends right before byte `end` of `line`.
fn backticked_before(line: &str, end: usize) -> Option<&str> {
    let head = line[..end].strip_suffix('`')?;
    let open = head.rfind('`')?;
    Some(&head[open + 1..])
}

/// Every name written as "`name` binary" in `line`.
fn binaries(line: &str) -> Vec<&str> {
    line.match_indices(" binary")
        .filter_map(|(i, _)| backticked_before(line, i))
        .collect()
}

/// Every claim key written as "claim `key`" or "claims `a`, `b` and
/// `c`" in `line`.
fn claim_keys(line: &str) -> Vec<&str> {
    let mut out = Vec::new();
    for (i, word) in line.match_indices("claim") {
        let mut rest = line[i + word.len()..].trim_start_matches('s');
        let Some(mut list) = rest.strip_prefix(" `") else {
            continue;
        };
        while let Some(close) = list.find('`') {
            out.push(&list[..close]);
            rest = &list[close + 1..];
            match [", `", " and `"]
                .iter()
                .find_map(|sep| rest.strip_prefix(sep))
            {
                Some(next) => list = next,
                None => break,
            }
        }
    }
    out
}

/// Every Markdown path in `text`: a run of path characters ending in
/// `.md` after a non-empty file name.
fn md_paths(text: &str) -> BTreeSet<&str> {
    let path_char = |c: char| c.is_ascii_alphanumeric() || "_-./".contains(c);
    text.split(|c: char| !path_char(c))
        .map(|token| token.trim_end_matches('.'))
        .filter(|token| {
            token
                .strip_suffix(".md")
                .is_some_and(|stem| !stem.is_empty() && !stem.ends_with('/'))
        })
        .collect()
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_doc_path_named_in_the_code_exists() {
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root().join(dir), &mut files);
    }
    let (mut named, mut missing) = (0, Vec::new());
    for file in &files {
        let text = std::fs::read_to_string(file).expect("a readable source file");
        for path in md_paths(&text) {
            named += 1;
            if !root().join(path).is_file() {
                let rel = file.strip_prefix(root()).expect("under the root");
                missing.push(format!("{} names {path}", rel.display()));
            }
        }
    }
    assert!(named > 0, "no Markdown path found in {} files", files.len());
    assert!(missing.is_empty(), "missing Markdown files: {missing:#?}");
    assert_eq!(
        md_paths("see docs/PAPER_MAP.md. A `*.md` file, (README.md)"),
        BTreeSet::from(["docs/PAPER_MAP.md", "README.md"])
    );
}

#[test]
fn every_named_artifact_is_committed() {
    let mut named = BTreeSet::new();
    for doc in ["docs/PAPER_MAP.md", "docs/BENCHMARKS.md"] {
        named.extend(artifacts(&read(doc)));
    }
    assert!(named.contains("BENCH_lemmas.json"), "{named:?}");
    for name in &named {
        assert!(
            root().join(name).is_file(),
            "{name} is named in the docs but not committed"
        );
    }
}

#[test]
fn every_named_binary_exists_and_has_an_artifact() {
    let manifest = read("crates/bench/Cargo.toml");
    let mut seen = BTreeSet::new();
    let paper_map = read("docs/PAPER_MAP.md");
    for line in paper_map.lines() {
        for bin in binaries(line) {
            let source = root().join(format!("crates/bench/src/bin/{bin}.rs"));
            let declared = manifest.contains(&format!("name = \"{bin}\""));
            assert!(
                source.is_file() || declared,
                "PAPER_MAP names `{bin}`, which is no binary"
            );
            assert!(
                !artifacts(line).is_empty(),
                "PAPER_MAP row names `{bin}` without a committed artifact: {line}"
            );
            seen.insert(bin);
        }
    }
    assert!(seen.contains("lemmas"), "{seen:?}");
}

#[test]
fn every_cited_lemma_claim_has_rows() {
    let artifact = read("BENCH_lemmas.json");
    let committed: BTreeSet<&str> = artifact
        .match_indices("\"claim\": \"")
        .map(|(i, m)| {
            let rest = &artifact[i + m.len()..];
            &rest[..rest.find('"').expect("closed string")]
        })
        .collect();
    let paper_map = read("docs/PAPER_MAP.md");
    let cited: BTreeSet<&str> = paper_map
        .lines()
        .filter(|line| line.contains("BENCH_lemmas.json"))
        .flat_map(claim_keys)
        .collect();
    for key in &cited {
        assert!(
            committed.contains(key),
            "PAPER_MAP cites claim `{key}`, absent from BENCH_lemmas.json"
        );
    }
    assert_eq!(
        cited, committed,
        "claims in BENCH_lemmas.json that PAPER_MAP never cites"
    );
}

#[test]
fn the_parsers_read_the_forms_the_docs_use() {
    assert_eq!(
        binaries("| `fig2` binary; see `x` | `BENCH_fig2.json` |"),
        ["fig2"]
    );
    assert_eq!(
        claim_keys("`BENCH_lemmas.json` claims `a`, `b` and `c`; claim `d`"),
        ["a", "b", "c", "d"]
    );
    assert_eq!(
        artifacts("`BENCH_*.json`, `BENCH_fig2.json`."),
        BTreeSet::from(["BENCH_fig2.json".to_string()])
    );
}
