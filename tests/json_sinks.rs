//! The JSON renderer's sinks against every committed document.
//!
//! Digests and canonical checks render into a hasher or a comparator
//! instead of a `String` (see `apex_sim::json`). That is only sound if
//! each sink sees exactly the bytes `render`/`render_pretty` would
//! produce. The generated-tree property lives next to the codec; this
//! test runs the same checks over the real documents the workspace has
//! committed — goldens, suites and corpus reproducers — so a rendering
//! path a generator never reaches is still covered.

use std::path::{Path, PathBuf};

use apex_sim::{fnv1a64, Fnv1a, Json};

/// Every `.json` and `.jsonl` file under `dir`, recursively, sorted.
fn documents_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            documents_under(&path, out);
        } else if path
            .extension()
            .is_some_and(|e| e == "json" || e == "jsonl")
        {
            out.push(path);
        }
    }
}

/// The parsed documents of one file: the file itself, or each line of
/// a `.jsonl` file.
fn parse_all(path: &Path) -> Vec<Json> {
    let text = std::fs::read_to_string(path).unwrap();
    let docs: Vec<&str> = if path.extension().is_some_and(|e| e == "jsonl") {
        text.lines().filter(|l| !l.is_empty()).collect()
    } else {
        vec![&text]
    };
    docs.into_iter()
        .map(|d| Json::parse(d).unwrap_or_else(|e| panic!("{}: {e}", path.display())))
        .collect()
}

/// Byte positions spread over `text`, ASCII ones only, so an edit there
/// keeps the text UTF-8 (only UTF-8 reaches a canonical check).
fn probe_positions(text: &str) -> Vec<usize> {
    let ascii: Vec<usize> = (0..text.len())
        .filter(|&i| text.as_bytes()[i].is_ascii())
        .collect();
    let stride = (ascii.len() / 48).max(1);
    ascii.into_iter().step_by(stride).collect()
}

#[test]
fn sinks_match_the_rendered_bytes_of_every_committed_document() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["tests/golden", "suites", "corpus"] {
        documents_under(&root.join(dir), &mut files);
    }
    assert!(files.len() >= 10, "found only {files:?}");
    let mut checked = 0;
    for path in &files {
        for doc in parse_all(path) {
            let name = path.display();
            let (compact, pretty) = (doc.render(), doc.render_pretty());
            assert_eq!(doc.fnv1a64(), fnv1a64(compact.as_bytes()), "{name}");
            let mut h = Fnv1a::new();
            doc.render_pretty_to(&mut h);
            assert_eq!(h.finish(), fnv1a64(pretty.as_bytes()), "{name}");

            assert!(doc.renders_pretty_as(&pretty), "{name}");
            // The comparator hashes as it compares: a match also yields
            // the text's checksum (every mismatch below yields none).
            let checksum = doc.pretty_checksum(&pretty);
            assert_eq!(checksum, Some(fnv1a64(pretty.as_bytes())), "{name}");
            assert!(
                !doc.renders_pretty_as(&pretty[..pretty.len() - 1]),
                "{name}"
            );
            assert!(!doc.renders_pretty_as(&format!("{pretty}\n")), "{name}");
            for at in probe_positions(&pretty) {
                let mut flipped = pretty.as_bytes().to_vec();
                flipped[at] ^= 0x01;
                let flipped = String::from_utf8(flipped).unwrap();
                assert!(!doc.renders_pretty_as(&flipped), "{name}: flip at {at}");
                let mut dropped = pretty.clone();
                dropped.remove(at);
                assert!(!doc.renders_pretty_as(&dropped), "{name}: drop at {at}");
            }
            checked += 1;
        }
    }
    assert!(checked >= files.len());
}
