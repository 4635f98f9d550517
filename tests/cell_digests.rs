//! Every committed suite's store addresses, pinned.
//!
//! A cell's digest is FNV-1a over its scenario's compact document and a
//! suite's digest FNV-1a over the suite's; they name every record and
//! suite directory in a store. The serializers that write those
//! documents straight into the hasher must therefore keep every byte,
//! or every stored run is orphaned. `tests/golden/cell-digests.json`
//! maps each of `suites/{adversary,bench-program,smoke}.json` to its
//! suite digest and its cell digests in expansion order. It was written
//! from `apex suite expand` before the serializers wrote into sinks, and
//! a change to any serializer must pass it unregenerated.

use std::path::Path;

use apex_lab::Suite;
use apex_sim::Json;

#[test]
fn committed_suites_expand_to_their_golden_digests() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("tests/golden/cell-digests.json")).unwrap();
    let Json::Obj(suites) = Json::parse(&text).unwrap() else {
        panic!("the golden is an object of suites");
    };
    assert_eq!(suites.len(), 3, "{:?}", suites.iter().map(|(k, _)| k));
    for (file, golden) in &suites {
        let suite = Suite::load(&root.join(file)).unwrap();
        assert_eq!(
            suite.digest(),
            golden.get("suite").unwrap().as_str().unwrap(),
            "{file}: suite digest"
        );
        let want: Vec<&str> = golden
            .get("cells")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|d| d.as_str().unwrap())
            .collect();
        let cells = suite.expand().unwrap();
        assert_eq!(cells.len(), want.len(), "{file}: cell count");
        for (cell, want) in cells.iter().zip(want) {
            assert_eq!(
                cell.digest, want,
                "{file}: cell {} moved its digest",
                cell.index
            );
        }
    }
}
