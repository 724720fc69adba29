"""Golden artifacts: the run matrix, every report and chart, and the toy
run write the bytes `tests/golden/manifest.json` records (see
golden_matrix.py, which also regenerates it)."""

import json

import golden_matrix as golden


def assert_matches_manifest(paths, toy):
    manifest = json.loads(golden.MANIFEST.read_text())
    recorded = {name: entry for name, entry in manifest["artifacts"].items()
                if name.startswith("toy/") == toy}
    differ = golden.mismatches(recorded, paths)
    assert not differ, "\n".join(
        [f"{len(differ)} artifacts differ from {golden.MANIFEST.name}; if on purpose, "
         "regenerate it (python tests/golden_matrix.py) and record why:", *differ,
         f"recorded on {manifest['platform']}", f"running on {golden.platform_info()}"])


def test_the_run_matrix_and_its_reports_match_the_manifest(tmp_path):
    """Every run artifact (config, metrics, events, weight history and each
    checkpoint) of the matrix's runs, the reports of every preset, the
    exported corpus and the charts are byte-identical to the manifest's."""
    assert_matches_manifest(golden.build_matrix(tmp_path), toy=False)


def test_the_toy_run_matches_the_manifest(toy_run):
    """The toy run's metrics stream and weight history are byte-identical to
    the manifest's."""
    _, result, _ = toy_run
    assert_matches_manifest(golden.toy_artifacts(result), toy=True)


def test_a_changed_artifact_is_named_with_its_first_differing_row(tmp_path):
    """The comparison names every changed, missing or unrecorded artifact,
    and a changed JSON-lines file's first differing row."""
    files = {name: tmp_path / name for name in ("a.jsonl", "b.csv", "c.csv", "d.csv")}
    files["a.jsonl"].write_text('{"step": 1}\n{"step": 2}\n{"step": 3}\n')
    for name in ("b.csv", "c.csv", "d.csv"):
        files[name].write_text("step,x\n1,0.5\n")
    recorded = {name: golden.digest(path) for name, path in files.items() if name != "d.csv"}
    assert golden.mismatches(recorded, files) == ["d.csv: not in the manifest"]
    files["a.jsonl"].write_text('{"step": 1}\n{"step": 20}\n{"step": 3}\n')
    files["b.csv"].write_text("step,x\n1,0.25\n")
    del files["c.csv"], files["d.csv"]
    differ = golden.mismatches(recorded, files)
    assert [line.split(":")[0] for line in differ] == ["a.jsonl", "b.csv", "c.csv"]
    assert differ[0].endswith('first differing row 2 of 3 (recorded 3): {"step": 20}')
    assert differ[2] == "c.csv: missing"
