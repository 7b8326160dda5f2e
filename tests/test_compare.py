"""``benchmarks/compare.py``: work counts gate, timings only print."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_compare", ROOT / "benchmarks" / "compare.py")
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)


def _result(bytecodes: float, version: str = "3.11",
            seconds: float = 1.0) -> dict:
    return {"work_per_insn": {version: {"mcf": {"baseline": {
                "bytecodes_per_insn": bytecodes, "calls_per_insn": 4.0}}}},
            "rows": {"mcf": {"baseline_seconds": seconds}}}


def _main(tmp_path, fresh: dict, base: dict) -> int:
    path = tmp_path / "BENCH_x.json"
    path.write_text(json.dumps(fresh))
    return compare.main([str(path)], load_committed=lambda _, ref: base)


def test_a_row_two_percent_higher_fails(tmp_path, capsys):
    assert _main(tmp_path, _result(1020.0), _result(1000.0)) == 1
    assert "FAIL  CPython 3.11 mcf baseline" in capsys.readouterr().out


def test_a_row_within_one_percent_passes(tmp_path):
    assert _main(tmp_path, _result(1009.0), _result(1000.0)) == 0
    assert _main(tmp_path, _result(900.0), _result(1000.0)) == 0


def test_a_version_without_committed_counts_is_skipped(tmp_path, capsys):
    assert _main(tmp_path, _result(2000.0, version="3.12"),
                 _result(1000.0)) == 0
    assert "CPython 3.12: no committed counts" in capsys.readouterr().out


def test_timings_are_printed_not_gated(tmp_path, capsys):
    assert _main(tmp_path, _result(1000.0, seconds=10.0),
                 _result(1000.0)) == 0
    assert "rows.mcf.baseline_seconds: 1 -> 10 (10.00x)" in (
        capsys.readouterr().out)


def test_an_uncommitted_file_is_skipped(tmp_path):
    path = tmp_path / "BENCH_x.json"
    path.write_text(json.dumps(_result(5000.0)))
    assert compare.main([str(path)],
                        load_committed=lambda _, ref: None) == 0


def test_the_baseline_comes_from_the_named_commit(tmp_path):
    # CI names the target branch, so a change that commits new results
    # is still compared with the counts it would replace.
    path = tmp_path / "BENCH_x.json"
    path.write_text(json.dumps(_result(1020.0)))
    seen = []

    def load(named, ref):
        seen.append((named, ref))
        return _result(1000.0)

    assert compare.main(["--base", "HEAD^1", str(path)],
                        load_committed=load) == 1
    assert seen == [(path, "HEAD^1")]
    assert compare.main([str(path)], load_committed=load) == 1
    assert seen[-1] == (path, "HEAD")


def test_the_committed_layer_counts_pass_against_themselves():
    data = json.loads(
        (ROOT / "benchmarks" / "results" / "BENCH_layers.json").read_text())
    regressions, notes = compare.work_regressions(data, data)
    assert not regressions and notes
