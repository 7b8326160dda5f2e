"""The job layer (``repro.engine.jobs``): one spec, two surfaces.

``repro sweep`` / ``repro search`` / ``repro fuzz`` and the service's
``POST /jobs`` turn their inputs into the same job spec, check it with
the same :func:`normalize` and run it on the same path.  These tests
hold the two surfaces to that:

* one spec per kind gives the same ``ledger_sha256`` through ``main``
  and through :meth:`JobManager.submit` (fuzz, which keeps no ledger,
  the same verdict and instruction count);
* every rejection reads the same as exit 2 and as a 400;
* a normalized spec normalizes to itself, so journaled specs resume.
"""

import asyncio
import json

import pytest

from repro.cli import main
from repro.engine.jobs import JOB_KINDS, normalize
from repro.engine.service import JobManager, ServiceError
from repro.experiments import runner

DIM = "optimizer.enabled=false,true"


@pytest.fixture(autouse=True)
def _detach_runner_store():
    yield
    runner.clear_caches(detach_store=True)


def served(spec: dict, store_dir) -> dict:
    """The finished service job's result dict for *spec*."""
    async def scenario():
        manager = JobManager(store_dir=store_dir)
        try:
            job = await manager.submit(dict(spec))
            return await manager.wait(job.id)
        finally:
            await manager.close()

    job = asyncio.run(scenario())
    assert job.status == "finished", job.error
    return job.result


def rejected(spec: dict, tmp_path) -> ServiceError:
    """The submit-time error *spec* gets; no job is registered."""
    async def scenario():
        manager = JobManager(store_dir=tmp_path)
        try:
            with pytest.raises(ServiceError) as err:
                await manager.submit(dict(spec))
            assert manager.list_jobs() == []
        finally:
            await manager.close()
        return err.value

    return asyncio.run(scenario())


def cli_report(argv: list[str], capsys) -> dict:
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


# ----------------------------------------------------------------------
# parity: one spec per kind, both surfaces, one ledger
# ----------------------------------------------------------------------

#: Case -> (CLI arguments, the service spec that names the same work).
PARITY = {
    "sweep": (
        ["sweep", "--workloads", "mcf", "--optimized",
         "--axis", "optimizer.vf_delay=0,1", "--quiet"],
        {"kind": "sweep", "workloads": ["mcf"], "optimized": True,
         "axes": ["optimizer.vf_delay=0,1"]}),
    "segments-fixed": (
        ["--segment-insns", "2000", "sweep", "--workloads", "art",
         "--quiet"],
        {"kind": "segments", "workloads": ["art"],
         "policy": {"segment_insns": 2000}}),
    "segments-sampled": (
        ["--segment-mode", "sampled", "--segment-insns", "1000",
         "--sample-period", "2", "sweep", "--workloads", "art", "--quiet"],
        {"kind": "segments", "workloads": ["art"],
         "policy": {"mode": "sampled", "segment_insns": 1000,
                    "sample_period": 2}}),
    # 'untst' is untoast's abbreviation: both surfaces must weight
    # untoast (the service once scored it as unweighted)
    "search-halving": (
        ["search", "--workloads", "untoast,art", "--optimized",
         "--dim", "optimizer.add_depth=0..3", "--strategy", "halving",
         "--objective", "weighted-ipc", "--weight", "untst=4", "--json",
         "--quiet"],
        {"kind": "search", "workloads": ["untoast", "art"],
         "optimized": True, "dims": ["optimizer.add_depth=0..3"],
         "strategy": "halving", "objective": "weighted-ipc",
         "weights": {"untst": 4}}),
}


@pytest.mark.parametrize("case", sorted(PARITY))
def test_cli_and_service_give_one_ledger(case, tmp_path, capsys):
    argv, spec = PARITY[case]
    report = cli_report(argv, capsys)
    result = served(spec, tmp_path)
    assert report["ledger_sha256"] == result["ledger_sha256"]


def test_cli_and_service_fuzz_agree(tmp_path, capsys):
    report = cli_report(["fuzz", "--seeds", "0:2", "--families", "ilp",
                         "--budget-small", "--json", "--quiet"], capsys)
    result = served({"kind": "fuzz", "seeds": [0, 2],
                     "families": ["ilp"], "small": True}, tmp_path)
    assert (report["ok"], report["programs"], report["failed"]) \
        == (result["ok"], result["programs"], result["failed"]) \
        == (True, 2, 0)
    assert sum(r["instructions"] for r in report["reports"]) \
        == result["retired_insns"] > 0


def test_weights_resolve_to_canonical_names():
    spec = {"workloads": ["untoast"], "dims": [DIM],
            "objective": "weighted-ipc"}
    for weights in ({"untst": 4}, {"untoast": 4.0}):
        assert normalize("search", {**spec, "weights": weights}) \
            ["weights"] == {"untoast": 4.0}


def test_string_weight_is_refused_before_any_run(tmp_path, capsys):
    # the service used to accept it and fail after simulating; the CLI
    # cannot spell a string weight, and refuses a non-number as text
    error = rejected({"kind": "search", "workloads": ["untoast"],
                      "dims": [DIM], "objective": "weighted-ipc",
                      "weights": {"untoast": "4"}}, tmp_path)
    assert (error.status, str(error)) == (
        400, "weights must be an object of numbers, got {'untoast': '4'}")
    assert main(["search", "--workloads", "untoast", "--dim", DIM,
                 "--objective", "weighted-ipc", "--weight",
                 "untoast=four"]) == 2
    assert capsys.readouterr().err.startswith("repro search: error:")


# ----------------------------------------------------------------------
# rejections: one message, exit 2 and 400 alike
# ----------------------------------------------------------------------

#: Rule -> (CLI arguments, service spec, a word the message names).
REJECTIONS = {
    "unknown workload": (
        ["sweep", "--workloads", "doom3"],
        {"kind": "sweep", "workloads": ["doom3"]}, "doom3"),
    "unknown suite": (
        ["sweep", "--suite", "SPECjbb"],
        {"kind": "sweep", "suite": "SPECjbb"}, "SPECjbb"),
    "axis syntax": (
        ["sweep", "--workloads", "mcf", "--axis", "no-equals"],
        {"kind": "sweep", "workloads": ["mcf"], "axes": ["no-equals"]},
        "no-equals"),
    "axis path": (
        ["sweep", "--workloads", "mcf", "--axis", "optimizer.warp=1,2"],
        {"kind": "sweep", "workloads": ["mcf"],
         "axes": ["optimizer.warp=1,2"]}, "warp"),
    "axis value type": (
        ["sweep", "--workloads", "mcf", "--axis",
         "sched_entries=true,false"],
        {"kind": "sweep", "workloads": ["mcf"],
         "axes": ["sched_entries=true,false"]}, "expected int, got bool"),
    "unrunnable machine": (
        ["sweep", "--workloads", "mcf", "--axis", "rob_size=0,160"],
        {"kind": "sweep", "workloads": ["mcf"],
         "axes": ["rob_size=0,160"]}, "rob_size must be >= 1"),
    "adaptive with a size": (
        ["--segment-mode", "adaptive", "--segment-insns", "100", "sweep",
         "--workloads", "art"],
        {"kind": "segments", "workloads": ["art"],
         "policy": {"mode": "adaptive", "segment_insns": 100}},
        "adaptive"),
    "sample period": (
        ["--segment-mode", "sampled", "--segment-insns", "1000",
         "--sample-period", "1", "sweep", "--workloads", "art"],
        {"kind": "segments", "workloads": ["art"],
         "policy": {"mode": "sampled", "segment_insns": 1000,
                    "sample_period": 1}}, "sample_period"),
    "search workloads": (
        ["search", "--dim", DIM],
        {"kind": "search", "dims": [DIM]}, "--workloads or --suite"),
    "search dimension": (
        ["search", "--workloads", "mcf", "--dim", "sched_entries=8..x"],
        {"kind": "search", "workloads": ["mcf"],
         "dims": ["sched_entries=8..x"]}, "8..x"),
    "weight workload": (
        ["search", "--workloads", "mcf", "--dim", DIM, "--objective",
         "weighted-ipc", "--weight", "nosuch=4"],
        {"kind": "search", "workloads": ["mcf"], "dims": [DIM],
         "objective": "weighted-ipc", "weights": {"nosuch": 4}},
        "nosuch"),
    "fuzz families": (
        ["fuzz", "--families", "quantum"],
        {"kind": "fuzz", "families": ["quantum"]}, "quantum"),
    "fuzz seeds": (
        ["fuzz", "--seeds", "5:5"],
        {"kind": "fuzz", "seeds": [5, 5]}, "[5, 5]"),
    "fuzz segment size": (
        ["--segment-insns", "-5", "fuzz"],
        {"kind": "fuzz", "segment_insns": -5}, "segment_insns"),
    "sweep scale": (
        ["sweep", "--workloads", "mcf", "--scales", "1,0"],
        {"kind": "sweep", "workloads": ["mcf"], "scales": [1, 0]},
        "scale must be >= 1, got 0"),
    "fuzz scale": (
        ["--scale", "0", "fuzz"],
        {"kind": "fuzz", "scale": 0}, "scale must be >= 1, got 0"),
}


@pytest.mark.parametrize("rule", sorted(REJECTIONS))
def test_rejection_reads_the_same_on_both_surfaces(rule, tmp_path,
                                                   capsys):
    argv, spec, word = REJECTIONS[rule]
    error = rejected(spec, tmp_path)
    assert error.status == 400
    assert word in str(error)
    assert main(argv) == 2
    command = next(arg for arg in argv if arg in ("sweep", "search",
                                                  "fuzz"))
    assert capsys.readouterr().err == \
        f"repro {command}: error: {error}\n"


#: One value of the wrong JSON type per rule, and the exact message.
TYPE_ERRORS = [
    ("sweep", {"optimized": "false", "baseline": "no"},
     "optimized must be a boolean, got 'false'"),
    ("sweep", {"scales": [1.9]},
     "scales must be a list of integers, got [1.9]"),
    ("search", {"workloads": ["mcf"], "dims": [DIM], "budget": 2.5},
     "budget must be an integer, got 2.5"),
    ("search", {"workloads": ["mcf"], "dims": [DIM], "seed": True},
     "seed must be an integer, got True"),
    ("segments", {"workloads": ["mcf"],
                  "policy": {"segment_insns": 1500.7}},
     "policy segment_insns must be an integer, got 1500.7"),
    ("fuzz", {"small": 1}, "small must be a boolean, got 1"),
]


@pytest.mark.parametrize("kind,spec,message", TYPE_ERRORS)
def test_each_field_has_one_json_type(kind, spec, message):
    with pytest.raises(ValueError) as err:
        normalize(kind, spec)
    assert str(err.value) == message


# ----------------------------------------------------------------------
# normal form
# ----------------------------------------------------------------------

NORMALIZABLE = [
    ("sweep", {}),
    ("sweep", {"workloads": "mcf,untst", "scales": [1, 2],
               "axes": ["optimizer.vf_delay=0,1"], "optimized": True}),
    ("sweep", {"suite": "SPECfp", "baseline": True}),
    ("segments", {"workloads": ["art"],
                  "policy": {"mode": "sampled", "segment_insns": 1000}}),
    ("search", {"suite": "mediabench", "dims": [DIM], "budget": 4,
                "strategy": "halving", "weights": {"untst": 4}}),
    ("fuzz", {}),
    ("fuzz", {"seeds": [2, 5], "families": ["ilp"], "small": True}),
]


@pytest.mark.parametrize("kind,spec", NORMALIZABLE)
def test_normal_form_is_a_fixed_point(kind, spec):
    normal = normalize(kind, spec)
    assert sorted(normal) == sorted(set(JOB_KINDS[kind]) - {"suite"})
    assert normalize(kind, normal) == normal
    # what the service journals comes back as JSON
    assert normalize(kind, json.loads(json.dumps(normal))) == normal
