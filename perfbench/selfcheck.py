"""Quick checks of the benchmark itself (a few operations per workload).

    python3 -m pytest -q perfbench/selfcheck.py

The file name keeps it out of the repository's own test collection.
"""

import copy
import json
import types

import pytest

import checks
import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def _units(line):
    return {name: m["unit"] for name, m in line["metrics"].items()}


@pytest.fixture(scope="module")
def lib():
    import sys

    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    return workloads.load_program(with_cli=True)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    report, line = run.run_workload(workload, seed=3, seconds=0.5, trace=trace,
                                    max_ops=6, setup_starts=1)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert _units(line) == (PER_LAYER if trace else END_TO_END)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 6
    assert all(m["n"] >= 0 for m in report["metrics"].values())
    if trace:
        assert report["counts_deterministic"]


def test_speed_scaling():
    import speed

    assert speed.scale(speed.REFERENCE_S, speed.REFERENCE_S) == 1.0
    # probes taking twice the reference time halve the times they scale
    assert speed.scale(speed.REFERENCE_S, 2 * speed.REFERENCE_S, 2 * speed.REFERENCE_S) == 0.5
    assert speed.probe() > 0.0


def test_inputs_depend_only_on_the_seed():
    def head(seed):
        it = workloads.stream("cli_mix", seed)
        return [next(it)[1] for _ in range(50)]

    assert run._digest(head(7)) == run._digest(head(7))
    assert run._digest(head(7)) != run._digest(head(8))


def _first(workload, category=None):
    for _, spec in workloads.stream(workload, 5):
        if category is None or spec.get("category") == category:
            return spec
    raise AssertionError("unreachable")


def test_checker_flags_an_escaped_exception(lib):
    def boom(*args, **kwargs):
        raise ZeroDivisionError("float division by zero")

    broken = types.SimpleNamespace(**vars(lib))
    broken.cli = types.SimpleNamespace(run=boom)
    broken.quadrature = types.SimpleNamespace(integrate_adaptive=boom)
    for workload in ("cli_mix", "integrate_tight"):
        spec = _first(workload)
        outcome = workloads.run_op(broken, spec)
        assert checks.check(lib, spec, outcome) == ["exception"]


def test_checker_flags_a_wrong_exit_class(lib):
    spec = _first("cli_mix", "invalid:syntax")
    assert checks.check(lib, spec, (0, "{}", None)) == ["exit_class"]
    assert checks.check(lib, spec, (2, "", None)) == []


def test_checker_flags_a_wrong_certificate(lib):
    spec = _first("cli_mix", "enclose")
    code, stdout, exc = workloads.run_op(lib, spec)
    assert checks.check(lib, spec, (code, stdout, exc)) == []
    doc = json.loads(stdout)
    lo, hi = doc["certificates"]["hh_mean_gap"]
    doc["certificates"]["hh_mean_gap"] = [hi + 1e-6, hi + 2e-6]
    assert checks.check(lib, spec, (0, json.dumps(doc), None)) == ["containment"]
    assert checks.check(lib, spec, (0, stdout[:-3], None)) == ["malformed_json"]

    spec = _first("integrate_tight")
    spec = dict(spec, max_cells=None, expect="ok")
    status, (lo, hi, width, cells) = workloads.run_op(lib, spec)
    assert checks.check(lib, spec, (status, (lo, hi, width, cells))) == []
    shifted = (hi + 10 * width, hi + 11 * width, width, cells)
    assert checks.check(lib, spec, (status, shifted)) == ["containment"]
    assert checks.check(lib, spec, (status, (lo, hi, 2 * spec["tol"], cells))) == ["width"]

    spec = _first("divergence_batch")
    status, (lw, hh, half, lo, hi) = workloads.run_op(lib, spec)
    assert checks.check(lib, spec, (status, (lw, hh, half, lo, hi))) == []
    assert checks.check(lib, spec, (status, (hh + 1.0, hh, half, lo, hi))) == ["sandwich_order"]
    assert checks.check(lib, spec, (status, (lw, hh, half, hi + 1.0, hi + 2.0))) == \
        ["containment"]


def test_budget_slice_must_carry_best(lib):
    spec = next(s for _, s in workloads.stream("integrate_tight", 5) if s["max_cells"])
    outcome = workloads.run_op(lib, spec)
    assert outcome[0] == "budget" and checks.check(lib, spec, outcome) == []
    assert checks.check(lib, spec, ("budget", None)) == ["budget_best"]
    assert checks.check(lib, spec, ("ok", outcome[1])) == ["exit_class"]


def test_traced_replay_counts_exactly(lib):
    from tracing import Tracer, exact_counts

    specs = [s for _, s in zip(range(12), (s for _, s in workloads.stream("cli_mix", 9)))]
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed(lib):
            for i, spec in enumerate(copy.deepcopy(specs)):
                tracer.run_request(i, workloads.run_op, lib, spec)
        counts.append(exact_counts(tracer))
    assert counts[0] == counts[1] and counts[0]["calls.op"] == 12


def test_refuses_to_run_without_the_program(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", run.ROOT / "no-such-src")
    assert run.main(["--workload", "cli_mix", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
