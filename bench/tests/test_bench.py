"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest bench/tests -q
"""

import json
import re
import sys

import pytest

import run
import tracing
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")

# tiny sizes: the same code paths in well under a second each
SMALL = {
    "verify-1d": ("VERIFY_1D", {"nodes": 41, "steps": 40, "paths": 20, "dt": "0.05"}),
    "solve-3d": ("SOLVE_3D", {"nodes": 9, "steps": 8, "horizon": 0.3}),
    "mc-2d": ("MC_2D", {"nodes": 21, "steps": 20, "paths": 40, "path_steps": 20}),
}
RUNNERS = {
    "verify-1d": workloads.verify_1d,
    "solve-3d": workloads.solve_3d,
    "mc-2d": workloads.mc_2d,
}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_is_span_time_minus_child_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    leaf = tracer.wrap("t.leaf", lambda: clock.advance(3.0))

    def child_body():
        clock.advance(1.0)
        leaf()
        clock.advance(0.5)

    child = tracer.wrap("t.child", child_body)

    def run_body():
        clock.advance(2.0)
        child()
        child()
        clock.advance(1.0)

    cli_run = tracer.wrap("cli.run", run_body)
    cli_main = tracer.wrap("cli.main", lambda: (clock.advance(0.25), cli_run()))
    cli_main()

    got = tracer.metrics()
    assert (got["t.leaf.calls"], got["t.leaf.s"], got["t.leaf.self_s"]) == (2, 6.0, 6.0)
    assert (got["t.child.calls"], got["t.child.s"], got["t.child.self_s"]) == (2, 9.0, 3.0)
    assert (got["cli.run.s"], got["cli.run.self_s"]) == (12.0, 3.0)
    assert (got["cli.main.s"], got["cli.main.self_s"]) == (12.25, 0.25)
    # only stage functions keep span records; parents point at stage spans
    assert tracer.spans == [
        (0, None, "cli.main", 0.0, 12.25),
        (1, 0, "cli.run", 0.25, 12.25),
    ]


def test_self_time_survives_an_exception():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def boom():
        clock.advance(2.0)
        raise ValueError("x")

    inner = tracer.wrap("t.inner", boom)

    def outer_body():
        clock.advance(1.0)
        with pytest.raises(ValueError):
            inner()

    tracer.wrap("t.outer", outer_body)()
    got = tracer.metrics()
    assert (got["t.inner.s"], got["t.outer.s"], got["t.outer.self_s"]) == (2.0, 3.0, 1.0)


def _small(monkeypatch, name):
    attr, sizes = SMALL[name]
    monkeypatch.setattr(workloads, attr, sizes)


def _bindings():
    """Every fbsde module attribute and the wrapped SolutionField methods."""
    import fbsde.solver

    out = {}
    for mod_name, module in sys.modules.items():
        if mod_name == "fbsde" or mod_name.startswith("fbsde."):
            for attr, value in vars(module).items():
                out[(mod_name, attr)] = value
    for meth in ("value", "gradient", "nonlocal_table"):
        out[("SolutionField", meth)] = vars(fbsde.solver.SolutionField)[meth]
    return out


def test_tracing_leaves_outputs_unchanged_and_is_removed(tmp_path, monkeypatch):
    seen = set()
    for name, fn in RUNNERS.items():
        _small(monkeypatch, name)
        plain = fn(5, tmp_path / "plain")
        before = _bindings()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = fn(5, tmp_path / "traced")
        finally:
            tracer.remove()
        after = _bindings()
        assert after.keys() == before.keys()
        assert all(after[k] is before[k] for k in before), name

        assert all(plain.checks.values()), (name, plain.checks)
        assert traced.checks == plain.checks
        assert traced.accuracy == plain.accuracy
        assert traced.fingerprint == plain.fingerprint
        assert tracer.stats["solver.solve_final_value"][0] == 1
        seen |= set(tracer.metrics()) | set(traced.counts)

    # every per-layer name is produced by some workload (no typo reads as 0)
    derived = {"paths.rows_per_increment", "trace.overhead_s"}
    missing = {m["name"] for m in SPEC["per_layer"]} - seen - derived
    assert not missing


def test_verify_1d_paths_csv_repeats_for_a_seed(tmp_path, monkeypatch):
    _small(monkeypatch, "verify-1d")
    first = workloads.verify_1d(9, tmp_path / "a")
    again = workloads.verify_1d(9, tmp_path / "b")
    other = workloads.verify_1d(10, tmp_path / "c")
    assert first.fingerprint == again.fingerprint != other.fingerprint
    assert len(first.fingerprint) == 64


def test_heat_3d_modes_and_budget_scaling():
    orders = {workloads.heat_3d_modes(seed) for seed in range(30)}
    assert orders == {(1, 1, 2), (1, 2, 1), (2, 1, 1)}
    budget = workloads.heat_3d_error_budget(21, 48, 0.3, (1, 1, 2))
    finer = workloads.heat_3d_error_budget(41, 192, 0.3, (1, 1, 2))
    assert finer == pytest.approx(budget / 4.0)


def test_metric_names_and_limits():
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    layer = [m["name"] for m in SPEC["per_layer"]]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layer) <= 128
    names = e2e + layer + [w["name"] for w in SPEC["workloads"]]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64 and name[0].isalnum(), name
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    ).items()


def _record(trace, wall, layer=None):
    return {
        "trace": trace,
        "wall_s": wall,
        "setup_s": wall / 10.0,
        "peak_rss_mb": 80.0,
        "accuracy": 0.01,
        "layer": layer or {},
    }


def test_summaries_report_exactly_the_declared_metrics():
    plain = [_record(0, w) for w in (3.0, 3.2, 3.1)]
    layered = [
        _record(1, w, {"paths.euler_increment.calls": 4, "paths.euler_increment.rows": 10})
        for w in (3.5, 3.4)
    ]
    e2e = run.summarize(plain, SPEC, traced=False)
    assert list(e2e) == [m["name"] for m in SPEC["end_to_end"]]
    assert e2e["wall_s"]["value"] == 3.1 and e2e["wall_s"]["n"] == 3

    alternating = [plain[0], layered[0], plain[1], layered[1], plain[2]]
    per_layer = run.summarize(alternating, SPEC, traced=True)
    assert list(per_layer) == [m["name"] for m in SPEC["per_layer"]]
    assert per_layer["paths.rows_per_increment"]["value"] == 2.5
    # median of the paired differences 3.5 - 3.0 and 3.4 - 3.2
    assert per_layer["trace.overhead_s"]["value"] == pytest.approx(0.35)


def test_run_refuses_a_tree_without_sources(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    monkeypatch.setattr(run, "ROOT", tmp_path)
    status = run.main(["--workload", "mc-2d", "--seed", "1", "--seconds", "1"])
    assert status != 0
    assert capsys.readouterr().out == ""
