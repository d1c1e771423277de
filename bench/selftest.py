"""Self-tests of the benchmark itself (not of harmcalc).

    python3 bench/selftest.py            # all checks, about a minute

The file name keeps it out of the repository's pytest collection; the
functions are plain `test_*` functions, so `python3 -m pytest
bench/selftest.py` runs them too.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

run.import_library()
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def test_shape_does_not_depend_on_seed():
    for wl in workloads.WORKLOADS.values():
        shapes = [[workloads.shape(op) for op in wl.ops(seed)] for seed in (0, 1, 7)]
        assert shapes[0] == shapes[1] == shapes[2], wl.name
        assert wl.ops(1) != wl.ops(7), "%s ignores its seed" % wl.name


def test_same_seed_same_inputs():
    for wl in workloads.WORKLOADS.values():
        assert wl.ops(3) == wl.ops(3), wl.name


def test_benchmark_json_names_match_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    layer_names = list(tracing.per_layer({}, 1, 0.0))
    assert [m["name"] for m in SPEC["per_layer"]] == layer_names
    with open(os.path.join(run.HERE, "reference_hashes.json")) as fh:
        ref = json.load(fh)
    for wl in workloads.WORKLOADS.values():
        assert len(ref[wl.name]) == len(wl.ops(workloads.DEFAULT_SEED)), wl.name


def test_cli_lines_start_with_an_empty_radial_memo():
    memo = workloads._LINEAR_DENOMINATOR_MEMO
    wl = workloads.WORKLOADS["cli-batch"]
    op = next(op for op in wl.ops(workloads.DEFAULT_SEED) if "1/(" in " ".join(op["argv"]))
    for _ in range(2):
        prepared = wl.prepare(op)
        assert not memo, "memo carried into a timed call"
        assert prepared.check(prepared.call()) is None
        assert memo, "the 1/(c0 + c1 r) line no longer fills the memo"


def test_speed_scale_follows_the_local_kernel_time():
    nominal = run.CAL_NOMINAL_S
    cals = [nominal] * 20 + [2 * nominal] * 20
    scale = run.speed_scale(cals)
    assert scale[:15] == [1.0] * 15 and scale[-15:] == [0.5] * 15, scale
    assert run.speed_scale([nominal, 9 * nominal, nominal]) == [1.0] * 3, "one slow kernel moved the scale"


def _traced_pass(runner, tr):
    """Output hashes and summed op seconds of one traced pass."""
    tr.install()
    try:
        runs = [runner.run_op(i) for i in range(len(runner.ops))]
    finally:
        tr.uninstall()
    return [r[1] for r in runs], [r[0] for r in runs]


def _check_restored(sites):
    for site, alias, original, name in sites:
        assert site.__dict__[alias] is original, "%s left wrapped at %r" % (name, site)


def test_tracer_per_workload():
    """Entry points hit where meant, wrappers removed, hashes unchanged."""
    sites = tracing.Tracer().sites()
    for wl in workloads.WORKLOADS.values():
        ops = wl.ops(workloads.DEFAULT_SEED)
        runner = run.Runner(wl, ops)
        ref = run.reference_hashes(wl.name, workloads.DEFAULT_SEED, workloads.DEFAULT_SEED)
        assert runner.warm_up(ref) == 0, "%s fails its checks" % wl.name
        tr = tracing.Tracer()
        runner.tracer = tr
        hashes, latencies = _traced_pass(runner, tr)
        _check_restored(sites)
        assert hashes == runner.expected, "%s: traced output differs" % wl.name
        hits = tr.hits()
        for _, _, name, meant in tracing.ENTRY_POINTS:
            if meant == wl.name:
                assert hits.get(name, 0) > 0, "%s not hit in %s" % (name, wl.name)
        m = {k: v for k, (v, _) in tracing.per_layer(tr.stats, 1, 0.0).items()}
        self_s = {layer: m.get("%s.self_s" % layer, 0.0) for layer in tracing.LAYERS}
        self_s["expr"] = m["expr.self_s"]
        self_s["linalg"] = m["linalg.solve.self_s"]
        assert sum(self_s.values()) <= sum(latencies), "self times exceed the traced wall"
        _check_layer_attribution(wl.name, m, self_s, statistics.median(latencies))


def _check_layer_attribution(name, m, self_s, p50):
    if name == "quadric-solve":
        assert max(self_s, key=self_s.get) == "linalg", self_s
    elif name == "kernel-calculus":
        assert m["linalg.solve.calls"] == 0
        for layer in ("cli", "parser", "render"):
            assert m["%s.calls" % layer] == 0, layer
        assert self_s["expr"] + self_s["scalar"] > 0.5 * sum(self_s.values()), self_s
    else:
        assert m["cli.calls"] == len(workloads.WORKLOADS[name].ops(workloads.DEFAULT_SEED))
        assert m["linalg.solve.calls"] == 0
        assert m["cli.self_s"] / m["cli.calls"] > 0.5 * p50, (m["cli.self_s"], p50)


def main():
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            t0 = time.perf_counter()
            try:
                fn()
                status = "ok"
            except AssertionError as exc:
                failures += 1
                status = "FAIL: %s" % exc
            print("%-45s %6.1fs %s" % (name, time.perf_counter() - t0, status), flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
