"""The benchmark's traced mode (`perfbench/run.py --trace 1`) wraps library
functions and caches by name from outside the package.  Posing one
question of each traced verb under its tracer checks that every name it
looks up still exists and still takes the arguments it passes."""

import importlib.util
import json
from pathlib import Path

from fthresh import cli

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

QUESTIONS = (
    ("fthreshold", "--ideal", "x1^2*x2;x2^3;x1^3"),
    ("hypergraph", "--graph", json.dumps({"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]})),
    ("rees", "--ideal", "x1^3*x2;x2^2;x1^4"),
    (
        "waldschmidt",
        "--filtration",
        json.dumps({"rule": "symbolic", "ideal": {"vars": 3, "generators": [[1, 1, 0], [0, 1, 1]]}}),
        "--weights",
        "1,2,1",
    ),
    ("nu-seq", "--ideal", "x1*x2;x1^2;x2^3", "-p", "2", "--emax", "3"),
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_mode_wraps_every_name(capsys):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        for argv in QUESTIONS:
            # through the module, as run.py does, to reach the wrapped main
            assert cli.main(list(argv)) == 0, capsys.readouterr().out
    finally:
        tracer.restore()
    capsys.readouterr()
    metrics = tracing.layer_metrics(tracer)
    assert list(metrics) == [name for name, _, _ in tracing.LAYER_METRICS]
    assert metrics["lp.tableau_cells"][0] > 0
    assert metrics["cli.main.calls"][0] == len(QUESTIONS)
    for name in (
        "lp.solve_lp.calls",
        "newton.threshold_lp.calls",
        "newton.newton_polyhedron.calls",
        "nu.route.lp",
        "nu.nu_value.calls",
    ):
        assert metrics[name][0] > 0, name
