"""Tests of the benchmark itself: span arithmetic, tracer coverage, seeding,
and a tiny run of every workload in both modes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import hopfscf  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from hopfscf import compositions, qsym, scalars  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_times_on_nested_spans():
    # cli [0,10] > qsym [1,6] > scalars [2,3], scalars [4,5]; cli > nsym [7,9]
    layer = {name: i for i, name in enumerate(layers.LAYERS)}
    spans = [
        ("cli", -1, 0.0, 10.0),
        ("qsym", 0, 1.0, 6.0),
        ("scalars", 1, 2.0, 3.0),
        ("scalars", 1, 4.0, 5.0),
        ("nsym", 0, 7.0, 9.0),
        ("groupscf", -1, 11.0, 11.5),
    ]
    names, parents, starts, ends = zip(*spans)
    out = layers.self_times([layer[n] for n in names], parents, starts, ends, len(layers.LAYERS))
    assert dict(zip(layers.LAYERS, out)) == {
        "scalars": 2.0, "compositions": 0.0, "qsym": 3.0, "nsym": 2.0,
        "groupscf": 0.5, "charmap": 0.0, "cli": 3.0, "verify": 0.0,
    }
    assert layers.top_level_time(parents, starts, ends) == 10.5


def _hopfscf_modules():
    return [m for name, m in sys.modules.items()
            if name == "hopfscf" or name.startswith("hopfscf.")]


def test_tracer_wraps_every_binding_and_restores_it():
    tracer = layers.Tracer(hopfscf)
    originals = tracer.originals()
    before = {(m.__name__, a): v for m in _hopfscf_modules() for a, v in vars(m).items()}
    with tracer.installed():
        for module in _hopfscf_modules():
            for attr, value in vars(module).items():
                assert id(value) not in originals or originals[id(value)] is not value, \
                    f"{module.__name__}.{attr} is not wrapped"
                if isinstance(value, type) and module.__name__.split(".")[-1] in layers.LAYERS:
                    for name, member in vars(value).items():
                        fn = getattr(member, "__func__", member)
                        assert not (id(fn) in originals and originals[id(fn)] is fn), \
                            f"{value.__name__}.{name} is not wrapped"
        # a name bound by import and an alias in a class body share the wrapper
        assert qsym.comp_of_set is compositions.comp_of_set
        assert scalars.ScalarQT.__radd__ is scalars.ScalarQT.__add__
        assert hasattr(scalars.ScalarQT.__radd__, "__wrapped__")
        assert isinstance(vars(compositions.Composition)["__new__"], staticmethod)
    after = {(m.__name__, a): v for m in _hopfscf_modules() for a, v in vars(m).items()}
    assert after == before
    assert not hasattr(scalars.ScalarQT.__add__, "__wrapped__")


def test_tracer_counts_calls_and_layers():
    tracer = layers.Tracer(hopfscf)
    with tracer.installed():
        elem = qsym.convert(qsym.L((1, 2, 1)), "M")
        total = scalars.Q + scalars.T
        qsym.QSymElem("M", {(1, 1): scalars.ONE}) == elem  # noqa: B015
    assert len(elem.terms) == 2 and str(total) == "q + t"
    metrics = tracer.metrics(1.0, 1.0)
    assert metrics["qsym.convert_calls"][0] == 1
    assert metrics["qsym.convert_terms"][0] == 2
    assert metrics["scalars.ops"][0] >= 1
    assert metrics["scalars.built"][0] >= 1
    assert metrics["compositions.comp_of_set"][0] >= 2
    assert metrics["trace.overhead_ratio"][0] == 1.0
    top = layers.top_level_time(tracer.span_parent, tracer.span_start, tracer.span_end)
    owned = sum(metrics[f"{layer}.self_s"][0] for layer in layers.LAYERS)
    assert owned == pytest.approx(top)
    assert set(tracer.span_layer) >= {layers.LAYERS.index("qsym"), layers.LAYERS.index("scalars")}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_inputs_follow_the_seed(name):
    a = workloads.generate(name, 5, 2)
    assert workloads.digest(a) == workloads.digest(workloads.generate(name, 5, 2))
    assert workloads.digest(a) != workloads.digest(workloads.generate(name, 6, 2))
    assert all(len(ops) >= 40 for ops in a)
    props = workloads.input_properties([op for ops in a for op in ops])
    assert 0 <= props["repeat_share"] < 1 and props["degree_histogram"]


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "traced"])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_run_reports_every_metric(name, trace, capsys):
    status = run.run(name, 3, 0.0, trace, batch_rounds=1, setup_samples=1)
    out = capsys.readouterr().out
    result = _last_json(out)
    declared = [m["name"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]]
    assert status == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 40
    assert list(result["metrics"]) == declared
    for metric in BENCHMARK["per_layer" if trace else "end_to_end"]:
        assert f"metric {metric['name']} " in out
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert "metric failed_ops 0 count" in out
    if trace:
        assert ": holds" in out
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_declared_workloads_match():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.PLANS)
