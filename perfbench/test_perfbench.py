"""Tests of the benchmark's own machinery.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stdout
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest  # noqa: E402

from run import END_TO_END_UNITS  # noqa: E402
from tracing import MODULES, PER_LAYER_METRICS, Tracer, self_times  # noqa: E402
from calibration import loop_seconds  # noqa: E402
from workloads import HuntLiebHerm, _parse_exact, collect, program_seed, \
    run_call  # noqa: E402


def _spans(tracer, spans):
    """Load (name, layer, start, end, parent) rows into a fresh tracer."""
    for name, layer, start, end, parent in spans:
        tracer.name_of.append(tracer._name_id(name, layer))
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.parents.append(parent)
        tracer.requests.append(0)
        tracer.tags.append(1 if layer.startswith("kernels.") else 0)


def test_self_time_subtracts_the_union_of_children():
    #  0 root      [0, 10]
    #  1 child     [1, 3]    overlaps child 2
    #  2 child     [2, 4]
    #  3 child     [6, 7]
    #  4 grandchild of 1 [1.5, 2.5]
    #  5 child of 3 running past its parent [6.5, 8], clipped to [6.5, 7]
    starts = [0.0, 1.0, 2.0, 6.0, 1.5, 6.5]
    ends = [10.0, 3.0, 4.0, 7.0, 2.5, 8.0]
    parents = [-1, 0, 0, 0, 1, 3]
    got = self_times(starts, ends, parents)
    assert got == pytest.approx([10 - 3 - 1, 2 - 1, 2, 1 - 0.5, 1, 1.5])


def test_layer_metrics_per_unit_and_nested_calls():
    t = Tracer()
    _spans(t, [
        ("cli.main", "cli", 0.0, 10.0, -1),
        ("inequalities.hunt", "inequalities.hunt", 1.0, 9.0, 0),
        ("inequalities.per_alpha_dp", "kernels.dp", 2.0, 4.0, 1),
        ("kernels.cycle_sum_table", "kernels.cycle_table", 2.5, 3.0, 2),
        ("inequalities.p_shape", "inequalities.family.majorization",
         5.0, 8.0, 1),
        # p_shape inside check_majorization_step: one call, not two
        ("inequalities.p_shape", "inequalities.family.majorization",
         6.0, 7.0, 4),
    ])
    m = t.layer_metrics(units=2)
    assert m["cli.self_s"] == pytest.approx(2 / 2)
    assert m["inequalities.hunt.self_s"] == pytest.approx(3 / 2)
    assert m["kernels.dp.self_s"] == pytest.approx(1.5 / 2)
    assert m["kernels.cycle_table.self_s"] == pytest.approx(0.5 / 2)
    assert m["inequalities.family.majorization.self_s"] == pytest.approx(3 / 2)
    assert m["inequalities.family.majorization.calls"] == pytest.approx(1 / 2)
    assert m["kernels.dp.calls"] == pytest.approx(1 / 2)
    assert m["scalars.rational_kernel_s"] == pytest.approx(2 / 2)
    # every self time lands in exactly one layer: they add up to the root
    total = sum(v for k, v in m.items() if k.endswith("self_s")
                and not k.startswith("scalars."))
    assert total == pytest.approx(10 / 2)


def _namespaces():
    import importlib
    mods = [importlib.import_module("alphaperm")]
    mods += [importlib.import_module("alphaperm." + m) for m in MODULES]
    return {m.__name__: dict(vars(m)) for m in mods}


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    from alphaperm import cli
    import alphaperm.suites as suites
    before = _namespaces()
    original_dp = suites.per_alpha_dp
    t = Tracer()
    t.install()
    try:
        assert suites.per_alpha_dp is not original_dp
        assert suites.per_alpha_dp.__wrapped__ is original_dp
        with redirect_stdout(io.StringIO()):
            rc = cli.main(["hunt", "--target", "lieb-type", "--n", "3",
                           "--trials", "2", "--out",
                           str(tmp_path / "f.jsonl")])
    finally:
        t.uninstall()
    assert rc in (0, 1)
    after = _namespaces()
    assert before.keys() == after.keys()
    for mod, names in before.items():
        for name, value in names.items():
            assert after[mod][name] is value, "%s.%s left wrapped" % (mod, name)
    names = {t.names[i] for i in t.name_of}
    assert {"cli.main", "cli.hunt", "inequalities.check_lieb_type",
            "inequalities.per_alpha_dp", "kernels.cycle_sum_table"} <= names
    m = t.layer_metrics(units=2)
    assert m["kernels.dp.calls"] > 0 and m["inequalities.comparisons"] > 0


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] \
        == PER_LAYER_METRICS
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == END_TO_END_UNITS


def test_program_seeds_of_different_benchmark_seeds_are_disjoint():
    def stream(seed):
        return {program_seed(seed, b) ^ t for b in range(64) for t in range(256)}
    assert not stream(0) & stream(1)
    assert len(stream(0)) == 64 * 256


def test_parse_exact_reads_compute_output():
    assert _parse_exact("-3/4\n") == Fraction(-3, 4)
    assert _parse_exact("-3/4-1/2i") == (Fraction(-3, 4), Fraction(-1, 2))
    assert _parse_exact("5+2/3i") == (Fraction(5), Fraction(2, 3))


def test_pinned_counterexample_is_checked(tmp_path):
    from alphaperm import cli
    wl = HuntLiebHerm(0, str(tmp_path))
    batch = wl.batch(0)
    # only the pinned command is run; the hunt left no findings to replay
    calls = [(0, ""), run_call(cli, batch.argvs[1])]
    outcome = collect(batch, calls)
    assert wl.failed_units(batch, outcome) == 0
    pin = os.path.basename(batch.files[2])
    outcome.files[pin] = outcome.files[pin].replace(
        wl.PIN_SLACK.encode(), b"-1/2")
    assert wl.failed_units(batch, outcome) == 1
    assert wl.failed_units(batch, collect(batch, [(0, ""), (0, "")])) == 1


def test_calibration_loop_leaves_the_collector_as_it_was():
    import gc
    assert gc.isenabled()
    assert loop_seconds() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        loop_seconds()
        assert not gc.isenabled()
    finally:
        gc.enable()
