"""The benchmark's workloads run alphaperm and check its outputs.

perfbench/workloads.py builds each workload's command lines and checks
what they print and write with alphaperm functions of its own choosing
(per_alpha_dp with a shared cycle_table, cycle_sum_table, replay_finding,
loads_matrix, ...). A changed name, option or output breaks a benchmark
run, so these tests load the workloads by path, unedited, run one batch
of each and require that no unit fails its check.
"""

import importlib.util
from pathlib import Path

import pytest

from alphaperm import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["hunt-marcus", "hunt-lieb-herm",
                                  "check-all", "compute-large"])
def test_one_batch_passes_its_check(name, tmp_path):
    workloads = _load_workloads()
    workload = workloads.WORKLOADS[name](1, str(tmp_path))
    batch = workload.batch(0)
    calls = [workloads.run_call(cli, argv) for argv in batch.argvs]
    outcome = workloads.collect(batch, calls)
    assert workload.failed_units(batch, outcome) == 0, calls
