"""The benchmark's own checks: run with ``python3 -m pytest bench``."""

import contextlib
import io
import json
import sys

import pytest

import run
import workloads

sys.path.insert(0, str(run.SRC))

from pjac.cli import main  # noqa: E402


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_job_list(workload):
    def argv(seed):
        return [job.argv for job in workloads.jobs_for(workload, seed)]

    assert argv(3) == argv(3)
    assert argv(3) != argv(4)


@pytest.fixture(scope="module")
def gap_corrector_default_iters(tmp_path_factory):
    """Exit code and stderr of `pjac energy-gap --eps 0.1 --corrector on --grid 32`."""
    out = tmp_path_factory.mktemp("gap") / "gap.csv"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["energy-gap", "--eps", "0.1", "--corrector", "on", "--grid", "32",
                   "--out", str(out)])
    return rc, err.getvalue()


def test_gap_corrector_default_iters_fails_only_as_known(gap_corrector_default_iters):
    rc, err = gap_corrector_default_iters
    assert rc == 0 or (rc == 3 and "does not vanish on the x axis" in err), (rc, err)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "known defect: with the default --iters 3 the corrected wedge fails "
        "the reflect_extend trace check (component 2 does not vanish on the "
        "x axis, max 1.02e-08) and the command exits 3"
    ),
)
def test_known_defect_gap_corrector_default_iters(gap_corrector_default_iters):
    rc, err = gap_corrector_default_iters
    assert rc == 0, err
