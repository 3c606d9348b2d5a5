"""Study drivers: argument checks that stop a study before it runs, the
process pool that runs the replications, and the rows of a study whose
estimates cannot be formed."""
from concurrent.futures import ProcessPoolExecutor

import pytest

from laptail.errors import ParameterError
from laptail.simulation import PoissonCounts
from laptail.studies import convergence_rows, decompound_rows, table2_rows
from laptail.transform_maps import PoissonDecompound
from laptail.transforms import Exponential


@pytest.mark.parametrize("ns", [(100, 100), (100, 400, 100)])
def test_convergence_rejects_a_repeated_sample_size(ns):
    # a log-log slope through coincident points is not a rate
    with pytest.raises(ParameterError, match="distinct"):
        convergence_rows(seed=1, ns=ns, reps=2)


@pytest.mark.parametrize("call, message", [
    (lambda: table2_rows(seed=1, reps=0), "need at least one replication"),
    (lambda: convergence_rows(seed=1, ns=()),
     "need at least one sample size"),
    (lambda: decompound_rows(seed=1, counts=PoissonCounts(1.0),
                             jobs=Exponential(1.0),
                             transform_map=PoissonDecompound(), ws=[]),
     "need at least one evaluation point")],
    ids=["table2-reps", "convergence-ns", "decompound-ws"])
def test_study_refusals(call, message):
    with pytest.raises(ParameterError) as exc:
        call()
    assert str(exc.value) == message


def test_a_study_pool_forks_no_more_workers_than_replications(monkeypatch):
    # under the fork start method a pool forks all its workers at once, so
    # 6 workers for 2 replications forked 4 processes that never ran one.
    # Each pool now gets at most one worker per replication, a single
    # replication runs in the calling process, and the rows stay the serial
    # rows bit for bit
    spawn = ProcessPoolExecutor._spawn_process
    forks = []

    def counted(self):
        forks.append(self._max_workers)
        return spawn(self)

    monkeypatch.setattr(ProcessPoolExecutor, "_spawn_process", counted)
    studies = {
        "table2": (table2_rows, dict(rhos=(0.5,), n=1000, reps=2), 2),
        "convergence": (convergence_rows, dict(ns=(100, 400), reps=2), 4),
        "one replication": (convergence_rows, dict(ns=(100,), reps=1), 0),
    }
    for name, (study, kwargs, most_forks) in studies.items():
        serial = study(seed=1, **kwargs)
        assert forks == [], name
        assert repr(study(seed=1, workers=6, **kwargs)) == repr(serial), name
        assert len(forks) <= most_forks, name
        assert all(pool <= kwargs["reps"] for pool in forks), name
        forks.clear()


def test_censored_tail_is_one_when_no_increment_is_recovered():
    # one reading recovers no increment (EmptyResult), so the censored
    # estimator's tail is 1 in every replication: its relative error is
    # (1 - truth) / truth = 9 at the 90th percentile, with no spread
    rows = table2_rows(seed=1, rhos=[0.5], percentiles=[0.9], n=1, reps=2)
    [row] = [r for r in rows if r["estimator"] == "laplace_censored"]
    assert row["truth_tail"] == pytest.approx(0.1, rel=1e-12)
    assert row["mean_rel_error"] == pytest.approx(9.0, abs=1e-12)
    assert row["stderr"] == 0.0
