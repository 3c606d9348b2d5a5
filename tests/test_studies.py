"""Study drivers: argument checks that stop a study before it runs, and the
process pool that runs the replications."""
from concurrent.futures import ProcessPoolExecutor

import pytest

from laptail.errors import ParameterError
from laptail.studies import convergence_rows, table2_rows


@pytest.mark.parametrize("ns", [(100, 100), (100, 400, 100)])
def test_convergence_rejects_a_repeated_sample_size(ns):
    # a log-log slope through coincident points is not a rate
    with pytest.raises(ParameterError, match="distinct"):
        convergence_rows(seed=1, ns=ns, reps=2)


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
