"""Study drivers: argument checks that stop a study before it runs."""
import pytest

from laptail.errors import ParameterError
from laptail.studies import convergence_rows


@pytest.mark.parametrize("ns", [(100, 100), (100, 400, 100)])
def test_convergence_rejects_a_repeated_sample_size(ns):
    # a log-log slope through coincident points is not a rate
    with pytest.raises(ParameterError, match="distinct"):
        convergence_rows(seed=1, ns=ns, reps=2)
