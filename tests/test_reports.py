"""The verdict rules of ConsistencyReport, and is_zero's report."""
import math

import numpy as np

from superbracket import expressions as ex
from superbracket.expressions import add, const, mul, sample_at, var
from superbracket.reports import ConditionResult, ConsistencyReport
from superbracket.sampling import Sampler, _env_for, is_zero

NAN = float("nan")
P = var("p")
SIN_HALF = ex.sin(mul(const(0.5), P))


def _report(*residuals):
    report = ConsistencyReport(tolerance=1e-9)
    for k, r in enumerate(residuals):
        report.add(f"c{k}", r, {"k": k})
    return report


def test_report_with_no_conditions_is_vacuous():
    empty = ConsistencyReport()
    assert empty.vacuous and empty.worst is None and empty.max_residual == 0.0
    assert empty.summary().startswith("VACUOUS")
    assert not _report(0.0).vacuous
    # A condition without a residual still counts as evaluated.
    assert not ConsistencyReport([ConditionResult("exact", 0.0, None, False)]).vacuous


def test_a_condition_passes_up_to_the_tolerance_and_a_nan_fails():
    report = _report(1e-9, 2e-9, NAN)
    assert [c.passed for c in report.conditions] == [True, False, False]
    assert not report.passed


def test_worst_is_the_first_nan_else_the_first_largest():
    assert _report(1.0, 3.0, 2.0, 3.0).worst.name == "c1"
    assert _report(1.0, NAN, 5.0, NAN).worst.name == "c1"
    assert _report(NAN, 5.0).worst.name == "c0"
    report = _report(4.0, NAN)
    assert report.worst.name == "c1" and math.isnan(report.max_residual)


def test_worst_of_all_zero_residuals_is_the_first_condition():
    worst = _report(0.0, 0.0, 0.0).worst
    assert worst.name == "c0" and worst.worst_point == {"k": 0}


def test_is_zero_reports_one_condition_at_the_sample_of_the_maximum():
    e = add(SIN_HALF, mul(const(-0.5), P))
    s = Sampler(seed=3, count=50)
    report = is_zero(e, s)
    [cond] = report.conditions
    env = _env_for(e, s)
    values = np.abs(np.asarray(e.eval(env)))
    i = int(values.argmax())
    assert cond.max_residual == values[i] and cond.worst_point == sample_at(env, i)
    assert not cond.passed and not report.passed and not report.vacuous
    assert report.seed == 3 and report.tolerance == s.tolerance


def test_is_zero_without_samples_is_vacuous_and_keeps_the_seed():
    report = is_zero(SIN_HALF, Sampler(seed=99, count=0))
    assert report.vacuous and report.conditions == []
    assert report.seed == 99 and report.note == "no samples"
