"""Iteration-path rows and lossless CSV round-tripping."""

import numpy as np
import pytest

from paropt import IterationLog, format_float, optimize
from paropt.errors import DimensionError


def test_format_float_round_trips():
    for v in (0.1, 1.0 / 3.0, 1e-300, -2.5, 123456789.123456789, float(np.pi)):
        assert float(format_float(v)) == v


def test_format_float_strips_integer_decimals():
    assert format_float(1.0) == "1"
    assert format_float(-3.0) == "-3"
    assert format_float(0.1) == "0.1"
    assert format_float(0.0) == "0"


def test_header_layout():
    assert IterationLog(2).header() == ["iter", "par1", "par2", "fn", "gr1", "gr2"]


def test_rows_number_consecutively():
    log = IterationLog(1)
    log.append([1.0], 1.0, [2.0])
    log.append([0.5], 0.25, [1.0])
    assert [r.iter for r in log.rows] == [1, 2]
    assert len(log) == 2


def test_append_rejects_wrong_shapes():
    log = IterationLog(2)
    with pytest.raises(DimensionError):
        log.append([1.0], 1.0, [1.0, 2.0])
    with pytest.raises(DimensionError):
        log.append([1.0, 2.0], 1.0, [1.0])


def test_csv_round_trip_is_bitwise():
    rng = np.random.Generator(np.random.PCG64(3))
    log = IterationLog(3)
    for k in range(5):
        log.append(rng.standard_normal(3) * 10.0 ** k,
                   rng.standard_normal(),
                   rng.standard_normal(3) / 7.0)
    assert IterationLog.from_csv(log.to_csv()) == log


def one_row_log(par=(0.5,), fn=0.25, gr=(1.0,)):
    log = IterationLog(len(par))
    log.append(list(par), fn, list(gr))
    return log


@pytest.mark.parametrize("other", [
    one_row_log(par=(0.5, 0.5), gr=(1.0, 1.0)),
    IterationLog(1),
    one_row_log(fn=-0.25),
    one_row_log(par=(np.nextafter(0.5, 1.0),)),
    one_row_log(gr=(np.nextafter(1.0, 2.0),)),
], ids=["dimension", "length", "fn", "par-bits", "gr-bits"])
def test_logs_differing_in_one_part_are_unequal(other):
    assert one_row_log() != other
    assert one_row_log().to_csv() != other.to_csv()


def test_equality_follows_the_csv():
    # float == would call 0.0 and -0.0 equal and nan unequal to itself
    assert one_row_log(fn=0.0) != one_row_log(fn=-0.0)
    text = one_row_log(fn=float("nan")).to_csv()
    assert IterationLog.from_csv(text) == IterationLog.from_csv(text)


def test_equality_with_a_non_log_is_not_implemented():
    log = one_row_log()
    assert log.__eq__(log.to_csv()) is NotImplemented
    assert log != log.to_csv()


def test_optimize_log_round_trips_row_by_row():
    r = optimize(lambda x: float(np.dot(x, x) + np.sin(x[0])), [1.5, -0.5], loginfo=True)
    back = IterationLog.from_csv(r.log.to_csv())
    assert len(r.log) > 2 and len(back) == len(r.log)
    for a, b in zip(r.log.rows, back.rows):
        assert a.iter == b.iter
        assert a.par.tobytes() == b.par.tobytes()
        assert np.float64(a.fn).tobytes() == np.float64(b.fn).tobytes()
        assert a.gr.tobytes() == b.gr.tobytes()


def test_csv_layout():
    log = IterationLog(1)
    log.append([0.5], 0.25, [1.0])
    assert log.to_csv() == "iter,par1,fn,gr1\n1,0.5,0.25,1\n"


def test_from_csv_rejects_bad_input():
    with pytest.raises(ValueError):
        IterationLog.from_csv("")
    with pytest.raises(ValueError):
        IterationLog.from_csv("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        IterationLog.from_csv("iter,par1,fn,gr1\n1,1,1\n")  # missing field
    with pytest.raises(ValueError):
        IterationLog.from_csv("iter,par1,fn,gr1\n7,1,1,2\n")  # bad numbering


def test_optimize_log_first_and_last_rows():
    def obj(x):
        return float(np.dot(x, x))

    def grad(x):
        return 2.0 * np.asarray(x, dtype=np.float64)

    par0 = np.array([1.5, -0.5])
    r = optimize(obj, par0, grad, loginfo=True)
    first = r.log.rows[0]
    assert first.par.tolist() == par0.tolist()
    assert first.fn == obj(par0)
    assert first.gr.tolist() == grad(par0).tolist()
    last = r.log.rows[-1]
    assert last.par.tolist() == r.par.tolist()
    assert last.fn == r.value


def test_log_disabled_by_default():
    r = optimize(lambda x: float(np.dot(x, x)), [1.0])
    assert r.log is None
