"""Per-iteration optimization path capture and CSV serialization.

Rows record accepted iterates only (not line-search trials): row 1 holds
the initial parameters with their value and gradient, and the final row
matches the optimization result.  CSV output uses the shortest decimal
representation that parses back bitwise-equal, so a log round-trips
losslessly through its CSV form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, check_count


def format_float(v: float) -> str:
    """Shortest representation of v that parses back to the same bits."""
    s = repr(float(v))
    return s[:-2] if s.endswith(".0") else s


@dataclass(frozen=True)
class LogRow:
    iter: int
    par: np.ndarray
    fn: float
    gr: np.ndarray


class IterationLog:
    """Ordered (iter, par, fn, gr) rows for one optimization run."""

    def __init__(self, dim: int):
        self.dim = check_count("log dimension", dim)
        self.rows: list[LogRow] = []

    def __len__(self) -> int:
        return len(self.rows)

    def append(self, par, fn, gr) -> None:
        """Append a row with iter = previous max + 1."""
        par = np.asarray(par, dtype=np.float64)
        gr = np.asarray(gr, dtype=np.float64)
        if par.shape != (self.dim,) or gr.shape != (self.dim,):
            raise DimensionError(
                f"log row has par shape {par.shape} / gr shape {gr.shape}, "
                f"expected ({self.dim},)"
            )
        self.rows.append(LogRow(len(self.rows) + 1, par.copy(), float(fn), gr.copy()))

    def header(self) -> list[str]:
        p = self.dim
        return (["iter"] + [f"par{i + 1}" for i in range(p)] + ["fn"]
                + [f"gr{i + 1}" for i in range(p)])

    def to_csv(self) -> str:
        """Serialize as CSV: header then one line per row, round-trip exact."""
        lines = [",".join(self.header())]
        for row in self.rows:
            fields = ([str(row.iter)]
                      + [format_float(v) for v in row.par]
                      + [format_float(row.fn)]
                      + [format_float(v) for v in row.gr])
            lines.append(",".join(fields))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "IterationLog":
        """Parse text produced by to_csv back into an equal log."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty CSV: missing header")
        header = lines[0].split(",")
        p = sum(1 for name in header if name.startswith("par"))
        if p < 1 or header != IterationLog(p).header():
            raise ValueError(f"unrecognized log CSV header: {lines[0]!r}")
        log = cls(p)
        for ln in lines[1:]:
            fields = ln.split(",")
            if len(fields) != 2 * p + 2:
                raise ValueError(f"bad log CSV row (expected {2 * p + 2} fields): {ln!r}")
            it = int(fields[0])
            par = np.array([float(v) for v in fields[1:1 + p]])
            fn = float(fields[1 + p])
            gr = np.array([float(v) for v in fields[2 + p:2 + 2 * p]])
            if it != len(log.rows) + 1:
                raise ValueError(f"non-consecutive iter column at row {ln!r}")
            log.append(par, fn, gr)
        return log

    def __eq__(self, other) -> bool:
        """Equal exactly when the CSV forms are, the round-trip contract."""
        if not isinstance(other, IterationLog):
            return NotImplemented
        return self.to_csv() == other.to_csv()
