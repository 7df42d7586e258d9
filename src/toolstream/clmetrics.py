"""Stage-by-block accuracy matrices and continual-learning summary statistics.

The matrix R holds fractions in [0, 1]: R[i][j] is accuracy on block j+1
after training through stage i+1. Stage 0 (the untrained base model) is
kept separately as the baseline vector used by forward transfer.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

from .files import read_csv, write_csv


class MetricsError(Exception):
    pass


class EvalMatrix:
    __slots__ = ("values",)

    def __init__(self, values: Sequence[Sequence[float]]):
        rows = tuple(tuple(float(v) for v in row) for row in values)
        T = len(rows)
        if T == 0 or any(len(row) != T for row in rows):
            raise MetricsError("evaluation matrix must be square and nonempty")
        if any(not (0.0 <= v <= 1.0) for row in rows for v in row):
            raise MetricsError("matrix entries must be fractions in [0, 1]")
        self.values = rows

    @property
    def T(self) -> int:
        return len(self.values)


class BaselineVector:
    __slots__ = ("values",)

    def __init__(self, values: Sequence[float]):
        vals = tuple(float(v) for v in values)
        if any(not (0.0 <= v <= 1.0) for v in vals):
            raise MetricsError("baseline entries must be fractions in [0, 1]")
        self.values = vals

    def __len__(self) -> int:
        return len(self.values)


def _mean(values: Sequence[float]) -> float:
    # An explicit left-to-right loop: from Python 3.12 on, sum() of floats
    # is compensated, so its last digit would depend on the interpreter.
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def _require_multistage(matrix: EvalMatrix) -> None:
    if matrix.T < 2:
        raise MetricsError("transfer statistics are undefined for fewer than 2 stages")


def average_accuracy(matrix: EvalMatrix) -> float:
    """Mean accuracy over all blocks at the final stage."""
    return _mean(matrix.values[-1])


def bwt(matrix: EvalMatrix) -> float:
    """Mean final-minus-diagonal accuracy change on earlier blocks."""
    _require_multistage(matrix)
    R = matrix.values
    return _mean([R[-1][j] - R[j][j] for j in range(matrix.T - 1)])


def fwt(matrix: EvalMatrix, baseline: BaselineVector) -> float:
    """Mean prior-stage-minus-baseline accuracy on not-yet-trained blocks."""
    _require_multistage(matrix)
    if len(baseline) != matrix.T:
        raise MetricsError(
            f"baseline length {len(baseline)} does not match T={matrix.T}"
        )
    R, b = matrix.values, baseline.values
    return _mean([R[j - 1][j] - b[j] for j in range(1, matrix.T)])


def avg_forgetting(matrix: EvalMatrix) -> float:
    """Mean drop from each earlier block's peak (diagonal onward, before the
    final stage) to its final-stage accuracy."""
    _require_multistage(matrix)
    R, T = matrix.values, matrix.T
    drops = [max(R[i][j] for i in range(j, T - 1)) - R[-1][j] for j in range(T - 1)]
    return _mean(drops)


def aulc(matrix: EvalMatrix) -> float:
    """Area under the learning curve: mean over stages of the stage's
    average accuracy over the blocks seen so far."""
    R = matrix.values
    return _mean([_mean(R[i][: i + 1]) for i in range(matrix.T)])


def summarize(matrix: EvalMatrix, baseline: BaselineVector) -> dict[str, float]:
    """All five continual-learning statistics for one accuracy matrix, by
    name in the order final_aa, bwt, fwt, avg_forgetting, aulc."""
    _require_multistage(matrix)
    return {
        "final_aa": average_accuracy(matrix),
        "bwt": bwt(matrix),
        "fwt": fwt(matrix, baseline),
        "avg_forgetting": avg_forgetting(matrix),
        "aulc": aulc(matrix),
    }


def write_matrix_csv(
    path: str | Path, rows: Mapping[int, Sequence[float]], block_ids: Sequence[int]
) -> None:
    """Write stage rows (stage 0 allowed as the baseline row) as CSV, one
    column per block id.

    Values are written with Python's shortest round-trip float
    representation so reading the file back is lossless.
    """
    T = len(block_ids)
    table = []
    for stage in sorted(rows):
        row = list(rows[stage])
        if len(row) != T:
            raise MetricsError(f"stage {stage} row has {len(row)} values, expected {T}")
        table.append([stage] + [repr(float(v)) for v in row])
    write_csv(path, ["stage"] + [f"block_{b}" for b in block_ids], table)


def read_matrix_csv(path: str | Path) -> tuple[list[int], dict[int, list[float]]]:
    """Read a matrix CSV back as (the block id of each column, stage -> row
    values); T is the number of columns. A block outside 1..T or a stage
    outside 0..T, or either appearing twice, is an error naming the line."""
    header: list[str] = []
    blocks: list[int] = []
    rows: dict[int, list[float]] = {}

    def row(fields: list[str]) -> None:
        if not header:
            if fields[0] != "stage":
                raise ValueError("matrix header must start with 'stage'")
            T = len(fields) - 1
            for column in fields[1:]:
                block = int(column.removeprefix("block_"))
                if not 1 <= block <= T:
                    raise ValueError(f"block {block} is outside blocks 1..{T}")
                if block in blocks:
                    raise ValueError(f"block {block} appears more than once")
                blocks.append(block)
            header.extend(fields)
        elif len(fields) != len(header):
            raise ValueError(f"row has {len(fields) - 1} values, expected {len(header) - 1}")
        else:
            stage, T = int(fields[0]), len(header) - 1
            if not 0 <= stage <= T:
                raise ValueError(f"stage {stage} is outside stages 0..{T}")
            if stage in rows:
                raise ValueError(f"stage {stage} appears more than once")
            rows[stage] = [float(v) for v in fields[1:]]

    read_csv(path, row, MetricsError)
    if not header:
        raise MetricsError(f"{path}: empty matrix file")
    return blocks, rows


def matrix_from_rows(
    rows: Mapping[int, Sequence[float]], T: int
) -> tuple[EvalMatrix, BaselineVector | None]:
    """Assemble an EvalMatrix (stages 1..T required) and the optional
    stage-0 baseline from stage-indexed rows."""
    missing = [s for s in range(1, T + 1) if s not in rows]
    if missing:
        raise MetricsError(f"matrix is missing stage rows: {missing}")
    matrix = EvalMatrix(values=tuple(tuple(rows[s]) for s in range(1, T + 1)))
    baseline = BaselineVector(tuple(rows[0])) if 0 in rows else None
    return matrix, baseline
