"""Stage-by-block accuracy matrices and continual-learning summary statistics.

The matrix R holds fractions in [0, 1]: R[i][j] is accuracy on block j+1
after training through stage i+1. Stage 0 (the untrained base model) is
kept separately as the baseline vector b used by forward transfer. Both
are tuples of floats, checked where they are built (eval_matrix,
baseline_vector).
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

from .files import in_range, read_csv, write_csv


Matrix = tuple[tuple[float, ...], ...]


def _fractions(values: Sequence[float], what: str) -> tuple[float, ...]:
    vals = tuple(float(v) for v in values)
    if any(not (0.0 <= v <= 1.0) for v in vals):
        raise ValueError(f"{what} entries must be fractions in [0, 1]")
    return vals


def eval_matrix(values: Sequence[Sequence[float]]) -> Matrix:
    """R from rows of stages 1..T: square, nonempty, fractions."""
    if not values or any(len(row) != len(values) for row in values):
        raise ValueError("evaluation matrix must be square and nonempty")
    return tuple(_fractions(row, "matrix") for row in values)


def baseline_vector(values: Sequence[float]) -> tuple[float, ...]:
    """b from the stage-0 row: fractions."""
    return _fractions(values, "baseline")


def _mean(values: Sequence[float]) -> float:
    # An explicit left-to-right loop: from Python 3.12 on, sum() of floats
    # is compensated, so its last digit would depend on the interpreter.
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def _require_multistage(R: Matrix) -> None:
    if len(R) < 2:
        raise ValueError("transfer statistics are undefined for fewer than 2 stages")


def average_accuracy(R: Matrix) -> float:
    """Mean accuracy over all blocks at the final stage."""
    return _mean(R[-1])


def bwt(R: Matrix) -> float:
    """Mean final-minus-diagonal accuracy change on earlier blocks."""
    _require_multistage(R)
    return _mean([R[-1][j] - R[j][j] for j in range(len(R) - 1)])


def fwt(R: Matrix, b: Sequence[float]) -> float:
    """Mean prior-stage-minus-baseline accuracy on not-yet-trained blocks."""
    _require_multistage(R)
    if len(b) != len(R):
        raise ValueError(f"baseline length {len(b)} does not match T={len(R)}")
    return _mean([R[j - 1][j] - b[j] for j in range(1, len(R))])


def avg_forgetting(R: Matrix) -> float:
    """Mean drop from each earlier block's peak (diagonal onward, before the
    final stage) to its final-stage accuracy."""
    _require_multistage(R)
    T = len(R)
    return _mean([max(R[i][j] for i in range(j, T - 1)) - R[-1][j] for j in range(T - 1)])


def aulc(R: Matrix) -> float:
    """Area under the learning curve: mean over stages of the stage's
    average accuracy over the blocks seen so far."""
    return _mean([_mean(R[i][: i + 1]) for i in range(len(R))])


def summarize(R: Matrix, b: Sequence[float]) -> dict[str, float]:
    """All five continual-learning statistics for one accuracy matrix, by
    name in the order final_aa, bwt, fwt, avg_forgetting, aulc."""
    _require_multistage(R)
    return {
        "final_aa": average_accuracy(R),
        "bwt": bwt(R),
        "fwt": fwt(R, b),
        "avg_forgetting": avg_forgetting(R),
        "aulc": aulc(R),
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
            raise ValueError(f"stage {stage} row has {len(row)} values, expected {T}")
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
                block = in_range(int(column.removeprefix("block_")), 1, T, "block")
                if block in blocks:
                    raise ValueError(f"block {block} appears more than once")
                blocks.append(block)
            header.extend(fields)
        elif len(fields) != len(header):
            raise ValueError(f"row has {len(fields) - 1} values, expected {len(header) - 1}")
        else:
            stage = in_range(int(fields[0]), 0, len(header) - 1, "stage")
            if stage in rows:
                raise ValueError(f"stage {stage} appears more than once")
            rows[stage] = [float(v) for v in fields[1:]]

    read_csv(path, row)
    if not header:
        raise ValueError(f"{path}: empty matrix file")
    return blocks, rows


def matrix_from_rows(
    rows: Mapping[int, Sequence[float]], T: int
) -> tuple[Matrix, tuple[float, ...] | None]:
    """Assemble R (stages 1..T required) and the optional stage-0 baseline
    from stage-indexed rows."""
    missing = [s for s in range(1, T + 1) if s not in rows]
    if missing:
        raise ValueError(f"matrix is missing stage rows: {missing}")
    matrix = eval_matrix([rows[s] for s in range(1, T + 1)])
    return matrix, baseline_vector(rows[0]) if 0 in rows else None
