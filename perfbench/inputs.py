"""Seeded workload inputs and a CSV reader/writer that share no code with halflearn.

Every input the benchmark hands to the program is drawn here from the
workload seed, so the same seed always gives the same inputs.  The reader is
also what the output checks use to look at datasets the program wrote.
"""

from __future__ import annotations

import numpy as np

STUDENT_T_DOF = 5.0


def job_rng(seed: int, workload_tag: int, job: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload_tag, job])


def program_seed(seed: int, workload_tag: int, job: int) -> int:
    """A --seed for the program, derived from the workload seed."""
    return int(job_rng(seed, workload_tag, 1000 + job).integers(1, 2**62))


def unit_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def sample_points(rng: np.random.Generator, marginal: str, n: int, d: int) -> np.ndarray:
    if marginal == "gaussian":
        return rng.standard_normal((n, d))
    if marginal == "student-t":
        # multivariate t scaled to unit coordinate variance
        z = rng.standard_normal((n, d))
        g = rng.chisquare(STUDENT_T_DOF, n)
        return z / np.sqrt(g / STUDENT_T_DOF)[:, None] * np.sqrt((STUDENT_T_DOF - 2.0) / STUDENT_T_DOF)
    raise ValueError(f"unknown marginal {marginal!r}")


def signs(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sign(<w, x>) per row, with sign(0) = +1."""
    return np.where(np.ascontiguousarray(X) @ np.asarray(w, dtype=np.float64) >= 0.0, 1.0, -1.0)


def planted_labels(rng: np.random.Generator, X: np.ndarray, w: np.ndarray, noise: str, *,
                   eta: float = 0.0, width: float = 0.0, opt: float = 0.0) -> np.ndarray:
    y = signs(X, w)
    n = len(y)
    if noise == "massart-const":
        flip = rng.random(n) < eta
    elif noise == "massart-boundary":
        flip = (rng.random(n) < eta) & (np.abs(X @ w) <= width)
    elif noise == "agnostic-random":
        flip = np.zeros(n, dtype=bool)
        flip[rng.permutation(n)[: int(opt * n)]] = True
    else:
        raise ValueError(f"unknown noise {noise!r}")
    y[flip] *= -1.0
    return y


def zero_one_error(X: np.ndarray, y: np.ndarray, w) -> float:
    return float(np.mean(signs(X, w) != y))


def write_csv(path, X: np.ndarray, y: np.ndarray) -> None:
    """Header y,x1..xd; repr() prints the shortest string that reads back exactly."""
    d = X.shape[1]
    lines = ["y," + ",".join(f"x{i + 1}" for i in range(d))]
    lines.extend(f"{int(yi)}," + ",".join(map(repr, row)) for yi, row in zip(y.tolist(), X.tolist()))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path) -> tuple[str, np.ndarray, np.ndarray]:
    """Return (header, X, y) of a dataset CSV without trusting its header."""
    with open(path, "r", encoding="utf-8") as fh:
        header, _, body = fh.read().partition("\n")
    cols = header.count(",") + 1
    rows = body.splitlines()
    values = np.array(",".join(rows).split(","), dtype=np.float64) if rows else np.empty(0)
    if values.size != len(rows) * cols:
        raise ValueError(f"{path}: ragged rows")
    table = values.reshape(len(rows), cols)
    return header, np.ascontiguousarray(table[:, 1:]), table[:, 0].copy()
