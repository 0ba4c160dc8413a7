"""Lorenz trajectory generation, scalar measurement, noise injection, series I/O,
and the one reader and writer of every CSV table.

The integrator is a classical fixed-step RK4 written in plain Python floats so
that results are bit-reproducible across platforms.  Noise uses NumPy's PCG64
generator (``numpy.random.default_rng``), which has a fixed, documented stream
for a given seed.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

DEFAULT_IC = (1.0, 1.0, 1.0)
DEFAULT_DT = 0.001
DEFAULT_TRANSIENT = 10_000

_COORD_NAMES = {"x": 0, "y": 1, "z": 2}


class IntegrationError(RuntimeError):
    """Integration left the finite floating-point range."""

    def __init__(self, step: int):
        super().__init__(f"non-finite state at integration step {step}")
        self.step = step


class SeriesFormatError(ValueError):
    """A series, cloud or table file failed to parse; carries the 1-based line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}: line {line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


@dataclass(frozen=True)
class OdeParams:
    """Lorenz parameters; defaults are the classical chaotic values."""

    r: float = 28.0
    b: float = 8.0 / 3.0
    sigma: float = 10.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.r, self.b, self.sigma)):
            raise ValueError("ODE parameters must be finite")


@dataclass
class Trajectory:
    """A (n_steps, d) array of states sampled every ``dt`` time units."""

    points: np.ndarray
    dt: float

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2:
            raise ValueError("trajectory points must be a 2-d array")
        if not self.dt > 0:
            raise ValueError("dt must be positive")

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass
class ScalarSeries:
    """A scalar time series with a fixed sampling interval."""

    values: np.ndarray
    sample_interval: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError("series values must be a 1-d array")
        if not self.sample_interval > 0:
            raise ValueError("sample_interval must be positive")
        if self.values.size and not np.isfinite(self.values).all():
            raise ValueError("series values must be finite")

    def __len__(self) -> int:
        return self.values.size


def integrate_lorenz(
    params: OdeParams = OdeParams(),
    ic=DEFAULT_IC,
    dt: float = DEFAULT_DT,
    n_steps: int = 100_000,
    transient_steps: int = DEFAULT_TRANSIENT,
) -> Trajectory:
    """Integrate the Lorenz equations with classical fixed-step RK4.

    Returns ``n_steps`` states; point ``i`` is the state after
    ``transient_steps + i + 1`` RK4 steps from ``ic``, so the transient is
    discarded and every returned point is the result of a full step.

    Raises
    ------
    IntegrationError
        If the state leaves the finite range; the exception records the
        0-based step index at which this happened.
    """
    if len(ic) != 3:
        raise ValueError("Lorenz initial condition must have three components")
    if not dt > 0:
        raise ValueError("dt must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if transient_steps < 0:
        raise ValueError("transient_steps must be nonnegative")

    r, b, s = params.r, params.b, params.sigma
    x, y, z = (float(c) for c in ic)
    if not all(math.isfinite(c) for c in (x, y, z)):
        raise ValueError("initial condition must be finite")

    out = np.empty((n_steps, 3), dtype=np.float64)
    h = dt
    total = transient_steps + n_steps
    for i in range(total):
        k1x = s * (y - x)
        k1y = x * (r - z) - y
        k1z = x * y - b * z

        ax = x + 0.5 * h * k1x
        ay = y + 0.5 * h * k1y
        az = z + 0.5 * h * k1z
        k2x = s * (ay - ax)
        k2y = ax * (r - az) - ay
        k2z = ax * ay - b * az

        ax = x + 0.5 * h * k2x
        ay = y + 0.5 * h * k2y
        az = z + 0.5 * h * k2z
        k3x = s * (ay - ax)
        k3y = ax * (r - az) - ay
        k3z = ax * ay - b * az

        ax = x + h * k3x
        ay = y + h * k3y
        az = z + h * k3z
        k4x = s * (ay - ax)
        k4y = ax * (r - az) - ay
        k4z = ax * ay - b * az

        x += h * (k1x + 2.0 * (k2x + k3x) + k4x) / 6.0
        y += h * (k1y + 2.0 * (k2y + k3y) + k4y) / 6.0
        z += h * (k1z + 2.0 * (k2z + k3z) + k4z) / 6.0

        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise IntegrationError(i)
        if i >= transient_steps:
            row = out[i - transient_steps]
            row[0] = x
            row[1] = y
            row[2] = z
    return Trajectory(out, dt)


def observe(traj: Trajectory, h: int | str = "x") -> ScalarSeries:
    """Record one coordinate of a trajectory, by index or by name (x/y/z), keeping its interval."""
    if isinstance(h, str):
        if h not in _COORD_NAMES:
            raise ValueError(f"unknown coordinate name {h!r}")
        idx = _COORD_NAMES[h]
    else:
        idx = int(h)
    if not 0 <= idx < traj.d:
        raise ValueError(f"coordinate index {idx} out of range for dimension {traj.d}")
    return ScalarSeries(traj.points[:, idx].copy(), traj.dt)


def add_uniform_noise(series: ScalarSeries, nu: float, seed: int) -> ScalarSeries:
    """Add i.i.d. uniform noise drawn from [-nu/2, nu/2] to every sample.

    ``nu = 0`` returns an exact copy.  The draw uses PCG64 with the given
    seed, so output is reproducible across runs and platforms.
    """
    if not (math.isfinite(nu) and nu >= 0):
        raise ValueError(f"nu must be a finite nonnegative number, got {nu}")
    if nu == 0:
        return ScalarSeries(series.values.copy(), series.sample_interval)
    rng = np.random.default_rng(seed)
    noise = rng.uniform(-nu / 2.0, nu / 2.0, size=len(series))
    return ScalarSeries(series.values + noise, series.sample_interval)


_HEADER_RE = re.compile(r"^#\s*T=([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*$")


def save_series(series: ScalarSeries, path) -> None:
    """Write a series file: ``# T=<interval>`` header, then one value per line.

    Values are written with ``repr`` (shortest round-trip form), so a
    save/load cycle reproduces every float bit-exactly.
    """
    _write_table(path, [f"# T={series.sample_interval!r}"], series.values)


def load_series(path, format: str = "native", sample_interval: float | None = None) -> ScalarSeries:
    """Read a series file.

    ``format="native"`` expects the ``# T=`` header format written by
    :func:`save_series`.  ``format="csv"`` expects a single ``x`` column and
    takes the sampling interval from ``sample_interval`` (default 1.0).
    """
    if format not in ("native", "csv"):
        raise ValueError(f"unknown series format {format!r}")
    table = _read_table(path, "x" if format == "csv" else None, finite="value")
    if format == "csv":
        return ScalarSeries(table.floats.reshape(-1), 1.0 if sample_interval is None else sample_interval)
    m = _HEADER_RE.match(table.lines[0]) if table.lines else None
    interval = float(m.group(1)) if m else 0.0
    if not 0 < interval < math.inf:
        raise SeriesFormatError(path, 1, "expected a '# T=<positive number>' header")
    if table.floats.shape[1] > 1:
        raise table.error(0, f"expected 1 field, got {table.floats.shape[1]}")
    return ScalarSeries(table.floats.reshape(-1), interval)


def _write_table(path, head: list, *columns) -> None:
    """Write the ``head`` lines (comments, header), then one comma-separated line per row.

    Each column is a 1-d sequence of one kind: integers (and bools) are
    written with ``%d``, floats with ``%r`` (so that ``inf`` is 'inf' and
    every float reads back bit-exactly) and anything else with ``%s``.
    """
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%d" if c.dtype.kind in "biu" else "%r" if c.dtype.kind == "f" else "%s" for c in columns)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{line}\n" for line in head)
        fh.writelines(row % values + "\n" for values in zip(*(c.tolist() for c in columns)))


def _data_lines(lines: list, start: int):
    """(line_no, text) of each row in ``lines[start:]``: the text before any '#', when not blank."""
    for line_no in range(start + 1, len(lines) + 1):
        text = lines[line_no - 1].split("#", 1)[0].strip()
        if text:
            yield line_no, text


@dataclass
class _Table:
    """A table read by :func:`_read_table`: its rows as an int and a float array, and its lines."""

    path: str
    ints: np.ndarray  # (rows, leading integer fields)
    floats: np.ndarray  # (rows, the other fields)
    lines: list
    start: int  # index of the first line after the header

    def error(self, row: int, message: str) -> SeriesFormatError:
        """A SeriesFormatError located at the line of data row ``row`` (0-based)."""
        line_no = list(_data_lines(self.lines, self.start))[row][0]
        return SeriesFormatError(self.path, line_no, message)


def _read_table(path, header: str | None, ints: int | None = 0, finite: str | None = None) -> _Table:
    """Read a comma-separated table with NumPy, locating any bad line.

    Blank lines are skipped and a '#' starts a comment.  The first other line
    must equal ``header``, in which a trailing ``c0,...`` stands for the
    columns c0, c1, ..., c{m-1}; with ``header=None`` there is no header
    line.  Rows are as wide as the header, or else as the first row: their
    first ``ints`` fields are integers (``None``: all of them) and the rest
    floats, which must be finite when ``finite`` names them.  A missing
    header, a ragged row, a bad number or a non-finite value raises
    SeriesFormatError with the path and the line; only then are the lines
    walked one by one.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    first = next(_data_lines(lines, 0), None)
    start = first[0] - 1 if first else len(lines)
    width = first[1].count(",") + 1 if first else 0
    if header is not None:
        text = first[1] if first else "end of file"
        fixed = header.removesuffix("c0,...")
        numbered = fixed + ",".join(f"c{k}" for k in range(width - fixed.count(",")))
        if text != (header if fixed == header else numbered):
            raise SeriesFormatError(path, start + 1, f"expected header {header!r}, got {text!r}")
        start += 1
        first = next(_data_lines(lines, start), None)
    n_int = width if ints is None else ints
    dtype = np.dtype([("i", np.int64, (n_int,)), ("f", np.float64, (width - n_int,))])
    try:
        data = np.loadtxt(lines[start:], dtype=dtype, delimiter=",", ndmin=1) if first else np.empty(0, dtype)
    except ValueError:  # walk the rows; np.loadtxt also refuses a line of blanks, which is skipped here
        rows = []
        fields = f"{n_int} integer and {width - n_int} float fields"
        for line_no, text in _data_lines(lines, start):
            try:
                rows.append(np.loadtxt([text], dtype=dtype, delimiter=",", ndmin=1))
            except ValueError:
                raise SeriesFormatError(path, line_no, f"expected {fields}, got {text!r}") from None
        data = np.concatenate(rows)
    table = _Table(str(path), np.ascontiguousarray(data["i"]), np.ascontiguousarray(data["f"]), lines, start)
    if finite is not None:
        good = np.isfinite(table.floats).all(axis=1)
        if not good.all():
            raise table.error(int(np.argmin(good)), f"non-finite {finite}")
    return table
