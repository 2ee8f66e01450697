"""Fleet datasets: ingestion, normalization, and a synthetic degradation fleet.

A fleet is a collection of run-to-failure unit histories. Each unit carries a
time index, a feature matrix (one row per step), and the remaining useful life
at every step. Files on disk are plain comma-delimited tables, one per unit,
with header ``unit_id,t,f_1..f_m,rul``. A fleet always holds raw features:
normalization is a row transform, :class:`NormalizationStats` from
:func:`normalize`, applied to the stacked rows a model reads.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .params import RngStream

__all__ = [
    "DataFormatError",
    "NormalizationStats",
    "UnitSeries",
    "FleetDataset",
    "SplitSpec",
    "unit_list",
    "disjoint_units",
    "load_fleet",
    "save_fleet",
    "normalize",
    "stack_rows",
    "synth_fleet",
]

STD_FLOOR = 1e-8
NUM_CONDITIONS = 3

_ID_PATTERN = re.compile(r"[A-Za-z0-9._-]+")


class DataFormatError(ValueError):
    """An ingested fleet table violates the expected format or invariants.
    ``row`` and ``column`` locate a unit's offending row and cell (column 0
    unit_id, 1 t, 2.. features, -1 rul), each None where it does not apply."""

    def __init__(self, message: str, row: Optional[int] = None, column: Optional[int] = None):
        super().__init__(message)
        self.row, self.column = row, column


@dataclass(frozen=True)
class NormalizationStats:
    """Per-feature z-scoring statistics, computed from training units only."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        std = np.asarray(self.std, dtype=np.float64)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)
        if mean.ndim != 1 or std.ndim != 1 or mean.shape != std.shape:
            raise ValueError("mean and std must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(std))):
            raise ValueError("normalization stats must be finite")
        if np.any(std <= 0.0):
            raise ValueError("std entries must be positive (floored upstream)")

    def apply(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        if features.shape[-1] != self.mean.size:
            raise ValueError(
                f"feature dimension {features.shape[-1]} does not match "
                f"stats dimension {self.mean.size}"
            )
        return (features - self.mean) / self.std


@dataclass(frozen=True)
class UnitSeries:
    """One unit's run-to-failure history. The time index ``t`` holds whole
    numbers, strictly increasing; rul never increases and ends nonnegative."""

    unit_id: str
    time: np.ndarray
    features: np.ndarray
    rul: np.ndarray

    def __post_init__(self):
        if not isinstance(self.unit_id, str) or not _ID_PATTERN.fullmatch(self.unit_id):
            raise DataFormatError(
                f"unit_id must match {_ID_PATTERN.pattern!r}, got {self.unit_id!r}", 0, 0
            )
        time = np.asarray(self.time, dtype=np.float64)
        features = np.asarray(self.features, dtype=np.float64)
        rul = np.asarray(self.rul, dtype=np.float64)
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "rul", rul)

        def refuse(rule: str, row: Optional[int] = None, column: Optional[int] = None):
            raise DataFormatError(f"{rule} (unit {self.unit_id})", row, column)

        if time.ndim != 1 or rul.ndim != 1 or features.ndim != 2:
            refuse("time/rul must be 1-D, features 2-D")
        n = time.size
        if features.shape[0] != n or rul.size != n:
            refuse("time, features, rul lengths disagree")
        if n < 2:
            refuse(f"needs at least 2 rows, got {n}", 0)
        for name, arr, col0 in (("time", time, 1), ("features", features, 2), ("rul", rul, -1)):
            finite = np.isfinite(arr)
            if not finite.all():
                row, col = np.argwhere(~finite.reshape(n, -1))[0]
                refuse(f"non-finite value in {name}", int(row), col0 + int(col))
        whole = time == np.floor(time)
        if not whole.all():
            row = int(np.argmin(whole))
            refuse(f"time {float(time[row])!r} at row {row} is not a whole number", row, 1)
        if np.any(np.diff(time) <= 0.0):
            row = int(np.argmax(np.diff(time) <= 0.0)) + 1
            refuse(f"time not increasing at row {row}", row)
        if np.any(np.diff(rul) > 0.0):
            row = int(np.argmax(np.diff(rul) > 0.0)) + 1
            refuse(f"rul increases at row {row}", row)
        if rul[-1] < 0.0:
            refuse(f"final rul is negative ({rul[-1]})", n - 1, -1)

    @property
    def num_rows(self) -> int:
        return self.time.size

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class FleetDataset:
    """A fleet of units with a shared feature layout; the features are raw."""

    units: tuple

    def __post_init__(self):
        units = tuple(self.units)
        object.__setattr__(self, "units", units)
        if not units:
            raise DataFormatError("a fleet needs at least one unit")
        ids = [u.unit_id for u in units]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise DataFormatError(f"duplicate unit ids: {', '.join(dup)}")
        dims = {u.feature_dim for u in units}
        if len(dims) > 1:
            raise DataFormatError(
                f"inconsistent feature dimension across units: {sorted(dims)}"
            )

    @property
    def feature_dim(self) -> int:
        return self.units[0].feature_dim

    @property
    def unit_ids(self) -> list[str]:
        return [u.unit_id for u in self.units]

    @property
    def num_rows(self) -> int:
        return sum(u.num_rows for u in self.units)

    def unit(self, unit_id: str) -> UnitSeries:
        for u in self.units:
            if u.unit_id == unit_id:
                return u
        raise KeyError(f"no unit {unit_id!r} in fleet (have {self.unit_ids})")


def unit_list(ids, name: str, fleet: Optional[FleetDataset] = None) -> tuple:
    """``ids`` as a tuple, when it is a list or tuple of str that names at
    least one unit, each once, and (given ``fleet``) only units of that
    fleet; otherwise a ValueError whose message starts with ``name``, the
    flag, field or argument that gave the list."""
    if not isinstance(ids, (list, tuple)) or not all(isinstance(i, str) for i in ids):
        raise ValueError(f"{name} must be a list of unit ids, got {ids!r}")
    if not ids:
        raise ValueError(f"{name} must name at least one unit, got {ids!r}")
    repeats = [i for i, count in Counter(ids).items() if count > 1]
    if repeats:
        raise ValueError(f"{name} names {', '.join(repeats)} more than once")
    if fleet is not None:
        known = set(fleet.unit_ids)
        missing = [i for i in ids if i not in known]
        if missing:
            raise ValueError(f"{name} names units not in the fleet: {', '.join(missing)}")
    return tuple(ids)


def disjoint_units(train, test, train_name: str, test_name: str):
    """Refuse unit lists ``train`` and ``test`` that share a unit, naming both."""
    test = set(test)
    shared = [i for i in train if i in test]
    if shared:
        raise ValueError(f"{train_name} and {test_name} both name {', '.join(shared)}")


@dataclass(frozen=True)
class SplitSpec:
    """Unit-wise train/test split; validation is a temporal tail of each
    training unit, never a random row subset (random rows leak trajectory
    shape between train and validation). Each side is a :func:`unit_list`,
    and no unit is on both sides."""

    train_ids: tuple
    test_ids: tuple
    val_fraction: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "train_ids", unit_list(self.train_ids, "train_ids"))
        object.__setattr__(self, "test_ids", unit_list(self.test_ids, "test_ids"))
        disjoint_units(self.train_ids, self.test_ids, "train_ids", "test_ids")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in [0, 1), got {self.val_fraction}")

    def check_against(self, data: FleetDataset):
        """Refuse a split that names a unit ``data`` lacks, by side."""
        for side in ("train_ids", "test_ids"):
            unit_list(getattr(self, side), side, data)


# -- ingestion -------------------------------------------------------------------


def _parse_cell(text: str, path: Path, lineno: int, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DataFormatError(
            f"{path.name} line {lineno}: cannot parse column {column!r} "
            f"from {text!r}"
        ) from None


def _load_unit_file(path: Path, expect_header: Optional[list]):
    """The unit a csv table holds and its header cells; a header other than
    ``expect_header`` (when given) is refused. Each refusal names the file,
    and the line and column it found at fault where there is one."""
    try:
        content = path.read_text()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path.name}: not a UTF-8 text file: {exc}") from None
    lines = [(no, ln) for no, ln in enumerate(content.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise DataFormatError(f"{path.name}: empty file")
    header_line, text = lines[0]
    header = [c.strip() for c in text.split(",")]
    if len(header) < 4 or header[0] != "unit_id" or header[1] != "t" or header[-1] != "rul":
        raise DataFormatError(
            f"{path.name} line {header_line}: header must be unit_id,t,<features...>,rul, "
            f"got {','.join(header)!r}"
        )
    if expect_header is not None and header != expect_header:
        raise DataFormatError(
            f"{path.name} line {header_line}: header ({len(header) - 3} features) does not "
            f"match the fleet's first file ({len(expect_header) - 3} features)"
        )
    unit_id = None
    time, rows, rul = [], [], []
    for lineno, line in lines[1:]:
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(header):
            raise DataFormatError(
                f"{path.name} line {lineno}: expected {len(header)} columns, "
                f"got {len(cells)}"
            )
        if unit_id is None:
            unit_id = cells[0]
        elif cells[0] != unit_id:
            raise DataFormatError(
                f"{path.name} line {lineno}: unit_id changes from "
                f"{unit_id!r} to {cells[0]!r} within one file"
            )
        time.append(_parse_cell(cells[1], path, lineno, "t"))
        rows.append(
            [_parse_cell(c, path, lineno, name) for name, c in zip(header[2:-1], cells[2:-1])]
        )
        rul.append(_parse_cell(cells[-1], path, lineno, "rul"))
    if unit_id is None:
        raise DataFormatError(f"{path.name}: no data rows")
    try:
        unit = UnitSeries(unit_id, np.asarray(time), np.asarray(rows), np.asarray(rul))
    except DataFormatError as exc:
        where = path.name if exc.row is None else f"{path.name} line {lines[1 + exc.row][0]}"
        cell = "" if exc.column is None else f", column {header[exc.column]!r}"
        raise DataFormatError(f"{where}{cell}: {exc}") from None
    return unit, header


def load_fleet(path) -> FleetDataset:
    """Load a directory of per-unit csv tables; see the module docstring."""
    root = Path(path)
    if not root.is_dir():
        raise DataFormatError(f"{root} is not a directory")
    files = sorted(root.glob("*.csv"))
    if not files:
        raise DataFormatError(f"no *.csv unit files under {root}")
    first, header = _load_unit_file(files[0], None)
    units = [first] + [_load_unit_file(f, header)[0] for f in files[1:]]
    owner = {}
    for f, u in zip(files, units):
        if owner.setdefault(u.unit_id, f) != f:
            raise DataFormatError(f"{owner[u.unit_id].name} and {f.name} hold the same unit "
                                  f"id {u.unit_id!r}")
    return FleetDataset(tuple(units))


def save_fleet(data: FleetDataset, path):
    """Write one ``<unit_id>.csv`` per unit; floats keep full precision."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    names = [f"f_{j + 1}" for j in range(data.feature_dim)]
    header = ",".join(["unit_id", "t"] + names + ["rul"])
    for u in data.units:
        lines = [header]
        for t, x, r in zip(u.time, u.features, u.rul):
            cells = [u.unit_id, repr(float(t))]
            cells += [repr(float(v)) for v in x]
            cells.append(repr(float(r)))
            lines.append(",".join(cells))
        (root / f"{u.unit_id}.csv").write_text("\n".join(lines) + "\n")


# -- normalization ----------------------------------------------------------------


def normalize(data: FleetDataset, stats_from: Sequence[str]) -> NormalizationStats:
    """The z-scoring statistics of the ``stats_from`` units' features: their
    pooled mean and std, floored at ``STD_FLOOR``. ``stats.apply`` maps any
    rows, training or held out, with them; targets stay in natural units."""
    ids = unit_list(stats_from, "stats_from", data)
    pooled = np.concatenate([data.unit(i).features for i in ids], axis=0)
    return NormalizationStats(pooled.mean(axis=0), np.maximum(pooled.std(axis=0), STD_FLOOR))


def stack_rows(data: FleetDataset, unit_ids: Optional[Sequence[str]] = None):
    """Flatten units to row arrays: (X, y, unit_id per row, t per row), of
    every unit, or of the :func:`unit_list` ``unit_ids`` in its order."""
    units = data.units if unit_ids is None else [
        data.unit(i) for i in unit_list(unit_ids, "unit_ids", data)]
    return stack_slices([(u, slice(None)) for u in units])


def stack_slices(parts: Sequence[tuple]):
    """Flatten a row slice of each unit, given as (unit, slice) pairs, to row
    arrays in order: (X, y, unit_id per row, t per row)."""
    X = np.concatenate([u.features[s] for u, s in parts], axis=0)
    y = np.concatenate([u.rul[s] for u, s in parts])
    uid = np.concatenate([np.repeat(u.unit_id, u.rul[s].size) for u, s in parts])
    t = np.concatenate([u.time[s] for u, s in parts])
    return X, y, uid, t


# -- synthetic degradation fleet ---------------------------------------------------


@dataclass(frozen=True)
class _ResponseMap:
    """Smooth random feature maps, one coefficient set per failure mode."""

    lin: np.ndarray    # (2, m_r)
    quad: np.ndarray   # (2, m_r)
    amp: np.ndarray    # (2, m_r)
    freq: np.ndarray   # (2, m_r)
    phase: np.ndarray  # (2, m_r)
    cond: np.ndarray   # (2, m_r, NUM_CONDITIONS)

    def eval(self, mode: int, h: np.ndarray, c: np.ndarray) -> np.ndarray:
        hcol = h[:, None]
        out = self.lin[mode] * hcol + self.quad[mode] * hcol**2
        out = out + self.amp[mode] * np.sin(np.pi * self.freq[mode] * hcol + self.phase[mode])
        return out + c @ self.cond[mode].T


def _draw_response_map(rng: RngStream, num_response: int) -> _ResponseMap:
    shape = (2, num_response)
    return _ResponseMap(
        lin=rng.normal(shape),
        quad=0.5 * rng.normal(shape),
        amp=0.3 * rng.normal(shape),
        freq=rng.uniform(0.5, 2.5, shape),
        phase=rng.uniform(0.0, 2.0 * np.pi, shape),
        cond=0.4 * rng.normal(shape + (NUM_CONDITIONS,)),
    )


def _simulate_health(rng: RngStream, drift: float, noise: float, max_steps: int):
    """Random walk with drift from h=1 down to the failure threshold h<=0.

    Returns the recorded (pre-failure) health values h_0..h_{T-1}, all > 0;
    the unit fails right after its last recorded step.
    """
    h = [1.0]
    steps = noise * drift * rng.normal(max_steps)
    for t in range(max_steps):
        nxt = h[-1] - drift + steps[t]
        if nxt <= 0.0 or t == max_steps - 1:
            break
        h.append(nxt)
    return np.asarray(h)


def _synth_unit(
    unit_id: str,
    rng: RngStream,
    response: _ResponseMap,
    steps: int,
    noise: float,
    mode_mix: float,
    regime_center: np.ndarray,
    drift_spread: float,
) -> UnitSeries:
    mode = int(rng.bernoulli(mode_mix, ())) if mode_mix > 0.0 else 0
    for attempt in range(100):
        walk = rng.derive(attempt)
        drift = (1.0 + drift_spread * float(walk.uniform(-1.0, 1.0))) / steps
        h = _simulate_health(walk, drift, noise, max_steps=6 * steps)
        if h.size >= 2:
            break
    else:
        raise ValueError(f"unit {unit_id}: could not draw a lifetime of >= 2 steps")
    n = h.size
    cond = regime_center + 0.25 * walk.normal((n, NUM_CONDITIONS))
    resp = response.eval(mode, h, cond)
    if noise > 0.0:
        resp = resp + noise * walk.normal(resp.shape)
    features = np.concatenate([cond, resp], axis=1)
    rul = np.arange(n - 1, -1, -1, dtype=np.float64)
    return UnitSeries(unit_id, np.arange(n, dtype=np.float64), features, rul)


def synth_fleet(
    units: int,
    steps: int,
    noise: float = 0.05,
    mode_mix: float = 0.5,
    seed: int = 0,
    *,
    feature_dim: int = 8,
    shifted_units: int = 0,
    shift: float = 3.0,
    drift_spread: float = 0.25,
    regime_spread: float = 0.5,
) -> FleetDataset:
    """Generate a run-to-failure fleet with a latent health state.

    Each unit's health decays from 1 by a random walk with drift; the unit
    fails when health crosses 0, and rul counts the steps remaining until
    that crossing, so it is exactly linear per unit. The first
    ``NUM_CONDITIONS`` feature columns are observable operating-condition
    settings (per-unit regime center plus per-step variation); the rest
    respond smoothly to (health, conditions) through one of two random
    mode-specific maps. ``shifted_units`` extra units (ids ``s001``...)
    operate at condition regimes displaced by ``shift``, far from the rest
    of the fleet.

    ``noise`` scales both the health-walk roughness and the sensor noise on
    the response columns; at ``noise=0`` the features are an exact function
    of (health, conditions) and every lifetime equals
    ``steps / (1 + drift_spread * u)`` for a per-unit u ~ U(-1, 1).
    """
    if units < 2:
        raise ValueError(f"need at least 2 units, got {units}")
    if steps < 2:
        raise ValueError(f"steps per unit must be >= 2, got {steps}")
    if noise < 0.0:
        raise ValueError(f"noise must be >= 0, got {noise}")
    if not 0.0 <= mode_mix <= 1.0:
        raise ValueError(f"mode_mix must be in [0, 1], got {mode_mix}")
    if feature_dim < NUM_CONDITIONS + 1:
        raise ValueError(
            f"feature_dim must be > {NUM_CONDITIONS} (condition columns), "
            f"got {feature_dim}"
        )
    if shifted_units < 0:
        raise ValueError("shifted_units must be >= 0")
    if not 0.0 <= drift_spread < 1.0:
        raise ValueError(f"drift_spread must be in [0, 1), got {drift_spread}")
    if regime_spread < 0.0:
        raise ValueError(f"regime_spread must be >= 0, got {regime_spread}")

    rng = RngStream(seed)
    response = _draw_response_map(rng.derive(0), feature_dim - NUM_CONDITIONS)
    out = []
    for i in range(units + shifted_units):
        shifted = i >= units
        unit_rng = rng.derive(1, i)
        center = regime_spread * unit_rng.normal(NUM_CONDITIONS)
        if shifted:
            center = center + shift
        name = f"s{i - units + 1:03d}" if shifted else f"u{i + 1:03d}"
        out.append(
            _synth_unit(
                name, unit_rng.derive(0), response, steps, noise, mode_mix,
                center, drift_spread,
            )
        )
    return FleetDataset(tuple(out))
