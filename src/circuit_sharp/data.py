"""Dataset ingestion: the 20 binary density-estimation benchmarks, fraction
subsampling, and synthetic 2D/3D manifold generators.

Benchmark files are user-supplied; the registry ships the expected shapes
only.  Subsampling takes a prefix of one seeded permutation, so smaller
fractions are nested inside larger ones at the same seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .domains import check
from .errors import MissingFile, ParseError, ShapeMismatch, UnknownManifold

# name -> (num_vars, train rows, valid rows, test rows)
DEBD_REGISTRY: dict[str, tuple[int, int, int, int]] = {
    "nltcs": (16, 16181, 2157, 3236),
    "msnbc": (17, 291326, 38843, 58265),
    "kdd": (65, 180092, 19907, 34955),
    "plants": (69, 17412, 2321, 3482),
    "baudio": (100, 15000, 2000, 3000),
    "jester": (100, 9000, 1000, 4116),
    "bnetflix": (100, 15000, 2000, 3000),
    "accidents": (111, 12758, 1700, 2551),
    "tretail": (135, 22041, 2938, 4408),
    "pumsb_star": (163, 12262, 1635, 2452),
    "dna": (180, 1600, 400, 1186),
    "kosarek": (190, 33375, 4450, 6675),
    "msweb": (294, 29441, 3270, 5000),
    "tmovie": (500, 4524, 1002, 591),
    "book": (500, 8700, 1159, 1739),
    "cwebkb": (839, 2803, 558, 838),
    "cr52": (889, 6532, 1028, 1540),
    "c20ng": (910, 11293, 3764, 3764),
    "bbc": (1058, 1670, 225, 330),
    "ad": (1556, 2461, 327, 491),
}

MANIFOLDS_2D = ("spiral", "pinwheel", "two_moons")
MANIFOLDS_3D = ("helix", "interlocked_circles", "bent_lissajous", "twisted_eight", "knotted")
MANIFOLDS = MANIFOLDS_2D + MANIFOLDS_3D

FRACTIONS = (0.01, 0.05, 0.10, 0.50, 1.00)

DATA_ROOT_ENV = "CIRCUIT_SHARP_DATA"


@dataclass
class Dataset:
    name: str
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray

    @property
    def num_vars(self) -> int:
        return self.train.shape[1]


@dataclass(frozen=True)
class FractionSpec:
    fraction: float
    seed: int  # trial number by convention

    def __post_init__(self):
        check(fraction=self.fraction)


def _parse_binary_file(path: str) -> np.ndarray:
    rows = []
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            toks = line.split(",")
            try:
                vals = [int(t) for t in toks]
            except ValueError:
                raise ParseError(f"non-integer token in {os.path.basename(path)}", lineno) from None
            if any(v not in (0, 1) for v in vals):
                raise ParseError(f"non-binary value in {os.path.basename(path)}", lineno)
            if width is None:
                width = len(vals)
            elif len(vals) != width:
                raise ParseError(f"row width {len(vals)} != {width}", lineno)
            rows.append(vals)
    return np.asarray(rows, dtype=float)


def load_debd(name: str, root_dir: str | None = None) -> Dataset:
    """Load `<name>.{train,valid,test}.data` (comma-separated 0/1 rows).

    Files are searched in root_dir and root_dir/<name>/; shapes are verified
    against the registry for known names.
    """
    root = root_dir or os.environ.get(DATA_ROOT_ENV, ".")
    splits = {}
    for split in ("train", "valid", "test"):
        fname = f"{name}.{split}.data"
        for candidate in (os.path.join(root, fname), os.path.join(root, name, fname)):
            if os.path.exists(candidate):
                splits[split] = _parse_binary_file(candidate)
                break
        else:
            raise MissingFile(f"{fname} not found under {root}")
    ds = Dataset(name, splits["train"], splits["valid"], splits["test"])
    if name in DEBD_REGISTRY:
        v, ntr, nva, nte = DEBD_REGISTRY[name]
        found = (ds.num_vars, len(ds.train), len(ds.valid), len(ds.test))
        if found != (v, ntr, nva, nte):
            raise ShapeMismatch((v, ntr, nva, nte), found)
    return ds


def subsample(dataset: Dataset, spec: FractionSpec) -> Dataset:
    """Keep a seeded permutation prefix of the training rows; validation and
    test splits are untouched.  Prefixes nest across fractions at equal seed."""
    n = len(dataset.train)
    count = max(1, round(spec.fraction * n))
    perm = np.random.default_rng(spec.seed).permutation(n)
    return replace(dataset, train=dataset.train[perm[:count]])


# -- synthetic manifolds ---------------------------------------------------------


def _spiral(t, rng):
    r = 0.3 + 2.0 * t
    ang = 3.0 * np.pi * t
    return np.column_stack([r * np.cos(ang), r * np.sin(ang)])


def _pinwheel(t, rng):
    arms = 5
    arm = rng.integers(0, arms, size=t.shape)
    radius = 0.3 + 1.7 * t
    ang = arm * (2 * np.pi / arms) + 0.9 * radius
    return np.column_stack([radius * np.cos(ang), radius * np.sin(ang)])


def _two_moons(t, rng):
    upper = rng.random(t.shape) < 0.5
    ang = np.pi * t
    x = np.where(upper, np.cos(ang), 1.0 - np.cos(ang))
    y = np.where(upper, np.sin(ang), 0.5 - np.sin(ang))
    return np.column_stack([x, y])


def _helix(t, rng):
    ang = 4.0 * np.pi * t
    return np.column_stack([np.cos(ang), np.sin(ang), 0.15 * ang])


def _interlocked_circles(t, rng):
    second = rng.random(t.shape) < 0.5
    ang = 2.0 * np.pi * t
    x = np.where(second, 1.0 + np.cos(ang), np.cos(ang))
    y = np.where(second, np.zeros_like(ang), np.sin(ang))
    z = np.where(second, np.sin(ang), np.zeros_like(ang))
    return np.column_stack([x, y, z])


def _bent_lissajous(t, rng):
    ang = 2.0 * np.pi * t
    x = np.sin(3.0 * ang + np.pi / 2)
    y = np.sin(2.0 * ang)
    return np.column_stack([x, y, 0.5 * x * x])


def _twisted_eight(t, rng):
    ang = 2.0 * np.pi * t
    return np.column_stack([np.sin(ang), np.sin(ang) * np.cos(ang), 0.5 * np.sin(2.0 * ang)])


def _knotted(t, rng):
    ang = 2.0 * np.pi * t  # trefoil knot
    x = np.sin(ang) + 2.0 * np.sin(2.0 * ang)
    y = np.cos(ang) - 2.0 * np.cos(2.0 * ang)
    z = -np.sin(3.0 * ang)
    return np.column_stack([x, y, z]) / 3.0


_GENERATORS = {
    "spiral": _spiral,
    "pinwheel": _pinwheel,
    "two_moons": _two_moons,
    "helix": _helix,
    "interlocked_circles": _interlocked_circles,
    "bent_lissajous": _bent_lissajous,
    "twisted_eight": _twisted_eight,
    "knotted": _knotted,
}


def gen_manifold(
    name: str,
    n_per_split: int = 1000,
    noise: float = 0.05,
    seed: int = 0,
) -> Dataset:
    """Sample train/valid/test splits from a parametric manifold plus
    isotropic Gaussian noise.  Pure function of (name, n, noise, seed)."""
    check(noise=noise)
    if name not in _GENERATORS:
        raise UnknownManifold(f"{name!r}; known: {', '.join(MANIFOLDS)}")
    rng = np.random.default_rng(seed)
    gen = _GENERATORS[name]
    splits = []
    for _ in range(3):
        t = rng.random(n_per_split)
        pts = gen(t, rng)
        pts = pts + noise * rng.standard_normal(pts.shape)
        splits.append(pts)
    return Dataset(name, *splits)


def minmax_scale(dataset: Dataset) -> tuple[Dataset, np.ndarray, np.ndarray]:
    """Map each dimension to [-1, 1] using the training split's extent."""
    lo = dataset.train.min(axis=0)
    hi = dataset.train.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)

    def scale(x):
        return 2.0 * (x - lo) / span - 1.0

    return (
        replace(dataset, train=scale(dataset.train), valid=scale(dataset.valid), test=scale(dataset.test)),
        lo,
        hi,
    )


def export_manifold_csv(dataset: Dataset, path: str) -> None:
    header = ",".join(f"x{i}" for i in range(dataset.num_vars))
    np.savetxt(path, dataset.train, delimiter=",", header=header, comments="")
