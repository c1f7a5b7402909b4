"""Seeded generator of SCVIC-APT-2021-shaped flow CSVs.

The file has the 84 CICFlowMeter columns in SCVIC order: six identifier
columns, 77 flow features and the ``Stage`` label. Class counts follow the
published SCVIC-APT-2021 proportions, with a floor on each minority class so
that the 80/20 split and the 25% validation carve keep every class. The
feature columns mix the kinds real flow exports hold: heavy-tailed
continuous measurements, small-integer counts, binary flags and columns that
are always zero. Only a handful of columns carry the class signal, so forward
selection keeps a few. About 1% of extra rows hold an ``Infinity``, ``NaN``
or empty cell, which ``preprocess`` must drop.

The output depends only on (GENERATOR_VERSION, seed, part, rows): ``part``
numbers the independent inputs that one benchmark seed stands for. Bump the
version whenever the bytes for a given seed, part and size would change.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

GENERATOR_VERSION = 2

ID_COLUMNS = ("Flow ID", "Src IP", "Src Port", "Dst IP", "Dst Port")
LABEL_COLUMN = "Stage"

# SCVIC-APT-2021 per-class sample counts (train + test).
SCVIC_COUNTS = {
    "Normal Traffic": 307817,
    "Reconnaissance": 1084,
    "Initial Compromise": 150,
    "Lateral Movement": 869,
    "Pivoting": 2482,
    "Data Exfiltration": 601,
}
MINORITY_FLOOR = 40
DIRTY_FRACTION = 0.01

# Feature columns in SCVIC order, with their kind. Protocol sits between the
# destination port and the timestamp, as in the CICFlowMeter export.
CONTINUOUS, COUNT, FLAG, ZERO = "continuous", "count", "flag", "zero"
FEATURES = (
    ("Protocol", COUNT),
    ("Flow Duration", CONTINUOUS),
    ("Total Fwd Packet", COUNT),
    ("Total Bwd packets", COUNT),
    ("Total Length of Fwd Packet", CONTINUOUS),
    ("Total Length of Bwd Packet", CONTINUOUS),
    ("Fwd Packet Length Max", CONTINUOUS),
    ("Fwd Packet Length Min", COUNT),
    ("Fwd Packet Length Mean", CONTINUOUS),
    ("Fwd Packet Length Std", CONTINUOUS),
    ("Bwd Packet Length Max", CONTINUOUS),
    ("Bwd Packet Length Min", COUNT),
    ("Bwd Packet Length Mean", CONTINUOUS),
    ("Bwd Packet Length Std", CONTINUOUS),
    ("Flow Bytes/s", CONTINUOUS),
    ("Flow Packets/s", CONTINUOUS),
    ("Flow IAT Mean", CONTINUOUS),
    ("Flow IAT Std", CONTINUOUS),
    ("Flow IAT Max", CONTINUOUS),
    ("Flow IAT Min", CONTINUOUS),
    ("Fwd IAT Total", CONTINUOUS),
    ("Fwd IAT Mean", CONTINUOUS),
    ("Fwd IAT Std", CONTINUOUS),
    ("Fwd IAT Max", CONTINUOUS),
    ("Fwd IAT Min", CONTINUOUS),
    ("Bwd IAT Total", CONTINUOUS),
    ("Bwd IAT Mean", CONTINUOUS),
    ("Bwd IAT Std", CONTINUOUS),
    ("Bwd IAT Max", CONTINUOUS),
    ("Bwd IAT Min", CONTINUOUS),
    ("Fwd PSH Flags", FLAG),
    ("Bwd PSH Flags", ZERO),
    ("Fwd URG Flags", ZERO),
    ("Bwd URG Flags", ZERO),
    ("Fwd Header Length", COUNT),
    ("Bwd Header Length", COUNT),
    ("Fwd Packets/s", CONTINUOUS),
    ("Bwd Packets/s", CONTINUOUS),
    ("Packet Length Min", COUNT),
    ("Packet Length Max", CONTINUOUS),
    ("Packet Length Mean", CONTINUOUS),
    ("Packet Length Std", CONTINUOUS),
    ("Packet Length Variance", CONTINUOUS),
    ("FIN Flag Count", FLAG),
    ("SYN Flag Count", FLAG),
    ("RST Flag Count", FLAG),
    ("PSH Flag Count", FLAG),
    ("ACK Flag Count", FLAG),
    ("URG Flag Count", FLAG),
    ("CWR Flag Count", ZERO),
    ("ECE Flag Count", ZERO),
    ("Down/Up Ratio", COUNT),
    ("Average Packet Size", CONTINUOUS),
    ("Fwd Segment Size Avg", CONTINUOUS),
    ("Bwd Segment Size Avg", CONTINUOUS),
    ("Fwd Bytes/Bulk Avg", ZERO),
    ("Fwd Packet/Bulk Avg", ZERO),
    ("Fwd Bulk Rate Avg", ZERO),
    ("Bwd Bytes/Bulk Avg", ZERO),
    ("Bwd Packet/Bulk Avg", ZERO),
    ("Bwd Bulk Rate Avg", ZERO),
    ("Subflow Fwd Packets", COUNT),
    ("Subflow Fwd Bytes", CONTINUOUS),
    ("Subflow Bwd Packets", COUNT),
    ("Subflow Bwd Bytes", CONTINUOUS),
    ("FWD Init Win Bytes", COUNT),
    ("Bwd Init Win Bytes", COUNT),
    ("Fwd Act Data Pkts", COUNT),
    ("Fwd Seg Size Min", COUNT),
    ("Active Mean", CONTINUOUS),
    ("Active Std", CONTINUOUS),
    ("Active Max", CONTINUOUS),
    ("Active Min", CONTINUOUS),
    ("Idle Mean", CONTINUOUS),
    ("Idle Std", CONTINUOUS),
    ("Idle Max", CONTINUOUS),
    ("Idle Min", CONTINUOUS),
)
FEATURE_NAMES = tuple(name for name, _ in FEATURES)
HEADER = ID_COLUMNS + FEATURE_NAMES[:1] + ("Timestamp",) + FEATURE_NAMES[1:] + (LABEL_COLUMN,)
assert len(FEATURE_NAMES) == 77 and len(HEADER) == 84

# Columns that carry the class signal: per attack class, a shift of the
# log-scale location in units of the column's scale. The classes overlap on
# purpose, so macro F1 stays below 1 and the trees grow past a few leaves.
SIGNAL = {
    "Flow Duration": {"Reconnaissance": -6.0, "Lateral Movement": 5.5, "Data Exfiltration": 5.5},
    "Fwd Packet Length Max": {"Initial Compromise": 6.0, "Pivoting": 4.5, "Data Exfiltration": 6.0},
    "Flow IAT Mean": {"Reconnaissance": -4.5, "Pivoting": 5.5},
    "Bwd Packets/s": {"Lateral Movement": -6.0, "Initial Compromise": -4.5},
    "Total Fwd Packet": {"Data Exfiltration": 3.5, "Pivoting": 2.5},
    "Idle Max": {"Lateral Movement": 3.5, "Reconnaissance": 2.5},
}
# Columns copied from another column, as CICFlowMeter repeats some counts.
COPIES = {"Subflow Fwd Packets": "Total Fwd Packet", "Subflow Bwd Packets": "Total Bwd packets"}


def class_counts(rows: int) -> dict:
    """Clean rows per class: SCVIC proportions with a floor on each minority class."""
    total = sum(SCVIC_COUNTS.values())
    counts = {}
    for name, count in SCVIC_COUNTS.items():
        if name != "Normal Traffic":
            counts[name] = max(MINORITY_FLOOR, round(rows * count / total))
    counts["Normal Traffic"] = rows - sum(counts.values())
    if counts["Normal Traffic"] < MINORITY_FLOOR:
        raise ValueError(f"{rows} rows is too few for the minority floors")
    return counts


def dirty_row_count(rows: int) -> int:
    return max(1, round(rows * DIRTY_FRACTION))


def _column_params(name: str) -> tuple:
    """Fixed per-column shape, so every seed draws from the same distribution."""
    rng = np.random.default_rng([GENERATOR_VERSION, FEATURE_NAMES.index(name)])
    return (rng.uniform(0.05, 0.6), rng.uniform(2.0, 40.0), rng.uniform(2.0, 12.0),
            rng.uniform(0.6, 1.5), bool(rng.random() < 0.5))


def _stratified_uniforms(rng, groups: np.ndarray) -> np.ndarray:
    """One uniform per row: the midpoints of n equal bins within each group, shuffled.

    Every seed then gives each class exactly the same marginal distribution in
    every column; only which row gets which value changes. This keeps the
    work a seed causes (tree sizes, selection outcome) close to that of any
    other seed.
    """
    u = np.empty(groups.size)
    for g in np.unique(groups):
        rows = np.nonzero(groups == g)[0]
        u[rows] = rng.permutation((np.arange(rows.size) + 0.5) / rows.size)
    return u


def _column(u, name, kind, labels, class_names):
    flag_rate, count_scale, loc, spread, whole = _column_params(name)
    shift = np.zeros(labels.size)
    for cls, delta in SIGNAL.get(name, {}).items():
        shift[labels == class_names.index(cls)] = delta
    if kind == ZERO:
        return np.zeros(labels.size, dtype=np.int64)
    if kind == FLAG:
        return (u < flag_rate).astype(np.int64)
    if kind == COUNT:
        if name == "Protocol":
            return np.array([6, 17, 0])[np.searchsorted([0.8, 0.99], u)]
        if name.endswith("Init Win Bytes"):
            return np.array([-1, 0, 243, 8192, 29200, 64240, 65535])[(u * 7).astype(np.int64)]
        geometric = np.floor(np.log1p(-u) / np.log1p(-1.0 / count_scale)) + 1.0
        return np.floor(geometric * np.exp(0.5 * shift)).astype(np.int64)
    # Log-logistic: heavy-tailed, with a closed-form quantile function.
    values = np.exp(loc + spread * (shift + np.log(u / (1.0 - u))))
    # Some measurements are whole microseconds or bytes, some are rates.
    return np.round(values).astype(np.int64) if whole else np.round(values, 4)


def _format(col: np.ndarray) -> list:
    if col.dtype.kind == "i":
        return [str(v) for v in col.tolist()]
    return [repr(v) for v in col.tolist()]


def generate(rows: int, seed: int, part: int) -> str:
    """CSV text with ``rows`` clean rows plus about 1% dirty rows."""
    rng = np.random.default_rng([GENERATOR_VERSION, seed, part])
    counts = class_counts(rows)
    class_names = sorted(counts)
    labels = rng.permutation(
        np.concatenate([np.full(counts[c], k) for k, c in enumerate(class_names)])
    )
    n_dirty = dirty_row_count(rows)
    # Dirty rows are extra Normal Traffic rows, so the class floors hold after cleaning.
    labels = np.concatenate([labels, np.full(n_dirty, class_names.index("Normal Traffic"))])
    n = labels.size

    groups = labels.copy()
    groups[rows:] = len(class_names)  # dirty rows are a group of their own
    features = {}
    for name, kind in FEATURES:
        u = _stratified_uniforms(rng, groups)
        features[name] = _column(u, name, kind, labels, class_names)
    for name, source in COPIES.items():
        features[name] = features[source]
    cells = {name: _format(col) for name, col in features.items()}

    bad = ("Infinity", "NaN", "", "-Infinity")
    dirty_cols = rng.integers(0, len(FEATURE_NAMES), size=n_dirty)
    for d, j in enumerate(dirty_cols.tolist()):
        cells[FEATURE_NAMES[j]][rows + d] = bad[d % len(bad)]

    src = rng.integers(2, 255, size=n)
    dst = rng.integers(2, 255, size=n)
    sport = rng.integers(1024, 65535, size=n)
    dport = rng.choice(np.array([22, 53, 80, 443, 445, 3389, 8080]), size=n)
    minute = np.sort(rng.integers(0, 7 * 24 * 60, size=n))
    proto = features["Protocol"]
    cells["Src IP"] = [f"192.168.1.{v}" for v in src.tolist()]
    cells["Dst IP"] = [f"10.0.0.{v}" for v in dst.tolist()]
    cells["Src Port"] = [str(v) for v in sport.tolist()]
    cells["Dst Port"] = [str(v) for v in dport.tolist()]
    cells["Flow ID"] = [
        f"192.168.1.{a}-10.0.0.{b}-{p}-{q}-{r}"
        for a, b, p, q, r in zip(src.tolist(), dst.tolist(), sport.tolist(),
                                 dport.tolist(), proto.tolist())
    ]
    cells["Timestamp"] = [
        f"2021-12-{1 + m // 1440:02d} {m // 60 % 24:02d}:{m % 60:02d}:00" for m in minute.tolist()
    ]
    cells[LABEL_COLUMN] = [class_names[k] for k in labels.tolist()]

    columns = [cells[name] for name in HEADER]
    lines = [",".join(HEADER)]
    lines.extend(",".join(row) for row in zip(*columns))
    return "\n".join(lines) + "\n"


def cached_csv(cache_dir: Path, rows: int, seed: int, part: int) -> tuple:
    """Path and SHA-256 of the CSV for (version, seed, part, rows), generating it once."""
    path = Path(cache_dir) / f"flows-v{GENERATOR_VERSION}-s{seed}-p{part}-n{rows}.csv"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(generate(rows, seed, part), encoding="utf-8")
        tmp.replace(path)
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return path, digest.hexdigest()


if __name__ == "__main__":
    cache_dir, rows, seed, part = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
    path, sha256 = cached_csv(Path(cache_dir), rows, seed, part)
    print(json.dumps({"path": str(path), "sha256": sha256, "dirty_rows": dirty_row_count(rows),
                      "generator_version": GENERATOR_VERSION}))
