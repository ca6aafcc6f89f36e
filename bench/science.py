"""Science check: a run's campaign rows against committed reference rows.

Rows are compared field by field, not byte by byte: iteration means, SER,
trial and failure counts must match exactly, while NMSE may move by
floating-point roundoff (at most ``NMSE_TOL_DB``), since its last digits
depend on the BLAS build and thread count.  A NaN (pilot-aided SER) is
stored as ``None`` so that rows stay strict JSON and compare equal.
"""

import json
import math
import os

NMSE_TOL_DB = 1e-9
EXACT_FIELDS = ("snr_db", "ser", "mean_iters", "trials", "failed")
NMSE_FIELDS = ("nmse_h_db", "nmse_m_db")
ROW_FIELDS = ("snr_db", "nmse_h_db", "nmse_m_db", "ser", "mean_iters", "trials", "failed")

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references")


def reference_key(seed: int, trials: int) -> str:
    return f"seed={seed},trials={trials}"


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_references(workload: str) -> dict:
    """Reference rows of one workload, keyed by ``reference_key``; each value
    holds one list of rows per campaign of the workload."""
    try:
        with open(reference_path(workload), encoding="utf-8") as fh:
            return json.load(fh)["runs"]
    except FileNotFoundError:
        return {}


def row_dict(row) -> dict:
    """The science fields of one ``MetricRow``, NaN as ``None``."""
    out = {}
    for name in ROW_FIELDS:
        value = getattr(row, name)
        if isinstance(value, float) and math.isnan(value):
            value = None
        out[name] = value
    return out


def compare(rows: list, reference: list) -> list[str]:
    """Differences between a workload's rows and its reference rows."""
    if len(rows) != len(reference):
        return [f"{len(rows)} campaigns, reference has {len(reference)}"]
    problems = []
    for ci, (got, want) in enumerate(zip(rows, reference)):
        if len(got) != len(want):
            problems.append(f"campaign {ci}: {len(got)} rows, reference has {len(want)}")
            continue
        for ri, (row, ref) in enumerate(zip(got, want)):
            where = f"campaign {ci} row {ri}"
            for name in EXACT_FIELDS:
                if row[name] != ref[name]:
                    problems.append(f"{where} {name}: {row[name]!r} != reference {ref[name]!r}")
            for name in NMSE_FIELDS:
                a, b = row[name], ref[name]
                if a is None or b is None or not abs(a - b) <= NMSE_TOL_DB:
                    problems.append(
                        f"{where} {name}: {a!r} differs from reference {b!r} "
                        f"by more than {NMSE_TOL_DB} dB"
                    )
    return problems


def invariants(rows: list, campaigns: list[dict]) -> list[str]:
    """Checks that hold for any seed, including seeds without a reference.

    ``campaigns`` holds, per campaign, its ``trials`` per SNR point, its
    ``max_iters`` and whether its receiver is pilot-aided (no SER).
    """
    problems = []
    for ci, (got, info) in enumerate(zip(rows, campaigns)):
        for ri, row in enumerate(got):
            where = f"campaign {ci} row {ri}"
            if row["trials"] + row["failed"] != info["trials"]:
                problems.append(f"{where}: trials + failed != {info['trials']}")
            if any(row[n] is None or not math.isfinite(row[n]) for n in NMSE_FIELDS):
                problems.append(f"{where}: non-finite NMSE")
            if row["mean_iters"] is None or not 1 <= row["mean_iters"] <= info["max_iters"]:
                problems.append(f"{where}: mean_iters {row['mean_iters']} out of range")
            if info["pilot_aided"] != (row["ser"] is None):
                problems.append(f"{where}: SER {row['ser']!r} unexpected for this receiver")
            elif row["ser"] is not None and not 0.0 <= row["ser"] <= 1.0:
                problems.append(f"{where}: SER {row['ser']} outside [0, 1]")
        first, last = got[0]["nmse_h_db"], got[-1]["nmse_h_db"]
        if len(got) > 1 and first is not None and last is not None and last >= first:
            problems.append(f"campaign {ci}: channel NMSE does not fall with SNR")
    return problems
