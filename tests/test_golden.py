"""Golden digests of the sample sweeps' CSV outputs.

Each ``configs/*.conf`` runs at seeds 0 and 3, and the sha256 of its
sweep and regressions CSVs must equal the one committed in
``golden_digests.json``.  A change that means to move a number
regenerates the file with ``PYTHONPATH=src python tests/test_golden.py``
and says in CHANGES.md which numbers moved and why.
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

import numpy as np

from ccnscale.cli import run_sweep

_ROOT = Path(__file__).resolve().parents[1]
_GOLDEN = Path(__file__).resolve().parent / "golden_digests.json"
_SEEDS = (0, 3)


def _environment() -> dict[str, str]:
    return {
        "numpy": np.__version__,
        "platform": f"{platform.system()}-{platform.machine()}",
    }


def _digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every sample CSV, keyed ``seed<s>/<file name>`` in run order."""
    out = {}
    for seed in _SEEDS:
        for conf in sorted((_ROOT / "configs").glob("*.conf")):
            res = run_sweep(str(conf), out_dir=str(out_dir / f"seed{seed}"), seed=seed)
            for path in (res.csv_path, res.regression_csv_path):
                key = f"seed{seed}/{Path(path).name}"
                out[key] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return out


def test_sample_csvs_match_golden_digests(tmp_path):
    golden = json.loads(_GOLDEN.read_text(encoding="utf-8"))
    got = _digests(tmp_path)
    assert list(got) == list(golden["digests"]), "the set of sample CSVs changed"
    differ = [key for key, digest in got.items() if digest != golden["digests"][key]]
    if differ:
        env = _environment()
        moved = [
            f"{name} {golden[name]} -> {env[name]}"
            for name in env
            if env[name] != golden[name]
        ]
        note = f"; environment changed: {', '.join(moved)}" if moved else ""
        raise AssertionError(
            f"{differ[0]} differs from its golden digest "
            f"({len(differ)} of {len(got)} files differ){note}"
        )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {**_environment(), "digests": _digests(Path(tmp))}
    _GOLDEN.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
