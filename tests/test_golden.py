"""CLI outputs compared byte for byte with the files in ``tests/golden/``.

The files pin the numbers of the extremal sweep, the first-passage raster,
the lookup table, the exact replay and the certificates for fixed
invocations.  A change that alters any of them must say why; the files are
rewritten only on purpose, by running this module as a script:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from qubit_reach.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> command line; {d} is the output directory, {g} the golden one
CASES = {
    "extremal": "extremal --psi0 1.0 --T 3 --samples 201 --out {d}/extremal.csv",
    "movie": "movie --T-max 2 --frames 2 --seeds 128 --raster 64 --overlay-spiral --out-dir {d}",
    "reachset": "reachset --T 2 --seeds 128 --raster 64 --out {d}/reachset.csv --svg {d}/reachset.svg",
    "table": "table build --seeds 256 --T-max 2 --grid 64 --out {d}/table.csv",
    "simulate": "simulate --schedule {g}/zero.csv --r0 0,0,1 --T 10 --out {d}/simulate.csv",
    "rank": "rank --grid 3 --out {d}/rank.csv",
    "spiral": "spiral --samples 64 --out {d}/spiral.csv",
    "lacuna": "lacuna --phi0 0 --alpha 0.4 --beta 1e-3",
}


def run_case(name: str, outdir: Path) -> dict[str, bytes]:
    """Files the case writes plus its stdout (as ``<name>.stdout``), by name."""
    argv = CASES[name].format(d=outdir, g=GOLDEN).split() + ["--gamma-ratio", "0.1"]
    before = set(outdir.iterdir())
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    files = {p.name: p.read_bytes() for p in set(outdir.iterdir()) - before}
    files[f"{name}.stdout"] = stdout.getvalue().replace(str(outdir), "{d}").encode()
    return files


@pytest.mark.parametrize("name", CASES)
def test_cli_output_matches_golden(name, tmp_path):
    for fname, got in run_case(name, tmp_path).items():
        assert got == (GOLDEN / fname).read_bytes(), f"{fname} differs from tests/golden"


if __name__ == "__main__":
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            for fname, data in run_case(case, Path(tmp)).items():
                (GOLDEN / fname).write_bytes(data)
                print(f"wrote {fname} ({len(data)} bytes)", file=sys.stderr)
