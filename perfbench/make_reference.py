"""Write the reference outputs that ``output_mismatch_cells`` is counted against.

    python3 perfbench/make_reference.py

writes, from the package source in this checkout and at full size:

- ``reference/reach_occupancy.npz``: the ``reach_movie`` raster's occupancy
  at wT in {1, 2, 4, 7}, bit-packed;
- ``reference/table.csv.xz``: the ``table_roundtrip`` table as ``table.save``
  writes it.

Neither depends on the workload seed.  They were made at the commit that
added the benchmark; regenerate them only in a change whose purpose is to
alter those outputs, and say so there.
"""

from __future__ import annotations

import lzma
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run._import_package()
    import numpy as np
    import workloads

    sizes = workloads.SIZES["full"]
    params = workloads.SystemParams.from_ratio(workloads.GAMMA_RATIO)
    workloads.REFERENCE.mkdir(exist_ok=True)

    sweep = workloads.build_reach(params, sizes)
    packed = {k: np.packbits(occ) for k, occ in workloads.reach_occupancy(sweep).items()}
    np.savez_compressed(workloads.REFERENCE / "reach_occupancy.npz", **packed)

    tbl = workloads.build_lookup(params, sizes)
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        path = Path(tmp) / "table.csv"
        workloads.table_mod.save(tbl, path)
        (workloads.REFERENCE / "table.csv.xz").write_bytes(lzma.compress(path.read_bytes()))
    for path in sorted(workloads.REFERENCE.iterdir()):
        print(f"{path.name}: {path.stat().st_size} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
