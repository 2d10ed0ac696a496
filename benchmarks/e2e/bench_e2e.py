"""bench_e2e — one all-layers-on benchmark, four named workloads.

Driver contract (one workload, one JSON object as the last line)::

    python3 benchmarks/e2e/bench_e2e.py --workload wan_mix_open \\
        --seed 2019 --seconds 15 --trace 0

Without ``--workload`` it runs all four (``--repeats N`` times each),
prints every metric by name and writes a result file for
``compare.py``.  See README.md for ``--trace``, ``--sweep``, ``--paper``,
``--overlap`` and ``--quick``.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    here = Path(__file__).resolve().parent
    # The benchmark is the package ``e2e``; the program comes from the
    # checkout's ``src``.  The script directory goes, so ``profile.py``
    # cannot shadow the standard library's ``profile``.
    sys.path[:] = [str(here.parent), str(here.parent.parent / "src")] + [
        entry for entry in sys.path if Path(entry or ".").resolve() != here
    ]
    from e2e.harness import main

    raise SystemExit(main())
