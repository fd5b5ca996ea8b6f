"""The store benchmark: seeded workloads driven through ``repro.hdc.store``.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` builds one workload from the seed, drives it through the
store's public entry points, checks every answer against direct
:class:`~repro.hdc.store.AssociativeStore` calls, and prints the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) as the last line of standard output.

Modules:

- :mod:`.workloads` — the workload definitions, their generators and the
  reason each one exists;
- :mod:`.stats` — percentile rule, latency/failure summaries;
- :mod:`.tracing` — in-memory spans, self time, and the wrappers that time
  calls into each store layer;
- :mod:`.host` — the child process that holds the store;
- :mod:`.verify` — the correctness gate;
- :mod:`.run` — the command.

``BENCHMARK.json`` at the root of the repository is the one list of the
workloads and metrics (names, units, directions, bounds); :data:`SPEC`
holds it.
"""

import json
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
