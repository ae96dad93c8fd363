"""Fresh-interpreter measurements, started by measure.py with one JSON
argument and answering with one JSON line on stdout.

{"mode": "setup", "kind": ..., "config": ..., "out_dir": ..., "src": ...}
    times importing vuprop and the workload's set-up (workloads.setup).
{"mode": "rss", "commands": [...], "src": ...}
    runs the command sequence once through vuprop.cli.main and reports the
    process's peak resident memory.
"""

import time

T0 = time.perf_counter()  # before numpy, yaml or vuprop are imported

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    if spec["mode"] == "setup":
        import workloads

        workloads.setup(spec["kind"], Path(spec["config"]), Path(spec["out_dir"]))
        print(json.dumps({"setup_s": time.perf_counter() - T0}))
        return 0
    from vuprop import cli

    codes = [cli.main(argv) for argv in spec["commands"]]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"codes": codes, "peak_rss_mb": peak_kib * 1024 / 1e6}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
