"""Time one workload's set-up in a fresh process.

Imports the program, opens a scratch result store and compiles the
workload's plan: everything a run does before its first cell. Prints
the phase CPU times as one JSON line; the parent adds the process's
total CPU time, interpreter start-up and teardown included.

    python3 perfbench/setup_probe.py grid-short 1 <empty store dir>
"""

import json
import sys
import time
from pathlib import Path

import harness


def main(argv) -> int:
    workload, seed, store_dir = argv[0], int(argv[1]), Path(argv[2])
    t0 = time.process_time()
    program = harness.Program()
    phases = {"import_s": time.process_time() - t0}
    store, _plan = harness.setup_workload(program, workload, seed, store_dir,
                                          phases)
    store.close()
    print(json.dumps(phases))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
