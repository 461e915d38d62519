"""The benchmark's work in a fresh interpreter, run as a child process.

    python3 perfbench/child.py setup <workload> <seed> <dir> <sizes-json>
    python3 perfbench/child.py epsilon <queries-json> <out-json>

`setup` imports the program and sets the workload up in `<dir>`, as the
start of a benchmark run does; the parent times the whole child as one
set-up sample. `epsilon` reads a JSON list of [q, sigma, steps, delta]
and writes the list of `accountant.spend_for_training` epsilons. Its
interpreter has answered no accountant query before, so whatever state the
benchmarked process keeps cannot answer the gate's recomputation.
"""

import importlib
import json
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_accountant():
    """`dp_tails.accountant` from `src`, without the package `__init__`,
    which would import every other module too."""
    package = types.ModuleType("dp_tails")
    package.__path__ = [str(ROOT / "src" / "dp_tails")]
    sys.modules["dp_tails"] = package
    return importlib.import_module("dp_tails.accountant")


def main(argv):
    if argv[0] == "setup":
        import bench
        import workloads
        name, seed, workdir, sizes = argv[1:]
        workloads.make(name, json.loads(sizes) or None).setup(
            bench.import_program(ROOT), int(seed), workdir)
    elif argv[0] == "epsilon":
        src, dst = argv[1:]
        queries = json.loads(Path(src).read_text())
        spend = import_accountant().spend_for_training
        eps = [spend(q=q, sigma=sigma, steps=steps, delta=delta)[0].epsilon
               for q, sigma, steps, delta in queries]
        Path(dst).write_text(json.dumps(eps))
    else:
        raise SystemExit(f"child.py: unknown mode {argv[0]!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
