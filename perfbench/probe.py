"""Time one cold start of a workload, as every CLI run pays it.

Prints the seconds from just before ``import entgap`` to the end of the
workload's first evaluation: a one-step, one-shot ``entgap optimize`` or
``mera`` run with the workload's options, or a one-sample ``bound-check``:

    python3 perfbench/probe.py <workload> <seed> <out-dir>

``run.py`` starts this several times per run and reports the median as
``setup_s``.  Arguments are read from ``sys.argv`` directly so that neither
argparse nor numpy is loaded before the clock starts.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    name, seed, out = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    t0 = time.perf_counter()
    import entgap.cli  # noqa: F401  numpy and every entgap module, as the CLI loads them

    import workloads

    workloads.WORKLOADS[name](seed).first_evaluation(Path(out))
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
