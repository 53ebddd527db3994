"""Run commands one after another; report each one's time, peak RSS and exit code.

    python3 perfbench/launch.py < SPEC_JSON

SPEC_JSON is ``{"env": {...}, "commands": [{"argv": [...], "out": PATH,
"err": PATH}, ...]}``.  The result, ``{"wall_s": ..., "reference_s": [...],
"commands": [{"seconds": ..., "peak_rss_mb": ..., "returncode": ...}, ...]}``,
goes to standard output.

``reference_s`` holds one timing of ``reference()`` before each command and
one after the last, so entries i and i + 1 bracket command i.  The host
this runs on is shared, and its speed drifts by tens of percent over
seconds to minutes; the benchmark divides the time of each compute-bound
command by the reference time around it to take that drift out.  run.py pins itself to
one CPU, and with it the launcher and the commands, so the reference runs
where the command does.  On a 2-core Xeon VM, over 15 runs each, the times
of ``verify --q-range 4..1024``, ``psi2 --q 19 --method both`` and
``graph --q 256 --plus`` (2-5 s each) correlated 0.84-0.92 with the mean
of the two reference timings around them; but host speed decorrelates
within about 4 s, so the edges of a much longer command say little about
its middle.

The commands are spawned from this small interpreter rather than from
run.py because Linux starts a child's peak-RSS count (ru_maxrss) at the
peak of the process that spawned it: spawned from the harness, every
command would report at least the harness's own peak.  Keep the imports
here few for the same reason.
"""

import json
import os
import sys
import time


REFERENCE_ITERATIONS = 600_000  # about 0.16 s on a 2-core Xeon VM, Python 3.11


def reference() -> float:
    """Seconds for a fixed loop of dict and integer work, like the package's own."""
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        k = (i * 7919) % 10007
        table[k] = table.get(k, 0) + i
        acc ^= (k * k) % 65537
    return time.perf_counter() - start


def main() -> int:
    spec = json.load(sys.stdin)
    results = []
    reference_s = [reference()]
    start = time.perf_counter()
    for cmd in spec["commands"]:
        with open(cmd["out"], "wb") as out, open(cmd["err"], "wb") as err:
            began = time.perf_counter()
            pid = os.posix_spawn(cmd["argv"][0], cmd["argv"], spec["env"], file_actions=[
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
            ])
            _, status, usage = os.wait4(pid, 0)
            seconds = time.perf_counter() - began
        results.append({"seconds": seconds, "peak_rss_mb": usage.ru_maxrss / 1024,
                        "returncode": os.waitstatus_to_exitcode(status)})
        reference_s.append(reference())
    json.dump({"wall_s": time.perf_counter() - start - sum(reference_s[1:]),
               "reference_s": reference_s, "commands": results}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
