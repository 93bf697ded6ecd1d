"""The benchmark's closed-loop client: one thread, one command at a time.

    python3 client.py PLAN.json RESULT.json

PLAN.json holds ``src`` (the directory to import stoplab from), ``seconds``
and ``commands``, a list of ``[kind, argv]``.  The client imports stoplab
and loads the bundled stoplists before timing starts, then runs the
command list through ``stoplab.cli.main`` in this process, back to back and
in order, over and over until ``seconds`` have elapsed, stopping after a
command (always at least one whole pass).  Between two commands, and for
a while before the first and after the last, it runs the speed probe, so
that every command is timed in seconds and, scaled by the probes near it,
in reference seconds (see ``Speedometer``).  RESULT.json holds every
command's samples ``[seconds, reference seconds, exit code]``, the number
of whole passes, the probe times, the standard output of the last run of
the final command (``compare``) and the process's peak resident set size.
"""

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback

# The probe_s() time at full speed on the reference machine (2 vCPUs of a
# 2.1 GHz Xeon, Python 3.11); times scaled to it read as its seconds.
PROBE_REFERENCE_S = 0.0023
# Probes this close to a timed interval, before or after, set its scale.
PROBE_WINDOW_S = 2.0
# Probing between two commands lasts at least this long, and probing
# before the first and after the last at least EDGE_PROBE_S.
GAP_PROBE_S = 0.01
EDGE_PROBE_S = 0.5


def probe_s() -> float:
    """One run of a fixed interpreter workload, in seconds: arithmetic,
    string building and dict inserts, as stoplab's own code is pure Python
    over strings and dicts.  It allocates one container, so a large heap
    of the program's does not slow it down by way of the garbage
    collector."""
    t0 = time.perf_counter()
    table = {}
    total = 0
    for i in range(12000):
        total += (i * i) % 7
        table[str(i)] = total
    return time.perf_counter() - t0


def pin_to_one_cpu() -> None:
    """Keep this process, and the threads and processes it starts, on one
    CPU.  stoplab's worker threads hold the interpreter lock by turns, so
    on a shared machine a second CPU adds lock hand-offs whose cost follows
    the other CPU's load rather than the program."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Speedometer:
    """Probe times with the moments they were taken, and the reference
    seconds of a timed interval from the probes near it.

    A shared machine's CPU speed drifts: it flips between states about
    twice apart several times a second, and the share of slow time shifts
    over minutes.  The probes drift with it and the program does not
    change them, so a time scaled by the mean probe time around it
    follows the program, not the machine."""

    def __init__(self):
        self.probes: list = []  # (moment, probe seconds)

    def probe(self, seconds: float) -> None:
        """Probe back to back for at least ``seconds``, at least once."""
        end = time.perf_counter() + seconds
        while True:
            moment = time.perf_counter()
            self.probes.append((moment, probe_s()))
            if moment >= end:
                return

    def reference_s(self, start: float, elapsed: float) -> float:
        """``elapsed`` seconds from moment ``start``, scaled to the
        reference machine's full speed."""
        lo, hi = start - PROBE_WINDOW_S, start + elapsed + PROBE_WINDOW_S
        near = [p for moment, p in self.probes if lo <= moment <= hi]
        return elapsed * PROBE_REFERENCE_S * len(near) / sum(near)


def peak_rss_kib() -> int:
    """This process's own peak resident set size, in KiB.

    On Linux a child's ru_maxrss keeps the parent's peak from before exec,
    so it is read from /proc where that exists."""
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as f:
        plan = json.load(f)
    pin_to_one_cpu()
    sys.path.insert(0, plan["src"])
    from stoplab import cli, stoplists

    for code in ("GS", "CBS", "CS"):
        stoplists.bundled(code)

    commands = plan["commands"]
    timed = [[] for _ in commands]  # [start, seconds, rc] per repetition
    errors = []
    meter = Speedometer()
    last_output = ""
    ran = 0
    gc.collect()
    meter.probe(EDGE_PROBE_S)
    started = time.perf_counter()
    while ran < len(commands) or time.perf_counter() - started < plan["seconds"]:
        position = ran % len(commands)
        kind, argv = commands[position]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except Exception:  # a crash is a failed command, not a failed run
                rc = -1
                traceback.print_exc(file=err)
        elapsed = time.perf_counter() - t0
        timed[position].append([t0, elapsed, rc])
        gc.collect()  # each command starts from the same heap
        meter.probe(GAP_PROBE_S)
        if rc != 0:
            errors.append("%s %s: rc=%d %s" % (kind, argv[-1], rc, err.getvalue()))
        if position == len(commands) - 1:
            last_output = out.getvalue()
        ran += 1
    meter.probe(EDGE_PROBE_S)

    result = {
        "samples": [[[elapsed, meter.reference_s(t0, elapsed), rc]
                     for t0, elapsed, rc in runs] for runs in timed],
        "passes": ran // len(commands),
        "probes": [p for _, p in meter.probes],
        "errors": errors[:20],
        "last_output": last_output,
        "peak_rss_kib": peak_rss_kib(),
    }
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
