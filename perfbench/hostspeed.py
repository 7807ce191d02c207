"""A fixed reference workload that measures how fast the host runs right now.

Other tenants share this host's cores, caches and memory. Their load slows
every process in the VM, and it moves on a scale of seconds to minutes: the
same op, timed back to back, reads 0.4 s in one stretch and 1.0 s in the
next, and the wall-clock throughput of two 25-second runs of unchanged code
differs by a fifth in the median. A 25-second window cannot average that
away.

So the benchmark times this reference right after every op. It is the
benchmark's own code, never the program's, so no change to the program moves
it: the reference takes longer only because the host ran slower. The ratio
of its nominal time to its measured time over a run is the host's speed
factor, and the gated times are wall times scaled by that factor, in seconds
of a host at nominal speed.

The mix follows the program's, because load on the host slows each kind of
work by its own amount: interpreted loops over ints, dicts and lists with
float and int formatting into one large string; numpy bit packing and index
extraction over a Bernoulli mask; and building, then reading in random
order, a dict of a hundred thousand tuples, whose many megabytes of small
objects load the caches the way the program's vertex lists do.

The reference runs in a helper process of its own (`Reference`), so its
memory never counts towards the benchmark's peak RSS. The benchmark waits
for each reply, so the two never run at once.

    python3 perfbench/hostspeed.py

serves one timed reference per line read from stdin, as that line's reply.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time

import numpy as np

# Time of one reference() call on an unloaded 2-vCPU Xeon KVM guest
# (Python 3.11, numpy 2.4). Only a scale: it sets the units of the gated
# metrics, not their spread.
NOMINAL_S = 0.100

OBJECTS = 100_000
_MASK = np.random.default_rng(20221214).random((256, 512)) < 0.5
_ORDER = random.Random(20221214).sample(range(OBJECTS), OBJECTS)


def reference() -> int:
    """One unit of fixed work; returns a value so none of it is skipped."""
    slots: dict[int, int] = {}
    parts = []
    for i in range(30000):
        slots[i & 1023] = i
        parts.append(f"{i},{i * 0.25!r}")
    text = ",".join(parts)
    packed = np.packbits(_MASK, axis=1)
    bits = np.unpackbits(packed, axis=1)
    ys, xs = np.nonzero(bits[:-1] != bits[1:])
    table = {i: (i, i + 1) for i in range(OBJECTS)}
    total = 0
    for key in _ORDER:
        total += table[key][1]
    return len(text) + len(xs.tolist()) + len(ys.tolist()) + len(slots) + total


def speed(reference_times: list[float]) -> float:
    """The host's speed factor over a stretch of reference timings: nominal
    over mean time, below 1 while other tenants slow the host."""
    return NOMINAL_S * len(reference_times) / sum(reference_times)


class Reference:
    """The reference in its helper process. Use as a context manager: the
    process is stopped and waited for on every way out."""

    def __enter__(self) -> Reference:
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.__exit__()
            raise RuntimeError("the host-speed reference process did not start")
        return self

    def time(self) -> float:
        """Wall time of one reference() call, timed in the helper."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def serve() -> None:
    reference()  # warm-up
    print("ready", flush=True)
    for _ in sys.stdin:
        t0 = time.perf_counter()
        reference()
        print(time.perf_counter() - t0, flush=True)


if __name__ == "__main__":
    serve()
