"""Host speed, sampled with a fixed pure-Python kernel.

On a shared host the CPU time of the same simulator run swings by a
third within minutes, as other guests load the cores.  A fixed kernel,
timed between runs, slows down with it: in one measurement on a 2-core
x86-64 virtual machine, three-second blocks of simulator runs varied with a
coefficient of variation of 14%, and the same blocks divided by the
interleaved kernel's time by 3.5%.

The benchmark therefore reports times at reference host speed: measured
CPU time multiplied by ``REFERENCE_S`` over the kernel's mean CPU time.
The kernel does not touch `acool`, so a change to the program cannot
change the scale.
"""

from __future__ import annotations

from time import process_time

# Kernel CPU time on the reference host; a fixed scale, not a target.
REFERENCE_S = 0.0015


def kernel() -> int:
    """Fixed work resembling the simulator's: modular loops, dicts, sets."""
    q = 257
    table: dict = {}
    seen = set()
    acc = 0
    for x in range(1, 1500):
        v = 0
        for c in (x % 17, x % 13, x % 11, x % 7):
            v = (v * x + c) % q
        key = (v, x & 31)
        table[key] = table.get(key, 0) + 1
        if key not in seen:
            seen.add(key)
        acc += len(table) & 3
    return acc


class HostSpeed:
    """Kernel samples spread over a measurement, a fixed share of it."""

    SHARE = 0.1      # kernel CPU time per CPU second measured

    def __init__(self):
        self.kernel_s = 0.0
        self.calls = 0
        self._owed = 0.0

    def sample(self, measured_s: float = 0.0, calls: int = 0):
        """Run the kernel for ``SHARE`` of ``measured_s``, or ``calls`` times."""
        self._owed += self.SHARE * measured_s
        while calls > 0 or self._owed > 0:
            t0 = process_time()
            kernel()
            elapsed = process_time() - t0
            self.kernel_s += elapsed
            self.calls += 1
            self._owed -= elapsed
            calls -= 1

    def scale(self) -> float:
        """Factor that turns CPU seconds here into reference seconds."""
        return REFERENCE_S * self.calls / self.kernel_s
