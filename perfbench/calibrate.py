"""Host-speed calibration for the benchmark's times.

On a shared 2-core VM the speed of the whole host drifts: for tens of seconds
at a time, every call (set-up, CLI, invert) runs up to 45% slower.  A fixed
piece of pure-Python work timed next to each job slows down the same way, so
each job's time is scaled to the reference speed:

    reported = measured * NOMINAL_S / median(the 5 reference samples around it)

Over 18 eight-second windows of one process, log(job time) against
log(reference time) had slope 1.03 for 12 tame inverts and 0.87 for
`invert(NILPOTENT, cap=12)` (a tuple-keyed Fraction loop gave 0.54 and 0.29).

CLI calls are scaled the same way by the median time of a bare interpreter
start (`python -c pass`) timed before each of them.  The references use no
freeinv code, so a change to the program moves the scaled times as it moves
the measured ones; run.py prints both.
"""

import subprocess
import sys
import time

# typical reference times on the 2.1 GHz Xeon VM of the baseline
NOMINAL_S = 0.02  # reference()
STARTUP_NOMINAL_S = 0.04  # startup_reference()


# 110 words of length 25 with small integer coefficients
_POLY = {tuple((k * 7 + j) % 5 for j in range(24)) + (k,): k % 7 + 1 for k in range(110)}


def reference():
    """Fixed work shaped like the program's hot loops: the product of two
    polynomials stored as dicts of tuple words, so word concatenation, tuple
    hashing and dict accumulation over a 12,000-term result.  Int letters keep
    it independent of string hash randomization."""
    out = {}
    for w1, c1 in _POLY.items():
        for w2, c2 in _POLY.items():
            w = w1 + w2
            out[w] = out.get(w, 0) + c1 * c2
    return len(out)


def startup_reference(env, cwd):
    """Seconds for a bare interpreter to start and exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=cwd, check=True)
    return time.perf_counter() - start


class Timeline:
    """Measured times interleaved with reference samples, in run order."""

    def __init__(self):
        self.events = []  # ("ref", seconds) or ("time", key, seconds)
        self.last_sample = float("-inf")

    def sample(self):
        start = time.perf_counter()
        reference()
        end = time.perf_counter()
        self.events.append(("ref", end - start))
        self.last_sample = end

    def sample_if_older(self, seconds):
        if time.perf_counter() - self.last_sample > seconds:
            self.sample()

    def record(self, key, seconds):
        self.events.append(("time", key, seconds))

    def scaled(self, window=2):
        """{key: time at the reference speed}; call after a closing sample.

        A time between reference samples j - 1 and j is scaled by the median
        of samples j - 1 - window .. j + window."""
        refs = []
        timed = []  # (key, seconds, index of the next reference sample)
        for event in self.events:
            if event[0] == "ref":
                refs.append(event[1])
            else:
                timed.append((event[1], event[2], len(refs)))
        out = {}
        for key, seconds, j in timed:
            near = sorted(refs[max(0, j - 1 - window): j + 1 + window])
            out[key] = seconds * NOMINAL_S / near[len(near) // 2]
        return out

    def factor(self):
        """Median scale factor over all reference samples."""
        refs = sorted(e[1] for e in self.events if e[0] == "ref")
        return NOMINAL_S / refs[len(refs) // 2]
