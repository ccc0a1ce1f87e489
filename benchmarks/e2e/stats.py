"""Sample statistics and the noise-guard calibration loop."""

from __future__ import annotations

import statistics
import time
import zlib

import numpy as np

#: A percentile is reported only when at least this many samples lie
#: beyond it (so p95 needs 200 samples, p50 needs 20).
MIN_SAMPLES_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile ``q`` in (0, 1) of ``samples``.

    Raises :class:`TooFewSamples` unless at least
    :data:`MIN_SAMPLES_BEYOND` samples lie on the short side of ``q``.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    ordered = sorted(samples)
    n = len(ordered)
    beyond = int(n * min(q, 1.0 - q) + 1e-9)
    if beyond < MIN_SAMPLES_BEYOND:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples leaves {beyond} beyond it; "
            f"need {MIN_SAMPLES_BEYOND}"
        )
    rank = min(n - 1, max(0, int(np.ceil(q * n)) - 1))
    return ordered[rank]


def median(values) -> float:
    return float(statistics.median(values))


def spread(values) -> float:
    """Inter-quartile distance as a share of the median (0 for < 2
    values) — the same figure the driver computes across runs."""
    values = list(values)
    mid = median(values)
    if len(values) < 2 or mid == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(mid)


def summarize(values) -> dict:
    """Median, inter-quartile spread and sample count of per-round values."""
    values = list(values)
    return {
        "median": median(values),
        "spread": spread(values),
        "n": len(values),
        "values": values,
    }


# -- calibration ------------------------------------------------------------
#: Reading of :func:`calibrate` on the reference box at its usual speed.
#: Calibrated time = wall time x REFERENCE_MS / (the reading taken beside
#: it), so a value reads as milliseconds on that box however fast the
#: machine of the day is.
REFERENCE_MS = 33.0

_CAL = None


def _calibration_inputs():
    global _CAL
    if _CAL is None:
        rng = np.random.default_rng(0)
        varints = bytearray()
        for value in rng.integers(0, 1 << 28, size=30_000).tolist():
            while value >= 0x80:
                varints.append((value & 0x7F) | 0x80)
                value >>= 7
            varints.append(value)
        words = [
            "".join(chr(97 + c) for c in rng.integers(0, 26, size=7).tolist())
            for _ in range(4_000)
        ]
        text = " ".join(words[i] for i in rng.integers(0, 4_000, size=30_000).tolist())
        _CAL = (
            bytes(varints),
            zlib.compress(text.encode()),
            text,
            rng.normal(size=(128, 32)).astype(np.float32),
            rng.normal(size=(2_000, 32)).astype(np.float32),
        )
    return _CAL


def calibrate() -> float:
    """Milliseconds a fixed loop takes on this machine right now.

    The loop has the instruction mix of the program under test —
    pure-Python varint decoding, zlib inflation, dict and str work, small
    float32 numpy kernels — and none of its code. It is read before and
    after every timed section; the end-to-end wall metrics are reported
    in calibrated time (see :data:`REFERENCE_MS`), which is what lets two
    runs agree when the machine itself changes speed between them.
    """
    blob, packed, text, queries, vectors = _calibration_inputs()
    start = time.perf_counter()
    pos = total = 0
    n = len(blob)
    while pos < n:
        shift = value = 0
        while True:
            byte = blob[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
            shift += 7
        total += value
    for _ in range(6):
        inflated = zlib.decompress(packed)
    counts: dict[str, int] = {}
    for word in inflated.decode().split(" "):
        counts[word] = counts.get(word, 0) + 1
    hits = sum(1 for word in counts if word[:3] in text[:2_000])
    for _ in range(8):
        distances = ((vectors[None, :64, :] - queries[:, None, :]) ** 2).sum(axis=2)
        order = np.argsort(distances, axis=1)
    elapsed = time.perf_counter() - start
    if not total or hits < 0 or order.shape[0] != len(queries):
        raise RuntimeError("calibration loop computed nonsense")
    return elapsed * 1000.0


class Pacer:
    """Keeps a calibration reading close to every timed operation.

    An operation calls :meth:`start` and remembers the *slot* it returns:
    the operation ran between readings ``slot - 1`` and ``slot``, and
    :meth:`speed` of that slot turns its wall time into calibrated time.
    ``start`` takes a fresh reading whenever the last one is older than
    ``every_s``, so untimed gaps (input planning, answer checking) never
    sit between an operation and its reading; :meth:`lap` closes the
    last slot of a round. While ``hold`` is set (other threads are
    running operations) no reading is taken — the loop would only
    measure its fight for the interpreter lock.
    """

    def __init__(self, every_s: float = 0.4) -> None:
        self.every_s = every_s
        self.hold = False
        self.readings: list[float] = []
        self.lap()

    def lap(self) -> int:
        """Take a reading now; returns the slot that starts after it."""
        self.readings.append(calibrate())
        self._read_at = time.perf_counter()
        return len(self.readings)

    def start(self) -> int:
        if not self.hold and time.perf_counter() - self._read_at > self.every_s:
            self.lap()
        return len(self.readings)

    def speed(self, slot: int) -> float:
        """Wall time x this = calibrated time, for an operation of a
        closed ``slot``."""
        return REFERENCE_MS / ((self.readings[slot - 1] + self.readings[slot]) / 2.0)
