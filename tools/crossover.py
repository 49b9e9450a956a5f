"""Measure where survey.count_stats' two counting paths cross.

For each M and top scale generator hi it counts the window of the last WINDOW
generators up to hi both ways, in-process, best of three: survey._class_stats,
whose cost grows with M*hi whatever the window, and the divisor stream
(survey._sides into survey._tally), whose cost grows with the window's length.
It checks that the two agree and prints one JSON object per line with the class
cost per unit of M*hi, the stream cost per Q and their quotient, the ratio
M*hi / len(Q set) below which the class walk is the faster one.

    PYTHONPATH=src python3 tools/crossover.py
"""

import json
import time

from maksarum.survey import _class_stats, _sides, _tally

WINDOW = 50
MS = (1, 2, 3, 5, 7, 12, 60, 97, 360, 1009, 3600)
HIS = (200, 1500, 6000, 24000, 96000)
MAX_TOP = 10**6  # M*hi; the class walk takes about 2 s there


def best_of_three(count):
    best = None
    for _ in range(3):
        start = time.perf_counter()
        result = count()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def main():
    for m in MS:
        for hi in HIS:
            if m * hi > MAX_TOP:
                continue
            lo = hi - WINDOW + 1
            by_class, class_s = best_of_three(lambda: _class_stats(lo, hi, m))
            by_stream, stream_s = best_of_three(
                lambda: _tally((a, b) for _, _, _, a, b, _ in _sides(range(lo, hi + 1), m)))
            if by_class != by_stream:
                raise SystemExit(f"M={m} Q={lo}:{hi}: {by_class} != {by_stream}")
            class_us = class_s / (m * hi) * 1e6
            stream_us = stream_s / WINDOW * 1e6
            print(json.dumps({
                "M": m, "hi": hi,
                "class_s": round(class_s, 5),
                "class_us_per_M_hi": round(class_us, 3),
                "stream_us_per_Q": round(stream_us, 1),
                "crossover": round(stream_us / class_us, 1),
            }), flush=True)


if __name__ == "__main__":
    main()
