"""Write the extended-precision Decoupled reference that the figures checks read.

For every Decoupled row with N <= 32 of the figures workload, evaluate the
array-gain formula of the decoupled closed form,

    A = 1/4 (|a_DR^T C^{-1} a_RS| + sum_n |a_DR^T C^{-1/2} e_n| |e_n^T C^{-1/2} a_RS|)^2,

with C = sinc(2 pi d |i - j|) + gamma I, in mpmath at DIGITS significant
digits, and again at CHECK_DIGITS to show the stored digits are settled.
Inputs are taken as the exact binary values of the row's doubles, so the
reference is the exact formula at the program's own inputs.  cond(C) reaches
about 1.8e68 at N = 32, d = 0.05; DIGITS leaves a margin of more than 70 digits.

Run from the repository root:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from riscoupling.experiments import parse_config  # noqa: E402  (row geometry only)

from workloads import figure_configs  # noqa: E402

DIGITS = 140
CHECK_DIGITS = 200
MAX_N = 32
OUT = BENCH / "data" / "decoupled_reference.json"


def decoupled_gain(n: int, spacing: float, alpha_tx: float, alpha_rx: float,
                   gamma_loss: float) -> tuple[mp.mpf, mp.mpf]:
    """The closed-form array gain and cond(C), at the current mpmath precision."""
    d = mp.mpf(spacing)
    c = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            if i == j:
                c[i, j] = 1 + mp.mpf(gamma_loss)
            else:
                u = 2 * mp.pi * d * abs(i - j)
                c[i, j] = mp.sin(u) / u
    e, v = mp.eigsy(c)
    w = [e[k] for k in range(n)]
    inv_sqrt = v * mp.diag([1 / mp.sqrt(x) for x in w]) * v.T

    def steer(alpha):
        phase = 2 * mp.pi * d * mp.cos(mp.mpf(alpha))
        return mp.matrix([mp.expj(-k * phase) for k in range(n)])

    a_dr, a_rs = steer(alpha_rx), steer(alpha_tx)
    u = inv_sqrt * a_dr           # C^{-1/2} is symmetric: u_n = a_DR^T C^{-1/2} e_n
    v = inv_sqrt * a_rs
    coherent = abs(sum(u[k] * v[k] for k in range(n)))
    incoherent = sum(abs(u[k]) * abs(v[k]) for k in range(n))
    return (coherent + incoherent) ** 2 / 4, max(w) / min(w)


def reference_rows() -> list[tuple[int, float, float, float, float]]:
    rows = set()
    for path in figure_configs():
        spec = parse_config(path.read_text(encoding="utf-8"))
        if "Decoupled" not in {m.value for m in spec.methods}:
            continue
        for s in spec.scenarios():
            if s.n <= MAX_N:
                rows.add((s.n, s.spacing, s.alpha_tx, s.alpha_rx, s.gamma_loss))
    return sorted(rows)


def main() -> int:
    out = []
    worst = mp.mpf(0)
    for n, d, atx, arx, g in reference_rows():
        with mp.workdps(DIGITS):
            gain, cond = decoupled_gain(n, d, atx, arx, g)
        with mp.workdps(CHECK_DIGITS):
            check, _ = decoupled_gain(n, d, atx, arx, g)
            worst = max(worst, abs(gain - check) / check)
        out.append({"N": n, "spacing": d, "alpha_tx": atx, "alpha_rx": arx,
                    "gamma_loss": g, "gain": mp.nstr(gain, 30), "cond": mp.nstr(cond, 6)})
    doc = {
        "digits": DIGITS,
        "check_digits": CHECK_DIGITS,
        "max_relative_change_at_check_digits": mp.nstr(worst, 3),
        "rows": out,
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"{len(out)} rows -> {OUT} (digits {DIGITS}; change at {CHECK_DIGITS} digits "
          f"<= {mp.nstr(worst, 3)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
