#!/usr/bin/env python3
"""Envelope and temporal fine structure, and what correlates across conditions.

Shows the analytic-signal decomposition on an amplitude-modulated tone, then
generates a paired overt/covert subject and measures how well the per-class
envelope correlation tracks the requested coupling.
"""

import numpy as np

from covert_decode import hilbert_parts
from covert_decode.synth import (
    SynthSpec,
    generate_paired,
    measure_cross_condition_envelope_correlation,
)


def main():
    # an AM tone: envelope should recover the modulation exactly
    n = 1000
    idx = np.arange(n)
    modulation = 1.0 + 0.5 * np.cos(2 * np.pi * idx / n)
    x = modulation * np.cos(2 * np.pi * 50 * idx / n)
    imag, env, tfs = hilbert_parts(x)
    print("amplitude-modulated tone:")
    print(f"  max |imag - quadrature|     : "
          f"{np.abs(imag - modulation * np.sin(2 * np.pi * 50 * idx / n)).max():.2e}")
    print(f"  max |envelope - modulation| : {np.abs(env - modulation).max():.2e}")
    print(f"  fine structure range        : [{tfs.min():.3f}, {tfs.max():.3f}]")
    mask = env > 1e-9
    print(f"  max |env*tfs - signal|      : {np.abs((env * tfs)[mask] - x[mask]).max():.2e}")

    # paired subject: the envelope correlation knob
    print("\ncross-condition envelope correlation (5 classes, 16 channels):")
    for rho in (0.3, 0.6, 0.9):
        spec = SynthSpec(n_channels=16, trials_per_class=30,
                         cross_condition_rho=rho, seed=4)
        overt, covert, _ = generate_paired(spec)
        rs = measure_cross_condition_envelope_correlation(overt, covert)
        measured = ", ".join(f"{r:.2f}" for r in rs.values())
        print(f"  requested rho={rho:.1f} -> per-class measured [{measured}]")


if __name__ == "__main__":
    main()
